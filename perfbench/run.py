#!/usr/bin/env python3
"""Settling-time/accuracy benchmark of the Fast-Coreset system.

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the harness and fc_serve from source
(perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), runs one
workload and prints, as the last stdout line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The line
before it gives attempted/failed per operation kind. Spans of a traced run,
and the full harness result of every run, go to <build dir>/traces/. See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
THREADS = 1        # pool threads of the harness and of the daemon
CACHE_CAPACITY = 48  # must match kCacheCapacity in src/perfbench.h
DEADLINE_S = 170   # a run that is not done by then is killed


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(step))
            sys.exit(1)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "fastcoreset", "tools", "fc_serve"))


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the daemon")


def run_workload(args, harness, daemon_bin):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")
    client = subprocess.Popen(
        [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-out", trace_out],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, FC_THREADS=str(THREADS)))
    daemon = None
    timer = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in (client, daemon) if p])
    timer.start()
    try:
        if client.stdout.readline().strip() != "need-daemon":
            raise RuntimeError("harness ended before the serve phase")
        spawn = time.monotonic()
        daemon = subprocess.Popen(
            [daemon_bin, "--listen", "0", "--cache-capacity", str(CACHE_CAPACITY)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, FC_THREADS=str(THREADS)))
        announce = daemon.stdout.readline()
        if "listening on" not in announce:
            raise RuntimeError("daemon did not announce its port")
        port = int(announce.rsplit(":", 1)[1])
        client.stdin.write(f"{port} {spawn!r}\n")
        client.stdin.flush()
        lines = client.stdout.read().splitlines()
        if client.wait() != 0 or not lines:
            raise RuntimeError(f"harness exited with {client.returncode}")
        result = json.loads(lines[-1])
        # Everything the harness measured, both metric sets included: the
        # tracing overhead is a traced run's end-to-end figures against an
        # untraced run's.
        with open(trace_out[:-len(".json")] + f"-trace{args.trace}.result.json", "w") as out:
            out.write(lines[-1] + "\n")
        result["daemon_peak_rss_mb"] = peak_rss_mb(daemon.pid)
        daemon.send_signal(signal.SIGTERM)
        if daemon.wait(timeout=60) != 0:
            raise RuntimeError(f"daemon exited with {daemon.returncode}")
        return result
    finally:
        timer.cancel()
        for proc in (client, daemon):
            if proc is not None and proc.poll() is None:
                proc.kill()
            if proc is not None:
                proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    harness, daemon_bin = build()
    if args.selftest:
        sys.exit(subprocess.run([harness, "selftest"], cwd=ROOT).returncode)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        result = run_workload(args, harness, daemon_bin)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        log("perfbench:", error)
        sys.exit(1)

    # hit_p99_ms and register_p50_ms are measured in every run but declared
    # per-layer (no bound: too unsteady on a shared host, README).
    metrics = ({**result["end_to_end"], **result["per_layer"]} if args.trace
               else dict(result["end_to_end"]))
    if not args.trace and args.workload != "figure1":
        # Memory of the served workloads is the daemon's; figure1's is the
        # harness's own (it holds the data and runs the builds).
        metrics["peak_rss_mb"] = {"value": result["daemon_peak_rss_mb"], "unit": "MB"}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        log("perfbench: metrics not produced:", ", ".join(missing))
        sys.exit(1)
    metrics = {m["name"]: metrics[m["name"]] for m in declared}
    for error in result["errors"]:
        log("perfbench: check failed:", error)

    ops = result["ops"]
    print("ops " + json.dumps(ops, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": sum(o["attempted"] for o in ops.values()),
        "failed": sum(o["failed"] for o in ops.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
