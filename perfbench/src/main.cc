// perfbench: one run of one workload, or the self-test of the checks.
//
//   perfbench run --workload W --seed N --seconds S [--trace 0|1]
//                 [--trace-out PATH]
//   perfbench selftest
//
// `run` is driven by perfbench/run.py, which owns the daemon: when the
// in-process phase is done the harness prints "need-daemon" and reads
// "<port> <spawn time>" from stdin. The last stdout line is the run's
// result as one JSON object; run.py turns it into the benchmark's output.
// The library's pool size comes from FC_THREADS, which run.py sets.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/common/parallel.h"

namespace perfbench {
namespace {

namespace fc = fastcoreset;

// Window sizes: fixed amounts of work per second of --seconds, so that both
// sides of a comparison run the same operations whatever their speed.
constexpr double kFigure1RoundsPerSecond = 1.0;
constexpr double kHitRoundsPerSecond = 250.0;
constexpr double kMixedRoundsPerSecond = 25.0;
constexpr size_t kFigure1Rows = 100000;
constexpr size_t kFigure1Dims = 50;
/// Serving datasets whose four builds run in each pause of a serve
/// workload's window: 24 pauses x 2 = rounds 1 to 6 of all 8 datasets.
constexpr size_t kPauseBuildDatasets = 2;
/// figure1's served side phase: enough hits for a p99 with 10+ beyond it.
constexpr size_t kFigure1HotRounds = 600;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char value[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + value + ",\"unit\":\"" + metric.unit + "\"}";
  }
  return out + "}";
}

void PrintResult(const RunResult& result) {
  std::string out = std::string("{\"correct\":") +
                    (result.errors.empty() ? "true" : "false") + ",\"errors\":[";
  for (size_t i = 0; i < result.errors.size() && i < 20; ++i) {
    out += (i ? ",\"" : "\"") + Escape(result.errors[i]) + "\"";
  }
  out += "],\"ops\":{";
  bool first = true;
  for (const auto& [kind, count] : result.ops) {
    out += (first ? "\"" : ",\"") + kind + "\":{\"attempted\":" +
           std::to_string(count.attempted) + ",\"failed\":" +
           std::to_string(count.failed) + "}";
    first = false;
  }
  out += "},\"end_to_end\":" + MetricsJson(result.end_to_end) +
         ",\"per_layer\":" + MetricsJson(result.per_layer) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Records the in-process builds: per-shape medians, failures, and the
/// output checks on every round-0 coreset.
void ReportPipeline(const Pipeline& pipeline, uint64_t seed, RunResult* result) {
  const std::vector<const Mixture*>& datasets = pipeline.datasets();
  const size_t m = pipeline.m();
  OpCount& builds = result->ops["inproc.build"];
  for (const BuildSpec& shape : kSpecs) {
    std::vector<double> ok;
    for (double s : pipeline.seconds().at(shape.name)) {
      ++builds.attempted;
      if (s < 0) {
        ++builds.failed;
      } else {
        ok.push_back(s);
      }
    }
    // figure1's 10 large builds per shape: their median. A serve
    // workload's 56 small ones: their 10th percentile, because there a
    // build lasts ~3-20 ms and the median of a run's builds jumped between
    // the two speed levels of a shared host (README).
    result->end_to_end[std::string(shape.name) + "_s"] = {
        m == 0 ? Median(ok) : Quantile(ok, 0.10), "s"};
  }

  // Output checks on the round-0 coresets, distortion on probe solutions.
  // Distortion is bounded only from m >= 16k: at the served k=200 shape
  // (m/k = 4) a sensitivity coreset of a 4000-row dataset missed a
  // 12-row far cluster (distortion 70.8, seed 703).
  double distortion_sum = 0.0;
  size_t checked = 0;
  for (size_t ds = 0; ds < datasets.size(); ++ds) {
    const Probes probes50 = MakeProbes(*datasets[ds], 50, Mix(seed, 300 + ds));
    const Probes probes200 = MakeProbes(*datasets[ds], 200, Mix(seed, 400 + ds));
    for (size_t s = 0; s < 4; ++s) {
      const Coreset& coreset = pipeline.reference()[ds * 4 + s];
      if (coreset.size() == 0) continue;  // its build failed and is counted
      const size_t k = kSpecs[s].k;
      const size_t coreset_m = m == 0 ? 40 * k : m;
      std::string error;
      if (coreset_m >= 16 * k) {
        double distortion = 0.0;
        error = CheckCoreset(coreset, *datasets[ds], coreset_m, k == 50 ? probes50 : probes200,
                             DistortionBound(coreset_m, k), &distortion);
        distortion_sum += distortion;
        ++checked;
      } else {
        error = CheckRowsAreInputRows(coreset, datasets[ds]->points);
        if (error.empty()) error = CheckWeights(coreset, datasets[ds]->points.rows(), coreset_m);
      }
      if (!error.empty()) {
        result->Check("ds" + std::to_string(ds) + "/" + kSpecs[s].name + ": " + error);
      }
    }
  }
  result->end_to_end["distortion"] = {distortion_sum / static_cast<double>(checked),
                                      "ratio"};

  // The same builds at another thread count must be bit-identical.
  const size_t threads = fc::GetNumThreads();
  const size_t other = threads == 1 ? 2 : 1;
  fc::SetNumThreads(other);
  for (size_t s = 0; s < 4; ++s) {
    auto again = fc::api::Build(MakeSpec(kSpecs[s], m, SpecSeed(seed, 0, s)),
                                datasets[0]->points);
    if (!again.ok() || pipeline.reference()[s].size() == 0) continue;
    result->Check(CheckIdentical(pipeline.reference()[s], again->coreset,
                                 std::to_string(other) + "-thread " + kSpecs[s].name));
  }
  fc::SetNumThreads(threads);
}

int Run(const Args& args) {
  if (args.trace) Trace::Enable();
  const bool figure1 = args.workload == "figure1";
  const bool mixed = args.workload == "serve_mixed";
  if (!figure1 && !mixed && args.workload != "serve_hits") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunResult result;
  ServePlan plan;
  plan.mixed = mixed;
  plan.hot_rounds = figure1 ? kFigure1HotRounds
                            : static_cast<size_t>(args.seconds * (mixed ? kMixedRoundsPerSecond
                                                                        : kHitRoundsPerSecond));
  const ServeInputs serve =
      MakeServeInputs(args.seed, mixed ? plan.hot_rounds / 4 + 1 : kSegments);
  std::vector<const Mixture*> serve_ptrs;
  for (const Mixture& mixture : serve.datasets) serve_ptrs.push_back(&mixture);

  // The served hot keys' references: round 0 of the four builds on the
  // serving datasets, made here before the daemon starts.
  Pipeline references(serve_ptrs, kServeM, args.seed);
  references.Round(0, 0, serve_ptrs.size());
  for (size_t i = 0; i < serve_ptrs.size() * 4; ++i) {
    const size_t s = i % 4;
    const std::string where = "ds" + std::to_string(i / 4) + "/" + kSpecs[s].name;
    const std::string error = CheckRowsAreInputRows(references.reference()[i], serve_ptrs[i / 4]->points);
    if (!error.empty()) result.Check(where + ": " + error);
  }

  // figure1 times the paper's builds on one large dataset, in a block
  // before the daemon starts. A serve workload times the same four shapes
  // at the served size, on the serving datasets: more rounds in each pause
  // of its window, so that the samples span the whole run. (On a shared
  // host the speed of one core switched between two levels, 1.7x apart,
  // every few seconds; a block of builds can fall into one level.)
  std::optional<Mixture> big;
  std::optional<Pipeline> big_pipeline;
  std::function<void(size_t)> pause_builds;
  if (figure1) {
    big = MakeMixture(Mix(args.seed, 1), kFigure1Rows, kFigure1Dims);
    big_pipeline.emplace(std::vector<const Mixture*>{&*big}, 0, args.seed);  // m = 0: 40k
    const double first_build = big_pipeline->FirstBuild();
    result.ops["inproc.first_build"] = {1, first_build < 0 ? size_t{1} : size_t{0}};
    result.end_to_end["setup_s"] = {first_build, "s"};
    const size_t rounds =
        std::max<size_t>(2, static_cast<size_t>(args.seconds * kFigure1RoundsPerSecond));
    for (size_t r = 0; r < rounds; ++r) big_pipeline->Round(r, 0, 1);
  } else {
    pause_builds = [&references](size_t segment) {
      const size_t per_round = kServeDatasets / kPauseBuildDatasets;
      const size_t begin = segment % per_round * kPauseBuildDatasets;
      references.Round(1 + segment / per_round, begin, begin + kPauseBuildDatasets);
    };
  }
  const Pipeline& pipeline = figure1 ? *big_pipeline : references;

  // Hand over to run.py for the daemon.
  std::printf("need-daemon\n");
  std::fflush(stdout);
  ServeContext context;
  context.seed = args.seed;
  context.trace = args.trace;
  if (!(std::cin >> context.port >> context.daemon_spawn_time)) {
    std::fprintf(stderr, "perfbench: no daemon port on stdin\n");
    return 2;
  }
  try {
    const double serve_setup =
        RunServe(context, plan, serve, references.reference(), pause_builds, &result);
    if (!figure1) result.end_to_end["setup_s"] = {serve_setup, "s"};
    if (args.trace) RunLayerProbes(pipeline, serve, context, &result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  ReportPipeline(pipeline, args.seed, &result);
  if (figure1) result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (args.trace && !args.trace_out.empty()) Trace::WriteJson(args.trace_out);
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
    return perfbench::RunSelfTest();
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
    std::fprintf(stderr, "usage: perfbench run --workload W --seed N --seconds S "
                         "[--trace 0|1] [--trace-out PATH] | selftest\n");
    return 2;
  }
  perfbench::Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return perfbench::Run(args);
}
