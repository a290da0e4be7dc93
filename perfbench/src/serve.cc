// The served half of a run: a closed-loop client over loopback TCP
// against `fc_serve --listen`. Each connection sends its next request only
// after the previous response arrived. Request lines are formatted before
// the window opens, so the client's own cost per request is a pointer hand
// off, a write, a read and a few substring searches.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "src/service/fingerprint.h"

namespace perfbench {

namespace fc = fastcoreset;

namespace {

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Send(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<size_t>(n);
    }
  }

  std::string Receive() {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by server");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string Call(const std::string& line) {
    Send(line);
    return Receive();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

std::string StringField(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

enum class Kind { kHit, kCold, kColdSharded, kRegister };
const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHit: return "serve.build_hit";
    case Kind::kCold: return "serve.build_cold";
    case Kind::kColdSharded: return "serve.build_cold_sharded";
    case Kind::kRegister: return "serve.register";
  }
  return "";
}

struct Op {
  Kind kind;
  std::string line;
  std::string key;          ///< cache key as the client names it
  size_t dataset = 0;       ///< dataset the build reads, or the extra
                            ///< dataset a registration sends
  uint64_t seed = 0;
  size_t shape = 0;         ///< index into kSpecs (builds)
};

struct Outcome {
  bool ok = false;
  std::string cache;
  std::string fingerprint;
  std::string dataset_fingerprint;  ///< register responses
  double total_weight = 0.0;
  double rows = 0.0;
  double latency = 0.0;
};

std::string BuildLine(size_t dataset, const char* method, size_t k,
                      uint64_t seed, size_t shards) {
  return std::string("{\"verb\":\"build\",\"dataset\":\"ds") +
         std::to_string(dataset) + "\",\"method\":\"" + method +
         "\",\"k\":" + std::to_string(k) + ",\"m\":" + std::to_string(kServeM) +
         ",\"seed\":" + std::to_string(seed) + ",\"shards\":" +
         std::to_string(shards) + "}";
}

Op HotOp(uint64_t seed, size_t ds, size_t s) {
  const uint64_t spec_seed = SpecSeed(seed, ds, s);
  return {Kind::kHit, BuildLine(ds, kSpecs[s].method, kSpecs[s].k, spec_seed, 1),
          "ds" + std::to_string(ds) + "/" + kSpecs[s].name + "/" +
              std::to_string(spec_seed) + "/1",
          ds, spec_seed, s};
}

/// A fast_k50 build under a seed no other request uses: always a miss.
Op ColdOp(uint64_t seed, uint64_t tag, size_t ds, size_t shards) {
  const uint64_t spec_seed = Mix(seed, tag) % 1000000007ull;
  return {shards == 1 ? Kind::kCold : Kind::kColdSharded,
          BuildLine(ds, "fast_coreset", 50, spec_seed, shards),
          "ds" + std::to_string(ds) + "/fast_k50/" + std::to_string(spec_seed) +
              "/" + std::to_string(shards),
          ds, spec_seed, 0};
}

Outcome Parse(const std::string& response, double latency) {
  Outcome out;
  out.ok = IsOk(response);
  out.cache = StringField(response, "cache");
  out.fingerprint = StringField(response, "coreset_fingerprint");
  out.dataset_fingerprint = StringField(response, "fingerprint");
  out.total_weight = NumberField(response, "total_weight");
  out.rows = NumberField(response, "rows");
  out.latency = latency;
  return out;
}

}  // namespace

std::vector<std::string> CallInSequence(int port,
                                        const std::vector<std::string>& lines,
                                        std::vector<double>* latencies) {
  Connection connection(port);
  std::vector<std::string> responses;
  for (const std::string& line : lines) {
    const double start = Now();
    responses.push_back(connection.Call(line));
    latencies->push_back(Now() - start);
  }
  return responses;
}

CacheStats ParseStats(const std::string& response) {
  CacheStats stats;
  stats.hits = static_cast<uint64_t>(NumberField(response, "hits"));
  stats.misses = static_cast<uint64_t>(NumberField(response, "misses"));
  stats.evictions = static_cast<uint64_t>(NumberField(response, "evictions"));
  stats.entries = static_cast<uint64_t>(NumberField(response, "entries"));
  stats.capacity = static_cast<uint64_t>(NumberField(response, "capacity"));
  stats.queue_depth = static_cast<uint64_t>(NumberField(response, "queue_depth"));
  return stats;
}

double NumberField(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = response.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + needle.size(), nullptr);
}

ServeInputs MakeServeInputs(uint64_t seed, size_t extra_count) {
  ServeInputs inputs;
  for (size_t i = 0; i < kServeDatasets; ++i) {
    inputs.datasets.push_back(MakeMixture(Mix(seed, 100 + i), kServeRows, kServeDims));
    inputs.register_lines.push_back(
        RegisterLine("ds" + std::to_string(i), inputs.datasets.back().points));
  }
  for (size_t j = 0; j < extra_count; ++j) {
    inputs.extra.push_back(MakeMixture(Mix(seed, 5000 + j), kServeRows, kServeDims));
    inputs.extra_lines.push_back(
        RegisterLine("x" + std::to_string(j), inputs.extra.back().points));
  }
  return inputs;
}

double RunServe(const ServeContext& context, const ServePlan& plan,
                const ServeInputs& inputs,
                const std::vector<Coreset>& references,
                const std::function<void(size_t)>& pause_work, RunResult* result) {
  Connection control(context.port);
  FingerprintLedger ledger;
  uint64_t builds_sent = 0;
  auto count = [&](const char* kind, bool ok) {
    OpCount& c = result->ops[kind];
    ++c.attempted;
    if (!ok) ++c.failed;
  };

  // The daemon must hold exactly the points that were sent.
  auto check_register = [&](const std::string& name, const Mixture& data,
                            const Outcome& out) {
    if (out.ok && out.dataset_fingerprint !=
                      fc::service::FingerprintHex(fc::service::FingerprintMatrix(data.points))) {
      result->Check("register " + name + ": daemon holds other points than were sent");
    }
  };

  // ---- set-up: register the serving datasets, then one miss per hot key.
  for (size_t i = 0; i < inputs.datasets.size(); ++i) {
    ScopedSpan span("serve.setup_register");
    const double start = Now();
    const std::string response = control.Call(inputs.register_lines[i]);
    const Outcome out = Parse(response, Now() - start);
    count(KindName(Kind::kRegister), out.ok);
    check_register("ds" + std::to_string(i), inputs.datasets[i], out);
  }
  std::vector<Op> hot;
  for (size_t ds = 0; ds < inputs.datasets.size(); ++ds) {
    for (size_t s = 0; s < 4; ++s) hot.push_back(HotOp(context.seed, ds, s));
  }
  std::vector<std::pair<Op, Outcome>> served;
  for (size_t h = 0; h < hot.size(); ++h) {
    ScopedSpan span("serve.setup_build");
    const double start = Now();
    const std::string response = control.Call(hot[h].line);
    const double latency = Now() - start;
    ++builds_sent;
    count(KindName(Kind::kCold), IsOk(response));
    served.emplace_back(hot[h], Parse(response, latency));
  }
  const double setup_seconds = Now() - context.daemon_spawn_time;

  // ---- the window's operations, fixed by the seed and the plan.
  std::mt19937_64 gen(Mix(context.seed, 77));
  std::vector<Op> ops;
  size_t extra_used = 0;
  for (size_t r = 0; r < plan.hot_rounds; ++r) {
    std::vector<Op> round = hot;
    if (plan.mixed) {
      for (size_t j = 0; j < 3; ++j) {
        round.push_back(ColdOp(context.seed, 900000 + 3 * r + j,
                               (3 * r + j) % kServeDatasets, j == 2 ? kServeShards : 1));
      }
      if (r % 4 == 0 && extra_used < inputs.extra_lines.size()) {
        round.push_back({Kind::kRegister, inputs.extra_lines[extra_used], "", extra_used, 0, 0});
        ++extra_used;
      }
    }
    std::shuffle(round.begin(), round.end(), gen);
    ops.insert(ops.end(), round.begin(), round.end());
  }

  // ---- the window: kConnections closed loops pulling from one sequence,
  // in kSegments stretches. Between stretches of a read-only window the
  // load pauses for one cold build and one registration, so that these
  // samples are spread over the whole window instead of bunched into one
  // burst that a passing slowdown of the machine covers.
  std::vector<Outcome> outcomes(ops.size());
  std::vector<double> overhead(kConnections, 0.0);
  std::atomic<bool> window_open{true};
  std::atomic<bool> client_error{false};
  uint64_t queue_depth_max = 0;
  std::thread sampler;
  if (context.trace) {
    // Samples the daemon's queue gauge beside the load.
    sampler = std::thread([&] {
      try {
        Connection probe(context.port);
        while (window_open.load()) {
          queue_depth_max = std::max(queue_depth_max,
                                     ParseStats(probe.Call("{\"verb\":\"stats\"}")).queue_depth);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      } catch (const std::exception&) {
        client_error = true;
      }
    });
  }
  std::vector<std::unique_ptr<Connection>> connections;
  for (size_t c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(context.port));
  }
  std::vector<double> side_register_ms, side_cold_ms;
  double load_seconds = 0.0;
  for (size_t segment = 0; segment < kSegments && !client_error; ++segment) {
    const size_t end = ops.size() * (segment + 1) / kSegments;
    std::atomic<size_t> next{ops.size() * segment / kSegments};
    const double start = Now();
    std::vector<std::thread> workers;
    for (size_t c = 0; c < kConnections; ++c) {
      workers.emplace_back([&, c] {
        try {
          for (;;) {
            const double picked = Now();
            const size_t i = next.fetch_add(1);
            if (i >= end) break;
            ScopedSpan span("serve.request", i + 1);
            const double sent = Now();
            std::string response;
            {
              ScopedSpan wait("net.roundtrip", i + 1);
              response = connections[c]->Call(ops[i].line);
            }
            const double received = Now();
            outcomes[i] = Parse(response, received - sent);
            overhead[c] += (sent - picked) + (Now() - received);
          }
        } catch (const std::exception&) {
          client_error = true;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    load_seconds += Now() - start;

    if (!plan.mixed) {
      // A read-only window: cold builds and one registration, alone on
      // the daemon, for the cold and register latencies.
      ScopedSpan span("serve.pause_ops");
      for (size_t j = 0; j < kPauseColdBuilds; ++j) {
        const size_t tag = kPauseColdBuilds * segment + j;
        const Op op = ColdOp(context.seed, 800000 + tag, tag % kServeDatasets, 1);
        const double op_start = Now();
        const std::string response = control.Call(op.line);
        const Outcome out = Parse(response, Now() - op_start);
        count(KindName(Kind::kCold), out.ok);
        ++builds_sent;
        if (out.ok) side_cold_ms.push_back(out.latency * 1e3);
        served.emplace_back(op, out);
      }
      const double op_start = Now();
      const std::string response = control.Call(inputs.extra_lines[segment]);
      const Outcome out = Parse(response, Now() - op_start);
      count(KindName(Kind::kRegister), out.ok);
      check_register("x" + std::to_string(segment), inputs.extra[segment], out);
      if (out.ok) side_register_ms.push_back(out.latency * 1e3);
    }
    if (pause_work) {
      ScopedSpan span("inproc.pause_builds");
      pause_work(segment);
    }
  }
  window_open = false;
  if (sampler.joinable()) sampler.join();
  if (client_error) throw std::runtime_error("client connection failed");

  const CacheStats stats = ParseStats(control.Call("{\"verb\":\"stats\"}"));
  count("serve.stats", stats.capacity != 0);

  // ---- per-kind accounting and latencies.
  std::vector<double> hit_ms, cold_ms, register_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Outcome& out = outcomes[i];
    count(KindName(op.kind), out.ok);
    if (!out.ok) continue;
    switch (op.kind) {
      case Kind::kHit:
        hit_ms.push_back(out.latency * 1e3);
        if (out.cache != "hit") result->Check(op.key + ": hot key was not a hit");
        break;
      case Kind::kCold:
        cold_ms.push_back(out.latency * 1e3);
        if (out.cache != "miss") result->Check(op.key + ": fresh key was not a miss");
        break;
      case Kind::kColdSharded:
        if (out.cache != "miss") result->Check(op.key + ": fresh key was not a miss");
        break;
      case Kind::kRegister:
        register_ms.push_back(out.latency * 1e3);
        check_register("x" + std::to_string(op.dataset), inputs.extra[op.dataset], out);
        break;
    }
    if (op.kind != Kind::kRegister) {
      ++builds_sent;
      served.emplace_back(op, out);
    }
  }

  // ---- checks on every served build.
  std::vector<double> weight_deviations;
  for (const auto& [op, out] : served) {
    if (!out.ok) continue;
    result->Check(ledger.Record(op.key, out.cache, out.fingerprint));
    if (out.cache != "miss") continue;  // hits are checked against the miss
    const size_t shards = op.kind == Kind::kColdSharded ? kServeShards : 1;
    const double deviation = out.total_weight / kServeRows - 1.0;
    weight_deviations.push_back(deviation);
    if (out.rows < 1 || out.rows > kServeM) {
      result->Check(op.key + ": coreset has " + std::to_string(out.rows) + " rows");
    } else if (std::abs(deviation) > TotalWeightTolerance(kServeM, shards)) {
      result->Check(op.key + ": total weight " + std::to_string(out.total_weight));
    }
  }
  result->Check(CheckMeanTotalWeight(weight_deviations, kServeM));
  result->Check(CheckStats(stats, builds_sent));
  // shards=1 keys: the served fingerprint equals the fingerprint of the
  // same build made here, in process, on the same points.
  std::set<std::string> verified;
  for (const auto& [op, out] : served) {
    if (!out.ok || out.cache != "miss" || op.kind == Kind::kColdSharded ||
        !verified.insert(op.key).second) {
      continue;
    }
    const size_t ref = op.dataset * 4 + op.shape;
    Coreset rebuilt;
    const Coreset* expected = &rebuilt;
    if (ref < references.size() &&
        op.seed == SpecSeed(context.seed, op.dataset, op.shape)) {
      expected = &references[ref];
    } else {
      auto built = fc::api::Build(MakeSpec(kSpecs[op.shape], kServeM, op.seed),
                                  inputs.datasets[op.dataset].points);
      if (!built.ok()) {
        result->Check(op.key + ": in-process build failed");
        continue;
      }
      rebuilt = std::move(built->coreset);
    }
    const std::string local = fc::service::FingerprintHex(
        fc::service::FingerprintCoreset(*expected));
    if (local != out.fingerprint) {
      result->Check(op.key + ": served fingerprint " + out.fingerprint +
                    " != in-process build " + local);
    }
  }

  // ---- serve metrics.
  Metrics& m = result->end_to_end;
  m["requests_per_s"] = {static_cast<double>(ops.size()) / load_seconds, "req/s"};
  m["hit_p50_ms"] = {Median(hit_ms), "ms"};
  if (hit_ms.size() >= 1000) m["hit_p99_ms"] = {Quantile(hit_ms, 0.99), "ms"};
  m["cold_p50_ms"] = {Median(plan.mixed ? cold_ms : side_cold_ms), "ms"};

  Metrics& layer = result->per_layer;
  layer["register_p50_ms"] = {Median(plan.mixed ? register_ms : side_register_ms), "ms"};
  double overhead_total = 0.0;
  for (double o : overhead) overhead_total += o;
  layer["loadgen.overhead_us"] = {overhead_total / static_cast<double>(ops.size()) * 1e6,
                                  "us"};
  layer["net.queue_depth_max"] = {static_cast<double>(queue_depth_max), "count"};
  return setup_seconds;
}

}  // namespace perfbench
