// Shared declarations of the perfbench harness: generated inputs, the
// output checks, the two measured phases (in-process builds and the served
// request stream), the traced layer probes and the span recorder.
//
// Every run executes both phases; the workload decides which phase gets
// the measured window and on what inputs: figure1 times the builds on one
// large dataset, the serve workloads time the served request stream and
// the same four build shapes on the serving datasets (perfbench/README.md).

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/api/fastcoreset.h"

namespace perfbench {

using fastcoreset::Coreset;
using fastcoreset::Matrix;

/// CLOCK_MONOTONIC seconds; comparable with Python's time.monotonic().
double Now();

// ---------------------------------------------------------------- inputs --

/// A generated Gaussian mixture with strongly imbalanced cluster sizes and
/// a few tiny clusters far from the rest. Coordinates lie on a 1/8 grid, so
/// their 3-decimal text form parses back to the identical doubles.
struct Mixture {
  Matrix points;
  Matrix centers;                   ///< Generating centers, one per cluster.
  std::vector<size_t> label;        ///< Generating cluster of every row.
};

Mixture MakeMixture(uint64_t seed, size_t n, size_t d);

/// `{"verb":"register","name":...,"points":[[...],...]}` for `points`.
std::string RegisterLine(const std::string& name, const Matrix& points);

/// Deterministic 64-bit mix of a seed with a stream tag.
uint64_t Mix(uint64_t seed, uint64_t tag);

// --------------------------------------------------------------- metrics --

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct OpCount {
  size_t attempted = 0;
  size_t failed = 0;
};

/// Everything one run reports. `errors` holds failed output checks.
struct RunResult {
  std::vector<std::string> errors;
  std::map<std::string, OpCount> ops;
  Metrics end_to_end;
  Metrics per_layer;

  void Check(const std::string& error) {
    if (!error.empty()) errors.push_back(error);
  }
};

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double PeakRssMb(const std::string& pid = "self");

// ---------------------------------------------------------------- checks --
// Each check returns "" on success and a one-line reason otherwise. The
// self-test (selftest.cc) feeds every check a corrupted output.

/// Every row is bit-identical to the input row its index names.
std::string CheckRowsAreInputRows(const Coreset& coreset, const Matrix& input);
/// Weights are finite and positive and sum to within
/// TotalWeightTolerance(m, 1) of n.
std::string CheckWeights(const Coreset& coreset, size_t n, size_t m);
/// Two coresets are bit-identical (indices, points, weights).
std::string CheckIdentical(const Coreset& a, const Coreset& b,
                           const std::string& what);

/// Plain k-means cost sum_i w_i min_c |x_i - c|^2 (benchmark's own code).
double PlainCost(const Matrix& points, const std::vector<double>& weights,
                 const Matrix& centers);

/// Probe solutions for one k: random k-subsets of the input rows plus the
/// generating centers, with the full-data cost of each.
struct Probes {
  std::vector<Matrix> solutions;
  std::vector<double> full_costs;
};
Probes MakeProbes(const Mixture& data, size_t k, uint64_t seed);
/// Worst over the probes of max(cost_C / cost_P, cost_P / cost_C).
double WorstDistortion(const Coreset& coreset, const Probes& probes);
/// Bound on the worst distortion of a coreset of m rows for k centers. Over
/// 60 seeds at m/k = 16 the worst seen was 1.75 (median 1.19); with m/k =
/// 40 (figure1) distortions sit near 1.1. Dropping a tiny far cluster
/// gives ~20.
inline double DistortionBound(size_t m, size_t k) {
  return 1.0 + 24.0 * static_cast<double>(k) / static_cast<double>(m);
}
/// Allowed relative deviation from n of the total weight of one coreset
/// of requested size m built over `shards` shards. The sampled total is
/// unbiased and concentrates like 1/sqrt(m), with a heavy tail: over 10000
/// unsharded fast_k50 builds of the served shape (n=4000, m=800) its
/// standard deviation was 1.8/sqrt(m) and its largest 10.0/sqrt(m); over
/// 5000 shards=4 builds, 2.9/sqrt(m) and 11.9/sqrt(m). The
/// sensitivity shapes spread less (1.1-1.3/sqrt(m)). A per-build bound
/// only catches gross errors; CheckMeanTotalWeight catches a bias.
double TotalWeightTolerance(size_t m, size_t shards);
/// `deviations` are total/n - 1 of independent builds of requested size m.
/// Their mean must be within 6 standard errors of 0, taking the standard
/// deviation of one build as 3/sqrt(m), above every shape's measured one:
/// at m=800 and 100 builds, 6.4%.
std::string CheckMeanTotalWeight(const std::vector<double>& deviations, size_t m);
/// All single-coreset checks: input rows, weights, and worst distortion
/// at most `distortion_bound`; the worst distortion goes to `distortion`.
std::string CheckCoreset(const Coreset& coreset, const Mixture& data, size_t m,
                         const Probes& probes, double distortion_bound,
                         double* distortion);

/// Cache accounting the daemon's `stats` verb reports.
struct CacheStats {
  uint64_t hits = 0, misses = 0, evictions = 0, entries = 0, capacity = 0;
  uint64_t queue_depth = 0;
};
std::string CheckStats(const CacheStats& stats, uint64_t builds_sent);

/// Remembers the fingerprint of every cache key's miss; a hit must match.
class FingerprintLedger {
 public:
  /// Records one build response; returns the check's verdict.
  std::string Record(const std::string& key, const std::string& cache,
                     const std::string& fingerprint);

 private:
  std::map<std::string, std::string> miss_;
};

// ---------------------------------------------------------------- phases --

/// One build shape of the paper's Figure 1.
struct BuildSpec {
  const char* name;  ///< fast_k50 | fast_k200 | sens_k50 | sens_k200
  const char* method;
  size_t k;
};
extern const BuildSpec kSpecs[4];

fastcoreset::api::CoresetSpec MakeSpec(const BuildSpec& shape, size_t m,
                                       uint64_t seed);

/// Measured in-process builds of the four shapes. Round 0 uses the seeds
/// `SpecSeed(seed, dataset, shape)`, which the served hot keys share, so
/// its coresets are also the references for the served fingerprints.
uint64_t SpecSeed(uint64_t seed, size_t dataset, size_t shape);
class Pipeline {
 public:
  Pipeline(std::vector<const Mixture*> datasets, size_t m, uint64_t seed)
      : datasets_(std::move(datasets)), m_(m), seed_(seed),
        reference_(datasets_.size() * 4) {}
  /// Untimed first build: pool spin-up and first-touch costs. Returns its
  /// seconds (negative if it failed).
  double FirstBuild();
  /// Timed builds of the four shapes on each of datasets [begin, end).
  void Round(size_t round, size_t begin, size_t end);

  const std::vector<const Mixture*>& datasets() const { return datasets_; }
  size_t m() const { return m_; }
  /// Seconds per build, per shape; a failed build is recorded as -1.
  const std::map<std::string, std::vector<double>>& seconds() const { return seconds_; }
  /// Round-0 coreset per (dataset, shape), row-major by dataset.
  const std::vector<Coreset>& reference() const { return reference_; }

 private:
  std::vector<const Mixture*> datasets_;
  size_t m_;
  uint64_t seed_;
  std::map<std::string, std::vector<double>> seconds_;
  std::vector<Coreset> reference_;
};

/// The served half of a run (serve.cc). `hot_rounds` rounds of hits over
/// the hot keys, and with `mixed`, cold builds and registrations beside.
/// The window runs in kSegments stretches; without `mixed`, each pause
/// between them holds one registration and kPauseColdBuilds cold builds.
struct ServePlan {
  size_t hot_rounds = 0;
  bool mixed = false;
};

struct ServeInputs {
  std::vector<Mixture> datasets;        ///< registered during set-up
  std::vector<std::string> register_lines;
  std::vector<Mixture> extra;           ///< registered inside the window
  std::vector<std::string> extra_lines;
};
inline constexpr size_t kServeDatasets = 8;
inline constexpr size_t kServeRows = 4000;
inline constexpr size_t kServeDims = 16;
inline constexpr size_t kServeM = 800;
inline constexpr size_t kServeShards = 4;
inline constexpr size_t kCacheCapacity = 48;
inline constexpr size_t kSegments = 24;
inline constexpr size_t kPauseColdBuilds = 3;
/// Closed-loop load connections (besides the control connection).
inline constexpr size_t kConnections = 2;
ServeInputs MakeServeInputs(uint64_t seed, size_t extra_count);

struct ServeContext {
  int port = 0;
  double daemon_spawn_time = 0.0;  ///< Now() when the daemon was started
  uint64_t seed = 0;
  bool trace = false;
};

/// Runs set-up, the window and the checks against a live daemon. Fills
/// serve metrics into `result`; returns the set-up seconds. If set,
/// `pause_work(segment)` runs in the harness after each stretch of the
/// window, while the daemon is idle.
double RunServe(const ServeContext& context, const ServePlan& plan,
                const ServeInputs& inputs,
                const std::vector<Coreset>& references,
                const std::function<void(size_t)>& pause_work, RunResult* result);

/// Traced layer probes (layers.cc) on the run's own inputs: the pipeline
/// probes on the first dataset of the run's timed builds, at their m.
void RunLayerProbes(const Pipeline& pipeline, const ServeInputs& serve,
                    const ServeContext& context, RunResult* result);

/// Sends `lines` one after another on one connection; returns the
/// responses and, per line, the seconds from send to response.
std::vector<std::string> CallInSequence(int port,
                                        const std::vector<std::string>& lines,
                                        std::vector<double>* latencies);
/// Cache and queue fields of a `stats` response.
CacheStats ParseStats(const std::string& response);
/// Numeric member `key` of a response line (-1 when absent).
double NumberField(const std::string& response, const std::string& key);

int RunSelfTest();

// ----------------------------------------------------------------- trace --

/// In-memory span recorder, written out when the run ends. Off unless
/// Enable() was called; a disabled ScopedSpan costs one branch.
class Trace {
 public:
  static void Enable();
  static void WriteJson(const std::string& path);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
