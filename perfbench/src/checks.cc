// Output checks. Nothing here compares against a stored copy of earlier
// output: every check is a property of the output itself, or an
// agreement between two independent computations made in the same run.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

namespace perfbench {

std::string CheckRowsAreInputRows(const Coreset& coreset, const Matrix& input) {
  if (coreset.indices.size() != coreset.size() ||
      coreset.weights.size() != coreset.size()) {
    return "coreset arrays disagree in length";
  }
  if (coreset.points.cols() != input.cols()) return "coreset has wrong width";
  const size_t bytes = input.cols() * sizeof(double);
  for (size_t i = 0; i < coreset.size(); ++i) {
    const size_t source = coreset.indices[i];
    if (source >= input.rows()) {
      return "coreset row " + std::to_string(i) + " names no input row";
    }
    if (std::memcmp(coreset.points.Row(i).data(), input.Row(source).data(),
                    bytes) != 0) {
      return "coreset row " + std::to_string(i) + " differs from input row " +
             std::to_string(source);
    }
  }
  return "";
}

double TotalWeightTolerance(size_t m, size_t shards) {
  const double scale = shards > 1 ? 16.0 : 12.0;
  return scale / std::sqrt(static_cast<double>(std::max<size_t>(m, 1)));
}

std::string CheckMeanTotalWeight(const std::vector<double>& deviations, size_t m) {
  if (deviations.empty()) return "";
  const double mean = std::accumulate(deviations.begin(), deviations.end(), 0.0) /
                      static_cast<double>(deviations.size());
  const double tolerance =
      6.0 * 3.0 / std::sqrt(static_cast<double>(std::max<size_t>(m, 1)) *
                            static_cast<double>(deviations.size()));
  if (std::abs(mean) > tolerance) {
    return "mean total weight of " + std::to_string(deviations.size()) +
           " builds is off n by " + std::to_string(mean) + ", more than " +
           std::to_string(tolerance);
  }
  return "";
}

std::string CheckWeights(const Coreset& coreset, size_t n, size_t m) {
  for (size_t i = 0; i < coreset.weights.size(); ++i) {
    const double w = coreset.weights[i];
    if (!std::isfinite(w) || w <= 0.0) {
      return "weight " + std::to_string(i) + " is not finite and positive";
    }
  }
  const double total = coreset.TotalWeight();
  const double target = static_cast<double>(n);
  const double tolerance = TotalWeightTolerance(m, 1);
  if (std::abs(total - target) > tolerance * target) {
    return "total weight " + std::to_string(total) + " is not within " +
           std::to_string(tolerance) + " of n=" + std::to_string(n);
  }
  return "";
}

std::string CheckIdentical(const Coreset& a, const Coreset& b,
                           const std::string& what) {
  const bool same =
      a.indices == b.indices && a.points.rows() == b.points.rows() &&
      a.points.cols() == b.points.cols() &&
      a.weights.size() == b.weights.size() &&
      std::memcmp(a.points.data().data(), b.points.data().data(),
                  a.points.data().size() * sizeof(double)) == 0 &&
      std::memcmp(a.weights.data(), b.weights.data(),
                  a.weights.size() * sizeof(double)) == 0;
  return same ? "" : what + ": coresets are not bit-identical";
}

double PlainCost(const Matrix& points, const std::vector<double>& weights,
                 const Matrix& centers) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = centers.rows();
  const size_t workers = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<double> partial(workers, 0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      double sum = 0.0;
      for (size_t i = t * n / workers; i < (t + 1) * n / workers; ++i) {
        const double* x = points.Row(i).data();
        double best = INFINITY;
        for (size_t c = 0; c < k; ++c) {
          const double* y = centers.Row(c).data();
          double dist = 0.0;
          for (size_t j = 0; j < d; ++j) dist += (x[j] - y[j]) * (x[j] - y[j]);
          best = std::min(best, dist);
        }
        sum += (weights.empty() ? 1.0 : weights[i]) * best;
      }
      partial[t] = sum;
    });
  }
  for (std::thread& thread : threads) thread.join();
  return std::accumulate(partial.begin(), partial.end(), 0.0);
}

Probes MakeProbes(const Mixture& data, size_t k, uint64_t seed) {
  constexpr size_t kRandomProbes = 3;
  Probes probes;
  std::mt19937_64 gen(seed);
  std::vector<size_t> rows(data.points.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (size_t p = 0; p < kRandomProbes; ++p) {
    for (size_t i = 0; i < k; ++i) {
      std::swap(rows[i], rows[i + gen() % (rows.size() - i)]);
    }
    probes.solutions.push_back(data.points.SelectRows(
        std::vector<size_t>(rows.begin(), rows.begin() + k)));
  }
  probes.solutions.push_back(data.centers);
  for (const Matrix& solution : probes.solutions) {
    probes.full_costs.push_back(PlainCost(data.points, {}, solution));
  }
  return probes;
}

double WorstDistortion(const Coreset& coreset, const Probes& probes) {
  double worst = 1.0;
  for (size_t p = 0; p < probes.solutions.size(); ++p) {
    const double c = PlainCost(coreset.points, coreset.weights,
                               probes.solutions[p]);
    const double f = probes.full_costs[p];
    worst = std::max(worst, c > f ? c / f : f / c);
  }
  return worst;
}

std::string CheckCoreset(const Coreset& coreset, const Mixture& data, size_t m,
                         const Probes& probes, double distortion_bound,
                         double* distortion) {
  std::string error = CheckRowsAreInputRows(coreset, data.points);
  if (error.empty()) {
    error = CheckWeights(coreset, data.points.rows(), m);
  }
  *distortion = WorstDistortion(coreset, probes);
  if (error.empty() && *distortion > distortion_bound) {
    error = "distortion " + std::to_string(*distortion) + " exceeds " +
            std::to_string(distortion_bound);
  }
  return error;
}

std::string CheckStats(const CacheStats& stats, uint64_t builds_sent) {
  if (stats.hits + stats.misses != builds_sent) {
    return "stats: hits " + std::to_string(stats.hits) + " + misses " +
           std::to_string(stats.misses) + " != builds sent " +
           std::to_string(builds_sent);
  }
  if (stats.entries > stats.capacity || stats.capacity != kCacheCapacity) {
    return "stats: entries " + std::to_string(stats.entries) +
           " exceed capacity " + std::to_string(stats.capacity);
  }
  if (stats.evictions != stats.misses - stats.entries) {
    return "stats: evictions " + std::to_string(stats.evictions) +
           " != misses - entries";
  }
  return "";
}

std::string FingerprintLedger::Record(const std::string& key,
                                      const std::string& cache,
                                      const std::string& fingerprint) {
  if (cache != "hit" && cache != "miss") {
    return key + ": unexpected cache status '" + cache + "'";
  }
  const auto found = miss_.find(key);
  if (found == miss_.end()) {
    if (cache == "hit") return key + ": hit before any miss";
    miss_.emplace(key, fingerprint);
    return "";
  }
  if (found->second != fingerprint) {
    return key + ": " + cache + " fingerprint " + fingerprint +
           " differs from the miss's " + found->second;
  }
  return "";
}

}  // namespace perfbench
