// Input generation and small numeric/report helpers. The inputs are made
// here, from the seed alone, with the benchmark's own generator: the
// program under test only ever sees the finished points.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// Sizes of the big clusters fall geometrically (the largest holds ~30% of
// the points, the smallest a handful); a few tiny clusters sit far away.
// Crude uniform sampling misses the tiny ones, which is what Figure 1's
// accuracy axis is about.
constexpr size_t kBigClusters = 20;
constexpr double kSizeRatio = 0.7;
constexpr size_t kFarClusters = 3;
constexpr size_t kFarClusterSize = 12;
constexpr double kCenterBox = 50.0;
constexpr double kFarDistance = 2000.0;

double Gaussian(std::mt19937_64& gen) {
  // Box-Muller on 53-bit uniforms: independent of the library's Rng and of
  // the standard library's distribution implementations.
  const double u1 = (static_cast<double>(gen() >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = static_cast<double>(gen() >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Uniform(std::mt19937_64& gen, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

double OnGrid(double v) { return std::round(v * 8.0) / 8.0; }

}  // namespace

Mixture MakeMixture(uint64_t seed, size_t n, size_t d) {
  std::mt19937_64 gen(seed);
  const size_t clusters = kBigClusters + kFarClusters;
  Mixture out;
  out.centers = Matrix(clusters, d);
  for (size_t c = 0; c < kBigClusters; ++c) {
    for (size_t j = 0; j < d; ++j) {
      out.centers.At(c, j) = OnGrid(Uniform(gen, -kCenterBox, kCenterBox));
    }
  }
  for (size_t c = kBigClusters; c < clusters; ++c) {
    std::vector<double> dir(d);
    double norm = 0.0;
    for (double& v : dir) {
      v = Gaussian(gen);
      norm += v * v;
    }
    norm = std::sqrt(norm);
    for (size_t j = 0; j < d; ++j) {
      out.centers.At(c, j) = OnGrid(dir[j] / norm * kFarDistance);
    }
  }

  std::vector<size_t> sizes(clusters, kFarClusterSize);
  const size_t big_total = n - kFarClusters * kFarClusterSize;
  double share_sum = 0.0;
  for (size_t c = 0; c < kBigClusters; ++c) share_sum += std::pow(kSizeRatio, c);
  size_t assigned = 0;
  for (size_t c = 0; c < kBigClusters; ++c) {
    sizes[c] = std::max<size_t>(
        2, static_cast<size_t>(big_total * std::pow(kSizeRatio, c) / share_sum));
    assigned += sizes[c];
  }
  sizes[0] += big_total - assigned;

  std::vector<size_t> labels;
  labels.reserve(n);
  for (size_t c = 0; c < clusters; ++c) labels.insert(labels.end(), sizes[c], c);
  std::shuffle(labels.begin(), labels.end(), gen);

  out.points = Matrix(n, d);
  out.label = labels;
  for (size_t i = 0; i < n; ++i) {
    const size_t c = labels[i];
    const double spread = c < kBigClusters ? 1.0 + 0.1 * static_cast<double>(c % 5)
                                           : 0.5;
    for (size_t j = 0; j < d; ++j) {
      out.points.At(i, j) = OnGrid(out.centers.At(c, j) + spread * Gaussian(gen));
    }
  }
  return out;
}

std::string RegisterLine(const std::string& name, const Matrix& points) {
  std::string line = "{\"verb\":\"register\",\"name\":\"" + name +
                     "\",\"points\":[";
  line.reserve(points.rows() * points.cols() * 9 + 64);
  char buffer[32];
  for (size_t i = 0; i < points.rows(); ++i) {
    line += i == 0 ? "[" : ",[";
    for (size_t j = 0; j < points.cols(); ++j) {
      const int len = std::snprintf(buffer, sizeof(buffer), j == 0 ? "%.3f" : ",%.3f",
                                    points.At(i, j));
      line.append(buffer, static_cast<size_t>(len));
    }
    line += "]";
  }
  line += "]}";
  return line;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
