// Self-test of the output checks: each check must accept a correct output
// and reject a corrupted one. Run with `python3 perfbench/run.py --selftest`.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/service/fingerprint.h"

namespace perfbench {

namespace fc = fastcoreset;

namespace {

int g_failures = 0;

void Expect(const char* what, bool should_pass, const std::string& error) {
  const bool passed = error.empty();
  const bool good = passed == should_pass;
  std::printf("%-4s %-48s %s\n", good ? "ok" : "FAIL", what,
              passed ? "(check passed)" : ("(check failed: " + error + ")").c_str());
  if (!good) ++g_failures;
}

/// The coreset without the rows drawn from generating cluster `label`.
Coreset DropCluster(const Coreset& coreset, const Mixture& data, size_t label) {
  Coreset out;
  std::vector<size_t> keep;
  for (size_t i = 0; i < coreset.size(); ++i) {
    if (data.label[coreset.indices[i]] != label) keep.push_back(i);
  }
  out.points = coreset.points.SelectRows(keep);
  for (size_t i : keep) {
    out.indices.push_back(coreset.indices[i]);
    out.weights.push_back(coreset.weights[i]);
  }
  return out;
}

}  // namespace

int RunSelfTest() {
  // m/k = 160: tight weight and distortion bounds, as in figure1's k=50.
  constexpr size_t kRows = 20000;
  constexpr size_t kM = 8000;
  const Mixture data = MakeMixture(11, kRows, kServeDims);
  const size_t k = 50;
  auto built = fc::api::Build(MakeSpec(kSpecs[0], kM, 5), data.points);
  auto rebuilt = fc::api::Build(MakeSpec(kSpecs[0], kM, 5), data.points);
  if (!built.ok() || !rebuilt.ok()) {
    std::printf("FAIL build\n");
    return 1;
  }
  const Coreset& good = built->coreset;
  const Probes probes = MakeProbes(data, k, 3);
  double distortion = 0.0;

  Expect("correct coreset", true, CheckCoreset(good, data, kM, probes, DistortionBound(kM, k), &distortion));
  Expect("correct coreset vs its rebuild", true,
         CheckIdentical(good, rebuilt->coreset, "rebuild"));

  // The largest cluster, and the far tiny cluster holding the most weight.
  Expect("largest cluster dropped", false,
         CheckCoreset(DropCluster(good, data, 0), data, kM, probes, DistortionBound(kM, k), &distortion));
  size_t far = data.centers.rows() - 1;
  double far_weight = 0.0;
  for (size_t label = data.centers.rows() - 3; label < data.centers.rows(); ++label) {
    double w = 0.0;
    for (size_t i = 0; i < good.size(); ++i) {
      if (data.label[good.indices[i]] == label) w += good.weights[i];
    }
    if (w > far_weight) {
      far_weight = w;
      far = label;
    }
  }
  Expect("tiny far cluster dropped", false,
         CheckCoreset(DropCluster(good, data, far), data, kM, probes, DistortionBound(kM, k), &distortion));

  Coreset perturbed = good;
  perturbed.weights[0] *= 1.0 + 1e-9;
  Expect("weight perturbed by 1e-9 (vs rebuild)", false,
         CheckIdentical(perturbed, rebuilt->coreset, "rebuild"));
  Expect("weight perturbed by 1e-9 (fingerprint)", false,
         fc::service::FingerprintCoreset(perturbed) ==
                 fc::service::FingerprintCoreset(rebuilt->coreset)
             ? ""
             : "fingerprints differ");
  perturbed.weights[0] = -perturbed.weights[0];
  Expect("negative weight", false, CheckWeights(perturbed, kRows, kM));
  Coreset scaled = good;
  for (double& w : scaled.weights) w *= 1.3;
  Expect("every weight scaled by 1.3", false, CheckWeights(scaled, kRows, kM));

  // The served shape (n=4000, m=800): one build's bound is loose, so a
  // weight bias must show in the mean over a run's builds.
  const Mixture served = MakeMixture(12, kServeRows, kServeDims);
  std::vector<double> deviations, scaled_deviations;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    auto one = fc::api::Build(MakeSpec(kSpecs[seed % 4], kServeM, seed), served.points);
    if (!one.ok()) {
      std::printf("FAIL served-shape build\n");
      return 1;
    }
    const double total = one->coreset.TotalWeight();
    deviations.push_back(total / kServeRows - 1.0);
    scaled_deviations.push_back(1.3 * total / kServeRows - 1.0);
  }
  Expect("mean total weight of 32 served-shape builds", true,
         CheckMeanTotalWeight(deviations, kServeM));
  Expect("the same 32 builds, every weight scaled by 1.3", false,
         CheckMeanTotalWeight(scaled_deviations, kServeM));

  Coreset moved = good;
  moved.points.At(0, 0) += 0.125;
  Expect("row that is not an input row", false,
         CheckRowsAreInputRows(moved, data.points));
  Coreset misindexed = good;
  misindexed.indices[0] = data.points.rows();
  Expect("row index out of range", false, CheckRowsAreInputRows(misindexed, data.points));

  FingerprintLedger ledger;
  const std::string miss = ledger.Record("a", "miss", "00ff");
  Expect("miss then equal hit", true, miss + ledger.Record("a", "hit", "00ff"));
  Expect("hit whose fingerprint differs from its miss", false,
         ledger.Record("a", "hit", "00fe"));
  Expect("hit with no miss before it", false, ledger.Record("b", "hit", "00ff"));

  CacheStats stats{.hits = 90, .misses = 70, .evictions = 30, .entries = 40,
                   .capacity = kCacheCapacity};
  Expect("consistent stats", true, CheckStats(stats, 160));
  Expect("stats: one build not counted", false, CheckStats(stats, 161));
  CacheStats evictions = stats;
  evictions.evictions = 29;
  Expect("stats: evictions != misses - entries", false, CheckStats(evictions, 160));
  CacheStats overfull = stats;
  overfull.entries = kCacheCapacity + 1;
  overfull.evictions = overfull.misses - overfull.entries;
  Expect("stats: entries over capacity", false, CheckStats(overfull, 160));

  std::printf("%s: %d unexpected verdicts\n", g_failures ? "FAIL" : "PASS", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
