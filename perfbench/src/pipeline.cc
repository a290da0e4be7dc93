// The in-process half of a run: api::Build of the four Figure-1 shapes.

#include <string>
#include <vector>

#include "perfbench.h"
#include "src/common/parallel.h"

namespace perfbench {

namespace fc = fastcoreset;

const BuildSpec kSpecs[4] = {
    {"fast_k50", "fast_coreset", 50},
    {"fast_k200", "fast_coreset", 200},
    {"sens_k50", "sensitivity", 50},
    {"sens_k200", "sensitivity", 200},
};

fc::api::CoresetSpec MakeSpec(const BuildSpec& shape, size_t m, uint64_t seed) {
  fc::api::CoresetSpec spec;
  spec.method = shape.method;
  spec.k = shape.k;
  spec.m = m;
  spec.seed = seed;
  return spec;
}

uint64_t SpecSeed(uint64_t seed, size_t dataset, size_t shape) {
  return Mix(seed, 1000 + 16 * dataset + shape) % 1000000007ull;
}

double Pipeline::FirstBuild() {
  ScopedSpan span("pipeline.first_build");
  const double start = Now();
  auto first = fc::api::Build(MakeSpec(kSpecs[0], m_, Mix(seed_, 7)),
                              datasets_[0]->points);
  return first.ok() ? Now() - start : -1.0;
}

void Pipeline::Round(size_t round, size_t begin, size_t end) {
  for (size_t ds = begin; ds < end; ++ds) {
    for (size_t s = 0; s < 4; ++s) {
      const uint64_t spec_seed =
          round == 0 ? SpecSeed(seed_, ds, s) : Mix(SpecSeed(seed_, ds, s), round);
      ScopedSpan span(kSpecs[s].name);
      const double start = Now();
      auto built = fc::api::Build(MakeSpec(kSpecs[s], m_, spec_seed),
                                  datasets_[ds]->points);
      const double elapsed = Now() - start;
      seconds_[kSpecs[s].name].push_back(built.ok() ? elapsed : -1.0);
      if (built.ok() && round == 0) reference_[ds * 4 + s] = std::move(built->coreset);
    }
  }
}

}  // namespace perfbench
