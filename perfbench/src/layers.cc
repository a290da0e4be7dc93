// Traced layer probes: each layer's public functions called directly on
// the run's own inputs, timed from outside, so a change inside one layer
// shows here before (or without) moving an end-to-end number. Which
// end-to-end metric each probe should move is in perfbench/README.md.

#include <functional>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/clustering/fast_kmeans_plus_plus.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/parallel.h"
#include "src/core/importance.h"
#include "src/geometry/distance.h"
#include "src/geometry/jl_projection.h"
#include "src/geometry/quadtree.h"
#include "src/service/fingerprint.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace perfbench {

namespace fc = fastcoreset;

namespace {

/// Results of timed pure calls land here, so the calls cannot be dropped.
volatile uint64_t g_sink = 0;

/// Median seconds of `reps` calls of `fn`, each inside a span.
double Timed(const char* name, size_t reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (size_t r = 0; r < reps; ++r) {
    ScopedSpan span(name);
    const double start = Now();
    fn();
    samples.push_back(Now() - start);
  }
  return Median(samples);
}

}  // namespace

void RunLayerProbes(const Pipeline& pipeline, const ServeInputs& serve,
                    const ServeContext& context, RunResult* result) {
  Metrics& m = result->per_layer;
  const Matrix& points = pipeline.datasets()[0]->points;
  const size_t n = points.rows();
  const size_t d = points.cols();
  constexpr size_t k = 200;
  fc::Rng rng(Mix(context.seed, 31));

  // ---- geometry / clustering / core: the stages of the two pipelines.
  Matrix projected;
  m["geometry.jl_project_s"] = {
      Timed("geometry.jl_project", 3,
            [&] { projected = fc::JlProject(points, fc::JlTargetDim(k, 0.7, d), rng); }),
      "s"};
  size_t nodes = 0;
  m["geometry.quadtree_build_s"] = {
      Timed("geometry.quadtree_build", 3,
            [&] {
              fc::Quadtree tree(projected, rng, 60);
              nodes = tree.num_nodes();
            }),
      "s"};
  m["geometry.quadtree_nodes"] = {static_cast<double>(nodes), "count"};
  m["clustering.fast_kmeanspp_s"] = {
      Timed("clustering.fast_kmeanspp", 3,
            [&] { fc::FastKMeansPlusPlus(projected, {}, k, {}, rng); }),
      "s"};
  fc::Clustering seeded;
  m["clustering.kmeanspp_s"] = {
      Timed("clustering.kmeanspp", 3,
            [&] { seeded = fc::KMeansPlusPlus(points, {}, k, 2, rng); }),
      "s"};
  std::vector<size_t> assignment;
  std::vector<double> sq_dists;
  const double assign_s = Timed("geometry.assign", 5, [&] {
    fc::AssignToNearest(points, seeded.centers, &assignment, &sq_dists);
  });
  m["geometry.assign_s"] = {assign_s, "s"};
  m["geometry.assign_gflops"] = {2.0 * n * seeded.centers.rows() * d / assign_s / 1e9,
                                 "GFLOP/s"};
  fc::ImportanceScores scores;
  m["core.sensitivities_s"] = {
      Timed("core.sensitivities", 5,
            [&] {
              scores = fc::ComputeSensitivities(points, {}, assignment,
                                                seeded.centers, 2);
            }),
      "s"};
  m["core.sample_s"] = {
      Timed("core.sample", 5,
            [&] {
              fc::SampleByImportance(points, {}, scores,
                                     pipeline.m() == 0 ? 40 * k : pipeline.m(), rng);
            }),
      "s"};
  {
    // Dispatch needs a pool: measured at two executors whatever the run's
    // thread count.
    const size_t threads = fc::GetNumThreads();
    fc::SetNumThreads(2);
    m["common.parallel_for_us"] = {
        Timed("common.parallel_for", 501,
              [&] { fc::ParallelFor(size_t{1} << 20, [](size_t, size_t) {}); }) * 1e6,
        "us"};
    fc::SetNumThreads(threads);
  }

  // ---- api: the facade's own stage report for the k=200 shapes.
  for (size_t s : {size_t{1}, size_t{3}}) {
    ScopedSpan span("api.build");
    auto built = fc::api::Build(MakeSpec(kSpecs[s], pipeline.m(), Mix(context.seed, 41 + s)),
                                points);
    if (!built.ok()) {
      result->Check(std::string("api.build ") + kSpecs[s].name + " failed");
      continue;
    }
    for (const auto& stage : built->diagnostics.stages) {
      m[std::string("api.stage.") + kSpecs[s].name + "." + stage.name + "_s"] = {
          stage.seconds, "s"};
    }
  }

  // ---- service, in process, on the serving inputs.
  fc::service::CoresetService local(fc::service::ServiceOptions{kCacheCapacity});
  const std::string& register_line = serve.register_lines[0];
  std::vector<double> register_s;
  for (size_t i = 0; i < serve.datasets.size(); ++i) {
    ScopedSpan span("service.register");
    const double start = Now();
    fc::service::HandleRequestLine(local, serve.register_lines[i]);
    register_s.push_back(Now() - start);
  }
  m["service.register_ms"] = {Median(register_s) * 1e3, "ms"};
  m["service.json_parse_register_mb_s"] = {
      register_line.size() / 1e6 /
          Timed("service.json_parse_register", 5,
                [&] { g_sink = fc::service::ParseJson(register_line).ok(); }),
      "MB/s"};
  m["service.fingerprint_matrix_gb_s"] = {
      points.data().size() * sizeof(double) / 1e9 /
          Timed("service.fingerprint_matrix", 5,
                [&] { g_sink = fc::service::FingerprintMatrix(points); }),
      "GB/s"};

  fc::service::BuildRequest hit_request;
  hit_request.dataset = "ds0";
  hit_request.spec = MakeSpec(kSpecs[0], kServeM, SpecSeed(context.seed, 0, 0));
  const std::string hit_line =
      "{\"verb\":\"build\",\"dataset\":\"ds0\",\"method\":\"fast_coreset\",\"k\":50,"
      "\"m\":" + std::to_string(kServeM) + ",\"seed\":" +
      std::to_string(hit_request.spec.seed) + ",\"shards\":1}";
  auto warm = local.Build(hit_request);
  if (!warm.ok()) {
    result->Check("in-process service build failed");
    return;
  }
  const Coreset hit_coreset = warm->coreset;
  m["service.build_hit_us"] = {
      Timed("service.build_hit", 501, [&] { g_sink = local.Build(hit_request).ok(); }) * 1e6, "us"};
  m["service.protocol_hit_us"] = {
      Timed("service.protocol_hit", 501,
            [&] { g_sink = fc::service::HandleRequestLine(local, hit_line).size(); }) * 1e6,
      "us"};
  m["service.fingerprint_coreset_us"] = {
      Timed("service.fingerprint_coreset", 501,
            [&] { g_sink = fc::service::FingerprintCoreset(hit_coreset); }) * 1e6,
      "us"};
  m["service.json_parse_build_us"] = {
      Timed("service.json_parse_build", 2001,
            [&] { g_sink = fc::service::ParseJson(hit_line).ok(); }) * 1e6,
      "us"};

  // ---- net: a TCP round trip minus the same line handled in process. The
  // line names no verb the service knows, so its handling (parse, reject)
  // costs the same whatever the daemon holds; the difference is framing,
  // queue, worker hand-off and write-out.
  const std::string reject_line = "{\"verb\":\"perfbench_ping\"}";
  std::vector<double> tcp_s;
  {
    ScopedSpan span("net.reject_roundtrips");
    CallInSequence(context.port, std::vector<std::string>(501, reject_line), &tcp_s);
  }
  const double local_reject_s = Timed("service.reject_in_process", 501, [&] {
    g_sink = fc::service::HandleRequestLine(local, reject_line).size();
  });
  m["net.roundtrip_us"] = {(Median(tcp_s) - local_reject_s) * 1e6, "us"};

  // ---- cold builds through the daemon at shards 1 and N: response fields.
  std::vector<std::string> cold_lines;
  for (size_t shards : {size_t{1}, kServeShards}) {
    for (size_t i = 0; i < 3; ++i) {
      const uint64_t seed = Mix(context.seed, 700000 + 10 * shards + i) % 1000000007ull;
      cold_lines.push_back("{\"verb\":\"build\",\"dataset\":\"ds" + std::to_string(i) +
                           "\",\"method\":\"fast_coreset\",\"k\":50,\"m\":" +
                           std::to_string(kServeM) + ",\"seed\":" +
                           std::to_string(seed) + ",\"shards\":" +
                           std::to_string(shards) + "}");
    }
  }
  cold_lines.push_back("{\"verb\":\"stats\"}");
  std::vector<double> unused;
  std::vector<std::string> responses;
  {
    ScopedSpan span("probe.cold_builds");
    responses = CallInSequence(context.port, cold_lines, &unused);
  }
  std::vector<double> s1_ms, sn_ms, merge_s, critical_s;
  for (size_t i = 0; i + 1 < responses.size(); ++i) {
    OpCount& count = result->ops["probe.build_cold"];
    ++count.attempted;
    if (responses[i].find("\"ok\":true") == std::string::npos) {
      ++count.failed;
      continue;
    }
    const double seconds = NumberField(responses[i], "seconds");
    if (i < 3) {
      s1_ms.push_back(seconds * 1e3);
    } else {
      sn_ms.push_back(seconds * 1e3);
      merge_s.push_back(NumberField(responses[i], "merge_seconds"));
      critical_s.push_back(NumberField(responses[i], "critical_path_seconds"));
    }
  }
  m["service.build_cold_s1_ms"] = {Median(s1_ms), "ms"};
  m["service.build_cold_s4_ms"] = {Median(sn_ms), "ms"};
  m["streaming.merge_s"] = {Median(merge_s), "s"};
  m["common.critical_path_s"] = {Median(critical_s), "s"};

  const CacheStats stats = ParseStats(responses.back());
  m["service.cache_hits"] = {static_cast<double>(stats.hits), "count"};
  m["service.cache_misses"] = {static_cast<double>(stats.misses), "count"};
  m["service.cache_hit_ratio"] = {
      static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses),
      "ratio"};
  m["service.cache_evictions"] = {static_cast<double>(stats.evictions), "count"};
}

}  // namespace perfbench
