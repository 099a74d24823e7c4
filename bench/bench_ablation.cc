// Experiment E12 — ablations of the design choices DESIGN.md calls out.
//
// (a) Sample ratio: STR boundary quality vs sampling cost. Expected:
//     balance degrades sharply below ~0.1% sampling; beyond ~2% extra
//     sampling buys nothing.
// (b) Map-side local pruning (the "combiner step" of the CG skeleton):
//     skyline with the local-skyline step vs a mapper that forwards every
//     point to the single reducer. Expected: orders of magnitude more
//     shuffle + a serial reduce without it — the argument for the paper's
//     local-processing step.
// (c) Replication: range queries over rectangle data on a replicating
//     disjoint index (quad-tree) vs a single-copy overlapping index
//     (STR). Expected: replication inflates reads slightly but buys
//     strictly disjoint cells (required by closest-pair/union);
//     single-copy reads less but cannot serve those operations.
// (d) Persisted local indexes: geometry-heavy (polygon) range queries
//     with and without the in-block #lidx header. Expected: the header
//     costs extra bytes but removes the O(n log n) R-tree build charge.
// (e) Retired with the plane-sweep join kernel: the joins have one
//     in-memory kernel, the R-tree probe (EXPERIMENTS.md E12).
// (f) Histogram-balanced SJMR on skewed data vs the uniform grid.
//     Expected: extra histogram jobs, but a smaller reduce makespan
//     (even cell loads), paying off as skew grows.

#include <cmath>

#include "bench_common.h"
#include "core/range_query.h"
#include "core/spatial_join.h"
#include "core/skyline_op.h"
#include "geometry/skyline.h"
#include "geometry/wkt.h"

namespace shadoop::bench {
namespace {

// ---------------------------------------------------------------- (a)

void BM_SampleRatio(benchmark::State& state) {
  const double ratio = state.range(0) / 100000.0;  // Range arg in 1/1000 %.
  BenchCluster cluster;
  WritePoints(&cluster.fs, "/pts", 200000, workload::Distribution::kClustered,
              42);
  for (auto _ : state) {
    index::IndexBuilder builder(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = index::PartitionScheme::kStr;
    options.sample_ratio = ratio;
    const auto info =
        builder.Build("/pts", "/pts.r" + std::to_string(state.range(0)),
                      options)
            .ValueOrDie();
    size_t max_records = 0;
    size_t total = 0;
    for (const index::Partition& p : info.global_index.partitions()) {
      max_records = std::max(max_records, p.num_records);
      total += p.num_records;
    }
    state.counters["balance"] =
        max_records /
        (static_cast<double>(total) / info.global_index.NumPartitions());
    state.counters["build_sim_s"] = info.build_cost.total_ms / 1000.0;
    state.counters["sample_pct"] = ratio * 100;
  }
}

BENCHMARK(BM_SampleRatio)
    ->ArgsProduct({{10, 100, 1000, 2000, 10000}})  // 0.01% .. 10%.
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- (b)

/// The ablated skyline mapper: no local pruning, every point goes to the
/// reducer (what a naive MapReduce port would do).
class ForwardAllMapper : public mapreduce::Mapper {
 public:
  void Map(std::string_view record, mapreduce::MapContext& ctx) override {
    ctx.Emit("S", record);
  }
};

class GlobalSkylineReducer : public mapreduce::Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    std::vector<Point> points;
    points.reserve(values.size());
    for (const std::string& value : values) {
      auto p = ParsePointCsv(value);
      if (p.ok()) points.push_back(p.value());
    }
    const size_t n = points.size();
    ctx.ChargeCpu(static_cast<uint64_t>(
        n > 1 ? n * std::log2(static_cast<double>(n)) * 20 : n));
    for (const Point& p : Skyline(std::move(points))) {
      ctx.Write(PointToCsv(p));
    }
  }
};

struct SkylineData {
  SkylineData() {
    WritePoints(&cluster.fs, "/pts", 300000,
                workload::Distribution::kUniform, 42);
  }
  BenchCluster cluster;
};

SkylineData& GetSkylineData() {
  static SkylineData* data = new SkylineData();
  return *data;
}

void BM_SkylineWithLocalPruning(benchmark::State& state) {
  SkylineData& data = GetSkylineData();
  for (auto _ : state) {
    core::OpStats stats;
    auto result =
        core::SkylineHadoop(&data.cluster.runner, "/pts", &stats)
            .ValueOrDie();
    benchmark::DoNotOptimize(result);
    ReportStats(state, stats);
  }
}

void BM_SkylineWithoutLocalPruning(benchmark::State& state) {
  SkylineData& data = GetSkylineData();
  for (auto _ : state) {
    mapreduce::JobConfig job;
    job.name = "skyline-naive";
    job.splits =
        mapreduce::MakeBlockSplits(data.cluster.fs, "/pts").ValueOrDie();
    job.mapper = []() { return std::make_unique<ForwardAllMapper>(); };
    job.reducer = []() { return std::make_unique<GlobalSkylineReducer>(); };
    job.num_reducers = 1;
    mapreduce::JobResult result = data.cluster.runner.Run(job);
    SHADOOP_CHECK_OK(result.status);
    core::OpStats stats;
    stats.Accumulate(result);
    ReportStats(state, stats);
  }
}

BENCHMARK(BM_SkylineWithLocalPruning)->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SkylineWithoutLocalPruning)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- (c)

struct ReplicationData {
  ReplicationData() {
    WriteRects(&cluster.fs, "/rects", 120000, 5, 0.01);
    replicated = BuildIndex(&cluster.runner, "/rects", "/rects.quad",
                            index::PartitionScheme::kQuadTree,
                            index::ShapeType::kRectangle);
    single_copy = BuildIndex(&cluster.runner, "/rects", "/rects.str",
                             index::PartitionScheme::kStr,
                             index::ShapeType::kRectangle);
  }
  BenchCluster cluster;
  index::SpatialFileInfo replicated, single_copy;
};

ReplicationData& GetReplicationData() {
  static ReplicationData* data = new ReplicationData();
  return *data;
}

void RunReplicationQuery(benchmark::State& state,
                         const index::SpatialFileInfo& file) {
  ReplicationData& data = GetReplicationData();
  const Envelope query(3e5, 3e5, 4.5e5, 4.5e5);
  for (auto _ : state) {
    core::OpStats stats;
    auto result =
        core::RangeQuerySpatial(&data.cluster.runner, file, query, &stats)
            .ValueOrDie();
    state.counters["results"] = static_cast<double>(result.size());
    state.counters["deduplicated"] =
        static_cast<double>(stats.counters.Get("range.deduplicated"));
    ReportStats(state, stats);
  }
}

void BM_RangeOverReplicatedIndex(benchmark::State& state) {
  RunReplicationQuery(state, GetReplicationData().replicated);
}

void BM_RangeOverSingleCopyIndex(benchmark::State& state) {
  RunReplicationQuery(state, GetReplicationData().single_copy);
}

BENCHMARK(BM_RangeOverReplicatedIndex)->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_RangeOverSingleCopyIndex)->Iterations(1)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------- (d)

struct LidxData {
  LidxData() {
    workload::PolygonGenOptions polys;
    polys.centers.distribution = workload::Distribution::kClustered;
    polys.centers.count = 40000;
    polys.centers.seed = 11;
    polys.max_radius_fraction = 0.005;
    SHADOOP_CHECK_OK(workload::WritePolygonFile(&cluster.fs, "/poly", polys));
    index::IndexBuilder builder(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = index::PartitionScheme::kStr;
    options.shape = index::ShapeType::kPolygon;
    plain = builder.Build("/poly", "/poly.plain", options).ValueOrDie();
    options.build_local_indexes = true;
    with_lidx = builder.Build("/poly", "/poly.lidx", options).ValueOrDie();
  }
  BenchCluster cluster;
  index::SpatialFileInfo plain, with_lidx;
};

LidxData& GetLidxData() {
  static LidxData* data = new LidxData();
  return *data;
}

void RunLidxQuery(benchmark::State& state,
                  const index::SpatialFileInfo& file) {
  LidxData& data = GetLidxData();
  const Envelope query(2e5, 2e5, 7e5, 7e5);
  for (auto _ : state) {
    core::OpStats stats;
    auto result =
        core::RangeQuerySpatial(&data.cluster.runner, file, query, &stats)
            .ValueOrDie();
    state.counters["results"] = static_cast<double>(result.size());
    ReportStats(state, stats);
  }
}

void BM_RangeWithoutLocalIndex(benchmark::State& state) {
  RunLidxQuery(state, GetLidxData().plain);
}

void BM_RangeWithPersistedLocalIndex(benchmark::State& state) {
  RunLidxQuery(state, GetLidxData().with_lidx);
}

BENCHMARK(BM_RangeWithoutLocalIndex)->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_RangeWithPersistedLocalIndex)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- (f)

struct SkewedJoinData {
  SkewedJoinData() {
    WriteRects(&cluster.fs, "/sa", 40000, 7, 0.006);
    WriteRects(&cluster.fs, "/sb", 30000, 8, 0.006);
  }
  BenchCluster cluster;
};

SkewedJoinData& GetSkewedJoinData() {
  static SkewedJoinData* data = new SkewedJoinData();
  return *data;
}

void RunSjmrVariant(benchmark::State& state, bool balanced) {
  SkewedJoinData& data = GetSkewedJoinData();
  for (auto _ : state) {
    core::OpStats stats;
    core::SjmrOptions options;
    options.histogram_balanced = balanced;
    auto result =
        core::SjmrJoin(&data.cluster.runner, "/sa",
                       index::ShapeType::kRectangle, "/sb",
                       index::ShapeType::kRectangle, &stats, options)
            .ValueOrDie();
    state.counters["results"] = static_cast<double>(result.size());
    state.counters["reduce_makespan_s"] =
        stats.cost.reduce_makespan_ms / 1000.0;
    ReportStats(state, stats);
  }
}

void BM_SjmrUniformGridOnSkew(benchmark::State& state) {
  RunSjmrVariant(state, false);
}

void BM_SjmrHistogramBalancedOnSkew(benchmark::State& state) {
  RunSjmrVariant(state, true);
}

BENCHMARK(BM_SjmrUniformGridOnSkew)->Iterations(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SjmrHistogramBalancedOnSkew)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace shadoop::bench

BENCHMARK_MAIN();
