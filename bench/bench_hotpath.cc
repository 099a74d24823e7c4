// Wall-clock microbenchmarks for the zero-copy record fast path — index
// build, range query over a local-indexed file, and the polygon
// distributed join — plus a fault-recovery scenario that reruns a query
// sweep under deterministic task-fault injection (5% failures +
// stragglers) and records the simulated recovery overhead. Unlike the
// simulated-cost suite (bench_*.cc on google-benchmark), this harness
// measures *real* wall time, because the zero-copy work changes host
// performance, not the simulated cost model; the fault scenario
// additionally reports the sim-time overhead of retries, backoff and
// speculative re-execution. The incremental-ingest scenario times
// catalog appends (routing + copy-on-write rewrites + skew splits)
// against a full bulk rebuild of the same records, and fails if the
// appended version's query rows diverge from the rebuilt index. The
// server-saturation scenario drives concurrent tenant sessions through
// the query server and reports simulated p50/p99 request latencies,
// failing unless they are identical across reruns and admission seeds
// and the concurrent rows match a single-session sequential run.
//
// Usage:
//   bench_hotpath --label <name> [--out results.json] [--reps N]
//                 [--only <benchmark-name>]
//   bench_hotpath --merge base1.json[,base2.json...] cur1.json[,cur2.json...]
//
// The merge mode takes one or more reports per side (scripts/bench.sh
// writes one per rep, alternating the two binaries), pairs benchmarks by
// name, reports each side's median wall time with its min/max spread and
// the ratio of the medians as the speedup, prints the combined report
// (scripts/bench.sh writes it to $OUT, e.g. a committed BENCH_pr<N>.json),
// and exits non-zero if an invariant failed: geometry parses exceeding
// the record-visit bound, a checksum that differs between reps, or
// fault-injected output diverging from the clean run. Benchmarks with
// no baseline row are still emitted, with baseline fields set to -1.
// The harness compiles against the baseline tree too
// (scripts/bench.sh copies it into the baseline build), and every
// baseline that script builds has the parse counters and every
// subsystem a scenario uses, so all scenarios run on both sides.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/string_util.h"
#include "core/range_query.h"
#include "core/spatial_join.h"
#include "fault/fault_injector.h"
#include "index/index_builder.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"
#include "server/query_server.h"
#include "workload/generators.h"

namespace shadoop {
namespace {

constexpr size_t kIndexBuildPoints = 250000;
constexpr size_t kRangeQueryPoints = 200000;
constexpr int kRangeQueries = 48;
constexpr size_t kJoinPolygonsA = 14000;
constexpr size_t kJoinPolygonsB = 10000;
// Dense overlay: each polygon intersects several partners, so the join's
// refinement step visits every record many times — the regime the
// parse-once columns are built for.
constexpr double kJoinRadiusFraction = 0.03;
constexpr size_t kIngestBasePoints = 60000;
constexpr size_t kIngestBatchPoints = 20000;
constexpr int kIngestBatches = 3;

struct BenchResult {
  std::string name;
  double wall_ms = 0;           // Best of `reps` repetitions.
  int64_t records = 0;          // Record-visit bound for the run.
  int64_t parses = -1;          // Geometry parses (-1: not measured).
  int64_t checksum = 0;         // Result size, guards against dead code.
  double overhead_ms = -1;      // Simulated recovery overhead (-1: n/a).
  double p50_ms = -1;           // Simulated request latency p50 (-1: n/a).
  double p99_ms = -1;           // Simulated request latency p99 (-1: n/a).
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t ParseDelta(uint64_t before) {
  return static_cast<int64_t>(index::GeometryParseCount() - before);
}

uint64_t ParseSnapshot() { return index::GeometryParseCount(); }

/// The benchmark cluster mirrors bench_common.h: 64 KiB blocks, 25
/// slots, so datasets span hundreds of blocks.
struct Cluster {
  Cluster() : fs(HdfsConfig()), runner(&fs, ClusterConfig()) {}

  static hdfs::HdfsConfig HdfsConfig() {
    hdfs::HdfsConfig config;
    config.block_size = 64 * 1024;
    config.num_datanodes = 25;
    return config;
  }
  static mapreduce::ClusterConfig ClusterConfig() {
    mapreduce::ClusterConfig config;
    config.num_slots = 25;
    return config;
  }

  hdfs::FileSystem fs;
  mapreduce::JobRunner runner;
};

// ---------------------------------------------------------------------
// Benchmarks. Fixed seeds throughout; each runs `reps` times and keeps
// the fastest repetition (the least-noise estimate of the hot path).

BenchResult BenchIndexBuild(int reps) {
  BenchResult result;
  result.name = "index_build";
  Cluster cluster;
  workload::PointGenOptions gen;
  gen.count = kIndexBuildPoints;
  gen.seed = 7;
  gen.distribution = workload::Distribution::kClustered;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/pts", gen));

  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    index::IndexBuilder builder(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = index::PartitionScheme::kStr;
    options.shape = index::ShapeType::kPoint;
    const uint64_t parses_before = ParseSnapshot();
    const auto start = std::chrono::steady_clock::now();
    const auto info =
        builder.Build("/pts", "/idx" + std::to_string(rep), options)
            .ValueOrDie();
    result.wall_ms = std::min(result.wall_ms, MsSince(start));
    result.parses = ParseDelta(parses_before);
    result.checksum = static_cast<int64_t>(info.global_index.NumPartitions());
  }
  // The build visits each record once per job phase that interprets
  // geometry: the analysis scan, the partition map, and the master-side
  // finalize pass over the partitioned output.
  result.records = static_cast<int64_t>(kIndexBuildPoints) * 3;
  return result;
}

BenchResult BenchRangeQuery(int reps) {
  BenchResult result;
  result.name = "range_query";
  Cluster cluster;
  workload::PointGenOptions gen;
  gen.count = kRangeQueryPoints;
  gen.seed = 11;
  gen.distribution = workload::Distribution::kUniform;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/pts", gen));
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = index::PartitionScheme::kStr;
  options.shape = index::ShapeType::kPoint;
  options.build_local_indexes = true;  // The #lidx fast path.
  const auto file = builder.Build("/pts", "/pts.idx", options).ValueOrDie();

  // A deterministic sweep of query windows (5% of each side) across the
  // space; the partitions touched vary per query.
  std::vector<Envelope> queries;
  for (int i = 0; i < kRangeQueries; ++i) {
    const double x = (i * 131) % 950000;
    const double y = (i * 377) % 950000;
    queries.emplace_back(x, y, x + 50000, y + 50000);
  }

  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t parses_before = ParseSnapshot();
    size_t rows = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const Envelope& query : queries) {
      rows += core::RangeQuerySpatial(&cluster.runner, file, query)
                  .ValueOrDie()
                  .size();
    }
    result.wall_ms = std::min(result.wall_ms, MsSince(start));
    result.parses = ParseDelta(parses_before);
    result.checksum = static_cast<int64_t>(rows);
  }
  // With persisted local indexes every envelope comes from the #lidx
  // header: a query sweep should parse nothing at all, but allow one
  // parse per stored record per query for trees without the header
  // fast path.
  result.records =
      static_cast<int64_t>(kRangeQueryPoints) * kRangeQueries;
  return result;
}

BenchResult BenchSpatialJoin(int reps) {
  BenchResult result;
  result.name = "spatial_join";
  Cluster cluster;
  workload::PolygonGenOptions gen_a;
  gen_a.centers.count = kJoinPolygonsA;
  gen_a.centers.seed = 21;
  gen_a.centers.distribution = workload::Distribution::kClustered;
  gen_a.max_radius_fraction = kJoinRadiusFraction;
  SHADOOP_CHECK_OK(workload::WritePolygonFile(&cluster.fs, "/a", gen_a));
  workload::PolygonGenOptions gen_b = gen_a;
  gen_b.centers.count = kJoinPolygonsB;
  gen_b.centers.seed = 22;
  SHADOOP_CHECK_OK(workload::WritePolygonFile(&cluster.fs, "/b", gen_b));

  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = index::PartitionScheme::kStr;
  options.shape = index::ShapeType::kPolygon;
  const auto file_a = builder.Build("/a", "/a.idx", options).ValueOrDie();
  const auto file_b = builder.Build("/b", "/b.idx", options).ValueOrDie();

  // Record-visit bound of the distributed join: each overlapping
  // partition pair reads both partitions in full, once per pair.
  int64_t pair_records = 0;
  for (const index::Partition& pa : file_a.global_index.partitions()) {
    for (const index::Partition& pb : file_b.global_index.partitions()) {
      if (pa.mbr.Intersects(pb.mbr)) {
        pair_records += static_cast<int64_t>(pa.num_records) +
                        static_cast<int64_t>(pb.num_records);
      }
    }
  }

  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t parses_before = ParseSnapshot();
    const auto start = std::chrono::steady_clock::now();
    const auto rows =
        core::DistributedJoin(&cluster.runner, file_a, file_b).ValueOrDie();
    result.wall_ms = std::min(result.wall_ms, MsSince(start));
    result.parses = ParseDelta(parses_before);
    result.checksum = static_cast<int64_t>(rows.size());
  }
  result.records = pair_records;
  return result;
}

BenchResult BenchFaultRecovery(int reps) {
  BenchResult result;
  result.name = "fault_recovery";
  Cluster cluster;
  workload::PointGenOptions gen;
  gen.count = 100000;
  gen.seed = 31;
  gen.distribution = workload::Distribution::kUniform;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/pts", gen));

  std::vector<Envelope> queries;
  for (int i = 0; i < 12; ++i) {
    const double x = (i * 211) % 900000;
    const double y = (i * 433) % 900000;
    queries.emplace_back(x, y, x + 100000, y + 100000);
  }
  auto sweep = [&](core::OpStats* stats) {
    int64_t rows = 0;
    for (const Envelope& query : queries) {
      rows += static_cast<int64_t>(
          core::RangeQueryHadoop(&cluster.runner, "/pts",
                                 index::ShapeType::kPoint, query, stats)
              .ValueOrDie()
              .size());
    }
    return rows;
  };

  core::OpStats clean_stats;
  const int64_t clean_rows = sweep(&clean_stats);

  // The paper's recovery story: 5% of task attempts fail, 5% land on
  // slow nodes and straggle into speculative re-execution.
  fault::FaultPolicy policy;
  policy.seed = 17;
  policy.map_failure_prob = 0.05;
  policy.reduce_failure_prob = 0.05;
  policy.straggler_prob = 0.05;
  fault::FaultInjector injector(policy);

  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    core::OpStats stats;
    cluster.runner.set_fault_injector(&injector);
    const auto start = std::chrono::steady_clock::now();
    const int64_t rows = sweep(&stats);
    result.wall_ms = std::min(result.wall_ms, MsSince(start));
    cluster.runner.set_fault_injector(nullptr);
    if (rows != clean_rows) {
      std::cerr << "FAIL: fault-injected sweep returned " << rows
                << " rows, clean run returned " << clean_rows << "\n";
      std::exit(1);
    }
    result.checksum = rows;
    // Recovery overhead in *simulated* time: retries, exponential
    // backoff and straggler delays all land in the cost model, so the
    // delta against the clean sweep is deterministic.
    result.overhead_ms = stats.cost.total_ms - clean_stats.cost.total_ms;
  }
  result.records =
      static_cast<int64_t>(gen.count) * static_cast<int64_t>(queries.size());
  return result;
}

// Incremental ingest through the versioned catalog: bulk-build a base
// STR index, then append three 20k-point batches (skewed, gaussian,
// uniform — each triggers routing, copy-on-write delta rewrites and,
// for the clustered batch, skew splits). wall_ms times the appends
// only. overhead_ms is the wall time of the three appends minus a full
// bulk rebuild of the union (both best-of-reps) — negative means
// incremental maintenance beat rebuilding from scratch. The final
// version must return exactly the rows the bulk rebuild returns.
BenchResult BenchIncrementalIngest(int reps) {
  BenchResult result;
  result.name = "incremental_ingest";
  const int64_t total_records = static_cast<int64_t>(
      kIngestBasePoints + kIngestBatches * kIngestBatchPoints);

  result.wall_ms = std::numeric_limits<double>::infinity();
  double rebuild_wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    // Fresh cluster per repetition: appends advance the dataset's
    // version, so reusing one catalog would time ever-larger datasets.
    Cluster cluster;
    workload::PointGenOptions base;
    base.count = kIngestBasePoints;
    base.seed = 41;
    base.distribution = workload::Distribution::kUniform;
    SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/base", base));
    const workload::Distribution batch_dist[kIngestBatches] = {
        workload::Distribution::kClustered,
        workload::Distribution::kGaussian,
        workload::Distribution::kUniform};
    std::vector<std::string> batches;
    for (int i = 0; i < kIngestBatches; ++i) {
      workload::PointGenOptions gen;
      gen.count = kIngestBatchPoints;
      gen.seed = 43 + static_cast<uint64_t>(i);
      gen.distribution = batch_dist[i];
      batches.push_back("/batch" + std::to_string(i));
      SHADOOP_CHECK_OK(
          workload::WritePointFile(&cluster.fs, batches.back(), gen));
    }

    catalog::DatasetCatalog catalog(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = index::PartitionScheme::kStr;
    options.shape = index::ShapeType::kPoint;
    SHADOOP_CHECK_OK(
        catalog.Create("pts", "/base", "/pts.idx", options).status());

    core::OpStats ingest_stats;
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& batch : batches) {
      SHADOOP_CHECK_OK(catalog.Append("pts", batch, &ingest_stats).status());
    }
    result.wall_ms = std::min(result.wall_ms, MsSince(start));

    // Full-rebuild yardstick: bulk-index the union of every record.
    std::vector<std::string> all = cluster.fs.ReadLines("/base").ValueOrDie();
    for (const std::string& batch : batches) {
      std::vector<std::string> lines =
          cluster.fs.ReadLines(batch).ValueOrDie();
      all.insert(all.end(), lines.begin(), lines.end());
    }
    SHADOOP_CHECK_OK(cluster.fs.WriteLines("/all", all));
    index::IndexBuilder builder(&cluster.runner);
    const auto rebuild_start = std::chrono::steady_clock::now();
    const index::SpatialFileInfo rebuilt =
        builder.Build("/all", "/all.idx", options).ValueOrDie();
    rebuild_wall_ms = std::min(rebuild_wall_ms, MsSince(rebuild_start));

    const index::SpatialFileInfo latest =
        catalog.Snapshot("pts").ValueOrDie();
    const Envelope everything(0, 0, 1e6, 1e6);
    const int64_t inc_rows = static_cast<int64_t>(
        core::RangeQuerySpatial(&cluster.runner, latest, everything)
            .ValueOrDie()
            .size());
    const int64_t bulk_rows = static_cast<int64_t>(
        core::RangeQuerySpatial(&cluster.runner, rebuilt, everything)
            .ValueOrDie()
            .size());
    if (inc_rows != total_records || inc_rows != bulk_rows) {
      std::cerr << "FAIL: incremental version returned " << inc_rows
                << " rows, bulk rebuild " << bulk_rows << ", expected "
                << total_records << "\n";
      std::exit(1);
    }
    // Partition count folds the split decisions into the checksum, so a
    // nondeterministic repartition shows up as a checksum diff.
    result.checksum =
        static_cast<int64_t>(latest.global_index.NumPartitions()) * 1000000 +
        inc_rows;
  }
  result.overhead_ms = result.wall_ms - rebuild_wall_ms;
  result.records = total_records;
  return result;
}

constexpr size_t kServerPoints = 100000;
constexpr int kServerSessions = 5;

uint64_t Fnv64(const std::string& text, uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Nearest-rank percentile over an already-sorted latency vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return -1;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

// The mixed template stream of one tenant: two per-tenant range windows
// plus shared COUNT/KNN templates (repeated across and within streams,
// so the shared result cache sees real concurrent traffic).
std::vector<std::vector<std::string>> SaturationScripts() {
  std::vector<std::vector<std::string>> streams;
  for (int i = 0; i < kServerSessions; ++i) {
    const std::string x0 = std::to_string(120000 * i);
    const std::string x1 = std::to_string(120000 * i + 200000);
    streams.push_back({
        "a = RANGE pts RECTANGLE(" + x0 + ", 0, " + x1 + ", 400000); DUMP a;",
        "b = COUNT pts RECTANGLE(100000, 100000, 800000, 800000); DUMP b;",
        "c = KNN pts POINT(500000, 400000) K 8; DUMP c;",
        "d = COUNT pts RECTANGLE(100000, 100000, 800000, 800000); DUMP d;",
        "e = RANGE pts RECTANGLE(0, " + x0 + ", 350000, " +
            std::to_string(120000 * i + 250000) + "); DUMP e;",
        "f = KNN pts POINT(250000, 650000) K 4; DUMP f;",
    });
  }
  return streams;
}

struct SaturationRun {
  double wall_ms = 0;     // Real time of the concurrent phase.
  double p50_ms = -1;     // Simulated per-request latency percentiles.
  double p99_ms = -1;
  uint64_t checksum = 0;  // FNV over every request's rows, stream order.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// One saturation round: a fresh server over the shared filesystem, 5
// tenants x 5 slots on the 25-slot cluster (equal, remainder-free lane
// shares -> seed-invariant admission), each tenant a session driving
// its template stream concurrently.
SaturationRun RunServerSaturation(hdfs::FileSystem* fs, uint64_t seed) {
  server::ServerOptions options;
  options.cluster = Cluster::ClusterConfig();
  options.admission_seed = seed;
  server::QueryServer qs(fs, options);
  SHADOOP_CHECK_OK(qs.AttachDataset("pts", "/pts.idx"));

  const std::vector<std::vector<std::string>> scripts = SaturationScripts();
  std::vector<server::SessionStream> streams;
  for (int i = 0; i < kServerSessions; ++i) {
    const server::SessionId id =
        qs.OpenSession("tenant" + std::to_string(i), 5).ValueOrDie();
    streams.push_back(server::SessionStream{id, scripts[i]});
  }

  SaturationRun run;
  const auto start = std::chrono::steady_clock::now();
  const auto results = qs.ExecuteConcurrent(streams).ValueOrDie();
  run.wall_ms = MsSince(start);

  std::vector<double> latencies;
  uint64_t h = 1469598103934665603ULL;
  for (const auto& stream : results) {
    for (const server::RequestResult& request : stream) {
      latencies.push_back(request.sim_latency_ms);
      for (const std::string& row : request.rows) h = Fnv64(row + "\n", h);
      h = Fnv64("--\n", h);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  run.p50_ms = Percentile(latencies, 50);
  run.p99_ms = Percentile(latencies, 99);
  run.checksum = h;
  run.cache_hits = qs.result_cache().hits();
  run.cache_misses = qs.result_cache().misses();
  return run;
}

// Query-server saturation: N concurrent tenant sessions over one shared
// indexed dataset, mixed RANGE/COUNT/KNN templates, shared result
// cache, admission lanes live. wall_ms times the concurrent phase
// (best-of-reps); p50/p99 are *simulated* request latencies and must be
// bit-identical across repetitions and admission seeds — the scenario
// exits non-zero otherwise, and also if the concurrent row checksum
// diverges from a single-session sequential execution of the same
// query mix.
BenchResult BenchServerSaturation(int reps) {
  BenchResult result;
  result.name = "server_saturation";
  Cluster cluster;
  workload::PointGenOptions gen;
  gen.count = kServerPoints;
  gen.seed = 51;
  gen.distribution = workload::Distribution::kUniform;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/pts", gen));
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = index::PartitionScheme::kStr;
  options.shape = index::ShapeType::kPoint;
  options.build_local_indexes = true;
  SHADOOP_CHECK_OK(builder.Build("/pts", "/pts.idx", options).status());

  // Repetitions double as the rerun-determinism check; extra seeds
  // check that admission tie-break seeding cannot leak into results.
  SaturationRun base;
  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const SaturationRun run = RunServerSaturation(&cluster.fs, 0);
    if (rep == 0) {
      base = run;
    } else if (run.p50_ms != base.p50_ms || run.p99_ms != base.p99_ms ||
               run.checksum != base.checksum) {
      std::cerr << "FAIL: server_saturation rerun diverged (p50 "
                << run.p50_ms << " vs " << base.p50_ms << ", p99 "
                << run.p99_ms << " vs " << base.p99_ms << ")\n";
      std::exit(1);
    }
    result.wall_ms = std::min(result.wall_ms, run.wall_ms);
  }
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const SaturationRun run = RunServerSaturation(&cluster.fs, seed);
    if (run.p50_ms != base.p50_ms || run.p99_ms != base.p99_ms ||
        run.checksum != base.checksum) {
      std::cerr << "FAIL: server_saturation diverged under admission seed "
                << seed << "\n";
      std::exit(1);
    }
  }

  // Single-session yardstick: one session executes every stream's
  // requests in stream order. The concurrent checksum must match byte
  // for byte — concurrency must be invisible in results.
  server::ServerOptions seq_options;
  seq_options.cluster = Cluster::ClusterConfig();
  server::QueryServer sequential(&cluster.fs, seq_options);
  SHADOOP_CHECK_OK(sequential.AttachDataset("pts", "/pts.idx"));
  const server::SessionId session = sequential.OpenSession().ValueOrDie();
  uint64_t h = 1469598103934665603ULL;
  for (const std::vector<std::string>& stream : SaturationScripts()) {
    for (const std::string& script : stream) {
      const server::RequestResult request =
          sequential.Execute(session, script).ValueOrDie();
      for (const std::string& row : request.rows) h = Fnv64(row + "\n", h);
      h = Fnv64("--\n", h);
    }
  }
  if (h != base.checksum) {
    std::cerr << "FAIL: concurrent rows diverge from single-session "
                 "sequential execution\n";
    std::exit(1);
  }

  result.p50_ms = base.p50_ms;
  result.p99_ms = base.p99_ms;
  // 53-bit mask: the merge reader parses numbers as doubles, so a wider
  // checksum would round and compare unequal between raw and merged
  // reports.
  result.checksum = static_cast<int64_t>(base.checksum & 0x1fffffffffffffULL);
  std::cerr << "server_saturation: result_cache hits=" << base.cache_hits
            << " misses=" << base.cache_misses << "\n";
  // Visit bound: every request may scan the whole dataset.
  result.records = static_cast<int64_t>(kServerPoints) *
                   static_cast<int64_t>(kServerSessions) * 6;
  return result;
}

constexpr size_t kPlanPoints = 30000;
constexpr size_t kPlanPolygons = 4000;
constexpr size_t kPlanSkewPoints = 20000;

// The statement stream of one planning run: every costed decision in the
// tree — join strategy on disjoint point indexes and on overlapping
// polygon indexes, range index-vs-scan, and the AUTO partitioning
// advisor — each followed by the EXPLAIN that renders its `; plan:`
// segment. The FNV checksum over the returned rows therefore pins the
// *chosen plans* (and their rendered cost estimates), not just the query
// answers: a machine- or seed-dependent plan flips the checksum.
std::vector<std::string> PlanningScripts() {
  return {
      "a = LOAD '/opt_a' AS POINT;",
      "b = LOAD '/opt_b' AS POINT;",
      "ai = INDEX a WITH STR INTO '/opt_a.idx';",
      "bi = INDEX b WITH STR INTO '/opt_b.idx';",
      "pj = SJOIN ai, bi; EXPLAIN pj;",
      "r = RANGE ai RECTANGLE(100000, 100000, 420000, 420000); EXPLAIN r;",
      "c = COUNT bi RECTANGLE(0, 0, 250000, 990000); EXPLAIN c; DUMP c;",
      "pa = LOAD '/opt_pa' AS POLYGON;",
      "pb = LOAD '/opt_pb' AS POLYGON;",
      "pai = INDEX pa WITH STR INTO '/opt_pa.idx';",
      "pbi = INDEX pb WITH STR INTO '/opt_pb.idx';",
      "gj = SJOIN pai, pbi; EXPLAIN gj;",
      "skew = LOAD '/opt_skew' AS POINT;",
      "auto_idx = INDEX skew WITH AUTO INTO '/opt_auto.idx';",
      "EXPLAIN auto_idx;",
      "n = COUNT auto_idx RECTANGLE(0, 0, 1000000, 1000000); DUMP n;",
  };
}

struct PlanningRun {
  double wall_ms = 0;
  uint64_t checksum = 0;
};

// One planning round on a fresh filesystem (identical bytes and paths
// every time, so EXPLAIN output — which prints paths — is comparable
// across rounds): generate the datasets, open one server session, drive
// the statement stream, hash every returned row.
PlanningRun RunOptimizerPlanning(uint64_t seed) {
  Cluster cluster;
  workload::PointGenOptions uniform_a;
  uniform_a.count = kPlanPoints;
  uniform_a.seed = 71;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/opt_a", uniform_a));
  workload::PointGenOptions uniform_b = uniform_a;
  uniform_b.seed = 72;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/opt_b", uniform_b));
  workload::PointGenOptions skew;
  skew.distribution = workload::Distribution::kClustered;
  skew.count = kPlanSkewPoints;
  skew.seed = 73;
  SHADOOP_CHECK_OK(workload::WritePointFile(&cluster.fs, "/opt_skew", skew));
  // Clustered, fat polygons: the partition MBRs overlap heavily, which
  // is the regime where the pairwise join explodes and SJMR competes.
  workload::PolygonGenOptions poly;
  poly.centers.distribution = workload::Distribution::kClustered;
  poly.centers.count = kPlanPolygons;
  poly.centers.seed = 74;
  poly.max_radius_fraction = 0.04;
  SHADOOP_CHECK_OK(workload::WritePolygonFile(&cluster.fs, "/opt_pa", poly));
  poly.centers.seed = 75;
  SHADOOP_CHECK_OK(workload::WritePolygonFile(&cluster.fs, "/opt_pb", poly));

  server::ServerOptions options;
  options.cluster = Cluster::ClusterConfig();
  options.admission_seed = seed;
  server::QueryServer qs(&cluster.fs, options);
  const server::SessionId session = qs.OpenSession().ValueOrDie();

  PlanningRun run;
  uint64_t h = 1469598103934665603ULL;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& script : PlanningScripts()) {
    const server::RequestResult request =
        qs.Execute(session, script).ValueOrDie();
    for (const std::string& row : request.rows) h = Fnv64(row + "\n", h);
    h = Fnv64("--\n", h);
  }
  run.wall_ms = MsSince(start);
  run.checksum = h;
  return run;
}

// Cost-based planning end to end: index builds (one via the AUTO
// advisor), two planned joins, planned range/count — wall_ms is the
// whole planned-and-executed stream, best-of-reps. Repetitions double as
// the plan-determinism check, and extra admission seeds verify that
// scheduling tie-breaks cannot leak into plan choices: the row checksum
// (which pins every EXPLAIN `; plan:` line) must be bit-identical across
// all of them, or the scenario exits non-zero.
BenchResult BenchOptimizerPlanning(int reps) {
  BenchResult result;
  result.name = "optimizer_planning";
  PlanningRun base;
  result.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const PlanningRun run = RunOptimizerPlanning(0);
    if (rep == 0) {
      base = run;
    } else if (run.checksum != base.checksum) {
      std::cerr << "FAIL: optimizer_planning rerun diverged (checksum "
                << run.checksum << " vs " << base.checksum << ")\n";
      std::exit(1);
    }
    result.wall_ms = std::min(result.wall_ms, run.wall_ms);
  }
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const PlanningRun run = RunOptimizerPlanning(seed);
    if (run.checksum != base.checksum) {
      std::cerr << "FAIL: optimizer_planning plans diverged under admission "
                   "seed "
                << seed << "\n";
      std::exit(1);
    }
  }
  // Visit bound: each dataset is read a bounded number of times (build,
  // sample, join pairs); generous but finite so dead-code elimination of
  // the stream would still be caught by the checksum, not this field.
  result.records = static_cast<int64_t>(2 * kPlanPoints + kPlanSkewPoints +
                                        2 * kPlanPolygons) *
                   16;
  result.checksum = static_cast<int64_t>(base.checksum & 0x1fffffffffffffULL);
  return result;
}

// ---------------------------------------------------------------------
// Ad-hoc JSON (one benchmark object per line, so the merge mode can
// read it back with plain string scanning — no JSON library needed).

std::string ToJson(const std::string& label,
                   const std::vector<BenchResult>& results) {
  std::ostringstream out;
  out << "{\n  \"label\": \"" << label << "\",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"wall_ms\": "
        << r.wall_ms << ", \"records\": " << r.records
        << ", \"parses\": " << r.parses << ", \"checksum\": " << r.checksum
        << ", \"overhead_ms\": " << r.overhead_ms
        << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

bool ExtractString(const std::string& text, const std::string& key,
                   std::string* out) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const size_t start = at + needle.size();
  const size_t end = text.find('"', start);
  if (end == std::string::npos) return false;
  *out = text.substr(start, end - start);
  return true;
}

bool ExtractNumber(const std::string& text, const std::string& key,
                   double* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtod(text.c_str() + at + needle.size(), nullptr);
  return true;
}

struct ParsedRun {
  std::string label;
  std::vector<BenchResult> benchmarks;
};

bool LoadRun(const std::string& path, ParsedRun* run) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::string name;
    if (run->label.empty()) ExtractString(line, "label", &run->label);
    if (!ExtractString(line, "name", &name)) continue;
    BenchResult r;
    r.name = name;
    double value = 0;
    if (ExtractNumber(line, "wall_ms", &value)) r.wall_ms = value;
    if (ExtractNumber(line, "records", &value)) {
      r.records = static_cast<int64_t>(value);
    }
    if (ExtractNumber(line, "parses", &value)) {
      r.parses = static_cast<int64_t>(value);
    }
    if (ExtractNumber(line, "checksum", &value)) {
      r.checksum = static_cast<int64_t>(value);
    }
    if (ExtractNumber(line, "overhead_ms", &value)) r.overhead_ms = value;
    // Latency percentiles only exist on server-era reports; older
    // baselines simply keep the -1 defaults.
    if (ExtractNumber(line, "p50_ms", &value)) r.p50_ms = value;
    if (ExtractNumber(line, "p99_ms", &value)) r.p99_ms = value;
    run->benchmarks.push_back(std::move(r));
  }
  return !run->benchmarks.empty();
}

/// One benchmark over the repeated runs of one side: wall-clock median
/// and spread, plus the deterministic fields (which must agree).
struct Summary {
  BenchResult first;  // Deterministic fields, from the first run.
  double median_ms = -1;
  double min_ms = -1;
  double max_ms = -1;
  double overhead_ms = -1;  // Median (host time for incremental_ingest).
  int64_t max_parses = -1;
  int reps = 0;
  bool checksum_stable = true;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Loads every report in the comma-separated `paths` and summarizes each
/// benchmark by name, in the first report's order.
bool LoadSide(const std::string& paths, std::string* label,
              std::vector<Summary>* out) {
  std::vector<ParsedRun> runs;
  for (std::string_view path : SplitString(paths, ',')) {
    ParsedRun run;
    if (!LoadRun(std::string(path), &run)) return false;
    runs.push_back(std::move(run));
  }
  if (runs.empty()) return false;
  *label = runs.front().label;
  for (const BenchResult& head : runs.front().benchmarks) {
    Summary sum;
    sum.first = head;
    std::vector<double> walls, overheads;
    for (const ParsedRun& run : runs) {
      for (const BenchResult& r : run.benchmarks) {
        if (r.name != head.name) continue;
        walls.push_back(r.wall_ms);
        overheads.push_back(r.overhead_ms);
        sum.max_parses = std::max(sum.max_parses, r.parses);
        if (r.checksum != head.checksum) sum.checksum_stable = false;
      }
    }
    sum.reps = static_cast<int>(walls.size());
    sum.median_ms = Median(walls);
    sum.min_ms = *std::min_element(walls.begin(), walls.end());
    sum.max_ms = *std::max_element(walls.begin(), walls.end());
    sum.overhead_ms = Median(overheads);
    out->push_back(std::move(sum));
  }
  return true;
}

int Merge(const std::string& baseline_paths,
          const std::string& current_paths) {
  std::string baseline_label, current_label;
  std::vector<Summary> baseline, current;
  if (!LoadSide(baseline_paths, &baseline_label, &baseline) ||
      !LoadSide(current_paths, &current_label, &current)) {
    return 2;
  }
  bool parse_invariant_ok = true;
  bool checksums_stable = true;
  // PR 7 raised the bar: the vectorized filter-refine path must hold
  // >= 2.5x on BOTH query-side scenarios, not 2x on any one.
  bool join_target = false;
  bool range_target = false;
  std::ostringstream rows;
  for (size_t i = 0; i < current.size(); ++i) {
    const Summary& cur = current[i];
    const Summary* base = nullptr;
    for (const Summary& b : baseline) {
      if (b.first.name == cur.first.name) base = &b;
    }
    // A benchmark the baseline tree cannot run (e.g. fault_recovery
    // against a pre-fault-subsystem revision) is still reported, with
    // the baseline columns pinned to -1.
    const Summary missing;
    const Summary& b = base != nullptr ? *base : missing;
    const int64_t base_checksum = base != nullptr ? b.first.checksum : -1;
    const double speedup = base != nullptr && cur.median_ms > 0
                               ? b.median_ms / cur.median_ms
                               : 0;
    const std::string& name = cur.first.name;
    if (name == "spatial_join" && speedup >= 2.5) join_target = true;
    if (name == "range_query" && speedup >= 2.5) range_target = true;
    // The parse-once invariant only applies to the current tree (the
    // baseline predates the counters and reports -1).
    const bool parses_ok =
        cur.max_parses < 0 || cur.max_parses <= cur.first.records;
    if (!parses_ok) parse_invariant_ok = false;
    if (!cur.checksum_stable || !b.checksum_stable) {
      std::cerr << "FAIL: " << name << " checksum differs between reps\n";
      checksums_stable = false;
    }
    rows << "    {\"name\": \"" << name << "\", \"baseline_wall_ms\": "
         << b.median_ms << ", \"wall_ms\": " << cur.median_ms
         << ", \"speedup\": " << speedup << ", \"reps\": " << cur.reps
         << ", \"baseline_min_ms\": " << b.min_ms
         << ", \"baseline_max_ms\": " << b.max_ms
         << ", \"min_ms\": " << cur.min_ms << ", \"max_ms\": " << cur.max_ms
         << ", \"records\": " << cur.first.records
         << ", \"parses\": " << cur.max_parses << ", \"baseline_parses\": "
         << b.max_parses << ", \"parse_once_ok\": "
         << (parses_ok ? "true" : "false") << ", \"checksum\": "
         << cur.first.checksum << ", \"baseline_checksum\": " << base_checksum
         << ", \"overhead_ms\": " << cur.overhead_ms
         << ", \"p50_ms\": " << cur.first.p50_ms
         << ", \"p99_ms\": " << cur.first.p99_ms << "}"
         << (i + 1 < current.size() ? "," : "") << "\n";
  }
  std::cout << "{\n  \"bench\": \"zero-copy-hotpath\",\n"
            << "  \"baseline\": \"" << baseline_label << "\",\n"
            << "  \"current\": \"" << current_label << "\",\n"
            << "  \"results\": [\n" << rows.str() << "  ],\n"
            << "  \"parse_invariant_ok\": "
            << (parse_invariant_ok ? "true" : "false") << ",\n"
            << "  \"speedup_target_met\": "
            << (join_target && range_target ? "true" : "false") << "\n}\n";
  if (!parse_invariant_ok) {
    std::cerr << "FAIL: geometry parses exceed records processed\n";
    return 1;
  }
  return checksums_stable ? 0 : 1;
}

int RunAll(const std::string& label, const std::string& out_path, int reps,
           const std::string& only) {
  std::vector<BenchResult> results;
  using NamedBench = std::pair<const char*, BenchResult (*)(int)>;
  const std::vector<NamedBench> benches = {
      {"index_build", &BenchIndexBuild},
      {"range_query", &BenchRangeQuery},
      {"spatial_join", &BenchSpatialJoin},
      {"fault_recovery", &BenchFaultRecovery},
      {"incremental_ingest", &BenchIncrementalIngest},
      {"server_saturation", &BenchServerSaturation},
      {"optimizer_planning", &BenchOptimizerPlanning}};
  for (const NamedBench& bench : benches) {
    if (!only.empty() && only != bench.first) continue;
    const BenchResult r = bench.second(reps);
    std::cerr << r.name << ": " << r.wall_ms << " ms (parses=" << r.parses
              << ", records=" << r.records
              << ", recovery_overhead_ms=" << r.overhead_ms << ")\n";
    if (r.parses >= 0 && r.parses > r.records) {
      std::cerr << "FAIL: " << r.name << " parsed " << r.parses
                << " geometries for a bound of " << r.records << "\n";
      return 1;
    }
    results.push_back(r);
  }
  const std::string json = ToJson(label, results);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(out_path);
    out << json;
  }
  return 0;
}

}  // namespace
}  // namespace shadoop

int main(int argc, char** argv) {
  std::string label = "run";
  std::string out_path;
  std::string only;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--merge" && i + 2 < argc) {
      return shadoop::Merge(argv[i + 1], argv[i + 2]);
    }
    if (arg == "--label" && i + 1 < argc) label = argv[++i];
    if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    if (arg == "--only" && i + 1 < argc) only = argv[++i];
  }
  return shadoop::RunAll(label, out_path, reps, only);
}
