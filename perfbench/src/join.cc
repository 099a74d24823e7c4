// join: the heavy batch path. Several seeded pairs of clustered polygon
// datasets, each stored STR-indexed and as a plain file. Every pair is
// joined twice in one QueryServer request with the result cache off:
// indexed (the optimizer picks dj.l, dj.r or sjmr) and unindexed (SJMR).
// Both answers must match the benchmark's own plane-sweep reference.
// One request per pair keeps the samples alike: a DJ and an SJMR each.
#include <algorithm>
#include <memory>

#include "catalog/dataset_catalog.h"
#include "core/spatial_file_splitter.h"
#include "core/spatial_join.h"
#include "index/global_index.h"
#include "mapreduce/job_runner.h"
#include "pigeon/parser.h"
#include "server/query_server.h"
#include "simd/mbr_kernels.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sh = shadoop;

constexpr int kPairs = 3;
constexpr size_t kPolygonsA = 20000;
constexpr size_t kPolygonsB = 15000;
constexpr double kRadius = 0.01;
constexpr int kSetups = 3;
constexpr size_t kMaxProbedPairs = 8;
constexpr const char* kWhy =
    "heavy batch: pair splits, plane-sweep kernel, polygon refinement and "
    "SJMR shuffle, with more distinct blocks per pass than the "
    "ArtifactCache holds; parser and planner negligible";

std::string PlainPath(char side, int pair) {
  return std::string("/join/") + side + std::to_string(pair);
}
std::string IndexedPath(char side, int pair) {
  return PlainPath(side, pair) + ".idx";
}
std::string BoundName(char side, int pair) {
  return std::string(1, side) + std::to_string(pair) + "i";
}

struct Pair {
  std::vector<std::string> records_a, records_b;
  sh::index::SpatialFileInfo a, b;
  RowDigest reference;
};

struct Dataset {
  std::unique_ptr<sh::hdfs::FileSystem> fs;
  std::vector<Pair> pairs;
  std::vector<double> build_ms;  // Per indexed dataset.
  double sim_build_ms = 0;
  uint64_t build_bytes_written = 0;
  uint64_t build_records = 0;
};

std::vector<std::string> MakePolygons(uint64_t seed, size_t count) {
  sh::workload::PolygonGenOptions gen;
  gen.centers.distribution = sh::workload::Distribution::kClustered;
  gen.centers.num_clusters = kDataClusters;
  gen.centers.count = count;
  gen.centers.seed = seed;
  gen.max_radius_fraction = kRadius;
  return sh::workload::PolygonsToRecords(sh::workload::GeneratePolygons(gen));
}

Dataset SetUp(uint64_t seed) {
  Dataset d;
  d.fs = std::make_unique<sh::hdfs::FileSystem>(BenchHdfsConfig());
  sh::mapreduce::JobRunner runner(d.fs.get(), BenchClusterConfig());
  sh::catalog::DatasetCatalog catalog(&runner);
  sh::index::IndexBuildOptions options;
  options.scheme = sh::index::PartitionScheme::kStr;
  options.shape = sh::index::ShapeType::kPolygon;
  for (int p = 0; p < kPairs; ++p) {
    Pair pair;
    pair.records_a = MakePolygons(seed * 1000 + 2 * p + 1, kPolygonsA);
    pair.records_b = MakePolygons(seed * 1000 + 2 * p + 2, kPolygonsB);
    for (char side : {'a', 'b'}) {
      const auto& records = side == 'a' ? pair.records_a : pair.records_b;
      SHADOOP_CHECK_OK(d.fs->WriteLines(PlainPath(side, p), records));
      const uint64_t written = d.fs->io_stats().bytes_written;
      const int64_t start = NowNs();
      auto info = catalog
                      .Create(BoundName(side, p), PlainPath(side, p),
                              IndexedPath(side, p), options)
                      .ValueOrDie();
      d.build_ms.push_back(NsToMs(NowNs() - start));
      d.build_bytes_written += d.fs->io_stats().bytes_written - written;
      d.sim_build_ms += info.build_cost.total_ms;
      d.build_records += records.size();
      (side == 'a' ? pair.a : pair.b) = std::move(info);
    }
    d.pairs.push_back(std::move(pair));
  }
  return d;
}

std::string IndexedScript(int p) {
  return "j = SJOIN " + BoundName('a', p) + ", " + BoundName('b', p) +
         "; DUMP j;";
}
std::string PlainScript(int p) {
  return "pa = LOAD '" + PlainPath('a', p) + "' AS POLYGON; pb = LOAD '" +
         PlainPath('b', p) + "' AS POLYGON; u = SJOIN pa, pb; DUMP u;";
}
std::string PairScript(int p) {
  return IndexedScript(p) + " " + PlainScript(p);
}

struct Execution {
  double host_ms = 0;
  double sim_ms = 0;
  bool ok = false;
};

/// True when `rows` is the indexed join's rows followed by the unindexed
/// join's, each equal to the reference.
bool CheckPairRows(const std::vector<std::string>& rows,
                   const RowDigest& reference) {
  if (rows.size() != 2 * reference.count) return false;
  const auto half = rows.begin() + static_cast<ptrdiff_t>(reference.count);
  return DigestOf(std::vector<std::string>(rows.begin(), half)) == reference &&
         DigestOf(std::vector<std::string>(half, rows.end())) == reference;
}

/// One pass: one request per pair, each pair on a fresh server (its rows
/// are released before the next pair runs).
std::vector<Execution> RunPass(Dataset& data, Outcome* out) {
  std::vector<Execution> pass(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    sh::server::ServerOptions options;
    options.cluster = BenchClusterConfig();
    options.enable_result_cache = false;
    sh::server::QueryServer server(data.fs.get(), options);
    for (char side : {'a', 'b'}) {
      SHADOOP_CHECK_OK(
          server.AttachDataset(BoundName(side, p), IndexedPath(side, p)));
    }
    const auto session = server.OpenSession().ValueOrDie();
    Execution& e = pass[p];
    const int64_t t0 = NowNs();
    auto result = server.Execute(session, PairScript(p));
    e.host_ms = NsToMs(NowNs() - t0);
    if (result.ok()) {
      e.sim_ms = result->sim_latency_ms;
      e.ok = CheckPairRows(result->rows, data.pairs[p].reference);
    }
    out->Op(e.ok, result.ok() ? "pair " + std::to_string(p) +
                                    ": a join differs from the reference " +
                                    data.pairs[p].reference.ToString()
                              : result.status().ToString());
  }
  return pass;
}

void RunTraced(const Args& args, Dataset& data, Outcome* out) {
  std::map<std::string, double> values;
  LayerStats layers;
  Tracer tracer;
  TraceSummary summary;
  const auto cluster = BenchClusterConfig();
  sh::mapreduce::JobRunner runner(data.fs.get(), cluster);
  const uint64_t parse0 = sh::index::GeometryParseCount();
  uint64_t records_read = 0;
  double dj_l = 0, dj_r = 0, sjmr = 0;
  constexpr auto kPolygon = sh::index::ShapeType::kPolygon;

  for (int p = 0; p < kPairs; ++p) {
    const Pair& pair = data.pairs[p];
    const int stmt = p;
    // The untraced clock: the same request through a fresh server.
    double untraced_ms = 0;
    {
      sh::server::ServerOptions options;
      options.cluster = cluster;
      options.enable_result_cache = false;
      sh::server::QueryServer server(data.fs.get(), options);
      for (char side : {'a', 'b'}) {
        SHADOOP_CHECK_OK(
            server.AttachDataset(BoundName(side, p), IndexedPath(side, p)));
      }
      const auto session = server.OpenSession().ValueOrDie();
      bool ok = false;
      untraced_ms = TimedMs(&tracer, "server.execute", stmt, -1, [&] {
        auto result = server.Execute(session, PairScript(p));
        ok = result.ok() && CheckPairRows(result->rows, pair.reference);
      });
      out->Op(ok, "traced run: pair " + std::to_string(p) +
                      " differs from the reference");
    }

    const int root = tracer.Begin("bench.replay", stmt, -1);
    double attributed = TimedMs(&tracer, "pigeon.parse", stmt, root, [&] {
      (void)sh::pigeon::Parse(PairScript(p));
    });
    layers.Sample("pigeon.parse_us", attributed * 1e3);
    sh::optimizer::JoinPlan plan;
    const double plan_ms = TimedMs(
        &tracer, "optimizer.plan_join", stmt, root, [&] {
      plan = sh::optimizer::PlanJoin(cluster, pair.a, pair.b);
    });
    attributed += plan_ms;
    layers.Sample("optimizer.plan_us", plan_ms * 1e3);
    dj_l += plan.strategy == sh::optimizer::JoinStrategy::kDjBuildLeft;
    dj_r += plan.strategy == sh::optimizer::JoinStrategy::kDjBuildRight;
    sjmr += plan.strategy == sh::optimizer::JoinStrategy::kSjmr;

    // The indexed join as planned, then the unindexed one (SJMR).
    for (int variant = 0; variant < 2; ++variant) {
      const bool is_sjmr =
          variant == 1 || plan.strategy == sh::optimizer::JoinStrategy::kSjmr;
      sh::core::OpStats stats;
      sh::Result<std::vector<std::string>> rows = std::vector<std::string>();
      const int op_span = tracer.Begin(
          is_sjmr ? "core.sjmr_join" : "core.distributed_join", stmt, root);
      if (variant == 1) {
        rows = sh::core::SjmrJoin(&runner, PlainPath('a', p), kPolygon,
                                  PlainPath('b', p), kPolygon, &stats);
      } else if (is_sjmr) {
        rows = sh::core::SjmrJoin(&runner, pair.a.data_path, kPolygon,
                                  pair.b.data_path, kPolygon, &stats);
      } else {
        sh::core::DjOptions dj;
        dj.build_right =
            plan.strategy == sh::optimizer::JoinStrategy::kDjBuildRight;
        rows = sh::core::DistributedJoin(&runner, pair.a, pair.b, &stats, dj);
      }
      tracer.End(op_span);
      const Tracer::Span& op = tracer.spans()[op_span];
      const double op_ms = NsToMs(op.end_ns - op.start_ns);
      attributed += op_ms;
      layers.Sample(is_sjmr ? "core.op_ms.sjmr" : "core.op_ms.dj", op_ms);
      RecordOpStats(&tracer, stmt, op_span, stats, &layers);
      out->Op(rows.ok() && DigestOf(rows.value()) == pair.reference,
              "traced run: replayed join of pair " + std::to_string(p) +
                  " differs from the reference");
      if (variant == 0) {
        const double q_error = PlanQError(plan.decision, stats.cost.total_ms);
        if (q_error > 0) layers.Sample("optimizer.q_error", q_error);
      }
      records_read += kPolygonsA + kPolygonsB;
    }

    std::vector<std::pair<int, int>> overlapping;
    const double filter_ms = TimedMs(
        &tracer, "index.overlapping_partition_pairs", stmt, root, [&] {
      overlapping = sh::index::OverlappingPartitionPairs(
          pair.a.global_index, pair.b.global_index);
    });
    layers.Sample("index.global_filter_us", filter_ms * 1e3);
    const double split_ms = TimedMs(
        &tracer, "core.pair_splits", stmt, root, [&] {
      (void)sh::core::PairSplits(pair.a, pair.b, overlapping);
    });
    layers.Sample("core.split_us", split_ms * 1e3);
    const size_t step =
        std::max<size_t>(1, overlapping.size() / kMaxProbedPairs);
    for (size_t i = 0; i < overlapping.size(); i += step) {
      const auto [ia, ib] = overlapping[i];
      PartitionProbe pa = ProbePartition(&tracer, stmt, root, *data.fs, pair.a,
                                         pair.a.global_index.partitions()[ia],
                                         nullptr, nullptr, &layers);
      PartitionProbe pb = ProbePartition(&tracer, stmt, root, *data.fs, pair.b,
                                         pair.b.global_index.partitions()[ib],
                                         nullptr, nullptr, &layers);
      // The plane-sweep advance: B boxes sorted by min x, one prefix count
      // per A box.
      std::vector<double> b_min_x;
      for (const auto& e : pb.envelopes) b_min_x.push_back(e.min_x());
      std::sort(b_min_x.begin(), b_min_x.end());
      size_t counted = 0;
      const double sweep_ms = TimedMs(
          &tracer, "simd.prefix_count_less_equal", stmt, root, [&] {
        for (const auto& e : pa.envelopes) {
          counted += sh::simd::PrefixCountLessEqual(
              b_min_x.data(), b_min_x.size(), e.max_x());
        }
      });
      layers.Ratio("simd.prefix_count_ns_per_value", sweep_ms * 1e6,
                   std::max<size_t>(1, counted));
    }
    tracer.End(root);
    const Tracer::Span& r = tracer.spans()[root];
    summary.untraced_ms += untraced_ms;
    summary.traced_ms += NsToMs(r.end_ns - r.start_ns);
    summary.unattributed_ms.push_back(untraced_ms - attributed);
  }
  const uint64_t hits = runner.artifact_cache()->hits();
  const uint64_t misses = runner.artifact_cache()->misses();
  values["mapreduce.artifact_cache_hit_ratio"] =
      hits + misses ? static_cast<double>(hits) / (hits + misses) : 0;
  out->FactNumber("artifact_cache_lookups_per_pass", hits + misses);
  out->FactNumber("artifact_cache_misses_per_pass", misses);
  values["index.parses_per_record"] =
      static_cast<double>(sh::index::GeometryParseCount() - parse0) /
      records_read;
  values["optimizer.choice.dj_l"] = dj_l;
  values["optimizer.choice.dj_r"] = dj_r;
  values["optimizer.choice.sjmr"] = sjmr;
  values["hdfs.bytes_written_per_record"] =
      static_cast<double>(data.build_bytes_written) / data.build_records;

  std::vector<double> skew;
  double stored = 0;
  {
    sh::catalog::DatasetCatalog catalog(&runner);
    const int span = tracer.Begin("catalog.stats", -1, -1);
    for (int p = 0; p < kPairs; ++p) {
      for (char side : {'a', 'b'}) {
        SHADOOP_CHECK_OK(
            catalog.Open(BoundName(side, p), IndexedPath(side, p)));
        skew.push_back(catalog.Stats(BoundName(side, p)).ValueOrDie().skew);
        const auto& info = side == 'a' ? data.pairs[p].a : data.pairs[p].b;
        for (const auto& part : info.global_index.partitions()) {
          stored += part.num_records;
        }
      }
    }
    tracer.End(span);
  }
  values["index.partition_skew"] = Median(skew);
  values["index.replication_ratio"] =
      (stored - data.build_records) / data.build_records;

  for (const char* name :
       {"hdfs.read_block_us", "index.global_filter_us", "core.split_us",
        "optimizer.plan_us", "pigeon.parse_us", "core.op_ms.dj",
        "core.op_ms.sjmr", "optimizer.q_error"}) {
    values[name] = layers.MedianOf(name);
  }
  for (const char* name :
       {"geometry.decode_ns_per_record", "index.local_build_ns_per_record",
        "core.column_ns_per_record", "simd.prefix_count_ns_per_value",
        "mapreduce.jobs_per_op", "mapreduce.tasks_per_op",
        "mapreduce.job_wall_share", "mapreduce.sim_map_ms",
        "mapreduce.sim_shuffle_ms", "mapreduce.sim_reduce_ms",
        "mapreduce.bytes_shuffled_per_op"}) {
    values[name] = layers.RatioOf(name);
  }
  EmitTraceSummary(args, tracer, summary, &values, out);
  for (const char* name :
       {"hdfs.bytes_written_per_record", "index.partition_skew",
        "index.replication_ratio", "mapreduce.jobs_per_op",
        "mapreduce.tasks_per_op", "mapreduce.sim_map_ms",
        "mapreduce.sim_shuffle_ms", "mapreduce.sim_reduce_ms",
        "mapreduce.bytes_shuffled_per_op", "optimizer.q_error",
        "optimizer.choice.dj_l", "optimizer.choice.dj_r",
        "optimizer.choice.sjmr"}) {
    out->pinned[name] = values[name];
  }
  EmitPerLayer(values, out);
}

}  // namespace

void RunJoin(const Args& args, Outcome* out) {
  out->FactString("why", kWhy);
  std::vector<double> setup_ms, build_ms, ingest_ms;
  Dataset data;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    data = Dataset();
    const int64_t start = NowNs();
    data = SetUp(args.seed);
    setup_ms.push_back(NsToMs(NowNs() - start));
    build_ms.insert(build_ms.end(), data.build_ms.begin(), data.build_ms.end());
    ingest_ms.push_back(Sum(data.build_ms));
  }

  uint64_t plain_bytes = 0, stored_bytes = 0, blocks = 0, records = 0;
  for (int p = 0; p < kPairs; ++p) {
    Pair& pair = data.pairs[p];
    PolygonOracle a, b;
    a.Add(pair.records_a);
    b.Add(pair.records_b);
    if (a.bad + b.bad > 0) out->Problem("oracle could not parse a polygon");
    pair.reference = JoinReference(a, b);
    for (char side : {'a', 'b'}) {
      plain_bytes += FileBytes(*data.fs, PlainPath(side, p));
      stored_bytes += StoredBytes(*data.fs, IndexedPath(side, p));
      blocks += data.fs->GetFileMeta(IndexedPath(side, p))->blocks.size();
    }
    records += pair.records_a.size() + pair.records_b.size();
    pair.records_a = std::vector<std::string>();  // Only the oracle needs them.
    pair.records_b = std::vector<std::string>();
    out->FactNumber("reference_rows_pair" + std::to_string(p),
                    pair.reference.count);
  }
  out->FactNumber("pairs", kPairs);
  out->FactNumber("records", records);
  out->FactNumber("plain_bytes", plain_bytes);
  out->FactNumber("indexed_bytes", stored_bytes);
  out->FactNumber("indexed_blocks", blocks);
  out->FactString("working_set",
                  std::to_string(blocks) + " indexed + as many plain blocks "
                  "per pass against an ArtifactCache of 4096 entries; the "
                  "result cache is off");

  std::vector<std::vector<Execution>> passes;
  std::vector<double> rates;  // Requests per second of each pass.
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    const int64_t start = NowNs();
    passes.push_back(RunPass(data, out));
    rates.push_back(kPairs / (NsToMs(NowNs() - start) / 1e3));
  } while (NowNs() < deadline);
  out->FactNumber("passes", passes.size());
  for (size_t i = 1; i < passes.size(); ++i) {
    for (int p = 0; p < kPairs; ++p) {
      if (passes[i][p].ok && passes[i][p].sim_ms != passes[0][p].sim_ms) {
        out->Problem("determinism bug: simulated latency of pair " +
                     std::to_string(p) + " differs between passes");
      }
    }
  }

  if (args.trace) {
    RunTraced(args, data, out);
    return;
  }
  std::vector<double> host, sim;
  for (const auto& pass : passes) {
    for (const Execution& e : pass) host.push_back(e.host_ms);
  }
  for (const Execution& e : passes.front()) sim.push_back(e.sim_ms);
  out->Fact("query_ms", DistributionJson(host));
  out->Fact("setup_ms_samples", JsonArray(setup_ms));
  out->Fact("ingest_ms_samples", JsonArray(ingest_ms));
  out->Metric("setup_s", Median(setup_ms) / 1e3, "s");
  out->Metric("build_s", Median(build_ms) / 1e3, "s");
  out->Metric("ingest_s", Median(ingest_ms) / 1e3, "s");
  out->Metric("sim_ingest_s", data.sim_build_ms / 1e3, "s");
  out->Metric("space_amp", static_cast<double>(stored_bytes) / plain_bytes,
              "ratio");
  out->Metric("query_p50_ms", Quantile(host, 0.5), "ms");
  out->Metric("queries_per_s", Median(rates), "1/s");
  out->Metric("sim_query_p50_ms", Quantile(sim, 0.5), "ms");
  out->Metric("sim_query_p99_ms", Quantile(sim, 0.99), "ms");
  for (const char* name : {"sim_ingest_s", "space_amp", "sim_query_p50_ms",
                           "sim_query_p99_ms"}) {
    out->pinned[name] = out->metrics[name].first;
  }
}

}  // namespace perfbench
