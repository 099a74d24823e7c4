// ingest: writes beside reads. Each round bulk-builds a 250k-point
// clustered base with local indexes through DatasetCatalog::Create, then
// appends six 20k-point batches (clustered, gaussian, uniform, twice)
// through DatasetCatalog::Append, and after every append checks the
// version's record total and runs a COUNT and a RANGE around the new batch
// through QueryServer::Execute on the new version. Rounds repeat, each on
// a fresh file system, until the run's seconds are used.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "catalog/dataset_catalog.h"
#include "common/random.h"
#include "core/aggregate_op.h"
#include "core/range_query.h"
#include "core/spatial_file_splitter.h"
#include "index/partitioner.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"
#include "pigeon/parser.h"
#include "server/query_server.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sh = shadoop;

constexpr size_t kBase = 100000;
constexpr size_t kBatch = 20000;
constexpr int kBatches = 6;
constexpr int kReadsPerAppend = 16;
/// Client threads that split each version's reads, each its own session.
constexpr int kReaders = 2;
/// Clusters of the clustered batches: few, so they skew the partitions
/// they land in and trigger splits.
constexpr int kBatchClusters = 4;
constexpr int kSetups = 3;
constexpr size_t kMaxProbedPartitions = 16;
constexpr double kSide = 1e6;
constexpr const char* kBasePath = "/ingest/base";
constexpr const char* kIndexed = "/ingest/points.idx";
constexpr const char* kWhy =
    "writes beside reads: decode, partitioning, map emit, shuffle sort, "
    "reduce with local indexes, HDFS writes and copy-on-write appends; "
    "each read after an append sees a new version";

std::string BatchPath(int i) { return "/ingest/batch" + std::to_string(i); }

/// One request after an append: a COUNT and a RANGE in one script.
struct ReadRequest {
  PointQuery count, range;
  std::string Script() const { return count.script + " " + range.script; }
  /// The COUNT's row comes first, then the RANGE's rows.
  bool Check(const std::vector<std::string>& rows) const {
    if (rows.empty()) return false;
    const std::vector<std::string> count_rows(rows.begin(), rows.begin() + 1);
    const std::vector<std::string> range_rows(rows.begin() + 1, rows.end());
    return count.Check(DigestOf(count_rows), count_rows) &&
           range.Check(DigestOf(range_rows), range_rows);
  }
};

struct Inputs {
  std::vector<std::string> base;
  std::vector<std::vector<std::string>> batches;
  /// Reads after append i: [kReadsPerAppend * i, kReadsPerAppend * (i+1)).
  std::vector<ReadRequest> reads;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  sh::workload::PointGenOptions gen;
  gen.distribution = sh::workload::Distribution::kClustered;
  gen.num_clusters = kDataClusters;
  gen.count = kBase;
  gen.seed = seed;
  in.base = sh::workload::PointsToRecords(sh::workload::GeneratePoints(gen));
  const sh::workload::Distribution kinds[3] = {
      sh::workload::Distribution::kClustered,
      sh::workload::Distribution::kGaussian,
      sh::workload::Distribution::kUniform};
  sh::Random rng(seed * 0x2545F4914F6CDD1DULL + 0x1d6e);
  for (int i = 0; i < kBatches; ++i) {
    gen.distribution = kinds[i % 3];
    gen.num_clusters = kBatchClusters;
    gen.count = kBatch;
    gen.seed = seed * 100 + 7 + static_cast<uint64_t>(i);
    const std::vector<sh::Point> points = sh::workload::GeneratePoints(gen);
    in.batches.push_back(sh::workload::PointsToRecords(points));
    // Each read request: a COUNT over 10% and a RANGE over 0.1% of the
    // space, both centred on a point of the new batch.
    for (int r = 0; r < kReadsPerAppend; ++r) {
      const sh::Point& c = points[rng.NextUint64(points.size())];
      ReadRequest read;
      for (double share : {1e-1, 1e-3}) {
        const double side = std::sqrt(share) * kSide;
        const double x =
            std::round(std::clamp(c.x - side / 2, 0.0, kSide - side));
        const double y =
            std::round(std::clamp(c.y - side / 2, 0.0, kSide - side));
        const Box window{x, y, std::round(x + side), std::round(y + side)};
        if (share > 1e-2) {
          read.count = PointQuery::Count(window);
        } else {
          read.range = PointQuery::Range(window);
        }
      }
      in.reads.push_back(std::move(read));
    }
  }
  return in;
}

std::unique_ptr<sh::hdfs::FileSystem> WriteInputs(const Inputs& in) {
  auto fs = std::make_unique<sh::hdfs::FileSystem>(BenchHdfsConfig());
  SHADOOP_CHECK_OK(fs->WriteLines(kBasePath, in.base));
  for (int i = 0; i < kBatches; ++i) {
    SHADOOP_CHECK_OK(fs->WriteLines(BatchPath(i), in.batches[i]));
  }
  return fs;
}

sh::index::IndexBuildOptions BuildOptions() {
  sh::index::IndexBuildOptions options;
  options.scheme = sh::index::PartitionScheme::kStr;
  options.shape = sh::index::ShapeType::kPoint;
  options.build_local_indexes = true;
  return options;
}

struct Read {
  double host_ms = 0;
  double sim_ms = 0;
};

struct Round {
  double build_ms = 0;
  double sim_build_ms = 0;
  std::vector<double> append_ms;
  double sim_append_ms = 0;
  std::vector<Read> reads;
  double elapsed_ms = 0;  // Create, appends and reads.
  uint64_t stored_bytes = 0;
  uint64_t build_bytes_written = 0;
  uint64_t build_parses = 0;
  uint64_t append_bytes_written = 0;
  uint64_t read_bytes = 0;  // Read by the statements after appends.
  int64_t shared_partitions = 0;
  int64_t split_partitions = 0;
  size_t partitions = 0;
  double skew = 0;
  double replication = 0;
  uint64_t cache_hits = 0, cache_lookups = 0;
};

/// One timed round on a fresh file system. Keeps the file system in
/// `*keep` when given (for the rebuild check).
Round RunRound(const Inputs& in, Outcome* out,
               std::unique_ptr<sh::hdfs::FileSystem>* keep = nullptr) {
  Round round;
  std::unique_ptr<sh::hdfs::FileSystem> fs = WriteInputs(in);
  sh::server::ServerOptions options;
  options.cluster = BenchClusterConfig();
  {
    sh::server::QueryServer server(fs.get(), options);
    sh::catalog::DatasetCatalog& catalog = server.catalog();
    const int64_t start = NowNs();
    const uint64_t written0 = fs->io_stats().bytes_written;
    const uint64_t parses0 = sh::index::GeometryParseCount();
    auto info = catalog.Create("pts", kBasePath, kIndexed, BuildOptions());
    round.build_ms = NsToMs(NowNs() - start);
    round.build_parses = sh::index::GeometryParseCount() - parses0;
    round.build_bytes_written = fs->io_stats().bytes_written - written0;
    out->Op(info.ok(), "Create failed: " + info.status().ToString());
    if (!info.ok()) return round;
    round.sim_build_ms = info->build_cost.total_ms;
    SHADOOP_CHECK_OK(server.AttachDataset("pts", kIndexed));
    std::vector<sh::server::SessionId> sessions;
    for (int c = 0; c < kReaders; ++c) {
      sessions.push_back(server.OpenSession().ValueOrDie());
      SHADOOP_CHECK_OK(
          server.Execute(sessions.back(), "SET snapshot_version 0;").status());
    }

    for (int i = 0; i < kBatches; ++i) {
      sh::core::OpStats stats;
      const uint64_t written = fs->io_stats().bytes_written;
      const int64_t t0 = NowNs();
      auto version = catalog.Append("pts", BatchPath(i), &stats);
      round.append_ms.push_back(NsToMs(NowNs() - t0));
      round.append_bytes_written += fs->io_stats().bytes_written - written;
      out->Op(version.ok(), "Append failed: " + version.status().ToString());
      if (!version.ok()) return round;
      round.sim_append_ms += stats.cost.total_ms;
      const auto version_stats = catalog.Stats("pts");
      const uint64_t expected = kBase + (i + 1) * kBatch;
      out->Op(version_stats.ok() && version_stats->num_records == expected,
              "record total after append " + std::to_string(i) + " is not " +
                  std::to_string(expected));
      round.shared_partitions += stats.counters.Get("ingest.shared_partitions");
      round.split_partitions += stats.counters.Get("ingest.split_partitions");
      std::vector<Read> reads(kReadsPerAppend);
      std::vector<std::string> errors(kReadsPerAppend);
      const uint64_t read0 = fs->io_stats().bytes_read;
      std::vector<std::thread> readers;
      for (int c = 0; c < kReaders; ++c) {
        readers.emplace_back([&, c] {
          for (int r = c; r < kReadsPerAppend; r += kReaders) {
            const ReadRequest& q = in.reads[kReadsPerAppend * i + r];
            const int64_t t1 = NowNs();
            auto result = server.Execute(sessions[c], q.Script());
            reads[r].host_ms = NsToMs(NowNs() - t1);
            if (!result.ok()) {
              errors[r] = result.status().ToString();
            } else if (!q.Check(result->rows)) {
              errors[r] = "wrong rows after append " + std::to_string(i) +
                          " for " + q.Script();
            } else {
              reads[r].sim_ms = result->sim_latency_ms;
            }
          }
        });
      }
      for (std::thread& t : readers) t.join();
      round.read_bytes += fs->io_stats().bytes_read - read0;
      for (int r = 0; r < kReadsPerAppend; ++r) {
        out->Op(errors[r].empty(), errors[r]);
        round.reads.push_back(reads[r]);
      }
    }
    round.elapsed_ms = NsToMs(NowNs() - start);
    round.stored_bytes = StoredBytes(*fs, kIndexed);
    const auto latest = catalog.Snapshot("pts").ValueOrDie();
    round.partitions = latest.global_index.NumPartitions();
    round.skew = catalog.Stats("pts").ValueOrDie().skew;
    double stored = 0;
    for (const auto& p : latest.global_index.partitions()) {
      stored += p.num_records;
    }
    const double ingested = kBase + kBatches * kBatch;
    round.replication = (stored - ingested) / ingested;
    round.cache_hits = server.result_cache().hits();
    round.cache_lookups = round.cache_hits + server.result_cache().misses();
  }
  if (keep != nullptr) *keep = std::move(fs);
  return round;
}

/// The appended version must answer like a bulk build of the same records.
void CheckAgainstRebuild(const Inputs& in, sh::hdfs::FileSystem* fs,
                         Outcome* out) {
  std::vector<std::string> all = in.base;
  for (const auto& batch : in.batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  SHADOOP_CHECK_OK(fs->WriteLines("/ingest/all", all));
  sh::mapreduce::JobRunner runner(fs, BenchClusterConfig());
  sh::catalog::DatasetCatalog catalog(&runner);
  SHADOOP_CHECK_OK(catalog.Open("pts", kIndexed));
  const auto appended = catalog.Snapshot("pts").ValueOrDie();
  const auto rebuilt =
      sh::index::IndexBuilder(&runner)
          .Build("/ingest/all", "/ingest/all.idx", BuildOptions())
          .ValueOrDie();
  for (const ReadRequest& read : in.reads) {
    for (const PointQuery* q : {&read.count, &read.range}) {
      auto a = sh::core::RangeQuerySpatial(&runner, appended, q->Envelope());
      auto b = sh::core::RangeQuerySpatial(&runner, rebuilt, q->Envelope());
      out->Op(a.ok() && b.ok() && DigestOf(a.value()) == DigestOf(b.value()),
              "appended version and bulk rebuild differ on " + q->script);
    }
  }
}

void RunTraced(const Args& args, const Inputs& in,
               const std::vector<Round>& rounds, Outcome* out) {
  std::map<std::string, double> values;
  LayerStats layers;
  Tracer tracer;
  TraceSummary summary;
  const auto cluster = BenchClusterConfig();

  // Counters of the untraced rounds (identical in every round).
  const Round& first = rounds.front();
  values["hdfs.bytes_written_per_record"] =
      static_cast<double>(first.build_bytes_written) / kBase;
  values["index.parses_per_record"] =
      static_cast<double>(first.build_parses) / kBase;
  values["catalog.split_partitions"] =
      static_cast<double>(first.split_partitions) / kBatches;
  values["catalog.shared_partition_ratio"] =
      static_cast<double>(first.shared_partitions) / kBatches /
      first.partitions;
  uint64_t batch_bytes = 0;
  for (const auto& batch : in.batches) {
    for (const auto& r : batch) batch_bytes += r.size() + 1;
  }
  values["catalog.rewrite_bytes_per_batch_byte"] =
      static_cast<double>(first.append_bytes_written) / batch_bytes;
  values["hdfs.bytes_read_per_stmt"] =
      static_cast<double>(first.read_bytes) / first.reads.size();
  values["index.partition_skew"] = first.skew;
  values["index.replication_ratio"] = first.replication;
  uint64_t hits = 0, lookups = 0;
  std::vector<double> append_ms;
  for (const Round& r : rounds) {
    hits += r.cache_hits;
    lookups += r.cache_lookups;
    append_ms.insert(append_ms.end(), r.append_ms.begin(), r.append_ms.end());
  }
  values["server.result_cache_hit_ratio"] =
      lookups ? static_cast<double>(hits) / lookups : 0;
  values["catalog.append_ms"] = Median(append_ms);

  // Untraced time of each replayed statement: its median over the rounds.
  const auto untraced = [&](const std::function<double(const Round&)>& f) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(f(r));
    return Median(v);
  };

  // Traced replay of one round on a fresh file system and a runner the
  // benchmark owns.
  std::unique_ptr<sh::hdfs::FileSystem> fs = WriteInputs(in);
  sh::mapreduce::JobRunner runner(fs.get(), cluster);
  sh::catalog::DatasetCatalog catalog(&runner);
  sh::server::ServerOptions options;
  options.cluster = cluster;
  options.enable_result_cache = false;
  sh::server::QueryServer server(fs.get(), options);
  int stmt = 0;
  // Create and Append are called directly, with no layer above them, so
  // their spans cover them whole: callers pass attributed = untraced.
  const auto finish = [&](int root, double untraced_ms, double attributed) {
    tracer.End(root);
    const Tracer::Span& r = tracer.spans()[root];
    summary.untraced_ms += untraced_ms;
    summary.traced_ms += NsToMs(r.end_ns - r.start_ns);
    summary.unattributed_ms.push_back(untraced_ms - attributed);
  };

  {
    const int root = tracer.Begin("bench.replay", stmt, -1);
    sh::core::OpStats stats;
    const int op_span = tracer.Begin("catalog.create", stmt, root);
    auto info =
        catalog.Create("pts", kBasePath, kIndexed, BuildOptions(), &stats);
    tracer.End(op_span);
    out->Op(info.ok(), "traced run: Create failed");
    if (!info.ok()) return;
    RecordOpStats(&tracer, stmt, op_span, stats, &layers);
    // Partitioning replay: STR boundaries from a 2% sample, then every
    // base record assigned to its cell.
    std::vector<sh::Point> points;
    for (const std::string& r : in.base) {
      double x = 0, y = 0;
      if (ParsePointRecord(r, &x, &y)) points.emplace_back(x, y);
    }
    sh::Envelope space;
    for (const sh::Point& p : points) space.ExpandToInclude(p);
    std::vector<sh::Point> sample;
    for (size_t i = 0; i < points.size(); i += 50) sample.push_back(points[i]);
    const double partition_ms = TimedMs(
        &tracer, "index.str_partitioner", stmt, root, [&] {
      auto partitioner =
          sh::index::MakePartitioner(sh::index::PartitionScheme::kStr)
              .ValueOrDie();
      SHADOOP_CHECK_OK(partitioner->Construct(
          space, sample, static_cast<int>(info->global_index.NumPartitions())));
      size_t assigned = 0;
      for (const sh::Point& p : points) {
        assigned += partitioner->AssignPoint(p) >= 0;
      }
      (void)assigned;
    });
    layers.Ratio("index.partition_ns_per_record", partition_ms * 1e6,
                 points.size());
    const auto& parts = info->global_index.partitions();
    const size_t step =
        std::max<size_t>(1, parts.size() / kMaxProbedPartitions);
    for (size_t i = 0; i < parts.size(); i += step) {
      PartitionProbe probe = ProbePartition(&tracer, stmt, root, *fs, *info,
                                            parts[i], nullptr, nullptr,
                                            &layers);
      const double encode_ms = TimedMs(
          &tracer, "index.encode_local_index_header", stmt, root, [&] {
        (void)sh::index::EncodeLocalIndexHeader(probe.envelopes);
      });
      layers.Ratio("index.local_build_ns_per_record", encode_ms * 1e6,
                   probe.envelopes.size());
    }
    const double build_ms = untraced([](const Round& r) { return r.build_ms; });
    finish(root, build_ms, build_ms);
    ++stmt;
  }

  for (int i = 0; i < kBatches; ++i) {
    {
      const int root = tracer.Begin("bench.replay", stmt, -1);
      sh::core::OpStats stats;
      bool ok = false;
      const int op_span = tracer.Begin("catalog.append", stmt, root);
      ok = catalog.Append("pts", BatchPath(i), &stats).ok();
      tracer.End(op_span);
      out->Op(ok, "traced run: Append failed");
      RecordOpStats(&tracer, stmt, op_span, stats, &layers);
      const double append_ms =
          untraced([i](const Round& r) { return r.append_ms[i]; });
      finish(root, append_ms, append_ms);
      ++stmt;
    }
    const auto latest = catalog.Snapshot("pts").ValueOrDie();
    // The untraced clock of the reads: a server session bound to the new
    // version.
    SHADOOP_CHECK_OK(server.AttachDataset("pts", kIndexed));
    const auto session = server.OpenSession().ValueOrDie();
    for (int r = 0; r < kReadsPerAppend; ++r) {
      const ReadRequest& read =
          in.reads[static_cast<size_t>(kReadsPerAppend * i + r)];
      bool served = false;
      const double untraced_ms = TimedMs(
          &tracer, "server.execute", stmt, -1, [&] {
        auto result = server.Execute(session, read.Script());
        served = result.ok() && read.Check(result->rows);
      });
      out->Op(served,
              "traced run: wrong rows from Execute for " + read.Script());
      const int root = tracer.Begin("bench.replay", stmt, -1);
      double attributed = TimedMs(&tracer, "pigeon.parse", stmt, root, [&] {
        (void)sh::pigeon::Parse(read.Script());
      });
      layers.Sample("pigeon.parse_us", attributed * 1e3);
      for (const PointQuery* query : {&read.count, &read.range}) {
        const PointQuery& q = *query;
        sh::optimizer::RangePlan plan;
        const double plan_ms = TimedMs(
            &tracer, "optimizer.plan_range", stmt, root, [&] {
          plan = sh::optimizer::PlanRange(cluster, latest, q.Envelope(),
                                          q.KindName());
        });
        layers.Sample("optimizer.plan_us", plan_ms * 1e3);
        attributed += plan_ms;
        sh::core::OpStats stats;
        std::vector<std::string> rows;
        bool ok = false;
        const int op_span =
            tracer.Begin(std::string("core.") + q.KindName(), stmt, root);
        if (q.kind == PointQuery::Kind::kCount) {
          auto count = sh::core::RangeCountSpatial(&runner, latest,
                                                   q.Envelope(), &stats);
          ok = count.ok();
          if (ok) rows = {std::to_string(count.value())};
        } else {
          auto result = sh::core::RangeQuerySpatial(&runner, latest,
                                                    q.Envelope(), &stats);
          ok = result.ok();
          if (ok) rows = std::move(result).value();
        }
        tracer.End(op_span);
        const Tracer::Span& op = tracer.spans()[op_span];
        attributed += NsToMs(op.end_ns - op.start_ns);
        layers.Sample(std::string("core.op_ms.") + q.KindName(),
                      NsToMs(op.end_ns - op.start_ns));
        RecordOpStats(&tracer, stmt, op_span, stats, &layers);
        out->Op(ok && q.Check(DigestOf(rows), rows),
                "traced run: wrong rows from the replayed operation for " +
                    q.script);
        const double q_error = PlanQError(plan.decision, stats.cost.total_ms);
        if (q_error > 0) layers.Sample("optimizer.q_error", q_error);
        std::vector<int> kept;
        const double filter_ms = TimedMs(
            &tracer, "index.overlapping_partitions", stmt, root, [&] {
          kept = latest.global_index.OverlappingPartitions(q.Envelope());
        });
        layers.Sample("index.global_filter_us", filter_ms * 1e3);
        const double split_ms = TimedMs(
            &tracer, "core.spatial_splits", stmt, root, [&] {
          (void)sh::core::SpatialSplits(latest,
                                        sh::core::RangeFilter(q.Envelope()));
        });
        layers.Sample("core.split_us", split_ms * 1e3);
        layers.Ratio("index.partitions_kept_ratio", kept.size(),
                     latest.global_index.NumPartitions());
        double examined = 0;
        for (int id : kept) {
          examined += latest.global_index.partitions()[id].num_records;
        }
        const double returned = q.kind == PointQuery::Kind::kCount
                                    ? (rows.empty() ? 0 : std::stod(rows[0]))
                                    : rows.size();
        layers.Ratio("core.examined_per_row", examined, returned);
        if (q.kind == PointQuery::Kind::kRange) {
          const sh::Envelope window = q.Envelope();
          for (size_t k = 0; k < kept.size() && k < kMaxProbedPartitions; ++k) {
            ProbePartition(&tracer, stmt, root, *fs, latest,
                           latest.global_index.partitions()[kept[k]], &window,
                           nullptr, &layers);
          }
        }
      }
      finish(root, untraced_ms, attributed);
      ++stmt;
    }
  }

  for (const char* name :
       {"hdfs.read_block_us", "index.local_search_us", "index.global_filter_us",
        "core.split_us", "optimizer.plan_us", "pigeon.parse_us",
        "core.op_ms.range", "core.op_ms.count", "optimizer.q_error"}) {
    values[name] = layers.MedianOf(name);
  }
  for (const char* name :
       {"geometry.decode_ns_per_record", "index.partition_ns_per_record",
        "index.local_build_ns_per_record", "core.column_ns_per_record",
        "simd.intersect_ns_per_box", "mapreduce.jobs_per_op",
        "mapreduce.tasks_per_op", "mapreduce.job_wall_share",
        "mapreduce.sim_map_ms", "mapreduce.sim_shuffle_ms",
        "mapreduce.sim_reduce_ms", "mapreduce.bytes_shuffled_per_op",
        "index.partitions_kept_ratio", "core.examined_per_row"}) {
    values[name] = layers.RatioOf(name);
  }
  const double cache_hits = runner.artifact_cache()->hits();
  const double cache_lookups = cache_hits + runner.artifact_cache()->misses();
  values["mapreduce.artifact_cache_hit_ratio"] =
      cache_lookups > 0 ? cache_hits / cache_lookups : 0;
  EmitTraceSummary(args, tracer, summary, &values, out);
  for (const char* name :
       {"hdfs.bytes_written_per_record", "hdfs.bytes_read_per_stmt",
        "catalog.split_partitions",
        "catalog.shared_partition_ratio",
        "catalog.rewrite_bytes_per_batch_byte",
        "index.partition_skew", "index.replication_ratio",
        "index.partitions_kept_ratio", "core.examined_per_row",
        "mapreduce.jobs_per_op", "mapreduce.tasks_per_op",
        "mapreduce.sim_map_ms", "mapreduce.sim_shuffle_ms",
        "mapreduce.sim_reduce_ms", "mapreduce.bytes_shuffled_per_op",
        "optimizer.q_error", "server.result_cache_hit_ratio"}) {
    out->pinned[name] = values[name];
  }
  EmitPerLayer(values, out);
}

}  // namespace

void RunIngest(const Args& args, Outcome* out) {
  out->FactString("why", kWhy);
  std::vector<double> setup_ms;
  Inputs in;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    in = Inputs();
    const int64_t start = NowNs();
    in = MakeInputs(args.seed);
    (void)WriteInputs(in);
    setup_ms.push_back(NsToMs(NowNs() - start));
  }

  // Reference answers after each append.
  PointOracle oracle;
  oracle.Add(in.base);
  for (int i = 0; i < kBatches; ++i) {
    oracle.Add(in.batches[i]);
    for (int r = 0; r < kReadsPerAppend; ++r) {
      in.reads[kReadsPerAppend * i + r].count.Expect(oracle);
      in.reads[kReadsPerAppend * i + r].range.Expect(oracle);
    }
  }
  if (!oracle.all_parsed()) out->Problem("oracle could not parse a record");
  uint64_t user_bytes = 0;
  for (const auto& r : in.base) user_bytes += r.size() + 1;
  for (const auto& batch : in.batches) {
    for (const auto& r : batch) user_bytes += r.size() + 1;
  }
  out->FactNumber("records", kBase + kBatches * kBatch);
  out->FactNumber("user_bytes", user_bytes);
  out->FactNumber("appends_per_round", kBatches);

  std::vector<Round> rounds;
  std::unique_ptr<sh::hdfs::FileSystem> last_fs;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    rounds.push_back(RunRound(in, out, &last_fs));
  } while (NowNs() < deadline);
  out->FactNumber("rounds", rounds.size());
  out->FactNumber("indexed_bytes", rounds.front().stored_bytes);
  out->FactNumber("blocks", last_fs->GetFileMeta(kIndexed)->blocks.size());
  out->FactNumber("partitions_after_appends", rounds.front().partitions);
  out->FactString("working_set",
                  "every read follows an append, so each ResultCache key "
                  "(1024 entries) and each new block's ArtifactCache entries "
                  "(4096) are new");
  for (const Round& r : rounds) {
    if (r.sim_build_ms + r.sim_append_ms !=
            rounds.front().sim_build_ms + rounds.front().sim_append_ms ||
        r.stored_bytes != rounds.front().stored_bytes) {
      out->Problem("determinism bug: simulated ingest cost or stored bytes "
                   "differ between rounds");
    }
  }
  CheckAgainstRebuild(in, last_fs.get(), out);
  last_fs.reset();

  if (args.trace) {
    // A failed round has missing samples; its problems are reported.
    if (out->failed == 0) {
      RunTraced(args, in, rounds, out);
    } else {
      EmitPerLayer({}, out);
    }
    return;
  }
  std::vector<double> build, ingest, host, sim, rates;
  for (const Round& r : rounds) {
    build.push_back(r.build_ms);
    ingest.push_back(r.build_ms + Sum(r.append_ms));
    for (const Read& read : r.reads) host.push_back(read.host_ms);
    rates.push_back(r.reads.size() / (r.elapsed_ms / 1e3));
  }
  for (const Read& read : rounds.front().reads) sim.push_back(read.sim_ms);
  out->Fact("query_ms", DistributionJson(host));
  out->Fact("setup_ms_samples", JsonArray(setup_ms));
  out->Fact("build_ms_samples", JsonArray(build));
  out->Fact("ingest_ms_samples", JsonArray(ingest));
  out->Metric("setup_s", Median(setup_ms) / 1e3, "s");
  out->Metric("build_s", Median(build) / 1e3, "s");
  out->Metric("ingest_s", Median(ingest) / 1e3, "s");
  out->Metric("sim_ingest_s",
              (rounds.front().sim_build_ms + rounds.front().sim_append_ms) /
                  1e3,
              "s");
  out->Metric("space_amp",
              static_cast<double>(rounds.front().stored_bytes) / user_bytes,
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
