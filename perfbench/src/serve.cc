// serve: the read path. One seeded 500k-point clustered dataset, STR
// partitioned with local indexes, attached to a QueryServer and read by a
// closed loop of two client threads (one session and tenant each).
//
// Each client replays a fixed, seed-derived sequence of RANGE / COUNT /
// KNN statements, one in four from its own small hot set. A sequence
// runs against a fresh server (an "episode"), so every episode sees the
// same cache behaviour: the sequence has fewer distinct statements than
// the ResultCache holds, the two clients' statements never coincide, and
// each tenant's simulated admission ledger depends only on its own
// statements. Episodes repeat until the run's seconds are used; the
// simulated latencies of every episode must be identical.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "catalog/dataset_catalog.h"
#include "common/random.h"
#include "core/aggregate_op.h"
#include "core/knn.h"
#include "core/range_query.h"
#include "core/spatial_file_splitter.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"
#include "pigeon/parser.h"
#include "server/query_server.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sh = shadoop;

constexpr size_t kPoints = 500000;
constexpr int kClients = 2;
constexpr int kTenantSlots = 12;  // 24 slots / 2 tenants, no remainder.
constexpr size_t kPerClient = 640;
constexpr size_t kHotPerClient = 8;
constexpr int kSetups = 3;
constexpr size_t kReplayPerClient = 120;
constexpr size_t kMaxProbedPartitions = 12;
constexpr double kSide = 1e6;
constexpr const char* kSource = "/serve/points";
constexpr const char* kIndexed = "/serve/points.idx";
constexpr const char* kWhy =
    "read path: pigeon, server, optimizer, global filter, local PackedRTree "
    "search and SIMD kernels over a working set that fits the "
    "ArtifactCache; build, shuffle and catalog idle";

struct Dataset {
  std::unique_ptr<sh::hdfs::FileSystem> fs;
  sh::index::SpatialFileInfo info;
  std::vector<sh::Point> points;
  std::vector<std::string> records;
  double build_ms = 0;
  double sim_build_ms = 0;
  uint64_t build_bytes_written = 0;
};

Dataset SetUp(uint64_t seed) {
  Dataset d;
  d.fs = std::make_unique<sh::hdfs::FileSystem>(BenchHdfsConfig());
  sh::workload::PointGenOptions gen;
  gen.distribution = sh::workload::Distribution::kClustered;
  gen.num_clusters = kDataClusters;
  gen.count = kPoints;
  gen.seed = seed;
  d.points = sh::workload::GeneratePoints(gen);
  d.records = sh::workload::PointsToRecords(d.points);
  SHADOOP_CHECK_OK(d.fs->WriteLines(kSource, d.records));
  sh::mapreduce::JobRunner runner(d.fs.get(), BenchClusterConfig());
  sh::catalog::DatasetCatalog catalog(&runner);
  sh::index::IndexBuildOptions options;
  options.scheme = sh::index::PartitionScheme::kStr;
  options.shape = sh::index::ShapeType::kPoint;
  options.build_local_indexes = true;
  const uint64_t written = d.fs->io_stats().bytes_written;
  const int64_t start = NowNs();
  d.info = catalog.Create("pts", kSource, kIndexed, options).ValueOrDie();
  d.build_ms = NsToMs(NowNs() - start);
  d.build_bytes_written = d.fs->io_stats().bytes_written - written;
  d.sim_build_ms = d.info.build_cost.total_ms;
  return d;
}

/// The statement mix is a fixed schedule: kinds in the ratio 2 RANGE :
/// 1 COUNT : 1 KNN, window shares and k values spread evenly over their
/// ranges (a golden-ratio sequence), so every seed runs the same mix and
/// only the locations, drawn from the data, change.
class QueryMaker {
 public:
  QueryMaker(uint64_t seed, const std::vector<sh::Point>& points)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5e7e), points_(points) {}

  PointQuery Make(PointQuery::Kind kind) {
    const sh::Point& c = points_[rng_.NextUint64(points_.size())];
    switch (kind) {
      case PointQuery::Kind::kRange:
        return PointQuery::Range(Window(c, 2.5e-5, 1e-2));
      case PointQuery::Kind::kCount:
        return PointQuery::Count(Window(c, 1e-2, 1e-1));
      case PointQuery::Kind::kKnn:
        break;
    }
    const double px =
        std::round(std::clamp(c.x + rng_.NextGaussian() * 2000, 0.0, kSide));
    const double py =
        std::round(std::clamp(c.y + rng_.NextGaussian() * 2000, 0.0, kSide));
    return PointQuery::Knn(px, py, 1 + static_cast<size_t>(Next() * 50));
  }

 private:
  /// Next value of the golden-ratio sequence in [0, 1).
  double Next() {
    phase_ += 0.6180339887498949;
    phase_ -= std::floor(phase_);
    return phase_;
  }

  /// A window centred on `c` covering a share of the space between
  /// `min_share` and `max_share` (log scale), aspect ratio in [1/2, 2].
  Box Window(const sh::Point& c, double min_share, double max_share) {
    const double share = min_share * std::pow(max_share / min_share, Next());
    const double aspect = std::pow(2.0, 2 * Next() - 1);
    const double area = share * kSide * kSide;
    const double w = std::min(kSide, std::sqrt(area * aspect));
    const double h = std::min(kSide, area / w);
    const double x = std::round(std::clamp(c.x - w / 2, 0.0, kSide - w));
    const double y = std::round(std::clamp(c.y - h / 2, 0.0, kSide - h));
    return Box{x, y, std::round(x + w), std::round(y + h)};
  }

  sh::Random rng_;
  const std::vector<sh::Point>& points_;
  double phase_ = 0;
};

/// Per-client statement sequences; statement texts are unique across
/// clients, so no client ever hits a result the other produced. Every 4th
/// statement repeats the client's hot set round-robin.
std::vector<std::vector<PointQuery>> MakeStreams(
    uint64_t seed, const std::vector<sh::Point>& points) {
  using Kind = PointQuery::Kind;
  constexpr Kind kMix[] = {Kind::kRange, Kind::kCount, Kind::kRange,
                           Kind::kKnn};
  QueryMaker maker(seed, points);
  std::set<std::string> used;
  const auto fresh = [&](Kind kind) {
    while (true) {
      PointQuery q = maker.Make(kind);
      if (used.insert(q.script).second) return q;
    }
  };
  std::vector<std::vector<PointQuery>> streams(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::vector<PointQuery> hot;
    for (size_t i = 0; i < kHotPerClient; ++i) {
      hot.push_back(fresh(kMix[i % 4]));
    }
    size_t cold = 0;
    for (size_t i = 0; i < kPerClient; ++i) {
      streams[c].push_back(i % 4 == 3 ? hot[(i / 4) % kHotPerClient]
                                      : fresh(kMix[cold++ % 4]));
    }
  }
  return streams;
}

struct Execution {
  double host_ms = 0;
  double sim_ms = 0;
  double admission_wait_ms = 0;
  RowDigest rows;
  bool ok = false;
  std::string error;
};

struct Episode {
  std::vector<std::vector<Execution>> runs;  // [client][statement]
  double elapsed_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

Episode RunEpisode(sh::hdfs::FileSystem* fs,
                   const std::vector<std::vector<PointQuery>>& streams) {
  sh::server::ServerOptions options;
  options.cluster = BenchClusterConfig();
  sh::server::QueryServer server(fs, options);
  SHADOOP_CHECK_OK(server.AttachDataset("pts", kIndexed));
  std::vector<sh::server::SessionId> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(
        server.OpenSession("tenant" + std::to_string(c), kTenantSlots)
            .ValueOrDie());
  }
  Episode episode;
  episode.runs.resize(kClients);
  const int64_t start = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const PointQuery& q : streams[c]) {
        Execution e;
        const int64_t t0 = NowNs();
        auto result = server.Execute(sessions[c], q.script);
        e.host_ms = NsToMs(NowNs() - t0);
        if (result.ok()) {
          e.sim_ms = result->sim_latency_ms;
          e.admission_wait_ms = result->cost.admission_wait_ms;
          e.rows = DigestOf(result->rows);
          e.ok = q.Check(e.rows, result->rows);
          if (!e.ok) e.error = "wrong rows for " + q.script;
        } else {
          e.error = result.status().ToString();
        }
        episode.runs[c].push_back(std::move(e));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  episode.elapsed_ms = NsToMs(NowNs() - start);
  episode.cache_hits = server.result_cache().hits();
  episode.cache_lookups = episode.cache_hits + server.result_cache().misses();
  return episode;
}

struct Timed {
  std::vector<Episode> episodes;
  uint64_t bytes_read = 0;
  uint64_t parses = 0;
};

/// Episodes until `seconds` are used (at least one); checks every
/// execution against its oracle and every episode against the first.
Timed RunTimedPhase(const Args& args, Dataset& data,
                    const std::vector<std::vector<PointQuery>>& streams,
                    Outcome* out) {
  Timed timed;
  const uint64_t read0 = data.fs->io_stats().bytes_read;
  const uint64_t parse0 = sh::index::GeometryParseCount();
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    timed.episodes.push_back(RunEpisode(data.fs.get(), streams));
  } while (NowNs() < deadline);
  timed.bytes_read = data.fs->io_stats().bytes_read - read0;
  timed.parses = sh::index::GeometryParseCount() - parse0;

  const Episode& first = timed.episodes.front();
  for (size_t e = 0; e < timed.episodes.size(); ++e) {
    const Episode& ep = timed.episodes[e];
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < ep.runs[c].size(); ++i) {
        const Execution& x = ep.runs[c][i];
        out->Op(x.ok, x.error);
        if (e > 0 && x.ok && x.sim_ms != first.runs[c][i].sim_ms) {
          out->Problem("determinism bug: sim_latency_ms of client " +
                       std::to_string(c) + " statement " + std::to_string(i) +
                       " differs between episodes (" +
                       JsonNumber(first.runs[c][i].sim_ms) + " vs " +
                       JsonNumber(x.sim_ms) + ")");
        }
      }
    }
    if (ep.cache_hits != first.cache_hits) {
      out->Problem("determinism bug: result-cache hits differ between "
                   "episodes");
    }
  }
  return timed;
}

size_t PartitionRecords(const sh::index::SpatialFileInfo& info,
                        const std::vector<int>& ids) {
  size_t n = 0;
  for (int id : ids) n += info.global_index.partitions()[id].num_records;
  return n;
}

/// Partitions a kNN answer with k-th distance `radius` must read.
std::vector<int> KnnPartitions(const sh::index::SpatialFileInfo& info,
                               const PointQuery& q) {
  std::vector<int> ids;
  const double radius = q.knn_distances.empty() ? 0 : q.knn_distances.back();
  for (const auto& p : info.global_index.partitions()) {
    const double dx =
        std::max({p.mbr.min_x() - q.px, 0.0, q.px - p.mbr.max_x()});
    const double dy =
        std::max({p.mbr.min_y() - q.py, 0.0, q.py - p.mbr.max_y()});
    if (std::sqrt(dx * dx + dy * dy) <= radius) ids.push_back(p.id);
  }
  return ids;
}

std::vector<int> WindowPartitions(const sh::index::SpatialFileInfo& info,
                                  const Box& w) {
  std::vector<int> ids;
  for (const auto& p : info.global_index.partitions()) {
    const Box b{p.mbr.min_x(), p.mbr.min_y(), p.mbr.max_x(), p.mbr.max_y()};
    if (b.Intersects(w)) ids.push_back(p.id);
  }
  return ids;
}

/// Evenly spaced subset of at most `limit` ids.
std::vector<int> Sampled(const std::vector<int>& ids, size_t limit) {
  if (ids.size() <= limit) return ids;
  std::vector<int> out;
  for (size_t i = 0; i < limit; ++i) out.push_back(ids[i * ids.size() / limit]);
  return out;
}

void RunTraced(const Args& args, Dataset& data,
               const std::vector<std::vector<PointQuery>>& streams,
               const Timed& timed, Outcome* out) {
  std::map<std::string, double> values;
  LayerStats layers;
  Tracer tracer;
  const sh::index::SpatialFileInfo& info = data.info;
  const auto cluster = BenchClusterConfig();

  // Counters of the untraced closed loop. Episodes repeat the same
  // charges, so the simulated admission wait comes from the first one
  // (summing a varying number of episodes would round differently).
  size_t statements = 0;
  double admission_wait = 0;
  double examined = 0;
  for (int c = 0; c < kClients; ++c) {
    for (const Execution& x : timed.episodes.front().runs[c]) {
      admission_wait += x.admission_wait_ms;
    }
  }
  for (const Episode& ep : timed.episodes) {
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < ep.runs[c].size(); ++i) {
        ++statements;
        // Hot repeats are result-cache hits and read nothing.
        if (i % 4 == 3 && i / 4 >= kHotPerClient) continue;
        const PointQuery& q = streams[c][i];
        examined += PartitionRecords(
            info, q.kind == PointQuery::Kind::kKnn
                      ? KnnPartitions(info, q)
                      : WindowPartitions(info, q.window));
      }
    }
  }
  uint64_t hits = 0, lookups = 0;
  for (const Episode& ep : timed.episodes) {
    hits += ep.cache_hits;
    lookups += ep.cache_lookups;
  }
  values["hdfs.bytes_read_per_stmt"] =
      static_cast<double>(timed.bytes_read) / statements;
  values["index.parses_per_record"] = timed.parses / std::max(1.0, examined);
  values["mapreduce.sim_admission_wait_ms"] =
      admission_wait / (kClients * kPerClient);
  values["server.result_cache_hit_ratio"] =
      lookups ? static_cast<double>(hits) / lookups : 0;
  values["hdfs.bytes_written_per_record"] =
      static_cast<double>(data.build_bytes_written) / kPoints;

  // Replay set: the first statements of each client, interleaved.
  std::vector<const PointQuery*> replay;
  for (size_t i = 0; i < kReplayPerClient; ++i) {
    for (int c = 0; c < kClients; ++c) replay.push_back(&streams[c][i]);
  }
  sh::server::ServerOptions options;
  options.cluster = cluster;
  options.enable_result_cache = false;
  sh::server::QueryServer server(data.fs.get(), options);
  SHADOOP_CHECK_OK(server.AttachDataset("pts", kIndexed));
  const auto session = server.OpenSession().ValueOrDie();
  sh::mapreduce::JobRunner runner(data.fs.get(), cluster);

  const auto run_op = [&](const PointQuery& q, sh::core::OpStats* stats,
                          std::vector<std::string>* rows) -> bool {
    switch (q.kind) {
      case PointQuery::Kind::kRange: {
        auto r =
            sh::core::RangeQuerySpatial(&runner, info, q.Envelope(), stats);
        if (!r.ok()) return false;
        *rows = std::move(r).value();
        return true;
      }
      case PointQuery::Kind::kCount: {
        auto r =
            sh::core::RangeCountSpatial(&runner, info, q.Envelope(), stats);
        if (!r.ok()) return false;
        *rows = {std::to_string(r.value())};
        return true;
      }
      case PointQuery::Kind::kKnn: {
        auto r = sh::core::KnnSpatial(&runner, info, sh::Point(q.px, q.py),
                                      q.k, stats);
        if (!r.ok()) return false;
        rows->clear();
        for (const auto& a : r.value()) rows->push_back(a.record);
        return true;
      }
    }
    return false;
  };

  // Warm both paths so the measured pass sees serving-state caches.
  for (const PointQuery* q : replay) {
    (void)server.Execute(session, q->script);
    std::vector<std::string> rows;
    run_op(*q, nullptr, &rows);
  }
  const uint64_t cache_hits0 = runner.artifact_cache()->hits();
  const uint64_t cache_misses0 = runner.artifact_cache()->misses();

  TraceSummary summary;
  double rows_returned = 0, rows_examined = 0;
  for (size_t s = 0; s < replay.size(); ++s) {
    const PointQuery& q = *replay[s];
    const int stmt = static_cast<int>(s);
    const int exec_span = tracer.Begin("server.execute", stmt, -1);
    auto request = server.Execute(session, q.script);
    tracer.End(exec_span);
    const Tracer::Span& exec = tracer.spans()[exec_span];
    const double untraced_ms = NsToMs(exec.end_ns - exec.start_ns);
    out->Op(request.ok() && q.Check(DigestOf(request->rows), request->rows),
            "traced run: wrong rows from Execute for " + q.script);

    const int root = tracer.Begin("bench.replay", stmt, -1);
    double attributed = TimedMs(&tracer, "pigeon.parse", stmt, root, [&] {
      (void)sh::pigeon::Parse(q.script);
    });
    layers.Sample("pigeon.parse_us", attributed * 1e3);
    sh::optimizer::RangePlan plan;
    if (q.kind != PointQuery::Kind::kKnn) {
      const double plan_ms = TimedMs(
          &tracer, "optimizer.plan_range", stmt, root, [&] {
        plan = sh::optimizer::PlanRange(cluster, info, q.Envelope(),
                                        q.KindName());
      });
      layers.Sample("optimizer.plan_us", plan_ms * 1e3);
      attributed += plan_ms;
    }
    sh::core::OpStats stats;
    std::vector<std::string> rows;
    bool ok = false;
    const int op_span =
        tracer.Begin(std::string("core.") + q.KindName(), stmt, root);
    ok = run_op(q, &stats, &rows);
    tracer.End(op_span);
    const Tracer::Span& op = tracer.spans()[op_span];
    const double op_ms = NsToMs(op.end_ns - op.start_ns);
    attributed += op_ms;
    layers.Sample(std::string("core.op_ms.") + q.KindName(), op_ms);
    RecordOpStats(&tracer, stmt, op_span, stats, &layers);
    out->Op(ok && q.Check(DigestOf(rows), rows),
            "traced run: wrong rows from the replayed operation for " +
                q.script);
    if (q.kind != PointQuery::Kind::kKnn) {
      const double q_error = PlanQError(plan.decision, stats.cost.total_ms);
      if (q_error > 0) layers.Sample("optimizer.q_error", q_error);
    }

    std::vector<int> kept;
    if (q.kind == PointQuery::Kind::kKnn) {
      const double filter_ms = TimedMs(
          &tracer, "index.partition_distances", stmt, root, [&] {
        (void)info.global_index.PartitionDistances(sh::Point(q.px, q.py));
      });
      layers.Sample("index.global_filter_us", filter_ms * 1e3);
      kept = KnnPartitions(info, q);
    } else {
      const double filter_ms = TimedMs(
          &tracer, "index.overlapping_partitions", stmt, root, [&] {
        kept = info.global_index.OverlappingPartitions(q.Envelope());
      });
      layers.Sample("index.global_filter_us", filter_ms * 1e3);
      const double split_ms = TimedMs(
          &tracer, "core.spatial_splits", stmt, root, [&] {
        (void)sh::core::SpatialSplits(info,
                                      sh::core::RangeFilter(q.Envelope()));
      });
      layers.Sample("core.split_us", split_ms * 1e3);
      layers.Ratio("index.partitions_kept_ratio", kept.size(),
                   info.global_index.NumPartitions());
      rows_examined += PartitionRecords(info, kept);
      rows_returned += q.kind == PointQuery::Kind::kCount
                           ? (rows.empty() ? 0 : std::stod(rows[0]))
                           : rows.size();
    }
    const sh::Envelope window = q.Envelope();
    const sh::Point point(q.px, q.py);
    for (int id : Sampled(kept, kMaxProbedPartitions)) {
      ProbePartition(&tracer, stmt, root, *data.fs, info,
                     info.global_index.partitions()[id],
                     q.kind == PointQuery::Kind::kKnn ? nullptr : &window,
                     q.kind == PointQuery::Kind::kKnn ? &point : nullptr,
                     &layers);
    }
    tracer.End(root);
    const Tracer::Span& r = tracer.spans()[root];
    summary.untraced_ms += untraced_ms;
    summary.traced_ms += NsToMs(r.end_ns - r.start_ns);
    summary.unattributed_ms.push_back(untraced_ms - attributed);
  }
  const double cache_hits =
      static_cast<double>(runner.artifact_cache()->hits() - cache_hits0);
  const double cache_lookups =
      cache_hits + (runner.artifact_cache()->misses() - cache_misses0);
  values["mapreduce.artifact_cache_hit_ratio"] =
      cache_lookups > 0 ? cache_hits / cache_lookups : 0;
  out->FactNumber("artifact_cache_entries", runner.artifact_cache()->size());

  {
    sh::catalog::DatasetCatalog catalog(&runner);
    SHADOOP_CHECK_OK(catalog.Open("pts", kIndexed));
    double skew = 0;
    const int span = tracer.Begin("catalog.stats", -1, -1);
    skew = catalog.Stats("pts").ValueOrDie().skew;
    tracer.End(span);
    values["index.partition_skew"] = skew;
  }
  size_t stored = 0;
  for (const auto& p : info.global_index.partitions()) stored += p.num_records;
  values["index.replication_ratio"] =
      static_cast<double>(stored - kPoints) / kPoints;
  values["core.examined_per_row"] =
      rows_returned > 0 ? rows_examined / rows_returned : 0;

  for (const char* name :
       {"hdfs.read_block_us", "index.local_search_us", "index.global_filter_us",
        "core.split_us", "optimizer.plan_us", "pigeon.parse_us",
        "core.op_ms.range", "core.op_ms.count", "core.op_ms.knn",
        "optimizer.q_error"}) {
    values[name] = layers.MedianOf(name);
  }
  for (const char* name :
       {"geometry.decode_ns_per_record", "index.local_build_ns_per_record",
        "core.column_ns_per_record", "simd.intersect_ns_per_box",
        "simd.min_distance_ns_per_box", "mapreduce.jobs_per_op",
        "mapreduce.tasks_per_op", "mapreduce.job_wall_share",
        "mapreduce.sim_map_ms", "mapreduce.sim_shuffle_ms",
        "mapreduce.sim_reduce_ms", "mapreduce.bytes_shuffled_per_op",
        "index.partitions_kept_ratio"}) {
    values[name] = layers.RatioOf(name);
  }
  EmitTraceSummary(args, tracer, summary, &values, out);
  for (const char* name :
       {"hdfs.bytes_read_per_stmt", "hdfs.bytes_written_per_record",
        "index.partitions_kept_ratio", "index.partition_skew",
        "index.replication_ratio", "core.examined_per_row",
        "mapreduce.jobs_per_op", "mapreduce.tasks_per_op",
        "mapreduce.sim_map_ms", "mapreduce.sim_shuffle_ms",
        "mapreduce.sim_reduce_ms", "mapreduce.bytes_shuffled_per_op",
        "mapreduce.sim_admission_wait_ms", "optimizer.q_error",
        "server.result_cache_hit_ratio"}) {
    out->pinned[name] = values[name];
  }
  EmitPerLayer(values, out);
}

}  // namespace

void RunServe(const Args& args, Outcome* out) {
  out->FactString("why", kWhy);
  std::vector<double> setup_ms, build_ms;
  Dataset data;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    data = Dataset();  // Release the previous set-up first.
    const int64_t start = NowNs();
    data = SetUp(args.seed);
    setup_ms.push_back(NsToMs(NowNs() - start));
    build_ms.push_back(data.build_ms);
  }

  // Reference answers (not part of set-up: the program never sees them).
  PointOracle oracle;
  oracle.Add(data.records);
  if (!oracle.all_parsed()) out->Problem("oracle could not parse a record");
  std::vector<std::vector<PointQuery>> streams =
      MakeStreams(args.seed, data.points);
  std::set<std::string> distinct;
  for (auto& stream : streams) {
    for (PointQuery& q : stream) {
      q.Expect(oracle);
      distinct.insert(q.script);
    }
  }

  const uint64_t source_bytes = FileBytes(*data.fs, kSource);
  const size_t blocks = data.fs->GetFileMeta(kIndexed)->blocks.size();
  const uint64_t stored_bytes = StoredBytes(*data.fs, kIndexed);
  out->FactNumber("records", kPoints);
  out->FactNumber("source_bytes", source_bytes);
  out->FactNumber("indexed_bytes", stored_bytes);
  out->FactNumber("blocks", blocks);
  out->FactNumber("partitions", data.info.global_index.NumPartitions());
  out->FactNumber("statements_per_episode", kClients * kPerClient);
  out->FactNumber("distinct_statements_per_episode", distinct.size());
  out->FactString("working_set",
                  "ResultCache: " + std::to_string(distinct.size()) +
                      " distinct statements per episode of 1024 entries; "
                      "ArtifactCache: one entry set per block of " +
                      std::to_string(blocks) +
                      " blocks, of 4096 entries per session runner");

  const Timed timed = RunTimedPhase(args, data, streams, out);
  out->FactNumber("episodes", timed.episodes.size());

  if (args.trace) {
    RunTraced(args, data, streams, timed, out);
    return;
  }

  std::vector<double> host, sim, rates;
  for (const Episode& ep : timed.episodes) {
    rates.push_back(kClients * kPerClient / (ep.elapsed_ms / 1e3));
    for (int c = 0; c < kClients; ++c) {
      for (const Execution& x : ep.runs[c]) host.push_back(x.host_ms);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    for (const Execution& x : timed.episodes.front().runs[c]) {
      sim.push_back(x.sim_ms);
    }
  }
  out->Fact("query_ms", DistributionJson(host));
  out->Fact("setup_ms_samples", JsonArray(setup_ms));
  out->Fact("build_ms_samples", JsonArray(build_ms));
  out->Metric("setup_s", Median(setup_ms) / 1e3, "s");
  out->Metric("build_s", Median(build_ms) / 1e3, "s");
  out->Metric("ingest_s", Median(build_ms) / 1e3, "s");
  out->Metric("sim_ingest_s", data.sim_build_ms / 1e3, "s");
  out->Metric("space_amp", static_cast<double>(stored_bytes) / source_bytes,
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
