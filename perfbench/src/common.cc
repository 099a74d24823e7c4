// Layer probes and per-layer reporting shared by the three workloads.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/spatial_record_reader.h"
#include "index/packed_rtree.h"
#include "index/record_shape.h"
#include "simd/mbr_kernels.h"
#include "workloads.h"

namespace perfbench {

using shadoop::Envelope;
namespace index = shadoop::index;
namespace simd = shadoop::simd;

namespace {

std::string Coord(double v) {
  return std::to_string(static_cast<int64_t>(std::llround(v)));
}

std::string RectangleText(const Box& w) {
  return "RECTANGLE(" + Coord(w.min_x) + ", " + Coord(w.min_y) + ", " +
         Coord(w.max_x) + ", " + Coord(w.max_y) + ")";
}

}  // namespace

PointQuery PointQuery::Range(Box window) {
  PointQuery q;
  q.kind = Kind::kRange;
  q.window = window;
  q.script = "r = RANGE pts " + RectangleText(window) + "; DUMP r;";
  return q;
}

PointQuery PointQuery::Count(Box window) {
  PointQuery q;
  q.kind = Kind::kCount;
  q.window = window;
  q.script = "c = COUNT pts " + RectangleText(window) + "; DUMP c;";
  return q;
}

PointQuery PointQuery::Knn(double px, double py, size_t k) {
  PointQuery q;
  q.kind = Kind::kKnn;
  q.px = px;
  q.py = py;
  q.k = k;
  q.script = "n = KNN pts POINT(" + Coord(px) + ", " + Coord(py) + ") K " +
             std::to_string(k) + "; DUMP n;";
  return q;
}

const char* PointQuery::KindName() const {
  switch (kind) {
    case Kind::kRange:
      return "range";
    case Kind::kCount:
      return "count";
    case Kind::kKnn:
      return "knn";
  }
  return "?";
}

void PointQuery::Expect(const PointOracle& oracle) {
  switch (kind) {
    case Kind::kRange:
      expected = oracle.Window(window);
      break;
    case Kind::kCount:
      expected = RowDigest();
      expected.Add(std::to_string(oracle.Count(window)));
      break;
    case Kind::kKnn:
      knn_distances = oracle.KnnDistances(px, py, k, &expected);
      break;
  }
}

bool PointQuery::Check(const RowDigest& got,
                       const std::vector<std::string>& rows) const {
  if (got == expected) return true;
  if (kind != Kind::kKnn || rows.size() != knn_distances.size()) return false;
  std::vector<double> dist;
  for (const std::string& row : rows) {
    double x = 0, y = 0;
    if (!ParsePointRecord(row, &x, &y)) return false;
    dist.push_back(std::sqrt((x - px) * (x - px) + (y - py) * (y - py)));
  }
  std::sort(dist.begin(), dist.end());
  for (size_t i = 0; i < dist.size(); ++i) {
    if (std::fabs(dist[i] - knn_distances[i]) >
        1e-9 * std::max(1.0, knn_distances[i])) {
      return false;
    }
  }
  return true;
}

double LayerStats::MedianOf(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Median(it->second);
}

double LayerStats::RatioOf(const std::string& name) const {
  const auto it = ratios_.find(name);
  if (it == ratios_.end() || it->second.second == 0) return 0;
  return it->second.first / it->second.second;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"hdfs.read_block_us", "us"},
      {"hdfs.bytes_read_per_stmt", "B"},
      {"hdfs.bytes_written_per_record", "B"},
      {"geometry.decode_ns_per_record", "ns"},
      {"index.parses_per_record", "ratio"},
      {"index.partition_ns_per_record", "ns"},
      {"index.local_build_ns_per_record", "ns"},
      {"index.global_filter_us", "us"},
      {"index.partitions_kept_ratio", "ratio"},
      {"index.local_search_us", "us"},
      {"index.partition_skew", "ratio"},
      {"index.replication_ratio", "ratio"},
      {"simd.intersect_ns_per_box", "ns"},
      {"simd.prefix_count_ns_per_value", "ns"},
      {"simd.min_distance_ns_per_box", "ns"},
      {"mapreduce.jobs_per_op", "count"},
      {"mapreduce.tasks_per_op", "count"},
      {"mapreduce.job_wall_share", "ratio"},
      {"mapreduce.sim_map_ms", "ms"},
      {"mapreduce.sim_shuffle_ms", "ms"},
      {"mapreduce.sim_reduce_ms", "ms"},
      {"mapreduce.bytes_shuffled_per_op", "B"},
      {"mapreduce.artifact_cache_hit_ratio", "ratio"},
      {"mapreduce.sim_admission_wait_ms", "ms"},
      {"core.op_ms.range", "ms"},
      {"core.op_ms.count", "ms"},
      {"core.op_ms.knn", "ms"},
      {"core.op_ms.dj", "ms"},
      {"core.op_ms.sjmr", "ms"},
      {"core.split_us", "us"},
      {"core.column_ns_per_record", "ns"},
      {"core.examined_per_row", "ratio"},
      {"catalog.shared_partition_ratio", "ratio"},
      {"catalog.split_partitions", "count"},
      {"catalog.rewrite_bytes_per_batch_byte", "ratio"},
      {"catalog.append_ms", "ms"},
      {"optimizer.plan_us", "us"},
      {"optimizer.choice.dj_l", "count"},
      {"optimizer.choice.dj_r", "count"},
      {"optimizer.choice.sjmr", "count"},
      {"optimizer.q_error", "ratio"},
      {"pigeon.parse_us", "us"},
      {"server.result_cache_hit_ratio", "ratio"},
      {"server.unattributed_us", "us"},
      {"hdfs.self_ms_per_stmt", "ms"},
      {"geometry.self_ms_per_stmt", "ms"},
      {"index.self_ms_per_stmt", "ms"},
      {"simd.self_ms_per_stmt", "ms"},
      {"mapreduce.self_ms_per_stmt", "ms"},
      {"core.self_ms_per_stmt", "ms"},
      {"catalog.self_ms_per_stmt", "ms"},
      {"optimizer.self_ms_per_stmt", "ms"},
      {"pigeon.self_ms_per_stmt", "ms"},
      {"server.self_ms_per_stmt", "ms"},
      {"trace.overhead_ms_per_stmt", "ms"},
      {"trace.overhead_share", "ratio"},
      {"trace.unattributed_share", "ratio"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values, Outcome* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    out->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

namespace {

std::vector<std::string_view> SplitLines(const std::string& payload) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    if (end > start) lines.emplace_back(payload.data() + start, end - start);
    start = end + 1;
  }
  return lines;
}

}  // namespace

PartitionProbe ProbePartition(Tracer* tracer, int stmt, int parent,
                              const shadoop::hdfs::FileSystem& fs,
                              const index::SpatialFileInfo& info,
                              const index::Partition& partition,
                              const Envelope* window,
                              const shadoop::Point* knn_point,
                              LayerStats* layers) {
  PartitionProbe probe;
  std::shared_ptr<const std::string> payload;
  const double read_ms =
      TimedMs(tracer, "hdfs.read_block_raw", stmt, parent, [&] {
        auto block = fs.ReadBlockRaw(
            index::PartitionSourcePath(partition, info.data_path),
            partition.block_index);
        if (block.ok()) payload = block.value();
      });
  if (payload == nullptr) return probe;
  layers->Sample("hdfs.read_block_us", read_ms * 1e3);
  const std::vector<std::string_view> lines = SplitLines(*payload);

  std::vector<std::string_view> data;
  for (std::string_view line : lines) {
    if (!index::IsMetadataRecord(line)) data.push_back(line);
  }
  const double n = static_cast<double>(data.size());

  shadoop::core::SpatialRecordReader reader(info.shape);
  const double column_ms =
      TimedMs(tracer, "core.spatial_record_reader", stmt, parent, [&] {
        for (std::string_view line : lines) reader.AddBorrowed(line);
        reader.envelope_column();
        if (info.shape == index::ShapeType::kPolygon) {
          for (size_t i = 0; i < reader.NumRecords(); ++i) {
            reader.PolygonAt(i);
          }
        }
      });
  layers->Ratio("core.column_ns_per_record", column_ms * 1e6, n);

  const double decode_ms =
      TimedMs(tracer, info.shape == index::ShapeType::kPolygon
                          ? "geometry.record_polygon"
                          : "geometry.record_point",
              stmt, parent, [&] {
                for (std::string_view line : data) {
                  if (info.shape == index::ShapeType::kPolygon) {
                    (void)index::RecordPolygon(line);
                  } else {
                    (void)index::RecordPoint(line);
                  }
                }
              });
  layers->Ratio("geometry.decode_ns_per_record", decode_ms * 1e6, n);

  const std::vector<index::RTree::Entry> entries = reader.Envelopes();
  index::PackedRTree tree;
  const double build_ms =
      TimedMs(tracer, "index.packed_rtree_build", stmt, parent,
              [&] { tree = index::PackedRTree(entries); });
  layers->Ratio("index.local_build_ns_per_record", build_ms * 1e6, n);

  std::vector<double> min_x, min_y, max_x, max_y;
  for (const index::RTree::Entry& e : entries) {
    min_x.push_back(e.box.min_x());
    min_y.push_back(e.box.min_y());
    max_x.push_back(e.box.max_x());
    max_y.push_back(e.box.max_y());
    probe.envelopes.push_back(e.box);
  }
  const simd::BoxLanes lanes{min_x.data(), min_y.data(), max_x.data(),
                             max_y.data()};
  const double boxes = static_cast<double>(entries.size());
  if (window != nullptr) {
    std::vector<uint32_t> hits;
    const double search_ms =
        TimedMs(tracer, "index.packed_rtree_search", stmt, parent,
                [&] { tree.Search(*window, &hits); });
    layers->Sample("index.local_search_us", search_ms * 1e3);
    std::vector<uint64_t> bits(simd::BitmapWords(entries.size()));
    const double simd_ms =
        TimedMs(tracer, "simd.intersect_box_bitmap", stmt, parent, [&] {
          simd::IntersectBoxBitmap(lanes, entries.size(), window->min_x(),
                                   window->min_y(), window->max_x(),
                                   window->max_y(), bits.data());
        });
    layers->Ratio("simd.intersect_ns_per_box", simd_ms * 1e6, boxes);
  }
  if (knn_point != nullptr) {
    std::vector<double> dist(entries.size());
    const double simd_ms =
        TimedMs(tracer, "simd.box_min_distance", stmt, parent, [&] {
          simd::BoxMinDistance(lanes, entries.size(), knn_point->x,
                               knn_point->y, dist.data());
        });
    layers->Ratio("simd.min_distance_ns_per_box", simd_ms * 1e6, boxes);
  }
  return probe;
}

void RecordOpStats(Tracer* tracer, int stmt, int op_span,
                   const shadoop::core::OpStats& stats, LayerStats* layers) {
  const Tracer::Span& span = tracer->spans()[static_cast<size_t>(op_span)];
  const int64_t start = span.start_ns;
  const int64_t end = span.end_ns;
  const double op_ms = NsToMs(end - start);
  const int64_t wall_ns =
      std::min<int64_t>(end - start, static_cast<int64_t>(stats.wall_ms * 1e6));
  tracer->AddDerived("mapreduce.jobs", stmt, op_span, end - wall_ns, end);
  layers->Ratio("mapreduce.jobs_per_op", stats.jobs_run, 1);
  layers->Ratio("mapreduce.tasks_per_op",
                stats.cost.num_map_tasks + stats.cost.num_reduce_tasks, 1);
  layers->Ratio("mapreduce.job_wall_share", stats.wall_ms, op_ms);
  layers->Ratio("mapreduce.sim_map_ms", stats.cost.map_makespan_ms, 1);
  layers->Ratio("mapreduce.sim_shuffle_ms", stats.cost.shuffle_ms, 1);
  layers->Ratio("mapreduce.sim_reduce_ms", stats.cost.reduce_makespan_ms, 1);
  layers->Ratio("mapreduce.bytes_shuffled_per_op",
                static_cast<double>(stats.cost.bytes_shuffled), 1);
}

double PlanQError(const shadoop::optimizer::PlanDecision& decision,
                  double actual_ms) {
  for (const auto& alt : decision.alternatives) {
    if (alt.name != decision.chosen) continue;
    if (alt.cost_ms <= 0 || actual_ms <= 0) return 0;
    return std::max(alt.cost_ms / actual_ms, actual_ms / alt.cost_ms);
  }
  return 0;
}

uint64_t FileBytes(const shadoop::hdfs::FileSystem& fs,
                   const std::string& path) {
  auto meta = fs.GetFileMeta(path);
  return meta.ok() ? meta->total_bytes : 0;
}

uint64_t StoredBytes(const shadoop::hdfs::FileSystem& fs,
                     const std::string& data_path) {
  uint64_t total = 0;
  for (const std::string& path : fs.ListFiles(data_path)) {
    total += FileBytes(fs, path);
  }
  return total;
}

void EmitTraceSummary(const Args& args, const Tracer& tracer,
                      const TraceSummary& summary,
                      std::map<std::string, double>* layer_values,
                      Outcome* out) {
  const double n = std::max<double>(1, summary.unattributed_ms.size());
  const double unattributed = Sum(summary.unattributed_ms);
  // The server's own time is what the replayed calls below it leave
  // uncovered; its timed Execute spans only supply the untraced clock.
  std::map<std::string, double> self = tracer.SelfMsByModule();
  self["server"] = unattributed;
  std::string self_json = "{";
  for (const auto& [module, ms] : self) {
    self_json += (self_json.size() > 1 ? ", " : "") + JsonString(module) +
                 ": " + JsonNumber(ms / n);
    if (module != "bench") {
      (*layer_values)[module + ".self_ms_per_stmt"] = ms / n;
    }
  }
  (*layer_values)["server.unattributed_us"] =
      Median(summary.unattributed_ms) * 1e3;
  const double overhead = summary.traced_ms - summary.untraced_ms;
  (*layer_values)["trace.overhead_ms_per_stmt"] = overhead / n;
  (*layer_values)["trace.overhead_share"] =
      summary.untraced_ms > 0 ? overhead / summary.untraced_ms : 0;
  (*layer_values)["trace.unattributed_share"] =
      summary.untraced_ms > 0 ? unattributed / summary.untraced_ms : 0;
  out->Fact("trace_self_ms_per_stmt", self_json + "}");
  out->FactNumber("trace_statements", n);
  out->FactNumber("trace_overhead_ms", overhead);
  out->FactNumber("trace_unattributed_share",
                  (*layer_values)["trace.unattributed_share"]);
  const std::string path = (std::filesystem::path(args.state_dir) / "traces" /
                            (args.workload + "-seed" +
                             std::to_string(args.seed) + ".json"))
                               .string();
  if (tracer.WriteJson(path)) out->FactString("trace_file", path);
}

}  // namespace perfbench
