// The three workloads and the layer probes their traced runs share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/op_stats.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "hdfs/file_system.h"
#include "harness.h"
#include "index/index_builder.h"
#include "optimizer/optimizer.h"
#include "oracle.h"

namespace perfbench {

void RunServe(const Args& args, Outcome* out);
void RunIngest(const Args& args, Outcome* out);
void RunJoin(const Args& args, Outcome* out);

/// Runs `body` inside a span and returns the span's duration.
template <typename F>
double TimedMs(Tracer* tracer, std::string name, int stmt, int parent,
               F&& body) {
  const int id = tracer->Begin(std::move(name), stmt, parent);
  body();
  tracer->End(id);
  const Tracer::Span& span = tracer->spans()[static_cast<size_t>(id)];
  return NsToMs(span.end_ns - span.start_ns);
}

/// One RANGE, COUNT or KNN statement over the point dataset bound as
/// `pts`, with its brute-force expected answer.
struct PointQuery {
  enum class Kind { kRange, kCount, kKnn };
  Kind kind = Kind::kRange;
  Box window;  // kRange / kCount.
  double px = 0, py = 0;  // kKnn.
  size_t k = 0;
  std::string script;
  RowDigest expected;
  std::vector<double> knn_distances;

  static PointQuery Range(Box window);
  static PointQuery Count(Box window);
  static PointQuery Knn(double px, double py, size_t k);
  shadoop::Envelope Envelope() const {
    return shadoop::Envelope(window.min_x, window.min_y, window.max_x,
                             window.max_y);
  }
  void Expect(const PointOracle& oracle);
  /// True when `rows` (digest `got`) is the expected answer. kNN ties at
  /// the k-th distance may pick other records; those pass when the
  /// distance lists agree.
  bool Check(const RowDigest& got, const std::vector<std::string>& rows) const;
  const char* KindName() const;
};

/// Accumulators behind the per-layer metrics: per-event samples (reported
/// as medians) and numerator/denominator pairs (reported as ratios).
class LayerStats {
 public:
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Ratio(const std::string& name, double num, double den) {
    auto& r = ratios_[name];
    r.first += num;
    r.second += den;
  }
  double MedianOf(const std::string& name) const;
  double RatioOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// The names every traced run reports (BENCHMARK.json per_layer), so each
/// workload prints the full set; layers a workload does not exercise read
/// 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Copies `layer` into `out` under PerLayerMetrics(); names absent from
/// `values` are reported as 0.
void EmitPerLayer(const std::map<std::string, double>& values, Outcome* out);

/// What the traced replay of one partition read: its record envelopes.
struct PartitionProbe {
  std::vector<shadoop::Envelope> envelopes;
};

/// Replays, with spans under `parent`, the reads a map task performs on one
/// stored partition: FileSystem::ReadBlockRaw, SpatialRecordReader column
/// access, index::RecordPoint/RecordPolygon decode of every record, and
/// the PackedRTree bulk load. With `window`, also PackedRTree::Search and
/// simd::IntersectBoxBitmap over the partition's boxes; with `knn_point`,
/// simd::BoxMinDistance.
PartitionProbe ProbePartition(Tracer* tracer, int stmt, int parent,
                              const shadoop::hdfs::FileSystem& fs,
                              const shadoop::index::SpatialFileInfo& info,
                              const shadoop::index::Partition& partition,
                              const shadoop::Envelope* window,
                              const shadoop::Point* knn_point,
                              LayerStats* layers);

/// Adds the mapreduce.* layer numbers of one operation (its OpStats and its
/// span) to `layers`, and a derived `mapreduce.jobs` child span of the
/// operation span covering OpStats::wall_ms.
void RecordOpStats(Tracer* tracer, int stmt, int op_span,
                   const shadoop::core::OpStats& stats, LayerStats* layers);

/// q-error of the chosen plan alternative's estimate against the
/// simulated actual: max(est/actual, actual/est); 0 when unknown.
double PlanQError(const shadoop::optimizer::PlanDecision& decision,
                  double actual_ms);

/// Bytes of every file of the dataset rooted at `data_path` (data,
/// "@delta", masters, pointer).
uint64_t StoredBytes(const shadoop::hdfs::FileSystem& fs,
                     const std::string& data_path);
uint64_t FileBytes(const shadoop::hdfs::FileSystem& fs,
                   const std::string& path);

/// Self time per module from the tracer, the unattributed share and
/// trace overhead, reported as facts and per-layer values.
struct TraceSummary {
  double untraced_ms = 0;  // Summed untraced end-to-end time of the
                           // replayed statements.
  double traced_ms = 0;    // Summed traced replay time of the same.
  /// Per statement: untraced time minus the replay spans of the
  /// statement's own calls (parse, plan, operation).
  std::vector<double> unattributed_ms;
};
void EmitTraceSummary(const Args& args, const Tracer& tracer,
                      const TraceSummary& summary,
                      std::map<std::string, double>* layer_values,
                      Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
