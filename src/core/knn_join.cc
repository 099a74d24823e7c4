#include "core/knn_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/string_util.h"
#include "core/query_pipeline.h"
#include "core/spatial_join.h"
#include "geometry/wkt.h"
#include "index/rtree.h"

namespace shadoop::core {
namespace {

using mapreduce::InputSplit;
using mapreduce::JobResult;
using mapreduce::MapContext;

/// Builds the multi-block split [pa block, selected pb blocks...] with the
/// A partition id in the meta field.
InputSplit MakeJoinSplit(const index::SpatialFileInfo& file_a,
                         const index::Partition& pa,
                         const index::SpatialFileInfo& file_b,
                         const std::vector<int>& pb_ids) {
  InputSplit split;
  split.blocks.push_back(
      {index::PartitionSourcePath(pa, file_a.data_path), pa.block_index});
  split.estimated_bytes = pa.num_bytes;
  split.estimated_records = pa.num_records;
  for (int id : pb_ids) {
    const index::Partition& pb = file_b.global_index.partitions()[id];
    split.blocks.push_back(
        {index::PartitionSourcePath(pb, file_b.data_path), pb.block_index});
    split.estimated_bytes += pb.num_bytes;
    split.estimated_records += pb.num_records;
  }
  split.meta = std::to_string(pa.id);
  return split;
}

/// Shared by both rounds: the A partition id rides in the split meta, so
/// extent parsing is off and Process() reads ctx.split().meta directly.
class KnnJoinMapper : public PairPartitionMapper {
 public:
  KnnJoinMapper()
      : PairPartitionMapper(index::ShapeType::kPoint, index::ShapeType::kPoint,
                            /*parse_extents=*/false) {}
};

/// Round 1: reports Δ = the largest k-th-neighbour distance of any A
/// record against the candidate B subset (an upper bound for the exact
/// k-th distance, because adding more B records can only shrink it).
class BoundMapper : public KnnJoinMapper {
 public:
  explicit BoundMapper(size_t k) : k_(k) {}

 protected:
  void Process(const SplitExtent& extent_a, const SplitExtent& extent_b,
               PartitionView& view_a, PartitionView& view_b,
               MapContext& ctx) override {
    (void)extent_a;
    (void)extent_b;
    const std::vector<Point> a_points = view_a.Points();
    const std::vector<Point> b_points = view_b.Points();
    double delta = 0.0;
    if (b_points.size() < k_) {
      // Not enough candidates to bound: the verify round must consider
      // every B partition for this A partition.
      delta = std::numeric_limits<double>::infinity();
    } else {
      std::vector<double> dists(b_points.size());
      for (const Point& a : a_points) {
        for (size_t i = 0; i < b_points.size(); ++i) {
          dists[i] = Distance(a, b_points[i]);
        }
        std::nth_element(dists.begin(), dists.begin() + (k_ - 1),
                         dists.end());
        delta = std::max(delta, dists[k_ - 1]);
      }
      ctx.ChargeCpu(a_points.size() * b_points.size() * 4);
    }
    ctx.WriteOutput(ctx.split().meta + "," + FormatDouble(delta));
  }

 private:
  size_t k_;
};

/// Round 2: exact kNN of every A record against the guaranteed-complete
/// candidate set, via best-first search on a local R-tree over B.
class VerifyMapper : public KnnJoinMapper {
 public:
  explicit VerifyMapper(size_t k) : k_(k) {}

 protected:
  void Process(const SplitExtent& extent_a, const SplitExtent& extent_b,
               PartitionView& view_a, PartitionView& view_b,
               MapContext& ctx) override {
    (void)extent_a;
    (void)extent_b;
    const std::vector<Point> a_points = view_a.Points();
    // The B side concatenates several partitions' blocks, so an ad-hoc
    // R-tree is always bulk-loaded here (never the persisted-index path).
    const index::RTree b_tree(view_b.Envelopes());
    const size_t nb = b_tree.NumEntries();
    ctx.ChargeCpu(static_cast<uint64_t>(
        nb > 1 ? nb * std::log2(static_cast<double>(nb)) * 10 : nb));
    for (size_t ai = 0; ai < a_points.size(); ++ai) {
      const std::vector<uint32_t> neighbours =
          b_tree.NearestNeighbors(a_points[ai], k_);
      ctx.ChargeCpu(k_ * 60);
      int rank = 0;
      for (uint32_t payload : neighbours) {
        // Parse-once column lookup: candidates reached from several A
        // records are never re-parsed.
        const Point* b_point = view_b.PointAt(payload);
        if (b_point == nullptr) continue;
        ++rank;
        std::string line;
        line.append(view_a.records()[ai]);
        line.push_back(kJoinSeparator);
        line.append(view_b.records()[payload]);
        line.push_back(kJoinSeparator);
        line.append(FormatDouble(Distance(a_points[ai], *b_point)));
        line.push_back(kJoinSeparator);
        line.append(std::to_string(rank));
        ctx.WriteOutput(std::move(line));
      }
    }
  }

 private:
  size_t k_;
};

}  // namespace

Result<std::vector<KnnJoinAnswer>> KnnJoinSpatial(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file_a,
    const index::SpatialFileInfo& file_b, size_t k, OpStats* stats) {
  if (file_a.shape != index::ShapeType::kPoint ||
      file_b.shape != index::ShapeType::kPoint) {
    return Status::InvalidArgument("kNN join supports point files only");
  }
  if (k == 0) return std::vector<KnnJoinAnswer>{};
  const auto& parts_a = file_a.global_index.partitions();
  const auto& parts_b = file_b.global_index.partitions();
  if (parts_a.empty() || parts_b.empty()) {
    return std::vector<KnnJoinAnswer>{};
  }

  // ---------------------------------------------------------------
  // Round 1: bound job — each A partition against the nearest B
  // partitions covering at least k records.
  SpatialJobBuilder bound_job(runner);
  bound_job.Name("knn-join-bound");
  for (const index::Partition& pa : parts_a) {
    std::vector<std::pair<double, int>> by_distance;
    for (const index::Partition& pb : parts_b) {
      by_distance.emplace_back(pa.mbr.MinDistance(pb.mbr), pb.id);
    }
    std::sort(by_distance.begin(), by_distance.end());
    std::vector<int> selected;
    size_t covered = 0;
    for (const auto& [dist, id] : by_distance) {
      selected.push_back(id);
      covered += parts_b[id].num_records;
      if (covered >= k) break;
    }
    bound_job.AddSplit(MakeJoinSplit(file_a, pa, file_b, selected));
  }
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult bound_result,
      bound_job.Map([k]() { return std::make_unique<BoundMapper>(k); })
          .Run(stats));

  std::map<int, double> delta_of;
  for (const std::string& line : bound_result.output) {
    auto fields = SplitString(line, ',');
    if (fields.size() != 2) {
      return Status::Internal("bad bound-job output: " + line);
    }
    SHADOOP_ASSIGN_OR_RETURN(int64_t pa_id, ParseInt64(fields[0]));
    SHADOOP_ASSIGN_OR_RETURN(double delta, ParseDouble(fields[1]));
    delta_of[static_cast<int>(pa_id)] = delta;
  }

  // ---------------------------------------------------------------
  // Round 2: verify job — every B partition within Δ of the A partition.
  SpatialJobBuilder verify_job(runner);
  verify_job.Name("knn-join-verify");
  for (const index::Partition& pa : parts_a) {
    auto it = delta_of.find(pa.id);
    const double delta = it == delta_of.end()
                             ? std::numeric_limits<double>::infinity()
                             : it->second;
    std::vector<int> selected;
    for (const index::Partition& pb : parts_b) {
      if (pa.mbr.MinDistance(pb.mbr) <= delta) selected.push_back(pb.id);
    }
    verify_job.AddSplit(MakeJoinSplit(file_a, pa, file_b, selected));
  }
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult verify_result,
      verify_job.Map([k]() { return std::make_unique<VerifyMapper>(k); })
          .Run(stats));

  std::vector<KnnJoinAnswer> answers;
  answers.reserve(verify_result.output.size());
  for (const std::string& line : verify_result.output) {
    auto fields = SplitString(line, kJoinSeparator);
    if (fields.size() != 4) {
      return Status::Internal("bad verify-job output: " + line);
    }
    KnnJoinAnswer answer;
    answer.left = std::string(fields[0]);
    answer.right = std::string(fields[1]);
    SHADOOP_ASSIGN_OR_RETURN(answer.distance, ParseDouble(fields[2]));
    SHADOOP_ASSIGN_OR_RETURN(int64_t rank, ParseInt64(fields[3]));
    answer.rank = static_cast<int>(rank);
    answers.push_back(std::move(answer));
  }
  return answers;
}

}  // namespace shadoop::core
