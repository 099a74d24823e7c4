#ifndef SHADOOP_CORE_QUERY_PIPELINE_H_
#define SHADOOP_CORE_QUERY_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/op_stats.h"
#include "core/spatial_file_splitter.h"
#include "core/spatial_record_reader.h"
#include "index/index_builder.h"
#include "index/packed_rtree.h"
#include "mapreduce/job_runner.h"

namespace shadoop::core {

/// The unified query pipeline of the framework: every spatial operation —
/// built-in or user-defined — plans and executes its MapReduce jobs
/// through this one layer, so the paper's five-step skeleton (partition /
/// filter / local-process / prune / merge) has a single hot path:
///
///   - SpatialJobBuilder owns the *plan* steps: global-index filtering,
///     InputSplit construction with MBR metadata, default partitioner and
///     reducer wiring, and uniform OpStats/JobCost collection.
///   - PartitionView owns the *local-process* plumbing: records of one
///     partition are parsed once, and the local R-tree is built lazily
///     and memoized, with the cost model charged exactly once.
///   - PartitionMapper / PairPartitionMapper bridge the two: they decode
///     the split's partition extents and feed PartitionViews, so an
///     operation's mapper is just its local-processing step.

// ---------------------------------------------------------------------
// PartitionView

/// Per-split view of one partition's records inside a map task. Wraps
/// SpatialRecordReader so records are parsed once; the local R-tree is
/// built lazily on first use and memoized. All geometry accessors simply
/// forward; LocalIndex()/Search() additionally charge the simulated cost
/// model the way every built-in operation does (persisted local indexes
/// load linearly, ad-hoc bulk loads pay O(n log n), searches pay per
/// visited node).
class PartitionView {
 public:
  explicit PartitionView(index::ShapeType shape) : reader_(shape) {}

  /// Feeds one raw record, copied into the view's arena ('#'-metadata
  /// records are consumed silently).
  void Add(std::string_view record) { reader_.Add(record); }

  /// Zero-copy variant for bytes that outlive the view — the partition
  /// mappers borrow the runner's pinned block bytes this way.
  void AddBorrowed(std::string_view record) { reader_.AddBorrowed(record); }

  /// Enables artifact sharing (parsed columns, packed local index) when
  /// this view will hold exactly the records of the block with this id —
  /// see SpatialRecordReader::AttachCache. The partition mappers attach
  /// in BeginBlock, before the first record arrives.
  void AttachCache(mapreduce::ArtifactCache* cache, uint64_t block_id) {
    reader_.AttachCache(cache, block_id);
  }

  index::ShapeType shape() const { return reader_.shape(); }
  size_t NumRecords() const { return reader_.NumRecords(); }
  const std::vector<std::string_view>& records() const {
    return reader_.records();
  }
  size_t bad_records() const { return reader_.bad_records(); }
  bool has_local_index() const { return reader_.has_local_index(); }

  std::vector<Point> Points() { return reader_.Points(); }
  std::vector<Polygon> Polygons() { return reader_.Polygons(); }
  std::vector<index::RTree::Entry> Envelopes() {
    return reader_.Envelopes();
  }

  /// Parse-once column lookups (nullptr = record i is malformed); see
  /// SpatialRecordReader. These never re-count bad_records().
  const Envelope* EnvelopeAt(size_t i) { return reader_.EnvelopeAt(i); }
  const Point* PointAt(size_t i) { return reader_.PointAt(i); }
  const Polygon* PolygonAt(size_t i) { return reader_.PolygonAt(i); }

  /// The wrapped reader, for kernels that operate on two record sets at
  /// once (e.g. the join refinement step).
  SpatialRecordReader& reader() { return reader_; }

  /// The memoized local index. The first call bulk-loads it — or adopts
  /// a cached build of the same block — and charges `ctx` the build cost;
  /// later calls are free. The simulated charge is identical on cache hit
  /// and miss.
  const index::PackedRTree& LocalIndex(mapreduce::MapContext& ctx);

  /// R-tree range search through the memoized index, charging the cost
  /// model per visited node.
  std::vector<uint32_t> Search(const Envelope& query,
                               mapreduce::MapContext& ctx);

 private:
  SpatialRecordReader reader_;
  std::shared_ptr<const index::PackedRTree> local_index_;
};

// ---------------------------------------------------------------------
// Partition mappers

/// Base mapper for single-partition splits of a spatially indexed file:
/// decodes the SplitExtent carried in the split meta, buffers the
/// partition's records into a PartitionView, and hands both to Process()
/// once the split is fully read — the operation's local-process step.
class PartitionMapper : public mapreduce::Mapper {
 public:
  explicit PartitionMapper(index::ShapeType shape, bool parse_extent = true)
      : view_(shape), parse_extent_(parse_extent) {}

  void BeginSplit(mapreduce::MapContext& ctx) override;
  void BeginBlock(size_t ordinal, mapreduce::MapContext& ctx) override;
  void Map(std::string_view record, mapreduce::MapContext& ctx) override;
  void EndSplit(mapreduce::MapContext& ctx) override;

 protected:
  /// Runs once per split with every record buffered. `extent` is the
  /// decoded partition extent (default-constructed when the mapper was
  /// built with parse_extent = false, e.g. over plain block splits).
  virtual void Process(const SplitExtent& extent, PartitionView& view,
                       mapreduce::MapContext& ctx) = 0;

 private:
  PartitionView view_;
  SplitExtent extent_;
  bool parse_extent_;
  bool failed_ = false;
};

/// Base mapper for pair splits (block 0 = partition of file A, later
/// blocks = partition(s) of file B): buffers each side into its own
/// PartitionView and calls Process() with both.
class PairPartitionMapper : public mapreduce::Mapper {
 public:
  PairPartitionMapper(index::ShapeType shape_a, index::ShapeType shape_b,
                      bool parse_extents = true)
      : view_a_(shape_a), view_b_(shape_b), parse_extents_(parse_extents) {}

  void BeginSplit(mapreduce::MapContext& ctx) override;
  void BeginBlock(size_t ordinal, mapreduce::MapContext& ctx) override;
  void Map(std::string_view record, mapreduce::MapContext& ctx) override;
  void EndSplit(mapreduce::MapContext& ctx) override;

 protected:
  virtual void Process(const SplitExtent& extent_a,
                       const SplitExtent& extent_b, PartitionView& view_a,
                       PartitionView& view_b,
                       mapreduce::MapContext& ctx) = 0;

 private:
  PartitionView view_a_;
  PartitionView view_b_;
  SplitExtent extent_a_;
  SplitExtent extent_b_;
  bool parse_extents_;
  bool in_a_ = true;
  bool failed_ = false;
};

// ---------------------------------------------------------------------
// SpatialJobBuilder

/// Fluent builder for the one MapReduce job shape every spatial operation
/// uses. Input methods are additive (an operation may mix indexed scans,
/// pair scans and custom splits in one job); planning errors are deferred
/// and reported by Run(), so call sites chain without intermediate error
/// handling:
///
///   SHADOOP_ASSIGN_OR_RETURN(
///       mapreduce::JobResult result,
///       SpatialJobBuilder(runner)
///           .Name("range-query-spatial")
///           .ScanIndexed(file, RangeFilter(query))
///           .Map([...]() { return std::make_unique<MyMapper>(...); })
///           .Run(stats));
class SpatialJobBuilder {
 public:
  explicit SpatialJobBuilder(mapreduce::JobRunner* runner)
      : runner_(runner) {}

  SpatialJobBuilder& Name(std::string name);

  // ------------------------------------------------------------------
  // Plan: input selection (the paper's partition + filter steps).

  /// One split per HDFS block of `path` — the plain-Hadoop full scan.
  /// A non-empty `tag` is stored as each split's meta (SJMR uses "A"/"B"
  /// to tell its two inputs apart).
  SpatialJobBuilder& ScanFile(const std::string& path, std::string tag = "");

  /// One split per partition of the indexed file surviving `filter` (the
  /// global-index filter step; default keeps every partition). Split meta
  /// carries the encoded SplitExtent.
  SpatialJobBuilder& ScanIndexed(const index::SpatialFileInfo& file,
                                 const FilterFunction& filter = {});

  /// One split per partition *pair*, reading both partitions' blocks.
  SpatialJobBuilder& ScanPartitionPairs(
      const index::SpatialFileInfo& a, const index::SpatialFileInfo& b,
      const std::vector<std::pair<int, int>>& pairs);

  /// Appends operation-built splits (multi-block joins, custom metas).
  SpatialJobBuilder& AddSplit(mapreduce::InputSplit split);
  SpatialJobBuilder& AddSplits(std::vector<mapreduce::InputSplit> splits);

  // ------------------------------------------------------------------
  // Plan: phase wiring (local-process + merge steps).

  SpatialJobBuilder& Map(mapreduce::MapperFactory mapper);
  SpatialJobBuilder& Combine(mapreduce::ReducerFactory combiner);
  SpatialJobBuilder& Reduce(mapreduce::ReducerFactory reducer,
                            int num_reducers = 1);

  /// The shared two-round merge shape of the CG operations (skyline,
  /// convex hull): a parallel pre-merge round with one reducer per ~4
  /// surviving partitions (capped at the cluster's slots), constant-key
  /// groups spread round-robin; the caller runs the final merge on the
  /// small survivor set master-side.
  SpatialJobBuilder& ParallelMerge(mapreduce::ReducerFactory reducer);

  SpatialJobBuilder& Partition(mapreduce::Partitioner partitioner);

  SpatialJobBuilder& WithFaultInjector(mapreduce::FaultInjector injector);

  SpatialJobBuilder& MaxTaskAttempts(int attempts);

  // ------------------------------------------------------------------
  // Plan inspection.

  /// Splits planned so far (post-filter). Lets operations prune the whole
  /// job ("every partition filtered out") without running it.
  size_t NumSplits() const { return splits_.size(); }

  /// First deferred planning error, OK if none.
  const Status& plan_status() const { return status_; }

  // ------------------------------------------------------------------
  // Execute: runs the job, accumulates `stats` (counters, JobCost,
  /// jobs_run), and returns the failed status of planning or execution.
  Result<mapreduce::JobResult> Run(OpStats* stats);

 private:
  mapreduce::JobRunner* runner_;
  Status status_;
  std::string name_ = "spatial-job";
  std::vector<mapreduce::InputSplit> splits_;
  mapreduce::MapperFactory mapper_;
  mapreduce::ReducerFactory combiner_;
  mapreduce::ReducerFactory reducer_;
  mapreduce::Partitioner partitioner_;
  mapreduce::FaultInjector fault_injector_;
  int num_reducers_ = 1;
  bool parallel_merge_ = false;
  int max_task_attempts_ = 3;
};

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_QUERY_PIPELINE_H_
