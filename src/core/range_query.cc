#include "core/range_query.h"

#include <memory>

#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

class HadoopRangeMapper : public mapreduce::Mapper {
 public:
  HadoopRangeMapper(index::ShapeType shape, Envelope query)
      : shape_(shape), query_(query) {}

  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    auto env = index::RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("range.bad_records");
      return;
    }
    if (env.value().Intersects(query_)) {
      ctx.WriteOutput(std::string(record));
      ctx.counters().Increment("range.matches");
    }
  }

 private:
  index::ShapeType shape_;
  Envelope query_;
};

class SpatialRangeMapper : public PartitionMapper {
 public:
  SpatialRangeMapper(index::ShapeType shape, Envelope query, bool deduplicate)
      : PartitionMapper(shape), query_(query), deduplicate_(deduplicate) {}

 protected:
  void Process(const SplitExtent& extent, PartitionView& view,
               MapContext& ctx) override {
    for (uint32_t i : view.Search(query_, ctx)) {
      if (deduplicate_) {
        // Reference-point technique: a record replicated to several
        // partitions is reported only by the partition owning the
        // bottom-left corner of (record MBR ∩ query). The envelope comes
        // from the view's parse-once column — no re-parse here.
        const Envelope* env = view.EnvelopeAt(i);
        if (env == nullptr) continue;
        const Point ref = env->Intersection(query_).BottomLeft();
        const bool right_edge = extent.cell.max_x() >= extent.file_mbr.max_x();
        const bool top_edge = extent.cell.max_y() >= extent.file_mbr.max_y();
        if (!extent.cell.ContainsHalfOpen(ref, right_edge, top_edge)) {
          ctx.counters().Increment("range.deduplicated");
          continue;
        }
      }
      ctx.WriteOutput(std::string(view.records()[i]));
      ctx.counters().Increment("range.matches");
    }
    ctx.counters().Increment("range.bad_records",
                             static_cast<int64_t>(view.bad_records()));
  }

 private:
  Envelope query_;
  bool deduplicate_;
};

}  // namespace

Result<std::vector<std::string>> RangeQueryHadoop(mapreduce::JobRunner* runner,
                                                  const std::string& path,
                                                  index::ShapeType shape,
                                                  const Envelope& query,
                                                  OpStats* stats) {
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("range-query-hadoop")
          .ScanFile(path)
          .Map([shape, query]() {
            return std::make_unique<HadoopRangeMapper>(shape, query);
          })
          .Run(stats));
  return std::move(result.output);
}

Result<std::vector<std::string>> RangeQuerySpatial(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file,
    const Envelope& query, OpStats* stats) {
  const index::ShapeType shape = file.shape;
  const bool dedup = file.global_index.IsDisjoint();
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("range-query-spatial")
          .ScanIndexed(file, RangeFilter(query))
          .Map([shape, query, dedup]() {
            return std::make_unique<SpatialRangeMapper>(shape, query, dedup);
          })
          .Run(stats));
  return std::move(result.output);
}

}  // namespace shadoop::core
