#include "core/query_pipeline.h"

#include <algorithm>
#include <cmath>

namespace shadoop::core {

// ---------------------------------------------------------------------
// PartitionView

const index::PackedRTree& PartitionView::LocalIndex(
    mapreduce::MapContext& ctx) {
  if (local_index_ == nullptr) {
    // A persisted local index loads linearly; otherwise the bulk load
    // parses geometry and sorts — O(n log n). The charge is the same
    // whether the packed tree is built here or adopted from the cache:
    // the simulated cluster has no artifact cache, only this process
    // does.
    const bool persisted = reader_.has_local_index();
    std::string key;
    if (reader_.cache() != nullptr && reader_.cache_block_id() != 0) {
      key = "ptree:" + std::to_string(static_cast<int>(shape())) + ':' +
            std::to_string(reader_.cache_block_id());
      if (auto hit = reader_.cache()->Lookup(key)) {
        local_index_ =
            std::static_pointer_cast<const index::PackedRTree>(hit);
        // The build path runs Envelopes(), which counts the envelope
        // column's parse failures into bad_records(); mirror that.
        reader_.CountEnvelopeBad();
      }
    }
    if (local_index_ == nullptr) {
      auto built = std::make_shared<index::PackedRTree>(reader_.Envelopes());
      local_index_ =
          key.empty() ? std::shared_ptr<const index::PackedRTree>(
                            std::move(built))
                      : std::static_pointer_cast<const index::PackedRTree>(
                            reader_.cache()->Insert(key, std::move(built)));
    }
    const size_t n = local_index_->NumEntries();
    ctx.ChargeCpu(persisted
                      ? static_cast<uint64_t>(n)
                      : static_cast<uint64_t>(
                            n > 1 ? n * std::log2(static_cast<double>(n)) * 10
                                  : n));
  }
  return *local_index_;
}

std::vector<uint32_t> PartitionView::Search(const Envelope& query,
                                            mapreduce::MapContext& ctx) {
  const index::PackedRTree& tree = LocalIndex(ctx);
  std::vector<uint32_t> hits;
  const size_t visited = tree.Search(query, &hits);
  ctx.ChargeCpu(visited * 50);
  return hits;
}

// ---------------------------------------------------------------------
// PartitionMapper

void PartitionMapper::BeginSplit(mapreduce::MapContext& ctx) {
  if (!parse_extent_) return;
  auto extent = ParseSplitExtent(ctx.split().meta);
  if (!extent.ok()) {
    ctx.Fail(extent.status());
    failed_ = true;
    return;
  }
  extent_ = extent.value();
}

void PartitionMapper::BeginBlock(size_t ordinal,
                                 mapreduce::MapContext& ctx) {
  // Artifact sharing is per single block: only a one-block split makes
  // the view's content exactly one block.
  if (ordinal == 0 && ctx.split().blocks.size() == 1) {
    view_.AttachCache(ctx.artifact_cache(), ctx.block_cache_id(0));
  }
}

void PartitionMapper::Map(std::string_view record,
                          mapreduce::MapContext& ctx) {
  (void)ctx;
  // Record views stay valid through EndSplit (the runner pins the block
  // bytes for the whole attempt), so buffering borrows — no copy.
  view_.AddBorrowed(record);
}

void PartitionMapper::EndSplit(mapreduce::MapContext& ctx) {
  if (failed_) return;
  Process(extent_, view_, ctx);
}

// ---------------------------------------------------------------------
// PairPartitionMapper

void PairPartitionMapper::BeginSplit(mapreduce::MapContext& ctx) {
  if (!parse_extents_) return;
  const std::string& meta = ctx.split().meta;
  const size_t bar = meta.find('|');
  if (bar == std::string::npos) {
    ctx.Fail(Status::ParseError("bad pair-split meta"));
    failed_ = true;
    return;
  }
  auto a = ParseSplitExtent(meta.substr(0, bar));
  auto b = ParseSplitExtent(meta.substr(bar + 1));
  if (!a.ok() || !b.ok()) {
    ctx.Fail(a.ok() ? b.status() : a.status());
    failed_ = true;
    return;
  }
  extent_a_ = a.value();
  extent_b_ = b.value();
}

void PairPartitionMapper::BeginBlock(size_t ordinal,
                                     mapreduce::MapContext& ctx) {
  in_a_ = ordinal == 0;
  // Each side's view holds exactly one block in a two-block pair split,
  // so both can share artifacts; wider splits stay uncached.
  if (ordinal < 2 && ctx.split().blocks.size() == 2) {
    (in_a_ ? view_a_ : view_b_)
        .AttachCache(ctx.artifact_cache(), ctx.block_cache_id(ordinal));
  }
}

void PairPartitionMapper::Map(std::string_view record,
                              mapreduce::MapContext& ctx) {
  (void)ctx;
  (in_a_ ? view_a_ : view_b_).AddBorrowed(record);
}

void PairPartitionMapper::EndSplit(mapreduce::MapContext& ctx) {
  if (failed_) return;
  Process(extent_a_, extent_b_, view_a_, view_b_, ctx);
}

// ---------------------------------------------------------------------
// SpatialJobBuilder

SpatialJobBuilder& SpatialJobBuilder::Name(std::string name) {
  name_ = std::move(name);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ScanFile(const std::string& path,
                                               std::string tag) {
  auto splits = mapreduce::MakeBlockSplits(*runner_->file_system(), path);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  for (mapreduce::InputSplit& split : splits.value()) {
    if (!tag.empty()) split.meta = tag;
    splits_.push_back(std::move(split));
  }
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ScanIndexed(
    const index::SpatialFileInfo& file, const FilterFunction& filter) {
  auto splits = SpatialSplits(file, filter ? filter : KeepAllFilter);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  return AddSplits(std::move(splits).value());
}

SpatialJobBuilder& SpatialJobBuilder::ScanPartitionPairs(
    const index::SpatialFileInfo& a, const index::SpatialFileInfo& b,
    const std::vector<std::pair<int, int>>& pairs) {
  auto splits = PairSplits(a, b, pairs);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  return AddSplits(std::move(splits).value());
}

SpatialJobBuilder& SpatialJobBuilder::AddSplit(mapreduce::InputSplit split) {
  splits_.push_back(std::move(split));
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::AddSplits(
    std::vector<mapreduce::InputSplit> splits) {
  splits_.insert(splits_.end(), std::make_move_iterator(splits.begin()),
                 std::make_move_iterator(splits.end()));
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Map(mapreduce::MapperFactory mapper) {
  mapper_ = std::move(mapper);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Combine(
    mapreduce::ReducerFactory combiner) {
  combiner_ = std::move(combiner);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Reduce(mapreduce::ReducerFactory reducer,
                                             int num_reducers) {
  reducer_ = std::move(reducer);
  num_reducers_ = num_reducers;
  parallel_merge_ = false;
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ParallelMerge(
    mapreduce::ReducerFactory reducer) {
  reducer_ = std::move(reducer);
  parallel_merge_ = true;
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Partition(
    mapreduce::Partitioner partitioner) {
  partitioner_ = std::move(partitioner);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::WithFaultInjector(
    mapreduce::FaultInjector injector) {
  fault_injector_ = std::move(injector);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::MaxTaskAttempts(int attempts) {
  max_task_attempts_ = attempts;
  return *this;
}

Result<mapreduce::JobResult> SpatialJobBuilder::Run(OpStats* stats) {
  SHADOOP_RETURN_NOT_OK(status_);
  if (!mapper_) {
    return Status::InvalidArgument("job '" + name_ + "' has no mapper");
  }
  mapreduce::JobConfig job;
  job.name = name_;
  job.splits = std::move(splits_);
  job.mapper = mapper_;
  job.combiner = combiner_;
  job.reducer = reducer_;
  job.partitioner = partitioner_;
  job.fault_injector = fault_injector_;
  job.max_task_attempts = max_task_attempts_;
  if (parallel_merge_) {
    // Round 1 of the two-round merge: one reducer per ~4 partitions so no
    // single reducer absorbs every local result; the constant-key groups
    // are spread round-robin (each map task cycles its emissions).
    job.num_reducers = std::min<int>(
        runner_->cluster().num_slots,
        std::max<int>(1, static_cast<int>(job.splits.size()) / 4));
    if (!job.partitioner) {
      int counter = 0;
      job.partitioner = [counter](std::string_view, int reducers) mutable {
        return counter++ % reducers;
      };
    }
  } else {
    job.num_reducers = num_reducers_;
  }
  mapreduce::JobResult result = runner_->Run(job);
  SHADOOP_RETURN_NOT_OK(result.status);
  if (stats != nullptr) stats->Accumulate(result);
  return result;
}

}  // namespace shadoop::core
