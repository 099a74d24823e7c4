#include "catalog/dataset_catalog.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "index/record_shape.h"

namespace shadoop::catalog {
namespace {

using index::Partition;

/// Validation pass over an append batch: drops records that do not parse
/// as the dataset's shape (counted, like every other operation's
/// bad-record handling) and forwards the rest to the master-side router.
class IngestScanMapper : public mapreduce::Mapper {
 public:
  explicit IngestScanMapper(index::ShapeType shape) : shape_(shape) {}

  void Map(std::string_view record, mapreduce::MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    auto env = index::RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("ingest.bad_records");
      return;
    }
    ctx.counters().Increment("ingest.records");
    ctx.WriteOutput(std::string(record));
  }

 private:
  index::ShapeType shape_;
};

/// In-flight state of one partition while an append is being applied.
/// `records`/`envs` are materialized only for partitions the batch
/// touches; everything else stays a by-reference copy of the previous
/// version (copy-on-write).
struct PartState {
  Partition part;
  std::vector<std::string> records;
  std::vector<Envelope> envs;
  std::vector<std::string> pending;
  std::vector<Envelope> pending_envs;
  bool loaded = false;
  bool rewritten = false;
  bool unsplittable = false;

  size_t Count() const {
    return loaded ? records.size() : part.num_records + pending.size();
  }
};

bool IsPointEnv(const Envelope& e) {
  return e.min_x() == e.max_x() && e.min_y() == e.max_y();
}

/// Deterministic boundary stretch: when a batch grows the space, the
/// cells sitting exactly on the old space boundary extend outward to the
/// new one, so a disjoint tiling keeps covering every record and the
/// reference-point dedup of range queries stays exact. Boundary matching
/// is by exact coordinate — every partitioner constructs its outermost
/// cells at the exact space bounds.
int64_t StretchCells(std::vector<PartState>* parts,
                     const std::vector<Envelope>& batch_envs) {
  Envelope old_space;
  for (const PartState& ps : *parts) old_space.ExpandToInclude(ps.part.cell);
  Envelope target = old_space;
  for (const Envelope& e : batch_envs) target.ExpandToInclude(e);
  if (target == old_space) return 0;
  int64_t stretched = 0;
  for (PartState& ps : *parts) {
    const Envelope& c = ps.part.cell;
    const Envelope n(
        c.min_x() == old_space.min_x() ? target.min_x() : c.min_x(),
        c.min_y() == old_space.min_y() ? target.min_y() : c.min_y(),
        c.max_x() == old_space.max_x() ? target.max_x() : c.max_x(),
        c.max_y() == old_space.max_y() ? target.max_y() : c.max_y());
    if (!(n == c)) {
      ps.part.cell = n;
      ++stretched;
    }
  }
  return stretched;
}

/// The cell owning point `p` under the same half-open semantics the
/// range-query dedup applies (max edges closed only on the space
/// boundary); -1 when no cell covers the point (a gap left by a dropped
/// empty cell). Scans in id order, so ties are deterministic.
int OwnerByHalfOpen(const std::vector<PartState>& parts, const Point& p,
                    const Envelope& space) {
  for (size_t i = 0; i < parts.size(); ++i) {
    const Envelope& cell = parts[i].part.cell;
    if (cell.ContainsHalfOpen(p, cell.max_x() >= space.max_x(),
                              cell.max_y() >= space.max_y())) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Routes a record no cell covers: the nearest cell absorbs it and grows
/// to include it, with its max edges nudged past the record so half-open
/// containment holds at query time.
int AbsorbIntoNearest(std::vector<PartState>* parts, const Envelope& env) {
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < parts->size(); ++i) {
    const double d = (*parts)[i].part.cell.MinDistance(env);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  Envelope cell = (*parts)[best].part.cell;
  cell.ExpandToInclude(env);
  const double inf = std::numeric_limits<double>::infinity();
  (*parts)[best].part.cell = Envelope(
      cell.min_x(), cell.min_y(),
      env.max_x() >= cell.max_x() ? std::nextafter(cell.max_x(), inf)
                                  : cell.max_x(),
      env.max_y() >= cell.max_y() ? std::nextafter(cell.max_y(), inf)
                                  : cell.max_y());
  return best;
}

Status LoadPart(const hdfs::FileSystem& fs, index::ShapeType shape,
                PartState* ps) {
  SHADOOP_ASSIGN_OR_RETURN(
      std::vector<std::string> lines,
      fs.ReadBlock(ps->part.source_path, ps->part.block_index));
  ps->records.reserve(lines.size() + ps->pending.size());
  ps->envs.reserve(lines.size() + ps->pending.size());
  for (std::string& line : lines) {
    if (index::IsMetadataRecord(line)) continue;
    auto env = index::RecordEnvelope(shape, line);
    ps->envs.push_back(env.ok() ? env.value() : Envelope());
    ps->records.push_back(std::move(line));
  }
  ps->loaded = true;
  return Status::OK();
}

void MergePending(PartState* ps) {
  for (size_t i = 0; i < ps->pending.size(); ++i) {
    ps->records.push_back(std::move(ps->pending[i]));
    ps->envs.push_back(ps->pending_envs[i]);
  }
  ps->pending.clear();
  ps->pending_envs.clear();
  ps->rewritten = true;
}

/// One candidate cut of a partition cell at `mid` along `x_axis`.
/// Disjoint schemes replicate extended shapes crossing the midline, so
/// the children keep the tiling contract; points and overlapping schemes
/// route by owner/center. Returns false when either child ends up empty.
bool TrySplitAt(const Envelope& space, bool disjoint, const PartState& ps,
                bool x_axis, double mid, PartState* left, PartState* right) {
  const Envelope& cell = ps.part.cell;
  *left = PartState();
  *right = PartState();
  left->part = ps.part;
  right->part = ps.part;
  left->part.cell = x_axis
                        ? Envelope(cell.min_x(), cell.min_y(), mid, cell.max_y())
                        : Envelope(cell.min_x(), cell.min_y(), cell.max_x(), mid);
  right->part.cell =
      x_axis ? Envelope(mid, cell.min_y(), cell.max_x(), cell.max_y())
             : Envelope(cell.min_x(), mid, cell.max_x(), cell.max_y());
  std::vector<PartState> children(2);
  children[0].part.cell = left->part.cell;
  children[1].part.cell = right->part.cell;
  for (size_t i = 0; i < ps.records.size(); ++i) {
    const Envelope& env = ps.envs[i];
    if (disjoint && !IsPointEnv(env)) {
      if (env.Intersects(left->part.cell)) {
        left->records.push_back(ps.records[i]);
        left->envs.push_back(env);
      }
      if (env.Intersects(right->part.cell)) {
        right->records.push_back(ps.records[i]);
        right->envs.push_back(env);
      }
      continue;
    }
    int owner = OwnerByHalfOpen(children, env.Center(), space);
    if (owner < 0) {
      // A record on the cell's own max edge (only reachable through the
      // out-of-cell absorb path); keep it with the nearer child.
      owner = (x_axis ? env.Center().x : env.Center().y) < mid ? 0 : 1;
    }
    PartState* child = owner == 0 ? left : right;
    child->records.push_back(ps.records[i]);
    child->envs.push_back(env);
  }
  if (left->records.empty() || right->records.empty()) return false;
  left->loaded = right->loaded = true;
  left->rewritten = right->rewritten = true;
  return true;
}

/// Splits a degraded partition in two. Candidate cuts, in order: the cell
/// midpoint of the longer axis, the record-derived midpoint of that axis
/// (a clustered pile-up can sit entirely inside one half of a large
/// cell), then both again on the shorter axis. The first cut leaving two
/// nonempty children wins; a partition no cut can split reports false.
bool SplitPart(const Envelope& space, bool disjoint, const PartState& ps,
               PartState* left, PartState* right) {
  const Envelope& cell = ps.part.cell;
  const bool x_first = cell.Width() >= cell.Height();
  for (const bool x_axis : {x_first, !x_first}) {
    const double lo = x_axis ? cell.min_x() : cell.min_y();
    const double hi = x_axis ? cell.max_x() : cell.max_y();
    if (hi <= lo) continue;
    double center_lo = std::numeric_limits<double>::infinity();
    double center_hi = -std::numeric_limits<double>::infinity();
    for (const Envelope& env : ps.envs) {
      const double c = x_axis ? env.Center().x : env.Center().y;
      center_lo = std::min(center_lo, c);
      center_hi = std::max(center_hi, c);
    }
    for (double mid : {(lo + hi) / 2, (center_lo + center_hi) / 2}) {
      if (!(mid > lo && mid < hi)) continue;
      if (TrySplitAt(space, disjoint, ps, x_axis, mid, left, right)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

VersionStats ComputeVersionStats(const index::SpatialFileInfo& info,
                                 uint64_t version) {
  VersionStats stats;
  stats.version = version;
  stats.num_partitions = info.global_index.NumPartitions();
  for (const Partition& p : info.global_index.partitions()) {
    stats.num_records += p.num_records;
    stats.max_partition_records =
        std::max(stats.max_partition_records,
                 static_cast<uint64_t>(p.num_records));
  }
  if (stats.num_partitions > 0) {
    stats.mean_partition_records =
        static_cast<double>(stats.num_records) /
        static_cast<double>(stats.num_partitions);
  }
  if (stats.mean_partition_records > 0) {
    stats.skew = static_cast<double>(stats.max_partition_records) /
                 stats.mean_partition_records;
  }
  return stats;
}

std::string DatasetCatalog::DeltaPathFor(const std::string& data_path) {
  return data_path + "@delta";
}

std::string DatasetCatalog::CurrentPathFor(const std::string& data_path) {
  return data_path + "@current";
}

std::string DatasetCatalog::VersionMasterPathFor(const std::string& data_path,
                                                 uint64_t version) {
  if (version <= 1) return index::MasterPathFor(data_path);
  return data_path + "@v" + std::to_string(version) + "_master";
}

Result<const DatasetCatalog::State*> DatasetCatalog::Find(
    const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no such dataset: " + name);
  }
  return &it->second;
}

Status DatasetCatalog::Register(const std::string& name,
                                index::SpatialFileInfo info) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  MutexLock lock(&mu_);
  State state;
  state.data_path = info.data_path;
  state.versions.push_back(std::move(info));
  datasets_[name] = std::move(state);
  return Status::OK();
}

Result<index::SpatialFileInfo> DatasetCatalog::Create(
    const std::string& name, const std::string& source_path,
    const std::string& dest_path, const index::IndexBuildOptions& options,
    core::OpStats* stats) {
  index::IndexBuilder builder(runner_);
  SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo info,
                           builder.Build(source_path, dest_path, options));
  if (stats != nullptr) {
    stats->cost.total_ms += info.build_cost.total_ms;
    stats->cost.bytes_read += info.build_cost.bytes_read;
    stats->cost.bytes_shuffled += info.build_cost.bytes_shuffled;
    stats->cost.bytes_written += info.build_cost.bytes_written;
    stats->jobs_run += 2;  // Analysis + partition jobs.
  }
  SHADOOP_RETURN_NOT_OK(Register(name, info));
  return info;
}

Status DatasetCatalog::Open(const std::string& name,
                            const std::string& data_path) {
  const hdfs::FileSystem& fs = *runner_->file_system();
  State state;
  state.data_path = data_path;
  SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo v1,
                           index::LoadSpatialFile(fs, data_path));
  state.versions.push_back(std::move(v1));
  const std::string current = CurrentPathFor(data_path);
  if (fs.Exists(current)) {
    SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                             fs.ReadLines(current));
    if (lines.empty()) {
      return Status::ParseError("empty current-version file: " + current);
    }
    SHADOOP_ASSIGN_OR_RETURN(int64_t latest, ParseInt64(lines.front()));
    for (int64_t v = 2; v <= latest; ++v) {
      SHADOOP_ASSIGN_OR_RETURN(
          index::SpatialFileInfo info,
          index::LoadSpatialFileFromMaster(
              fs, data_path,
              VersionMasterPathFor(data_path, static_cast<uint64_t>(v))));
      state.versions.push_back(std::move(info));
    }
  }
  MutexLock lock(&mu_);
  datasets_[name] = std::move(state);
  return Status::OK();
}

Result<index::SpatialFileInfo> DatasetCatalog::Snapshot(
    const std::string& name, uint64_t version) const {
  MutexLock lock(&mu_);
  SHADOOP_ASSIGN_OR_RETURN(const State* state, Find(name));
  if (version == 0) return state->versions.back();
  if (version > state->versions.size()) {
    return Status::NotFound("dataset '" + name + "' has no version " +
                            std::to_string(version));
  }
  return state->versions[version - 1];
}

Result<uint64_t> DatasetCatalog::LatestVersion(const std::string& name) const {
  MutexLock lock(&mu_);
  SHADOOP_ASSIGN_OR_RETURN(const State* state, Find(name));
  return static_cast<uint64_t>(state->versions.size());
}

Result<VersionStats> DatasetCatalog::Stats(const std::string& name,
                                           uint64_t version) const {
  MutexLock lock(&mu_);
  SHADOOP_ASSIGN_OR_RETURN(const State* state, Find(name));
  const uint64_t v =
      version == 0 ? static_cast<uint64_t>(state->versions.size()) : version;
  if (v == 0 || v > state->versions.size()) {
    return Status::NotFound("dataset '" + name + "' has no version " +
                            std::to_string(version));
  }
  return ComputeVersionStats(state->versions[v - 1], v);
}

bool DatasetCatalog::Contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return datasets_.count(name) > 0;
}

Result<uint64_t> DatasetCatalog::Append(const std::string& name,
                                        const std::string& batch_path,
                                        core::OpStats* stats) {
  MutexLock lock(&mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("no such dataset: " + name);
  }
  State& state = it->second;
  const index::SpatialFileInfo& latest = state.versions.back();
  if (latest.global_index.NumPartitions() == 0) {
    return Status::InvalidArgument("dataset '" + name + "' has no partitions");
  }
  hdfs::FileSystem* fs = runner_->file_system();
  const index::ShapeType shape = latest.shape;
  const index::PartitionScheme scheme = latest.global_index.scheme();
  const bool disjoint = latest.global_index.IsDisjoint();

  // Scan job: validate the batch and surface its records + counters.
  mapreduce::JobConfig scan;
  scan.name = "ingest-scan";
  SHADOOP_ASSIGN_OR_RETURN(scan.splits,
                           mapreduce::MakeBlockSplits(*fs, batch_path));
  scan.mapper = [shape]() { return std::make_unique<IngestScanMapper>(shape); };
  mapreduce::JobResult scan_result = runner_->Run(scan);
  SHADOOP_RETURN_NOT_OK(scan_result.status);
  if (stats != nullptr) stats->Accumulate(scan_result);

  std::vector<std::string> batch_records;
  std::vector<Envelope> batch_envs;
  batch_records.reserve(scan_result.output.size());
  batch_envs.reserve(scan_result.output.size());
  for (std::string& rec : scan_result.output) {
    auto env = index::RecordEnvelope(shape, rec);
    if (!env.ok()) continue;  // The mapper already filtered; defensive.
    batch_envs.push_back(env.value());
    batch_records.push_back(std::move(rec));
  }

  // Copy the previous version's partitions, resolving every source path
  // explicitly — from here on the new version is self-describing.
  std::vector<PartState> parts;
  parts.reserve(latest.global_index.NumPartitions());
  for (const Partition& p : latest.global_index.partitions()) {
    PartState ps;
    ps.part = p;
    ps.part.source_path = index::PartitionSourcePath(p, state.data_path);
    parts.push_back(std::move(ps));
  }

  const int64_t stretched = StretchCells(&parts, batch_envs);
  Envelope space;
  for (const PartState& ps : parts) space.ExpandToInclude(ps.part.cell);
  for (const Envelope& e : batch_envs) space.ExpandToInclude(e);

  // Route every batch record against the frozen boundaries. Disjoint
  // schemes replicate extended shapes into every overlapping cell (the
  // bulk builder's contract); points and overlapping schemes store one
  // copy, chosen with the dedup's own half-open ownership rule so
  // incremental layouts answer queries identically to bulk ones.
  int64_t replicated = 0;
  int64_t out_of_cell = 0;
  for (size_t i = 0; i < batch_records.size(); ++i) {
    const Envelope& env = batch_envs[i];
    std::vector<int> targets;
    if (disjoint && !IsPointEnv(env)) {
      for (size_t j = 0; j < parts.size(); ++j) {
        if (parts[j].part.cell.Intersects(env)) {
          targets.push_back(static_cast<int>(j));
        }
      }
    } else {
      const int owner = OwnerByHalfOpen(parts, env.Center(), space);
      if (owner >= 0) targets.push_back(owner);
    }
    if (targets.empty()) {
      targets.push_back(AbsorbIntoNearest(&parts, env));
      ++out_of_cell;
    }
    replicated += static_cast<int64_t>(targets.size()) - 1;
    for (int t : targets) {
      parts[t].pending.push_back(batch_records[i]);
      parts[t].pending_envs.push_back(env);
    }
  }

  // Materialize the touched partitions (old records + routed ones).
  for (PartState& ps : parts) {
    if (ps.pending.empty()) continue;
    SHADOOP_RETURN_NOT_OK(LoadPart(*fs, shape, &ps));
    MergePending(&ps);
  }
  const int64_t appended_partitions = static_cast<int64_t>(
      std::count_if(parts.begin(), parts.end(),
                    [](const PartState& ps) { return ps.rewritten; }));

  // Skew-triggered incremental repartitioning: while max/mean partition
  // records exceeds the threshold, split only the degraded partitions.
  int64_t split_partitions = 0;
  for (int round = 0; round < options_.max_split_rounds; ++round) {
    if (parts.size() <= 1 && round == 0 && parts[0].Count() < 2) break;
    uint64_t total = 0;
    uint64_t max_count = 0;
    for (const PartState& ps : parts) {
      total += ps.Count();
      max_count = std::max(max_count, static_cast<uint64_t>(ps.Count()));
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(parts.size());
    if (mean <= 0 ||
        static_cast<double>(max_count) <= options_.skew_threshold * mean) {
      break;
    }
    std::vector<PartState> next;
    next.reserve(parts.size() + 1);
    bool any_split = false;
    for (PartState& ps : parts) {
      const double count = static_cast<double>(ps.Count());
      if (ps.unsplittable || ps.Count() < 2 ||
          count <= options_.skew_threshold * mean) {
        next.push_back(std::move(ps));
        continue;
      }
      if (!ps.loaded) {
        SHADOOP_RETURN_NOT_OK(LoadPart(*fs, shape, &ps));
      }
      PartState left;
      PartState right;
      if (!SplitPart(space, disjoint, ps, &left, &right)) {
        ps.unsplittable = true;
        next.push_back(std::move(ps));
        continue;
      }
      any_split = true;
      ++split_partitions;
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    parts = std::move(next);
    if (!any_split) break;
  }

  // Copy-on-write layout: rewritten partitions go into the append-only
  // delta file (one partition per block, like the bulk layout); shared
  // partitions keep their previous blocks by reference.
  const bool any_rewritten =
      std::any_of(parts.begin(), parts.end(),
                  [](const PartState& ps) { return ps.rewritten; });
  if (any_rewritten) {
    const std::string delta_path = DeltaPathFor(state.data_path);
    size_t base_block = 0;
    std::unique_ptr<hdfs::FileWriter> writer;
    if (fs->Exists(delta_path)) {
      SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta,
                               fs->GetFileMeta(delta_path));
      base_block = meta.blocks.size();
      SHADOOP_ASSIGN_OR_RETURN(writer, fs->Append(delta_path));
    } else {
      SHADOOP_ASSIGN_OR_RETURN(writer, fs->Create(delta_path));
    }
    writer->set_auto_seal(false);  // One partition == one block, exactly.
    for (PartState& ps : parts) {
      if (!ps.rewritten) continue;
      ps.part.source_path = delta_path;
      ps.part.block_index = base_block++;
      ps.part.num_records = ps.records.size();
      ps.part.num_bytes = 0;
      Envelope mbr;
      for (const Envelope& e : ps.envs) mbr.ExpandToInclude(e);
      ps.part.mbr = mbr;
      if (latest.has_local_indexes) {
        const std::string header = index::EncodeLocalIndexHeader(ps.envs);
        ps.part.num_bytes += header.size() + 1;
        writer->Append(header);
      }
      for (const std::string& rec : ps.records) {
        ps.part.num_bytes += rec.size() + 1;
        writer->Append(rec);
      }
      writer->EndBlock();
    }
    SHADOOP_RETURN_NOT_OK(writer->Close());
  }

  std::vector<Partition> new_partitions;
  new_partitions.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].part.id = static_cast<int>(i);
    new_partitions.push_back(std::move(parts[i].part));
  }

  const uint64_t version = static_cast<uint64_t>(state.versions.size()) + 1;
  index::SpatialFileInfo next = latest;
  next.master_path = VersionMasterPathFor(state.data_path, version);
  next.global_index = index::GlobalIndex(scheme, std::move(new_partitions));

  // Persist the version master, then publish it through the CURRENT
  // pointer (write-temp + Replace, the catalog's atomic swap).
  std::vector<std::string> master_lines;
  master_lines.push_back(std::string("#scheme=") +
                         index::PartitionSchemeName(scheme) +
                         " shape=" + index::ShapeTypeName(shape) +
                         (latest.has_local_indexes ? " lidx=1" : ""));
  for (std::string& line : next.global_index.ToLines()) {
    master_lines.push_back(std::move(line));
  }
  SHADOOP_RETURN_NOT_OK(fs->WriteLines(next.master_path, master_lines));
  const std::string current = CurrentPathFor(state.data_path);
  const std::string tmp = current + ".tmp";
  if (fs->Exists(tmp)) SHADOOP_RETURN_NOT_OK(fs->Delete(tmp));
  SHADOOP_RETURN_NOT_OK(fs->WriteLines(tmp, {std::to_string(version)}));
  SHADOOP_RETURN_NOT_OK(fs->Replace(tmp, current));

  // Nonzero-only ingest counters: appends that did nothing special leave
  // no trace, preserving golden-counter parity for bulk-only workloads.
  if (stats != nullptr) {
    const int64_t shared =
        static_cast<int64_t>(parts.size()) - appended_partitions -
        2 * split_partitions;
    if (appended_partitions > 0) {
      stats->counters.Increment("ingest.appended_partitions",
                                appended_partitions);
    }
    if (shared > 0) stats->counters.Increment("ingest.shared_partitions",
                                              shared);
    if (replicated > 0) {
      stats->counters.Increment("ingest.replicated_records", replicated);
    }
    if (split_partitions > 0) {
      stats->counters.Increment("ingest.split_partitions", split_partitions);
    }
    if (stretched > 0) {
      stats->counters.Increment("ingest.stretched_cells", stretched);
    }
    if (out_of_cell > 0) {
      stats->counters.Increment("ingest.out_of_cell_records", out_of_cell);
    }
  }

  state.versions.push_back(std::move(next));
  return version;
}

}  // namespace shadoop::catalog
