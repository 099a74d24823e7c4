#include "index/index_builder.h"

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "geometry/wkt.h"
#include "index/partitioner.h"
#include "mapreduce/thread_pool.h"

namespace shadoop::index {
namespace {

using mapreduce::InputSplit;
using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MapContext;
using mapreduce::Mapper;

void AccumulateCost(mapreduce::JobCost* total, const mapreduce::JobCost& job) {
  total->total_ms += job.total_ms;
  total->map_makespan_ms += job.map_makespan_ms;
  total->shuffle_ms += job.shuffle_ms;
  total->reduce_makespan_ms += job.reduce_makespan_ms;
  total->bytes_read += job.bytes_read;
  total->bytes_shuffled += job.bytes_shuffled;
  total->bytes_written += job.bytes_written;
  total->num_map_tasks += job.num_map_tasks;
  total->num_reduce_tasks += job.num_reduce_tasks;
}

uint64_t SplitSeed(const InputSplit& split) {
  uint64_t seed = 0xa1b2c3d4e5f60718ULL;
  for (const mapreduce::BlockRef& block : split.blocks) {
    for (char c : block.path) seed = seed * 131 + static_cast<uint64_t>(c);
    seed = seed * 1000003 + block.block_index;
  }
  return seed;
}

/// Analysis phase: computes the per-split MBR and emits a record sample.
/// Output lines: "MBR <csv>" and "S <x,y>".
class AnalysisMapper : public Mapper {
 public:
  AnalysisMapper(ShapeType shape, double sample_ratio)
      : shape_(shape), sample_ratio_(sample_ratio) {}

  void BeginSplit(MapContext& ctx) override {
    rng_ = std::make_unique<Random>(SplitSeed(ctx.split()));
  }

  void Map(std::string_view record, MapContext& ctx) override {
    if (IsMetadataRecord(record)) return;
    auto env = RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("analysis.bad_records");
      return;
    }
    mbr_.ExpandToInclude(env.value());
    if (rng_->NextBool(sample_ratio_)) {
      ctx.WriteOutput("S " + PointToCsv(env.value().Center()));
    }
  }

  void EndSplit(MapContext& ctx) override {
    if (!mbr_.IsEmpty()) {
      ctx.WriteOutput("MBR " + EnvelopeToCsv(mbr_));
    }
  }

 private:
  ShapeType shape_;
  double sample_ratio_;
  Envelope mbr_;
  std::unique_ptr<Random> rng_;
};

/// Partitioning phase: routes every record to its cell(s).
class PartitionMapper : public Mapper {
 public:
  PartitionMapper(ShapeType shape, std::shared_ptr<const Partitioner> part)
      : shape_(shape), partitioner_(std::move(part)) {}

  void Map(std::string_view record, MapContext& ctx) override {
    if (IsMetadataRecord(record)) return;
    auto env = RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("partition.bad_records");
      return;
    }
    const std::vector<int> cells = partitioner_->AssignEnvelope(env.value());
    for (int cell : cells) {
      // Zero-padded keys keep within-reducer groups in numeric order.
      char key[16];
      std::snprintf(key, sizeof(key), "%010d", cell);
      ctx.Emit(key, record);
    }
    if (cells.size() > 1) {
      ctx.counters().Increment("partition.replicated_records",
                               static_cast<int64_t>(cells.size()) - 1);
    }
  }

 private:
  ShapeType shape_;
  std::shared_ptr<const Partitioner> partitioner_;
};

/// Identity reducer tagging each record with its cell id.
class PartitionReducer : public mapreduce::Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              mapreduce::ReduceContext& ctx) override {
    for (const std::string& value : values) {
      ctx.Write(key + "\t" + value);
    }
  }
};

}  // namespace

std::string MasterPathFor(const std::string& data_path) {
  return data_path + "_master";
}

Result<SpatialFileInfo> IndexBuilder::Build(const std::string& source_path,
                                            const std::string& dest_path,
                                            const IndexBuildOptions& options) {
  hdfs::FileSystem* fs = runner_->file_system();
  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta source_meta,
                           fs->GetFileMeta(source_path));
  if (fs->Exists(dest_path)) {
    return Status::AlreadyExists("destination exists: " + dest_path);
  }

  SpatialFileInfo info;
  info.data_path = dest_path;
  info.master_path = MasterPathFor(dest_path);
  info.shape = options.shape;

  // ---------------------------------------------------------------------
  // Phase 1: analysis job (file MBR + sample).
  JobConfig analysis;
  analysis.name = "index-analysis";
  SHADOOP_ASSIGN_OR_RETURN(analysis.splits,
                           mapreduce::MakeBlockSplits(*fs, source_path));
  const ShapeType shape = options.shape;
  const double ratio = options.sample_ratio;
  analysis.mapper = [shape, ratio]() {
    return std::make_unique<AnalysisMapper>(shape, ratio);
  };
  JobResult analysis_result = runner_->Run(analysis);
  SHADOOP_RETURN_NOT_OK(analysis_result.status);
  AccumulateCost(&info.build_cost, analysis_result.cost);

  Envelope space;
  std::vector<Point> sample;
  for (const std::string& line : analysis_result.output) {
    if (line.rfind("MBR ", 0) == 0) {
      SHADOOP_ASSIGN_OR_RETURN(Envelope e,
                               ParseEnvelopeCsv(line.substr(4)));
      space.ExpandToInclude(e);
    } else if (line.rfind("S ", 0) == 0) {
      SHADOOP_ASSIGN_OR_RETURN(Point p, ParsePointCsv(line.substr(2)));
      sample.push_back(p);
    }
  }
  if (space.IsEmpty()) {
    return Status::InvalidArgument("input file '" + source_path +
                                   "' has no valid records to index");
  }
  if (sample.size() > options.max_sample) {
    // Deterministic thinning: keep a stride subset.
    std::vector<Point> thinned;
    thinned.reserve(options.max_sample);
    const double stride =
        static_cast<double>(sample.size()) / options.max_sample;
    for (size_t i = 0; i < options.max_sample; ++i) {
      thinned.push_back(sample[static_cast<size_t>(i * stride)]);
    }
    sample = std::move(thinned);
  }

  // ---------------------------------------------------------------------
  // Phase 2: boundary computation on the master.
  int target = options.target_partitions;
  if (target <= 0) {
    target = static_cast<int>(
        (source_meta.total_bytes + fs->config().block_size - 1) /
        fs->config().block_size);
    target = std::max(target, 1);
  }
  SHADOOP_ASSIGN_OR_RETURN(std::unique_ptr<Partitioner> partitioner_owned,
                           MakePartitioner(options.scheme));
  SHADOOP_RETURN_NOT_OK(partitioner_owned->Construct(space, sample, target));
  std::shared_ptr<const Partitioner> partitioner(std::move(partitioner_owned));

  // ---------------------------------------------------------------------
  // Phase 3: partitioning job.
  JobConfig partition_job;
  partition_job.name = "index-partition";
  SHADOOP_ASSIGN_OR_RETURN(partition_job.splits,
                           mapreduce::MakeBlockSplits(*fs, source_path));
  partition_job.mapper = [shape, partitioner]() {
    return std::make_unique<PartitionMapper>(shape, partitioner);
  };
  partition_job.reducer = []() { return std::make_unique<PartitionReducer>(); };
  partition_job.num_reducers =
      std::min(partitioner->NumCells(), runner_->cluster().num_slots);
  JobResult partition_result = runner_->Run(partition_job);
  SHADOOP_RETURN_NOT_OK(partition_result.status);
  AccumulateCost(&info.build_cost, partition_result.cost);

  // Group routed records by cell id, as views into the job output.
  std::vector<BlockRecords> cells(partitioner->NumCells());
  for (const std::string& line : partition_result.output) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    SHADOOP_ASSIGN_OR_RETURN(int64_t cell,
                             ParseInt64(std::string_view(line).substr(0, tab)));
    if (cell < 0 || cell >= static_cast<int64_t>(cells.size())) {
      return Status::Internal("partition job routed to unknown cell " +
                              std::to_string(cell));
    }
    cells[cell].records.push_back(std::string_view(line).substr(tab + 1));
  }

  // Lay out one cell per HDFS block; drop empty cells (standard practice:
  // the global index only records materialized partitions).
  std::vector<int> cell_ids;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (!cells[c].records.empty()) cell_ids.push_back(static_cast<int>(c));
  }
  std::erase_if(cells, [](const BlockRecords& b) { return b.records.empty(); });
  SHADOOP_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::FileWriter> writer,
                           fs->Create(dest_path));
  const std::vector<BlockLayout> layouts = WritePartitionBlocks(
      shape, options.build_local_indexes, runner_->cluster().num_slots, cells,
      writer.get());
  std::vector<Partition> partitions(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    Partition& part = partitions[i];
    part.id = static_cast<int>(i);
    part.block_index = i;
    part.cell = partitioner->CellExtent(cell_ids[i]);
    part.num_records = cells[i].records.size();
    part.mbr = layouts[i].mbr;
    part.num_bytes = layouts[i].num_bytes;
  }
  SHADOOP_RETURN_NOT_OK(writer->Close());

  info.global_index = GlobalIndex(options.scheme, std::move(partitions));
  info.has_local_indexes = options.build_local_indexes;

  // Persist the master file: a header line plus one line per partition.
  std::vector<std::string> master_lines;
  master_lines.push_back(std::string("#scheme=") +
                         PartitionSchemeName(options.scheme) +
                         " shape=" + ShapeTypeName(options.shape) +
                         (options.build_local_indexes ? " lidx=1" : ""));
  for (std::string& line : info.global_index.ToLines()) {
    master_lines.push_back(std::move(line));
  }
  SHADOOP_RETURN_NOT_OK(fs->WriteLines(info.master_path, master_lines));
  return info;
}

std::vector<BlockLayout> WritePartitionBlocks(
    ShapeType shape, bool local_index, int max_parallelism,
    const std::vector<BlockRecords>& blocks, hdfs::FileWriter* writer) {
  std::vector<BlockLayout> layouts(blocks.size());
  std::vector<std::string> headers(blocks.size());
  mapreduce::ThreadPool::Shared().ParallelFor(
      blocks.size(), max_parallelism, [&](size_t i) {
        const BlockRecords& block = blocks[i];
        std::vector<Envelope> parsed;
        if (block.envelopes == nullptr) {
          parsed.reserve(block.records.size());
          for (std::string_view record : block.records) {
            auto env = RecordEnvelope(shape, record);
            parsed.push_back(env.ok() ? env.value() : Envelope());
          }
        }
        const std::vector<Envelope>& envelopes =
            block.envelopes != nullptr ? *block.envelopes : parsed;
        BlockLayout& layout = layouts[i];
        for (const Envelope& env : envelopes) layout.mbr.ExpandToInclude(env);
        if (local_index) {
          headers[i] = EncodeLocalIndexHeader(envelopes);
          layout.num_bytes += headers[i].size() + 1;
        }
        for (std::string_view record : block.records) {
          layout.num_bytes += record.size() + 1;
        }
      });
  writer->set_auto_seal(false);  // One partition == one block, exactly.
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (local_index) writer->Append(headers[i]);
    for (std::string_view record : blocks[i].records) writer->Append(record);
    writer->EndBlock();
    std::string().swap(headers[i]);
  }
  return layouts;
}

Result<SpatialFileInfo> LoadSpatialFile(const hdfs::FileSystem& fs,
                                        const std::string& data_path) {
  return LoadSpatialFileFromMaster(fs, data_path, MasterPathFor(data_path));
}

Result<SpatialFileInfo> LoadSpatialFileFromMaster(
    const hdfs::FileSystem& fs, const std::string& data_path,
    const std::string& master_path) {
  SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                           fs.ReadLines(master_path));
  if (lines.empty() || lines.front().rfind("#scheme=", 0) != 0) {
    return Status::ParseError("master file missing header: " + master_path);
  }
  // Header format: "#scheme=<name> shape=<name> [lidx=1]".
  const std::string& header = lines.front();
  std::string scheme_name;
  std::string shape_name;
  bool has_lidx = false;
  for (std::string_view field :
       SplitWhitespace(std::string_view(header).substr(1))) {
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "scheme") {
      scheme_name = std::string(value);
    } else if (key == "shape") {
      shape_name = std::string(value);
    } else if (key == "lidx") {
      has_lidx = value == "1";
    }
  }
  if (scheme_name.empty() || shape_name.empty()) {
    return Status::ParseError("bad master header: " + header);
  }
  SHADOOP_ASSIGN_OR_RETURN(PartitionScheme scheme,
                           ParsePartitionScheme(scheme_name));
  SHADOOP_ASSIGN_OR_RETURN(ShapeType shape, ParseShapeType(shape_name));

  SpatialFileInfo info;
  info.data_path = data_path;
  info.master_path = master_path;
  info.shape = shape;
  info.has_local_indexes = has_lidx;
  SHADOOP_ASSIGN_OR_RETURN(
      info.global_index,
      GlobalIndex::FromLines(
          scheme, std::vector<std::string>(lines.begin() + 1, lines.end())));
  return info;
}

}  // namespace shadoop::index
