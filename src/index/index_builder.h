#ifndef SHADOOP_INDEX_INDEX_BUILDER_H_
#define SHADOOP_INDEX_INDEX_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "hdfs/file_system.h"
#include "index/global_index.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"

namespace shadoop::index {

/// Options of a spatial index build.
struct IndexBuildOptions {
  PartitionScheme scheme = PartitionScheme::kStr;
  ShapeType shape = ShapeType::kPoint;

  /// Fraction of records sampled for boundary computation.
  double sample_ratio = 0.02;

  /// Hard cap on the sample size kept on the master.
  size_t max_sample = 100000;

  /// Number of cells to create; 0 derives it from the input size and the
  /// HDFS block size (one partition per block, the paper's layout).
  int target_partitions = 0;

  /// When true, every partition block starts with a persisted local-index
  /// header (the record envelopes in block order), so readers bulk-load
  /// the partition R-tree without parsing any geometry. Costs extra
  /// storage; pays off for geometry-heavy records (polygons).
  bool build_local_indexes = false;
};

/// Handle to a spatially indexed file: the data file (one partition per
/// block) plus its global index, persisted in the companion master file.
struct SpatialFileInfo {
  std::string data_path;
  std::string master_path;
  ShapeType shape = ShapeType::kPoint;
  bool has_local_indexes = false;
  GlobalIndex global_index;

  /// Aggregate simulated cost of the build jobs.
  mapreduce::JobCost build_cost;
};

/// Builds spatially indexed files with the paper's three-phase MapReduce
/// pipeline:
///   1. an analysis job scans the input once, computing the file MBR and
///      drawing a deterministic record sample,
///   2. the master constructs partition boundaries from the sample
///      (Partitioner::Construct),
///   3. a partitioning job routes every record to its cell(s) and the
///      builder lays cells out as one HDFS block each, writing the global
///      index into the master file.
class IndexBuilder {
 public:
  explicit IndexBuilder(mapreduce::JobRunner* runner) : runner_(runner) {}

  /// Indexes `source_path` into `dest_path` (+ "<dest_path>_master").
  Result<SpatialFileInfo> Build(const std::string& source_path,
                                const std::string& dest_path,
                                const IndexBuildOptions& options);

 private:
  mapreduce::JobRunner* runner_;
};

/// The records of one partition block, in block order. `envelopes` is
/// null when the layout should parse each record's envelope; otherwise it
/// holds one per record (empty for a record that does not parse).
struct BlockRecords {
  std::vector<std::string_view> records;
  const std::vector<Envelope>* envelopes = nullptr;
};

/// What laying out one partition block computed.
struct BlockLayout {
  Envelope mbr;  // Union of the records' envelopes.
  uint64_t num_bytes = 0;
};

/// Writes each of `blocks` through `writer` as exactly one HDFS block,
/// in order, preceded by its `#lidx` header when `local_index` is set.
/// The per-block work (envelopes, MBR, header, size) runs on the shared
/// thread pool with at most `max_parallelism` lanes; the writes stay
/// serial, so the bytes never depend on the lane count. This is master
/// host time: it carries no simulated charge.
std::vector<BlockLayout> WritePartitionBlocks(
    ShapeType shape, bool local_index, int max_parallelism,
    const std::vector<BlockRecords>& blocks, hdfs::FileWriter* writer);

/// Opens an existing indexed file by reading its master file.
Result<SpatialFileInfo> LoadSpatialFile(const hdfs::FileSystem& fs,
                                        const std::string& data_path);

/// Same, but with the master file at an explicit path. Versioned datasets
/// keep one master per version next to a shared data path, so the
/// companion-path convention does not apply to them.
Result<SpatialFileInfo> LoadSpatialFileFromMaster(
    const hdfs::FileSystem& fs, const std::string& data_path,
    const std::string& master_path);

/// Master-file path convention.
std::string MasterPathFor(const std::string& data_path);

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_INDEX_BUILDER_H_
