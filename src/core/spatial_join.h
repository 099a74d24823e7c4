#ifndef SHADOOP_CORE_SPATIAL_JOIN_H_
#define SHADOOP_CORE_SPATIAL_JOIN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/op_stats.h"
#include "index/index_builder.h"
#include "mapreduce/job_runner.h"

namespace shadoop::core {

/// Separator between the two records of a join output line (US control
/// character; cannot occur in text records).
inline constexpr char kJoinSeparator = '\x1f';

/// Splits a join output line back into (left record, right record).
Result<std::pair<std::string, std::string>> SplitJoinOutput(
    const std::string& line);

/// Spatial join (overlap predicate: geometries whose extents intersect;
/// polygon x polygon pairs are refined with an exact intersection test).
///
struct SjmrOptions {
  /// When true, the repartition cells are balanced against data skew
  /// using a density histogram (one extra scan job): cells follow
  /// STR-style quantile boundaries of the combined density instead of a
  /// uniform grid, evening out reducer load.
  bool histogram_balanced = false;

  /// Histogram resolution (cells per axis) for the balanced variant.
  int histogram_resolution = 64;
};

/// SJMR — the Hadoop baseline for *unindexed* inputs: computes both file
/// MBRs (one scan job each), repartitions both inputs on a shared cell
/// tiling in the map phase (shuffling *all* records), and joins each cell
/// in the reduce phase with duplicate avoidance by the reference-point
/// technique.
Result<std::vector<std::string>> SjmrJoin(mapreduce::JobRunner* runner,
                                          const std::string& path_a,
                                          index::ShapeType shape_a,
                                          const std::string& path_b,
                                          index::ShapeType shape_b,
                                          OpStats* stats = nullptr,
                                          const SjmrOptions& options = {});

struct DjOptions {
  /// Build the in-memory structure on the B side of each pair and probe
  /// with A (the kernel builds on its first input). Probing charges 5x
  /// what building does per entry-level, so the optimizer builds on the
  /// side with more records. Output lines still carry the A record first;
  /// matches and charges are identical either way, only the modeled task
  /// times differ.
  bool build_right = false;
};

/// DJ — the SpatialHadoop join for two *indexed* inputs: the master joins
/// the two global indexes to enumerate overlapping partition pairs, and a
/// single map-only job processes each pair locally (no shuffle at all).
Result<std::vector<std::string>> DistributedJoin(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file_a,
    const index::SpatialFileInfo& file_b, OpStats* stats = nullptr,
    const DjOptions& options = {});

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_SPATIAL_JOIN_H_
