#ifndef SHADOOP_PIGEON_AST_H_
#define SHADOOP_PIGEON_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"
#include "index/partition.h"
#include "index/record_shape.h"

namespace shadoop::pigeon {

/// Dataset-producing expressions of the Pigeon language.
///
///   LOAD '<path>' AS (POINT | RECTANGLE | POLYGON)
///   LOAD '<path>' APPEND <name>   -- ingest a batch into a catalog dataset
///   LOADINDEX '<path>'
///   INDEX <name> WITH (AUTO | GRID | STR | STR+ | QUADTREE | KDTREE |
///                      ZCURVE | HILBERT) [INTO '<path>']
///     -- AUTO defers the technique to the partitioning advisor
///   RANGE <name> RECTANGLE(x1, y1, x2, y2)
///   COUNT <name> RECTANGLE(x1, y1, x2, y2)
///   KNN <name> POINT(x, y) K <k>
///   SJOIN <name>, <name>
///   KNNJOIN <name>, <name> K <k>
///   SKYLINE <name>
///   CONVEXHULL <name>
///   CLOSESTPAIR <name>
///   FARTHESTPAIR <name>
///   UNION <name>
struct Expr {
  enum class Kind {
    kLoad,
    kAppend,
    kLoadIndex,
    kIndex,
    kRange,
    kCount,
    kKnn,
    kJoin,
    kKnnJoin,
    kSkyline,
    kConvexHull,
    kClosestPair,
    kFarthestPair,
    kUnion,
  };

  Kind kind = Kind::kLoad;
  int line = 1;

  // kLoad / kAppend / kIndex.
  std::string path;
  index::ShapeType shape = index::ShapeType::kPoint;
  index::PartitionScheme scheme = index::PartitionScheme::kStr;
  /// kIndex: WITH AUTO — the advisor picks `scheme` at execution time.
  bool auto_scheme = false;

  // Operation inputs: referenced dataset names.
  std::string source;
  std::string source_b;  // kJoin only.

  // Operation parameters.
  Envelope range;   // kRange / kCount.
  Point query;      // kKnn.
  size_t k = 1;     // kKnn / kKnnJoin.
};

/// Top-level statements.
///
///   <name> = <expr> ;
///   STORE <name> INTO '<path>' ;
///   DUMP <name> ;
///   EXPLAIN <name> ;   -- describes the binding (kind, index, size)
///   SET tenant '<name>' ;         -- session knobs (admission control)
///   SET tenant_slots <n> ;
///   SET max_task_attempts <n> ;
///   SET snapshot_version <n> ;    -- pin catalog datasets to version n
///                                 -- (0 follows the latest version)
struct Statement {
  enum class Kind { kAssign, kStore, kDump, kExplain, kSet };

  Kind kind = Kind::kAssign;
  int line = 1;
  std::string target;  // Assigned name, dataset to store/dump, or SET key.
  std::string path;    // kStore destination; kSet string value.
  double number = 0;   // kSet numeric value.
  Expr expr;           // kAssign only.

  /// The statement's source rendered canonically from its tokens (one
  /// space between tokens, strings re-quoted, comments gone). Two
  /// spellings that tokenize identically render identically, which is
  /// what the server's result cache keys on (after normalization).
  std::string text;
};

using Script = std::vector<Statement>;

}  // namespace shadoop::pigeon

#endif  // SHADOOP_PIGEON_AST_H_
