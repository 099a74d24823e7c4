#ifndef SHADOOP_INDEX_RTREE_H_
#define SHADOOP_INDEX_RTREE_H_

#include <cstdint>

#include "geometry/envelope.h"

namespace shadoop::index {

/// Scope for the R-tree input record. The tree itself is PackedRTree;
/// this name stays because callers spell the entry type
/// `index::RTree::Entry`.
struct RTree {
  /// One record's bounding box and an opaque payload (the record's index
  /// in its block).
  struct Entry {
    Envelope box;
    uint32_t payload = 0;
  };
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_RTREE_H_
