#ifndef SHADOOP_INDEX_RTREE_H_
#define SHADOOP_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"

namespace shadoop::index {

/// Static, STR-bulk-loaded R-tree used as the *local index* of a
/// partition: built once over the records of a block and queried many
/// times. Entries carry an opaque uint32 payload (the record's index in
/// the block).
class RTree {
 public:
  struct Entry {
    Envelope box;
    uint32_t payload = 0;
  };

  /// Bulk-loads from entries with Sort-Tile-Recursive packing.
  /// `leaf_capacity` is the R-tree node fan-out.
  explicit RTree(std::vector<Entry> entries, int leaf_capacity = 32);

  RTree() = default;

  size_t NumEntries() const { return entries_.size(); }
  bool IsEmpty() const { return entries_.empty(); }

  /// Bounds of everything stored.
  Envelope Bounds() const;

  /// Payloads of all entries whose box intersects `query`. Appends to
  /// `out`. Returns the number of tree nodes visited (the CPU-cost proxy
  /// reported to the MapReduce cost model).
  size_t Search(const Envelope& query, std::vector<uint32_t>* out) const;

  /// Payloads of the `k` entries nearest to `q` by MinDistance of their
  /// boxes (exact for point entries). Best-first search.
  std::vector<uint32_t> NearestNeighbors(const Point& q, size_t k) const;

 private:
  struct Node {
    Envelope box;
    // Children are [first, last) in nodes_ (internal) or entry indices
    // [first, last) in entries_ (leaf).
    uint32_t first = 0;
    uint32_t last = 0;
    bool is_leaf = true;
  };

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;  // nodes_[root_] is the root when non-empty.
  uint32_t root_ = 0;
  int capacity_ = 32;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_RTREE_H_
