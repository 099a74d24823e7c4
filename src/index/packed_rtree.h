#ifndef SHADOOP_INDEX_PACKED_RTREE_H_
#define SHADOOP_INDEX_PACKED_RTREE_H_

#include <cstdint>
#include <vector>

#include "geometry/envelope.h"
#include "index/rtree.h"

namespace shadoop::index {

/// Cache-packed, read-only layout of the STR R-tree: node and entry
/// boxes live in contiguous SoA lanes (separate min-x / min-y / max-x /
/// max-y arrays) so Search tests a whole node's children with one batch
/// MBR kernel call (simd::IntersectBoxBitmap) instead of a per-child
/// branchy test.
///
/// Parity contract: for the same entries and capacity, a PackedRTree is
/// *structurally identical* to the RTree it mirrors — same STR packing,
/// same node boxes, same DFS push order — so Search returns the same
/// payloads in the same order and reports the same visited-node count
/// (the CPU-cost proxy charged to the simulated cost model). The
/// bulk-load avoids sorting 40-byte Entry structs: it sorts (key, index)
/// pairs, which is the identical permutation because std::sort's element
/// moves are a function of comparator outcomes only, then fills the
/// lanes through the permutation.
class PackedRTree {
 public:
  PackedRTree() = default;

  /// Bulk-loads with the same Sort-Tile-Recursive packing as
  /// RTree(entries, leaf_capacity).
  explicit PackedRTree(const std::vector<RTree::Entry>& entries,
                       int leaf_capacity = 32);

  size_t NumEntries() const { return entry_payload_.size(); }
  bool IsEmpty() const { return entry_payload_.empty(); }

  /// Bounds of everything stored.
  Envelope Bounds() const;

  /// Payloads of all entries whose box intersects `query`, appended to
  /// `out` in RTree::Search order. Returns the number of tree nodes
  /// visited — identical to RTree::Search on the same entries.
  size_t Search(const Envelope& query, std::vector<uint32_t>* out) const;

 private:
  struct NodeMeta {
    uint32_t first = 0;  // Children in node lanes (inner) or entry lanes
    uint32_t last = 0;   // (leaf): [first, last).
    bool is_leaf = true;
  };

  void BuildNodes(size_t n);

  // Entry lanes, in STR-packed order.
  std::vector<double> entry_min_x_, entry_min_y_, entry_max_x_, entry_max_y_;
  std::vector<uint32_t> entry_payload_;

  // Node lanes, same index space as the mirrored RTree's nodes_.
  std::vector<double> node_min_x_, node_min_y_, node_max_x_, node_max_y_;
  std::vector<NodeMeta> node_meta_;
  uint32_t root_ = 0;
  int capacity_ = 32;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_PACKED_RTREE_H_
