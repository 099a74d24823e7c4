#ifndef SHADOOP_INDEX_PACKED_RTREE_H_
#define SHADOOP_INDEX_PACKED_RTREE_H_

#include <cstdint>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"
#include "index/rtree.h"
#include "simd/mbr_kernels.h"

namespace shadoop::index {

/// Static, STR-bulk-loaded R-tree: the local index of a partition, built
/// once over a block's records and queried many times for range and
/// nearest-neighbour search. Node and entry boxes live in contiguous SoA
/// lanes (separate min-x / min-y / max-x / max-y arrays), so each visit
/// tests or measures a whole node's children with one batch MBR kernel
/// call (simd::IntersectBoxBitmap, simd::BoxMinDistance).
///
/// Determinism: the payload order of Search and NearestNeighbors, and the
/// visited-node count Search reports (the CPU-cost proxy charged to the
/// simulated cost model), depend only on the entries and the capacity.
/// They are identical on every SIMD target, because each kernel is
/// bit-identical to its Envelope predicate. The bulk load sorts
/// (key, index) pairs rather than 40-byte Entry structs and fills the
/// lanes through the resulting permutation.
class PackedRTree {
 public:
  PackedRTree() = default;

  /// Bulk-loads from entries with Sort-Tile-Recursive packing.
  /// `leaf_capacity` is the node fan-out.
  explicit PackedRTree(const std::vector<RTree::Entry>& entries,
                       int leaf_capacity = 32);

  size_t NumEntries() const { return entry_payload_.size(); }
  bool IsEmpty() const { return entry_payload_.empty(); }

  /// Bounds of everything stored.
  Envelope Bounds() const;

  /// Payloads of all entries whose box intersects `query`, appended to
  /// `out` in depth-first order. Returns the number of tree nodes visited.
  size_t Search(const Envelope& query, std::vector<uint32_t>* out) const;

  /// Payloads of the `k` entries nearest to `q` by MinDistance of their
  /// boxes (exact for point entries), nearest first. Best-first search.
  std::vector<uint32_t> NearestNeighbors(const Point& q, size_t k) const;

 private:
  struct NodeMeta {
    uint32_t first = 0;  // Children in node lanes (inner) or entry lanes
    uint32_t last = 0;   // (leaf): [first, last).
    bool is_leaf = true;
  };

  void BuildNodes(size_t n);

  /// SoA view over a node's children: node lanes for an inner node, entry
  /// lanes for a leaf.
  simd::BoxLanes ChildLanes(const NodeMeta& node) const;

  // Entry lanes, in STR-packed order.
  std::vector<double> entry_min_x_, entry_min_y_, entry_max_x_, entry_max_y_;
  std::vector<uint32_t> entry_payload_;

  // Node lanes: leaves first, then each inner level bottom-up; the root
  // is last.
  std::vector<double> node_min_x_, node_min_y_, node_max_x_, node_max_y_;
  std::vector<NodeMeta> node_meta_;
  uint32_t root_ = 0;
  int capacity_ = 32;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_PACKED_RTREE_H_
