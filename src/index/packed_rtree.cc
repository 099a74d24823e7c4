#include "index/packed_rtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "simd/mbr_kernels.h"

namespace shadoop::index {
namespace {

struct KeyIdx {
  double key;
  uint32_t idx;
};

}  // namespace

PackedRTree::PackedRTree(const std::vector<RTree::Entry>& entries,
                         int leaf_capacity)
    : capacity_(std::max(2, leaf_capacity)) {
  const size_t n = entries.size();
  if (n == 0) return;

  // STR packing: sort by center x, cut into vertical slabs, sort each
  // slab by center y. Sorting (key, index) pairs instead of Entry structs
  // yields the same permutation, because std::sort's moves depend only on
  // comparator outcomes, which see the same keys in the same positions.
  const size_t num_leaves = (n + capacity_ - 1) / capacity_;
  const size_t num_slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slab_size =
      ((num_leaves + num_slabs - 1) / num_slabs) * capacity_;

  std::vector<KeyIdx> order(n);
  for (size_t i = 0; i < n; ++i) {
    const Envelope& box = entries[i].box;
    // Same expression as Envelope::Center().x.
    order[i] = {(box.min_x() + box.max_x()) / 2, static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  for (size_t s = 0; s < n; s += slab_size) {
    const size_t e = std::min(n, s + slab_size);
    for (size_t i = s; i < e; ++i) {
      const Envelope& box = entries[order[i].idx].box;
      order[i].key = (box.min_y() + box.max_y()) / 2;
    }
    std::sort(order.begin() + s, order.begin() + e,
              [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  }

  entry_min_x_.resize(n);
  entry_min_y_.resize(n);
  entry_max_x_.resize(n);
  entry_max_y_.resize(n);
  entry_payload_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RTree::Entry& entry = entries[order[i].idx];
    entry_min_x_[i] = entry.box.min_x();
    entry_min_y_[i] = entry.box.min_y();
    entry_max_x_[i] = entry.box.max_x();
    entry_max_y_[i] = entry.box.max_y();
    entry_payload_[i] = entry.payload;
  }
  BuildNodes(n);
}

void PackedRTree::BuildNodes(size_t n) {
  auto push_node = [this](const Envelope& box, uint32_t first, uint32_t last,
                          bool is_leaf) {
    node_min_x_.push_back(box.min_x());
    node_min_y_.push_back(box.min_y());
    node_max_x_.push_back(box.max_x());
    node_max_y_.push_back(box.max_y());
    node_meta_.push_back({first, last, is_leaf});
  };

  std::vector<uint32_t> level;
  for (size_t s = 0; s < n; s += capacity_) {
    const size_t e = std::min(n, s + capacity_);
    Envelope box;
    for (size_t i = s; i < e; ++i) {
      box.ExpandToInclude(Envelope(entry_min_x_[i], entry_min_y_[i],
                                   entry_max_x_[i], entry_max_y_[i]));
    }
    level.push_back(static_cast<uint32_t>(node_meta_.size()));
    push_node(box, static_cast<uint32_t>(s), static_cast<uint32_t>(e), true);
  }
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t s = 0; s < level.size(); s += capacity_) {
      const size_t e = std::min(level.size(), s + capacity_);
      Envelope box;
      for (size_t i = s; i < e; ++i) {
        const uint32_t c = level[i];
        box.ExpandToInclude(Envelope(node_min_x_[c], node_min_y_[c],
                                     node_max_x_[c], node_max_y_[c]));
      }
      next.push_back(static_cast<uint32_t>(node_meta_.size()));
      push_node(box, level[s], level[e - 1] + 1, false);
    }
    level = std::move(next);
  }
  root_ = level.front();
}

simd::BoxLanes PackedRTree::ChildLanes(const NodeMeta& node) const {
  const uint32_t f = node.first;
  return node.is_leaf
             ? simd::BoxLanes{entry_min_x_.data() + f, entry_min_y_.data() + f,
                              entry_max_x_.data() + f, entry_max_y_.data() + f}
             : simd::BoxLanes{node_min_x_.data() + f, node_min_y_.data() + f,
                              node_max_x_.data() + f, node_max_y_.data() + f};
}

Envelope PackedRTree::Bounds() const {
  if (node_meta_.empty()) return Envelope();
  return Envelope(node_min_x_[root_], node_min_y_[root_], node_max_x_[root_],
                  node_max_y_[root_]);
}

size_t PackedRTree::Search(const Envelope& query,
                           std::vector<uint32_t>* out) const {
  if (node_meta_.empty() || !Bounds().Intersects(query)) return 0;
  const simd::detail::KernelTable& kernels = simd::ActiveKernels();

  // Scratch hit bitmap: one batch call covers one node's children, so
  // `capacity_` bits suffice. Nodes wider than the stack buffer (unusual
  // capacities) spill to a heap buffer once per search.
  uint64_t stack_bits[4];
  std::vector<uint64_t> heap_bits;
  uint64_t* bits = stack_bits;
  const size_t words = simd::BitmapWords(static_cast<size_t>(capacity_));
  if (words > 4) {
    heap_bits.resize(words);
    bits = heap_bits.data();
  }

  size_t visited = 0;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const NodeMeta node = node_meta_[stack.back()];
    stack.pop_back();
    ++visited;
    const uint32_t first = node.first;
    const size_t count = node.last - first;
    const size_t hits = kernels.intersect_box_bitmap(
        ChildLanes(node), count, query.min_x(), query.min_y(), query.max_x(),
        query.max_y(), bits);
    if (hits == 0) continue;
    // Children are pushed and payloads appended in ascending index order,
    // whatever the target's bitmap width.
    for (size_t w = 0; w < simd::BitmapWords(count); ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        const uint32_t offset =
            first + static_cast<uint32_t>(w * 64) +
            static_cast<uint32_t>(std::countr_zero(word));
        word &= word - 1;
        if (node.is_leaf) {
          out->push_back(entry_payload_[offset]);
        } else {
          stack.push_back(offset);
        }
      }
    }
  }
  return visited;
}

std::vector<uint32_t> PackedRTree::NearestNeighbors(const Point& q,
                                                    size_t k) const {
  std::vector<uint32_t> result;
  if (node_meta_.empty() || k == 0) return result;
  const simd::detail::KernelTable& kernels = simd::ActiveKernels();

  // Best-first search over nodes and entries by MinDistance. A node's
  // children (or a leaf's entries) are measured with one batch call, then
  // pushed in ascending index order, so ties pop in an order that depends
  // only on the entries and the capacity.
  struct Item {
    double dist;
    bool is_entry;
    uint32_t index;
  };
  auto greater = [](const Item& a, const Item& b) { return a.dist > b.dist; };
  std::priority_queue<Item, std::vector<Item>, decltype(greater)> queue(
      greater);
  std::vector<double> dists(static_cast<size_t>(capacity_));
  queue.push({Bounds().MinDistance(q), false, root_});
  while (!queue.empty() && result.size() < k) {
    const Item item = queue.top();
    queue.pop();
    if (item.is_entry) {
      result.push_back(entry_payload_[item.index]);
      continue;
    }
    const NodeMeta node = node_meta_[item.index];
    const size_t count = node.last - node.first;
    kernels.box_min_distance(ChildLanes(node), count, q.x, q.y, dists.data());
    for (size_t i = 0; i < count; ++i) {
      queue.push({dists[i], node.is_leaf,
                  node.first + static_cast<uint32_t>(i)});
    }
  }
  return result;
}

}  // namespace shadoop::index
