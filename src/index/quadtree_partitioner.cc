#include "index/quadtree_partitioner.h"

#include <algorithm>

namespace shadoop::index {

Status QuadTreePartitioner::Construct(const Envelope& space,
                                      const std::vector<Point>& sample,
                                      int target_partitions) {
  if (space.IsEmpty()) {
    return Status::InvalidArgument(
        "quad-tree partitioner needs a non-empty space");
  }
  if (target_partitions < 1) {
    return Status::InvalidArgument("target_partitions must be >= 1");
  }
  leaves_.clear();
  root_ = std::make_unique<Node>();
  root_->box = space;
  const size_t capacity =
      std::max<size_t>(1, sample.size() / static_cast<size_t>(target_partitions));
  Split(root_.get(), sample, capacity, 0);
  return Status::OK();
}

void QuadTreePartitioner::Split(Node* node, std::vector<Point> points,
                                size_t capacity, int depth) {
  if (points.size() <= capacity || depth >= kMaxDepth) {
    node->leaf_id = static_cast<int>(leaves_.size());
    leaves_.push_back(node->box);
    return;
  }
  const Point center = node->box.Center();
  const Envelope& box = node->box;
  const Envelope quadrants[4] = {
      Envelope(box.min_x(), box.min_y(), center.x, center.y),   // SW
      Envelope(center.x, box.min_y(), box.max_x(), center.y),   // SE
      Envelope(box.min_x(), center.y, center.x, box.max_y()),   // NW
      Envelope(center.x, center.y, box.max_x(), box.max_y()),   // NE
  };
  std::vector<Point> buckets[4];
  for (const Point& p : points) {
    // Half-open assignment: boundary points go to the higher quadrant.
    const int qx = p.x < center.x ? 0 : 1;
    const int qy = p.y < center.y ? 0 : 1;
    buckets[qy * 2 + qx].push_back(p);
  }
  points.clear();
  points.shrink_to_fit();
  for (int q = 0; q < 4; ++q) {
    node->children[q] = std::make_unique<Node>();
    node->children[q]->box = quadrants[q];
    Split(node->children[q].get(), std::move(buckets[q]), capacity, depth + 1);
  }
}

int QuadTreePartitioner::AssignPoint(const Point& p) const {
  const Node* node = root_.get();
  while (node->leaf_id < 0) {
    const Point center = node->box.Center();
    const int qx = p.x < center.x ? 0 : 1;
    const int qy = p.y < center.y ? 0 : 1;
    node = node->children[qy * 2 + qx].get();
  }
  return node->leaf_id;
}

void QuadTreePartitioner::CollectOverlaps(const Node* node,
                                          const Envelope& extent,
                                          std::vector<int>* out) const {
  if (!node->box.Intersects(extent)) return;
  if (node->leaf_id >= 0) {
    out->push_back(node->leaf_id);
    return;
  }
  for (const auto& child : node->children) {
    CollectOverlaps(child.get(), extent, out);
  }
}

std::vector<int> QuadTreePartitioner::OverlappingCells(
    const Envelope& extent) const {
  std::vector<int> out;
  CollectOverlaps(root_.get(), extent, &out);
  return out;
}

}  // namespace shadoop::index
