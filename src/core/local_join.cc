#include "core/local_join.h"

#include <cmath>

#include "index/packed_rtree.h"

namespace shadoop::core {

uint64_t LocalJoinPairs(
    const std::vector<index::RTree::Entry>& entries_a,
    const std::vector<index::RTree::Entry>& entries_b,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  uint64_t cpu = 0;
  const index::PackedRTree tree(entries_a);
  const size_t n = tree.NumEntries();
  cpu += static_cast<uint64_t>(
      n > 1 ? n * std::log2(static_cast<double>(n)) * 10 : n);
  std::vector<uint32_t> hits;
  for (const index::RTree::Entry& b : entries_b) {
    hits.clear();
    cpu += tree.Search(b.box, &hits) * 50;
    for (uint32_t a_payload : hits) {
      emit(a_payload, b.payload);
      cpu += 20;
    }
  }
  return cpu;
}

}  // namespace shadoop::core
