#ifndef SHADOOP_CORE_LOCAL_JOIN_H_
#define SHADOOP_CORE_LOCAL_JOIN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "index/rtree.h"

namespace shadoop::core {

/// The in-memory overlap-join kernel used inside join tasks (one
/// partition pair or one SJMR cell at a time): bulk-loads a packed
/// R-tree on `entries_a` and probes it with each entry of `entries_b`.
/// Invokes `emit(payload_a, payload_b)` for every pair of entries with
/// intersecting boxes. Returns the charged CPU operations for the cost
/// model.
uint64_t LocalJoinPairs(
    const std::vector<index::RTree::Entry>& entries_a,
    const std::vector<index::RTree::Entry>& entries_b,
    const std::function<void(uint32_t, uint32_t)>& emit);

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_LOCAL_JOIN_H_
