#include "simd/mbr_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/kernels_internal.h"

namespace shadoop::simd {
namespace {

// ---------------------------------------------------------------------
// Scalar reference kernels. These are the semantic ground truth: the
// predicates and distance formula are copied from Envelope so that a
// vector target proving bit-parity against kScalar has proved parity
// against the geometry layer too.

size_t IntersectBoxBitmapScalar(const BoxLanes& boxes, size_t n,
                                double q_min_x, double q_min_y,
                                double q_max_x, double q_max_y,
                                uint64_t* out_bits) {
  std::memset(out_bits, 0, BitmapWords(n) * sizeof(uint64_t));
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = q_min_x <= boxes.max_x[i] && boxes.min_x[i] <= q_max_x &&
                     q_min_y <= boxes.max_y[i] && boxes.min_y[i] <= q_max_y;
    if (hit) {
      out_bits[i >> 6] |= uint64_t{1} << (i & 63);
      ++hits;
    }
  }
  return hits;
}

void BoxMinDistanceScalar(const BoxLanes& boxes, size_t n, double px,
                          double py, double* out) {
  for (size_t i = 0; i < n; ++i) {
    // Same expression as Envelope::MinDistance(Point); the canonical
    // empty box (+inf lanes) yields +inf without a branch.
    const double dx =
        std::max({boxes.min_x[i] - px, 0.0, px - boxes.max_x[i]});
    const double dy =
        std::max({boxes.min_y[i] - py, 0.0, py - boxes.max_y[i]});
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

size_t PrefixCountLessEqualScalar(const double* values, size_t n,
                                  double limit) {
  size_t i = 0;
  while (i < n && values[i] <= limit) ++i;
  return i;
}

}  // namespace

namespace detail {

const KernelTable kScalarTable = {
    &IntersectBoxBitmapScalar,
    &BoxMinDistanceScalar,
    &PrefixCountLessEqualScalar,
};

const KernelTable& TableFor(Target target) {
  static const KernelTable kEmpty;
  switch (target) {
    case Target::kScalar:
      return kScalarTable;
    case Target::kAvx2: {
      const KernelTable* t = Avx2TableOrNull();
      return t != nullptr ? *t : kEmpty;
    }
    case Target::kNeon: {
      const KernelTable* t = NeonTableOrNull();
      return t != nullptr ? *t : kEmpty;
    }
  }
  return kEmpty;
}

}  // namespace detail

// ---------------------------------------------------------------------
// Dispatching entry points.

namespace {

const detail::KernelTable& ActiveTable() {
  return detail::TableFor(ActiveTarget());
}

}  // namespace

const detail::KernelTable& ActiveKernels() { return ActiveTable(); }

size_t IntersectBoxBitmap(const BoxLanes& boxes, size_t n, double q_min_x,
                          double q_min_y, double q_max_x, double q_max_y,
                          uint64_t* out_bits) {
  return ActiveTable().intersect_box_bitmap(boxes, n, q_min_x, q_min_y,
                                            q_max_x, q_max_y, out_bits);
}

void BoxMinDistance(const BoxLanes& boxes, size_t n, double px, double py,
                    double* out) {
  ActiveTable().box_min_distance(boxes, n, px, py, out);
}

size_t PrefixCountLessEqual(const double* values, size_t n, double limit) {
  return ActiveTable().prefix_count_less_equal(values, n, limit);
}

}  // namespace shadoop::simd
