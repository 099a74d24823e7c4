// Reference answers computed from the generated records alone, with the
// benchmark's own parsers and brute-force geometry — no call into the
// code under test — so a wrong row from the program shows as a mismatch.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Box {
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
  bool Intersects(const Box& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }
};

/// Parses a "x,y[\t...]" point record.
bool ParsePointRecord(std::string_view record, double* x, double* y);

/// Point records with their coordinates, scanned in x order.
class PointOracle {
 public:
  void Add(const std::vector<std::string>& records);
  size_t size() const { return records_.size(); }

  /// Rows inside the closed window.
  RowDigest Window(const Box& window) const;
  uint64_t Count(const Box& window) const;
  /// Ascending distances of the k nearest records to (px, py), and the
  /// digest of those k records.
  std::vector<double> KnnDistances(double px, double py, size_t k,
                                   RowDigest* digest) const;
  /// True when every record parsed (a generator/format mismatch otherwise).
  bool all_parsed() const { return bad_ == 0; }

 private:
  void SortIfNeeded() const;
  std::vector<std::string> records_;
  std::vector<double> xs_, ys_;
  mutable std::vector<uint32_t> by_x_;  // Indices sorted by x.
  mutable std::vector<double> sorted_x_;
  mutable bool sorted_ = false;
  size_t bad_ = 0;
};

/// Polygon records parsed from their WKT text.
struct PolygonOracle {
  std::vector<std::string> records;
  std::vector<std::vector<double>> rings;  // x0, y0, x1, y1, ... (open)
  std::vector<Box> boxes;
  size_t bad = 0;
  void Add(const std::vector<std::string>& recs);
};

/// The spatial join's rows ("<a record>\x1f<b record>" for every pair whose
/// polygons intersect, boundaries included), as a digest.
RowDigest JoinReference(const PolygonOracle& a, const PolygonOracle& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
