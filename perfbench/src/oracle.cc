#include "oracle.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <queue>

namespace perfbench {
namespace {

bool ParseDouble(std::string_view text, size_t* pos, double* out) {
  while (*pos < text.size() && text[*pos] == ' ') ++*pos;
  const char* begin = text.data() + *pos;
  const auto [end, ec] =
      std::from_chars(begin, text.data() + text.size(), *out);
  if (ec != std::errc() || !std::isfinite(*out)) return false;
  *pos += static_cast<size_t>(end - begin);
  return true;
}

/// Parses "POLYGON ((x y, x y, ...))" into an open ring.
bool ParsePolygonRecord(std::string_view record, std::vector<double>* ring) {
  record = record.substr(0, record.find('\t'));
  size_t pos = record.find("((");
  if (pos == std::string_view::npos) return false;
  pos += 2;
  ring->clear();
  while (true) {
    double x = 0, y = 0;
    if (!ParseDouble(record, &pos, &x) || !ParseDouble(record, &pos, &y)) {
      return false;
    }
    ring->push_back(x);
    ring->push_back(y);
    while (pos < record.size() && record[pos] == ' ') ++pos;
    if (pos < record.size() && record[pos] == ',') {
      ++pos;
      continue;
    }
    break;
  }
  // WKT repeats the first vertex at the end.
  if (ring->size() >= 4 && (*ring)[0] == (*ring)[ring->size() - 2] &&
      (*ring)[1] == (*ring)[ring->size() - 1]) {
    ring->resize(ring->size() - 2);
  }
  return ring->size() >= 6;
}

double Cross(double ax, double ay, double bx, double by, double cx, double cy) {
  return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

int Sign(double v) { return (v > 0) - (v < 0); }

bool OnSegment(double px, double py, double ax, double ay, double bx,
               double by) {
  return std::min(ax, bx) <= px && px <= std::max(ax, bx) &&
         std::min(ay, by) <= py && py <= std::max(ay, by);
}

/// Closed segment intersection (touching counts).
bool SegmentsMeet(double ax, double ay, double bx, double by, double cx,
                  double cy, double dx, double dy) {
  const int d1 = Sign(Cross(cx, cy, dx, dy, ax, ay));
  const int d2 = Sign(Cross(cx, cy, dx, dy, bx, by));
  const int d3 = Sign(Cross(ax, ay, bx, by, cx, cy));
  const int d4 = Sign(Cross(ax, ay, bx, by, dx, dy));
  if (d1 * d2 < 0 && d3 * d4 < 0) return true;
  return (d1 == 0 && OnSegment(ax, ay, cx, cy, dx, dy)) ||
         (d2 == 0 && OnSegment(bx, by, cx, cy, dx, dy)) ||
         (d3 == 0 && OnSegment(cx, cy, ax, ay, bx, by)) ||
         (d4 == 0 && OnSegment(dx, dy, ax, ay, bx, by));
}

/// Even-odd point in ring (boundary handled by the edge test above).
bool Inside(const std::vector<double>& ring, double px, double py) {
  bool inside = false;
  const size_t n = ring.size() / 2;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const double xi = ring[2 * i], yi = ring[2 * i + 1];
    const double xj = ring[2 * j], yj = ring[2 * j + 1];
    if ((yi > py) != (yj > py) &&
        px < (xj - xi) * (py - yi) / (yj - yi) + xi) {
      inside = !inside;
    }
  }
  return inside;
}

bool PolygonsMeet(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t na = a.size() / 2, nb = b.size() / 2;
  for (size_t i = 0; i < na; ++i) {
    const size_t i2 = (i + 1) % na;
    for (size_t j = 0; j < nb; ++j) {
      const size_t j2 = (j + 1) % nb;
      if (SegmentsMeet(a[2 * i], a[2 * i + 1], a[2 * i2], a[2 * i2 + 1],
                       b[2 * j], b[2 * j + 1], b[2 * j2], b[2 * j2 + 1])) {
        return true;
      }
    }
  }
  return Inside(b, a[0], a[1]) || Inside(a, b[0], b[1]);
}

}  // namespace

bool ParsePointRecord(std::string_view record, double* x, double* y) {
  record = record.substr(0, record.find('\t'));
  const size_t comma = record.find(',');
  if (comma == std::string_view::npos) return false;
  size_t pos = 0;
  if (!ParseDouble(record.substr(0, comma), &pos, x) || pos != comma) {
    return false;
  }
  const std::string_view rest = record.substr(comma + 1);
  pos = 0;
  return ParseDouble(rest, &pos, y) && pos == rest.size();
}

void PointOracle::Add(const std::vector<std::string>& records) {
  for (const std::string& r : records) {
    double x = 0, y = 0;
    if (!ParsePointRecord(r, &x, &y)) {
      ++bad_;
      continue;
    }
    records_.push_back(r);
    xs_.push_back(x);
    ys_.push_back(y);
  }
  sorted_ = false;
}

void PointOracle::SortIfNeeded() const {
  if (sorted_) return;
  by_x_.resize(records_.size());
  std::iota(by_x_.begin(), by_x_.end(), 0u);
  std::sort(by_x_.begin(), by_x_.end(),
            [&](uint32_t a, uint32_t b) { return xs_[a] < xs_[b]; });
  sorted_x_.resize(by_x_.size());
  for (size_t i = 0; i < by_x_.size(); ++i) sorted_x_[i] = xs_[by_x_[i]];
  sorted_ = true;
}

RowDigest PointOracle::Window(const Box& w) const {
  SortIfNeeded();
  RowDigest d;
  auto it = std::lower_bound(sorted_x_.begin(), sorted_x_.end(), w.min_x);
  for (size_t i = static_cast<size_t>(it - sorted_x_.begin());
       i < sorted_x_.size() && sorted_x_[i] <= w.max_x; ++i) {
    const uint32_t r = by_x_[i];
    if (ys_[r] >= w.min_y && ys_[r] <= w.max_y) d.Add(records_[r]);
  }
  return d;
}

uint64_t PointOracle::Count(const Box& window) const {
  return Window(window).count;
}

std::vector<double> PointOracle::KnnDistances(double px, double py, size_t k,
                                              RowDigest* digest) const {
  // Max-heap of the k best (distance, index) so far.
  std::priority_queue<std::pair<double, uint32_t>> best;
  for (uint32_t i = 0; i < records_.size(); ++i) {
    const double dx = xs_[i] - px, dy = ys_[i] - py;
    const double d = std::sqrt(dx * dx + dy * dy);
    if (best.size() < k) {
      best.emplace(d, i);
    } else if (d < best.top().first) {
      best.pop();
      best.emplace(d, i);
    }
  }
  std::vector<double> out;
  *digest = RowDigest();
  while (!best.empty()) {
    out.push_back(best.top().first);
    digest->Add(records_[best.top().second]);
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void PolygonOracle::Add(const std::vector<std::string>& recs) {
  for (const std::string& r : recs) {
    std::vector<double> ring;
    if (!ParsePolygonRecord(r, &ring)) {
      ++bad;
      continue;
    }
    Box box{ring[0], ring[1], ring[0], ring[1]};
    for (size_t i = 0; i < ring.size(); i += 2) {
      box.min_x = std::min(box.min_x, ring[i]);
      box.max_x = std::max(box.max_x, ring[i]);
      box.min_y = std::min(box.min_y, ring[i + 1]);
      box.max_y = std::max(box.max_y, ring[i + 1]);
    }
    records.push_back(r);
    rings.push_back(std::move(ring));
    boxes.push_back(box);
  }
}

RowDigest JoinReference(const PolygonOracle& a, const PolygonOracle& b) {
  // Sweep over both box sets in min-x order; every x-overlapping pair is
  // tested exactly once (by whichever box starts first).
  std::vector<uint32_t> oa(a.boxes.size()), ob(b.boxes.size());
  std::iota(oa.begin(), oa.end(), 0u);
  std::iota(ob.begin(), ob.end(), 0u);
  std::sort(oa.begin(), oa.end(), [&](uint32_t i, uint32_t j) {
    return a.boxes[i].min_x < a.boxes[j].min_x;
  });
  std::sort(ob.begin(), ob.end(), [&](uint32_t i, uint32_t j) {
    return b.boxes[i].min_x < b.boxes[j].min_x;
  });
  RowDigest digest;
  std::string row;
  const auto test = [&](uint32_t ia, uint32_t ib) {
    if (!a.boxes[ia].Intersects(b.boxes[ib])) return;
    if (!PolygonsMeet(a.rings[ia], b.rings[ib])) return;
    row.assign(a.records[ia]);
    row.push_back('\x1f');
    row.append(b.records[ib]);
    digest.Add(row);
  };
  size_t i = 0, j = 0;
  while (i < oa.size() && j < ob.size()) {
    if (a.boxes[oa[i]].min_x <= b.boxes[ob[j]].min_x) {
      const Box& box = a.boxes[oa[i]];
      for (size_t k = j; k < ob.size() && b.boxes[ob[k]].min_x <= box.max_x;
           ++k) {
        test(oa[i], ob[k]);
      }
      ++i;
    } else {
      const Box& box = b.boxes[ob[j]];
      for (size_t k = i; k < oa.size() && a.boxes[oa[k]].min_x <= box.max_x;
           ++k) {
        test(oa[k], ob[j]);
      }
      ++j;
    }
  }
  return digest;
}

}  // namespace perfbench
