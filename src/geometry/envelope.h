#ifndef SHADOOP_GEOMETRY_ENVELOPE_H_
#define SHADOOP_GEOMETRY_ENVELOPE_H_

#include <limits>
#include <string>

#include "geometry/point.h"

namespace shadoop {

/// Axis-aligned minimum bounding rectangle. The empty envelope is
/// represented by inverted bounds and absorbs nothing / extends everything
/// correctly under ExpandToInclude.
class Envelope {
 public:
  /// Constructs an empty envelope.
  constexpr Envelope()
      : min_x_(std::numeric_limits<double>::infinity()),
        min_y_(std::numeric_limits<double>::infinity()),
        max_x_(-std::numeric_limits<double>::infinity()),
        max_y_(-std::numeric_limits<double>::infinity()) {}

  constexpr Envelope(double min_x, double min_y, double max_x, double max_y)
      : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {}

  static constexpr Envelope FromPoint(const Point& p) {
    return Envelope(p.x, p.y, p.x, p.y);
  }

  static Envelope FromPoints(const Point& a, const Point& b) {
    Envelope e;
    e.ExpandToInclude(a);
    e.ExpandToInclude(b);
    return e;
  }

  constexpr bool IsEmpty() const { return min_x_ > max_x_ || min_y_ > max_y_; }

  constexpr double min_x() const { return min_x_; }
  constexpr double min_y() const { return min_y_; }
  constexpr double max_x() const { return max_x_; }
  constexpr double max_y() const { return max_y_; }

  constexpr double Width() const { return IsEmpty() ? 0.0 : max_x_ - min_x_; }
  constexpr double Height() const { return IsEmpty() ? 0.0 : max_y_ - min_y_; }
  constexpr double Area() const { return Width() * Height(); }

  Point Center() const {
    return Point((min_x_ + max_x_) / 2, (min_y_ + max_y_) / 2);
  }

  constexpr Point BottomLeft() const { return Point(min_x_, min_y_); }
  constexpr Point BottomRight() const { return Point(max_x_, min_y_); }
  constexpr Point TopLeft() const { return Point(min_x_, max_y_); }
  constexpr Point TopRight() const { return Point(max_x_, max_y_); }

  void ExpandToInclude(const Point& p) {
    if (p.x < min_x_) min_x_ = p.x;
    if (p.y < min_y_) min_y_ = p.y;
    if (p.x > max_x_) max_x_ = p.x;
    if (p.y > max_y_) max_y_ = p.y;
  }

  void ExpandToInclude(const Envelope& other) {
    if (other.IsEmpty()) return;
    if (other.min_x_ < min_x_) min_x_ = other.min_x_;
    if (other.min_y_ < min_y_) min_y_ = other.min_y_;
    if (other.max_x_ > max_x_) max_x_ = other.max_x_;
    if (other.max_y_ > max_y_) max_y_ = other.max_y_;
  }

  /// Closed-boundary containment (boundary points are inside).
  constexpr bool Contains(const Point& p) const {
    return p.x >= min_x_ && p.x <= max_x_ && p.y >= min_y_ && p.y <= max_y_;
  }

  constexpr bool Contains(const Envelope& other) const {
    if (other.IsEmpty()) return true;
    return other.min_x_ >= min_x_ && other.max_x_ <= max_x_ &&
           other.min_y_ >= min_y_ && other.max_y_ <= max_y_;
  }

  /// Closed intersection test (touching boundaries intersect).
  constexpr bool Intersects(const Envelope& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return min_x_ <= other.max_x_ && other.min_x_ <= max_x_ &&
           min_y_ <= other.max_y_ && other.min_y_ <= max_y_;
  }

  /// Half-open containment used for disjoint partition assignment: a point
  /// on a shared edge belongs to exactly one of two adjacent cells.
  /// Points on the global right/top edge are claimed by the last cell via
  /// `is_right_edge` / `is_top_edge`.
  bool ContainsHalfOpen(const Point& p, bool is_right_edge = false,
                        bool is_top_edge = false) const {
    const bool x_ok = p.x >= min_x_ && (p.x < max_x_ || (is_right_edge && p.x <= max_x_));
    const bool y_ok = p.y >= min_y_ && (p.y < max_y_ || (is_top_edge && p.y <= max_y_));
    return x_ok && y_ok;
  }

  /// Geometric intersection; empty result if disjoint.
  Envelope Intersection(const Envelope& other) const {
    if (!Intersects(other)) return Envelope();
    return Envelope(std::max(min_x_, other.min_x_), std::max(min_y_, other.min_y_),
                    std::min(max_x_, other.max_x_), std::min(max_y_, other.max_y_));
  }

  /// Smallest distance from this envelope to point p (0 when inside).
  double MinDistance(const Point& p) const;

  /// Largest distance from any point of this envelope to p.
  double MaxDistance(const Point& p) const;

  /// Smallest distance between any two points of the two envelopes.
  double MinDistance(const Envelope& other) const;

  /// Largest distance between any two points of the two envelopes (corner
  /// to corner).
  double MaxDistance(const Envelope& other) const;

  friend constexpr bool operator==(const Envelope& a, const Envelope& b) {
    if (a.IsEmpty() && b.IsEmpty()) return true;
    return a.min_x_ == b.min_x_ && a.min_y_ == b.min_y_ &&
           a.max_x_ == b.max_x_ && a.max_y_ == b.max_y_;
  }
  friend constexpr bool operator!=(const Envelope& a, const Envelope& b) {
    return !(a == b);
  }

  std::string ToString() const;

 private:
  double min_x_, min_y_, max_x_, max_y_;
};

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_ENVELOPE_H_
