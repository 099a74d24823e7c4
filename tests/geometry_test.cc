#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/polygon_clip.h"
#include "geometry/segment.h"
#include "geometry/simplify.h"
#include "geometry/wkt.h"
#include "index/record_shape.h"
#include "workload/generators.h"

namespace shadoop {
namespace {

TEST(PointTest, OrderingAndDistance) {
  EXPECT_LT(Point(1, 5), Point(2, 0));
  EXPECT_LT(Point(1, 1), Point(1, 2));
  EXPECT_DOUBLE_EQ(Distance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(Point(1, 1), Point(2, 2)), 2.0);
}

TEST(PointTest, CrossProductOrientation) {
  EXPECT_GT(Cross(Point(0, 0), Point(1, 0), Point(1, 1)), 0);  // CCW.
  EXPECT_LT(Cross(Point(0, 0), Point(1, 0), Point(1, -1)), 0);  // CW.
  EXPECT_EQ(Cross(Point(0, 0), Point(1, 1), Point(2, 2)), 0);  // Collinear.
}

TEST(EnvelopeTest, EmptyBehaviour) {
  Envelope e;
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Intersects(Envelope(0, 0, 1, 1)));
  e.ExpandToInclude(Point(2, 3));
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_EQ(e, Envelope(2, 3, 2, 3));
}

TEST(EnvelopeTest, ContainsAndIntersects) {
  const Envelope e(0, 0, 10, 5);
  EXPECT_TRUE(e.Contains(Point(0, 0)));
  EXPECT_TRUE(e.Contains(Point(10, 5)));
  EXPECT_FALSE(e.Contains(Point(10.001, 5)));
  EXPECT_TRUE(e.Intersects(Envelope(10, 5, 20, 20)));  // Corner touch.
  EXPECT_FALSE(e.Intersects(Envelope(11, 0, 20, 5)));
  EXPECT_TRUE(e.Contains(Envelope(1, 1, 2, 2)));
  EXPECT_FALSE(e.Contains(Envelope(1, 1, 11, 2)));
}

TEST(EnvelopeTest, HalfOpenContains) {
  const Envelope e(0, 0, 10, 10);
  EXPECT_TRUE(e.ContainsHalfOpen(Point(0, 0)));
  EXPECT_FALSE(e.ContainsHalfOpen(Point(10, 5)));
  EXPECT_FALSE(e.ContainsHalfOpen(Point(5, 10)));
  EXPECT_TRUE(e.ContainsHalfOpen(Point(10, 5), /*is_right_edge=*/true));
  EXPECT_TRUE(e.ContainsHalfOpen(Point(5, 10), false, /*is_top_edge=*/true));
}

TEST(EnvelopeTest, IntersectionGeometry) {
  const Envelope a(0, 0, 10, 10);
  const Envelope b(5, 5, 20, 20);
  EXPECT_EQ(a.Intersection(b), Envelope(5, 5, 10, 10));
  EXPECT_TRUE(a.Intersection(Envelope(11, 11, 12, 12)).IsEmpty());
}

TEST(EnvelopeTest, MinMaxDistances) {
  const Envelope e(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(e.MinDistance(Point(5, 5)), 0.0);
  EXPECT_DOUBLE_EQ(e.MinDistance(Point(13, 14)), 5.0);
  EXPECT_DOUBLE_EQ(e.MaxDistance(Point(0, 0)),
                   Distance(Point(0, 0), Point(10, 10)));
  const Envelope far(20, 0, 30, 10);
  EXPECT_DOUBLE_EQ(e.MinDistance(far), 10.0);
  EXPECT_DOUBLE_EQ(e.MaxDistance(far), Distance(Point(0, 0), Point(30, 10)));
  // Overlapping envelopes: min distance zero.
  EXPECT_DOUBLE_EQ(e.MinDistance(Envelope(5, 5, 15, 15)), 0.0);
}

TEST(SegmentTest, IntersectionTests) {
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {10, 10}),
                                Segment({0, 10}, {10, 0})));
  EXPECT_FALSE(SegmentsIntersect(Segment({0, 0}, {1, 1}),
                                 Segment({2, 2}, {3, 1})));
  // Shared endpoint counts as intersecting.
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {1, 1}),
                                Segment({1, 1}, {2, 0})));
  // Collinear overlap.
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {4, 0}),
                                Segment({2, 0}, {6, 0})));

  auto p = SegmentIntersection(Segment({0, 0}, {10, 10}),
                               Segment({0, 10}, {10, 0}));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, Point(5, 5));
  EXPECT_FALSE(SegmentIntersection(Segment({0, 0}, {1, 0}),
                                   Segment({0, 1}, {1, 1}))
                   .has_value());  // Parallel.
}

TEST(SegmentTest, PointSegmentDistance) {
  const Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(5, 3), s), 3.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(-3, 4), s), 5.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(5, 0), s), 0.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(3, 4), Segment({0, 0}, {0, 0})),
                   5.0);
}

TEST(PolygonTest, AreaAndOrientation) {
  Polygon square({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_DOUBLE_EQ(square.SignedArea(), 16.0);
  EXPECT_DOUBLE_EQ(square.Perimeter(), 16.0);
  Polygon clockwise({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(clockwise.SignedArea(), -16.0);
  clockwise.Normalize();
  EXPECT_DOUBLE_EQ(clockwise.SignedArea(), 16.0);
}

TEST(PolygonTest, Containment) {
  const Polygon tri({{0, 0}, {10, 0}, {5, 10}});
  EXPECT_TRUE(tri.Contains(Point(5, 2)));
  EXPECT_TRUE(tri.Contains(Point(0, 0)));     // Vertex.
  EXPECT_TRUE(tri.Contains(Point(5, 0)));     // Edge.
  EXPECT_FALSE(tri.Contains(Point(0, 5)));
  EXPECT_TRUE(tri.ContainsInterior(Point(5, 2)));
  EXPECT_FALSE(tri.ContainsInterior(Point(0, 0)));
}

TEST(PolygonTest, IntersectionCases) {
  const Polygon a({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  const Polygon b({{2, 2}, {6, 2}, {6, 6}, {2, 6}});    // Overlaps a.
  const Polygon c({{10, 10}, {12, 10}, {11, 12}});      // Disjoint.
  const Polygon d({{1, 1}, {2, 1}, {2, 2}, {1, 2}});    // Inside a.
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersects(d));  // Containment counts.
  EXPECT_TRUE(d.Intersects(a));
}

TEST(PolygonClipTest, ClipSquareToBox) {
  const Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const Polygon clipped = ClipPolygonToBox(square, Envelope(5, 5, 20, 20));
  EXPECT_DOUBLE_EQ(clipped.Area(), 25.0);
  EXPECT_EQ(clipped.Bounds(), Envelope(5, 5, 10, 10));
}

TEST(PolygonClipTest, DisjointClipIsEmpty) {
  const Polygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_TRUE(ClipPolygonToBox(square, Envelope(5, 5, 6, 6)).IsEmpty());
}

TEST(PolygonClipTest, ContainedPolygonUnchanged) {
  const Polygon tri({{1, 1}, {3, 1}, {2, 3}});
  const Polygon clipped = ClipPolygonToBox(tri, Envelope(0, 0, 10, 10));
  EXPECT_DOUBLE_EQ(clipped.Area(), tri.Area());
}

TEST(SegmentClipTest, LiangBarsky) {
  const Envelope box(0, 0, 10, 10);
  auto inside = ClipSegmentToBox(Segment({1, 1}, {2, 2}), box);
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(*inside, Segment({1, 1}, {2, 2}));

  auto crossing = ClipSegmentToBox(Segment({-5, 5}, {15, 5}), box);
  ASSERT_TRUE(crossing.has_value());
  EXPECT_EQ(*crossing, Segment({0, 5}, {10, 5}));

  EXPECT_FALSE(ClipSegmentToBox(Segment({-5, -5}, {-1, -1}), box).has_value());
  // Touching only a corner degenerates to a point: rejected.
  EXPECT_FALSE(
      ClipSegmentToBox(Segment({-1, 1}, {1, -1}), box).has_value());
}

TEST(SimplifyTest, DropsNearCollinearVertices) {
  // A straight line with tiny wiggles collapses to its endpoints.
  std::vector<Point> wiggly;
  for (int i = 0; i <= 100; ++i) {
    wiggly.emplace_back(i, (i % 2) * 0.001);
  }
  const auto simplified = SimplifyPolyline(wiggly, 0.01);
  ASSERT_EQ(simplified.size(), 2u);
  EXPECT_EQ(simplified.front(), wiggly.front());
  EXPECT_EQ(simplified.back(), wiggly.back());
}

TEST(SimplifyTest, KeepsSignificantVertices) {
  const std::vector<Point> zigzag = {{0, 0}, {5, 10}, {10, 0}};
  EXPECT_EQ(SimplifyPolyline(zigzag, 1.0), zigzag);
  // Zero tolerance is the identity.
  EXPECT_EQ(SimplifyPolyline(zigzag, 0.0), zigzag);
}

TEST(SimplifyTest, ErrorIsBoundedByTolerance) {
  // Every dropped vertex of a dense arc is within tolerance of the
  // simplified polyline.
  std::vector<Point> arc;
  for (int i = 0; i <= 200; ++i) {
    const double angle = M_PI * i / 200;
    arc.emplace_back(std::cos(angle) * 100, std::sin(angle) * 100);
  }
  const double tolerance = 2.0;
  const auto simplified = SimplifyPolyline(arc, tolerance);
  EXPECT_LT(simplified.size(), arc.size() / 2);
  for (const Point& p : arc) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < simplified.size(); ++i) {
      best = std::min(best, PointSegmentDistance(
                                p, Segment(simplified[i], simplified[i + 1])));
    }
    EXPECT_LE(best, tolerance + 1e-9);
  }
}

TEST(SimplifyTest, PolygonStaysClosedAndRetainsArea) {
  // A dense circle simplifies to a much smaller ring with similar area.
  Polygon circle = MakeRegularPolygon(Point(0, 0), 100, 256);
  const Polygon simplified = SimplifyPolygon(circle, 1.0);
  EXPECT_LT(simplified.NumVertices(), circle.NumVertices() / 2);
  EXPECT_GE(simplified.NumVertices(), 3u);
  EXPECT_NEAR(simplified.Area(), circle.Area(), circle.Area() * 0.05);
  // Tiny polygons and zero tolerance pass through unchanged.
  const Polygon tri({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(SimplifyPolygon(tri, 10.0), tri);
  EXPECT_EQ(SimplifyPolygon(circle, 0.0), circle);
}

TEST(WktTest, PointRoundTrip) {
  const Point p(1.5, -2.25);
  EXPECT_EQ(ParsePointWkt(ToWkt(p)).ValueOrDie(), p);
  EXPECT_EQ(ParsePointWkt("point( 3 4 )").ValueOrDie(), Point(3, 4));
  EXPECT_FALSE(ParsePointWkt("POINT 1 2").ok());
  EXPECT_FALSE(ParsePointWkt("POINT (1)").ok());
}

TEST(WktTest, PolygonRoundTrip) {
  const Polygon tri({{0, 0}, {4, 0}, {2, 3}});
  const Polygon parsed = ParsePolygonWkt(ToWkt(tri)).ValueOrDie();
  EXPECT_EQ(parsed, tri);
  EXPECT_FALSE(ParsePolygonWkt("POLYGON ((0 0, 1 1))").ok());
  EXPECT_FALSE(
      ParsePolygonWkt("POLYGON ((0 0,4 0,4 4,0 4),(1 1,2 1,2 2))").ok())
      << "holes are rejected";
}

TEST(WktTest, LineStringRoundTrip) {
  const std::vector<Point> pts = {{0, 0}, {1, 2}, {3, 4}};
  EXPECT_EQ(ParseLineStringWkt(LineStringToWkt(pts)).ValueOrDie(), pts);
  EXPECT_FALSE(ParseLineStringWkt("LINESTRING (1 2)").ok());
}

/// The two-pass WKT tokenizer the one-pass scanner replaced: find the next
/// ',' or ')', then split that span on std::isspace. Kept as the
/// accept/reject and value reference for the scanner.
namespace reference {

Status ExpectKeyword(std::string_view& text, std::string_view keyword) {
  text = StripWhitespace(text);
  if (!StartsWithIgnoreCase(text, keyword)) {
    return Status::ParseError("expected keyword");
  }
  text.remove_prefix(keyword.size());
  text = StripWhitespace(text);
  return Status::OK();
}

Status ExpectChar(std::string_view& text, char c) {
  text = StripWhitespace(text);
  if (text.empty() || text.front() != c) {
    return Status::ParseError("expected char");
  }
  text.remove_prefix(1);
  text = StripWhitespace(text);
  return Status::OK();
}

bool IsAsciiSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

Result<std::vector<Point>> ParseCoordinateList(std::string_view& text) {
  std::vector<Point> points;
  for (;;) {
    text = StripWhitespace(text);
    size_t end = text.find_first_of(",)");
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated coordinate list in WKT");
    }
    const std::string_view pair = text.substr(0, end);
    std::string_view tokens[2];
    int count = 0;
    size_t i = 0;
    while (i < pair.size()) {
      while (i < pair.size() && IsAsciiSpace(pair[i])) ++i;
      const size_t start = i;
      while (i < pair.size() && !IsAsciiSpace(pair[i])) ++i;
      if (i == start) break;
      if (count < 2) tokens[count] = pair.substr(start, i - start);
      ++count;
    }
    if (count != 2) return Status::ParseError("expected 'x y'");
    SHADOOP_ASSIGN_OR_RETURN(double x, ParseDouble(tokens[0]));
    SHADOOP_ASSIGN_OR_RETURN(double y, ParseDouble(tokens[1]));
    points.emplace_back(x, y);
    const char delim = text[end];
    text.remove_prefix(end + 1);
    if (delim == ')') break;
  }
  return points;
}

Result<Point> ParsePointWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POINT"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> pts, ParseCoordinateList(text));
  if (pts.size() != 1) return Status::ParseError("one coordinate");
  return pts.front();
}

Result<Polygon> ParsePolygonWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POLYGON"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> ring, ParseCoordinateList(text));
  text = StripWhitespace(text);
  if (!text.empty() && text.front() == ',') {
    return Status::ParseError("holes");
  }
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, ')'));
  if (ring.size() >= 2 && ring.front() == ring.back()) ring.pop_back();
  if (ring.size() < 3) return Status::ParseError("3 distinct points");
  return Polygon(std::move(ring));
}

Result<std::vector<Point>> ParseLineStringWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "LINESTRING"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> pts, ParseCoordinateList(text));
  if (pts.size() < 2) return Status::ParseError("2 points");
  return pts;
}

}  // namespace reference

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameBits(const Point& a, const Point& b) {
  return Bits(a.x) == Bits(b.x) && Bits(a.y) == Bits(b.y);
}

bool SameBits(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameBits(const Envelope& a, const Envelope& b) {
  return Bits(a.min_x()) == Bits(b.min_x()) &&
         Bits(a.min_y()) == Bits(b.min_y()) &&
         Bits(a.max_x()) == Bits(b.max_x()) &&
         Bits(a.max_y()) == Bits(b.max_y());
}

/// Same outcome and, when both succeed, bit-equal values.
template <typename T>
bool SameOutcome(const Result<T>& got, const Result<T>& want) {
  if (got.ok() != want.ok()) return false;
  return !got.ok() || SameBits(*got, *want);
}

/// Runs every WKT entry point on `text` against the reference; returns
/// the names of the ones that disagree (empty when all agree). `*ok`
/// counts the parsers that accepted the text.
std::string Disagreements(const std::string& text, int* ok) {
  std::string out;
  const auto point = ParsePointWkt(text);
  if (!SameOutcome(point, reference::ParsePointWkt(text))) out += " point";
  const auto line = ParseLineStringWkt(text);
  if (!SameOutcome(line, reference::ParseLineStringWkt(text))) {
    out += " linestring";
  }
  const auto poly = ParsePolygonWkt(text);
  const auto ref_poly = reference::ParsePolygonWkt(text);
  if (poly.ok() != ref_poly.ok() ||
      (poly.ok() && !SameBits(poly->ring(), ref_poly->ring()))) {
    out += " polygon";
  }
  const auto env = index::RecordEnvelope(index::ShapeType::kPolygon, text);
  const auto ref_geom = reference::ParsePolygonWkt(index::GeometryField(text));
  const Result<Envelope> ref_env =
      ref_geom.ok() ? Result<Envelope>(ref_geom->Bounds())
                    : Result<Envelope>(ref_geom.status());
  if (!SameOutcome(env, ref_env)) out += " record_envelope";
  *ok += point.ok() + line.ok() + poly.ok() + env.ok();
  return out;
}

bool EndsWktToken(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r') || c == ',' || c == '(' ||
         c == ')';
}

/// One random edit of the kinds a hand-written or damaged record shows.
std::string Mutate(std::string s, Random& rng) {
  static constexpr char kBlanks[] = " \t\n\v\f\r";
  static constexpr char kAlphabet[] = "0123456789 ,()\t\r-+.eEnaifx*\x80\xff";
  static const char* const kNumbers[] = {
      "+1",   "1e5",    "-1E-3", "inf",    "-inf", "infinity", "nan",
      "-nan", "nan(x)", "nan()", "nan(x",  "0x10", "1e400",    "1e-400",
      ".5",   "5.",     "-",     "1..2",   "1e",   "--1",      "-0",
      "0",    "NaN",    "INF",   "nan(1)", "1 2",  "1,2",      "1)"};
  auto pos = [&](size_t extra) {
    return static_cast<size_t>(rng.NextUint64(s.size() + extra));
  };
  auto find_char = [&](char c) -> size_t {
    std::vector<size_t> at;
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == c) at.push_back(i);
    }
    return at.empty() ? std::string::npos : at[rng.NextUint64(at.size())];
  };
  if (s.empty()) return s;
  switch (rng.NextUint32(12)) {
    case 0:  // Truncate.
      s.resize(pos(0));
      break;
    case 1:  // Extra blank.
      s.insert(pos(1), 1, kBlanks[rng.NextUint32(6)]);
      break;
    case 2: {  // Missing blank.
      const size_t at = find_char(' ');
      if (at != std::string::npos) s.erase(at, 1);
      break;
    }
    case 3: {  // Replace the token around a random position.
      size_t begin = pos(0);
      size_t end = begin;
      while (begin > 0 && !EndsWktToken(s[begin - 1])) --begin;
      while (end < s.size() && !EndsWktToken(s[end])) ++end;
      s.replace(begin, end - begin, kNumbers[rng.NextUint32(
                                        std::size(kNumbers))]);
      break;
    }
    case 4: {  // Third token after a coordinate.
      const size_t at = find_char(rng.NextBool() ? ',' : ')');
      if (at != std::string::npos) s.insert(at, " 7");
      break;
    }
    case 5: {  // Missing ',' or ')'.
      const size_t at = find_char(rng.NextBool() ? ',' : ')');
      if (at != std::string::npos) s.erase(at, 1);
      break;
    }
    case 6: {  // Hole ring after the first ')'.
      const size_t at = s.find(')');
      if (at != std::string::npos) {
        s.insert(at + 1, rng.NextBool() ? ", (1 2, 3 4, 5 6, 1 2)" : " ,");
      }
      break;
    }
    case 7:  // Lowercase (or mixed-case) keyword.
      for (size_t i = 0; i < s.size() && s[i] != '('; ++i) {
        if (rng.NextBool(0.7)) {
          s[i] = static_cast<char>(
              std::tolower(static_cast<unsigned char>(s[i])));
        }
      }
      break;
    case 8:  // Random byte.
      s[pos(0)] = kAlphabet[rng.NextUint32(sizeof(kAlphabet) - 1)];
      break;
    case 9:  // Inserted byte.
      s.insert(pos(1), 1, kAlphabet[rng.NextUint32(sizeof(kAlphabet) - 1)]);
      break;
    case 10:  // Trailing text after the geometry, or an attribute field.
      s += rng.NextBool() ? ") junk" : "\tid=7,tag=x";
      break;
    default: {  // Drop every blank around one delimiter.
      const size_t at = find_char(rng.NextBool() ? ',' : '(');
      if (at == std::string::npos) break;
      size_t begin = at;
      size_t end = at + 1;
      while (begin > 0 && s[begin - 1] == ' ') --begin;
      while (end < s.size() && s[end] == ' ') ++end;
      s.replace(begin, end - begin, std::string(1, s[at]));
      break;
    }
  }
  return s;
}

/// `text` with control chars spelled as \xNN, for failure messages.
std::string Escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

TEST(WktTest, OnePassScannerMatchesTwoPassReference) {
  std::vector<std::string> bases = {
      "POLYGON ((0 0, 1 1, 0 0))",       // 2-vertex ring once closed.
      "POLYGON ((0 0, 1 1))",
      "POLYGON ((0 0, 1 0, 1 1, 0 0))",  // Smallest accepted ring.
      "POLYGON ((0 0, 1 0, 1 1, -0 0))",  // Closing vertex only == first.
      "POLYGON ((-0 -0, 1 0, 1 1, 0 0))",
      "POLYGON ((nan 0, 1 0, 1 1, nan 0))",  // NaN never closes a ring.
      "POLYGON ((0 0,4 0,4 4,0 4),(1 1,2 1,2 2))",
      "POLYGON((1 2,3 4,5 6))",
      "polygon ((1 2, 3 4, 5 6))",
      " \tPOLYGON\r\n( ( 1\v2 ,3\f4,5 6 ) ) ",
      "POLYGON ((1 nan(x), 3 4, 5 6))",
      "POLYGON ((1 2, 3 4, 5 nan(x)))",
      "POLYGON ((1e5 +1, 3 4, 5 6))",
      "POINT (1 2)",
      "point( 3 4 )",
      "POINT (1)",
      "POINT (1 2, 3 4)",
      "POINT (1 nan(x))",
      "LINESTRING (1 2)",
      "LINESTRING (0 0, 1 2, 3 4)",
      "LINESTRING (0 0, 1 nan(2), 3 4)",
      "POLYGON (())",
      "POLYGON ((,))",
      "POLYGON ((1 2 3, 4 5, 6 7))",
  };
  for (int seed = 1; seed <= 2; ++seed) {
    workload::PolygonGenOptions gen;
    gen.centers.distribution = seed == 1 ? workload::Distribution::kUniform
                                         : workload::Distribution::kClustered;
    gen.centers.count = 1000;
    gen.centers.seed = 17 + seed;
    for (const Polygon& poly : workload::GeneratePolygons(gen)) {
      bases.push_back(ToWkt(poly));
      if (bases.size() % 4 == 0) bases.push_back(LineStringToWkt(poly.ring()));
      if (bases.size() % 8 == 0) bases.push_back(ToWkt(poly.ring().front()));
    }
  }

  Random rng(20261020);
  size_t inputs = 0;
  int accepted = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
  auto check = [&](const std::string& text) {
    ++inputs;
    const std::string diff = Disagreements(text, &accepted);
    if (!diff.empty() && mismatches++ == 0) {
      first_mismatch = "'" + Escaped(text) + "':" + diff;
    }
  };
  for (size_t b = 0; b < bases.size(); ++b) {
    const std::string& base = bases[b];
    check(base);
    // Truncation at every byte, for the hand-written cases and a sample
    // of the generated ones.
    if (b < 24 || b % 50 == 0) {
      for (size_t n = 0; n < base.size(); ++n) check(base.substr(0, n));
    }
    for (int m = 0; m < 12; ++m) {
      std::string text = Mutate(base, rng);
      for (uint32_t more = rng.NextUint32(3); more > 0; --more) {
        text = Mutate(text, rng);
      }
      check(text);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
  // The corpus must exercise both outcomes in bulk.
  EXPECT_GT(accepted, 5000);
  EXPECT_GT(inputs * 4 - static_cast<size_t>(accepted), 50000u);
}

TEST(WktTest, CsvCodecs) {
  const Point p(123.456, -7.0);
  EXPECT_EQ(ParsePointCsv(PointToCsv(p)).ValueOrDie(), p);
  const Envelope e(1, 2, 3, 4);
  EXPECT_EQ(ParseEnvelopeCsv(EnvelopeToCsv(e)).ValueOrDie(), e);
  EXPECT_FALSE(ParsePointCsv("1").ok());
  EXPECT_FALSE(ParseEnvelopeCsv("1,2,3").ok());
  EXPECT_FALSE(ParseEnvelopeCsv("3,2,1,4").ok()) << "inverted bounds";
}

}  // namespace
}  // namespace shadoop
