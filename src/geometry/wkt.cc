#include "geometry/wkt.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>

#include "common/string_util.h"

namespace shadoop {
namespace {

/// The C-locale isspace set, spelled out so the hot loop needs no locale
/// lookup: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool IsBlank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view SkipBlanks(std::string_view text) {
  size_t i = 0;
  while (i < text.size() && IsBlank(text[i])) ++i;
  return text.substr(i);
}

/// Consumes an expected keyword (upper-case letters, matched ASCII
/// case-insensitively) and following blanks.
Status ExpectKeyword(std::string_view& text, std::string_view keyword) {
  text = SkipBlanks(text);
  bool match = text.size() >= keyword.size();
  for (size_t i = 0; match && i < keyword.size(); ++i) {
    match = (text[i] | 0x20) == (keyword[i] | 0x20);
  }
  if (!match) {
    return Status::ParseError("expected '" + std::string(keyword) +
                              "' in WKT: '" + std::string(text) + "'");
  }
  text = SkipBlanks(text.substr(keyword.size()));
  return Status::OK();
}

Status ExpectChar(std::string_view& text, char c) {
  text = SkipBlanks(text);
  if (text.empty() || text.front() != c) {
    return Status::ParseError(std::string("expected '") + c + "' in WKT");
  }
  text = SkipBlanks(text.substr(1));
  return Status::OK();
}

/// Chars that end a number token: the blanks, ',' and ')'. A table, since
/// the token scan tests every char of every coordinate.
constexpr std::array<bool, 256> kEndsToken = [] {
  std::array<bool, 256> ends{};
  for (int c = 0; c < 256; ++c) {
    ends[c] = IsBlank(static_cast<char>(c)) || c == ',' || c == ')';
  }
  return ends;
}();

constexpr bool EndsToken(char c) {
  return kEndsToken[static_cast<unsigned char>(c)];
}

const char* SkipBlanks(const char* p, const char* end) {
  while (p != end && IsBlank(*p)) ++p;
  return p;
}

/// Scans the number token at `*p` -- the maximal run of chars that end no
/// token -- and advances `*p` past it. from_chars is bounded by the token
/// end, not the string end: it accepts "nan(chars)", so an unbounded call
/// could consume a ring's closing ')' and everything after it.
bool ScanNumber(const char** p, const char* end, double* out) {
  const char* const start = *p;
  const char* q = start;
  // Skip eight chars at a time while none is below '-' (0x2D): every char
  // that ends a token is (blanks 0x09-0x0D and 0x20, ')' 0x29, ',' 0x2C).
  // The has-less-than test below is nonzero iff some byte is below '-';
  // the char loop then finds which.
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  while (end - q >= 8) {
    uint64_t word;
    std::memcpy(&word, q, sizeof(word));
    if (((word - kOnes * '-') & ~word & kHighs) != 0) break;
    q += 8;
  }
  while (q != end && !EndsToken(*q)) ++q;
  *p = q;
  if (q == start) return false;
  const auto [ptr, ec] = std::from_chars(start, q, *out);
  return ec == std::errc() && ptr == q;
}

Status CoordinateError(const char* at, const char* end) {
  constexpr size_t kContext = 40;
  const size_t n = std::min(kContext, static_cast<size_t>(end - at));
  return Status::ParseError("expected 'x y' coordinate in WKT near '" +
                            std::string(at, n) + "'");
}

/// Parses "x y" coordinate pairs separated by commas through the closing
/// ')' in one forward pass, handing each point to `sink`. This runs per
/// vertex of every polygon record on the join hot path.
template <typename Sink>
Status ScanCoordinates(std::string_view& text, Sink&& sink) {
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    const char* const pair = p = SkipBlanks(p, end);
    Point pt;
    if (!ScanNumber(&p, end, &pt.x)) return CoordinateError(pair, end);
    p = SkipBlanks(p, end);
    if (!ScanNumber(&p, end, &pt.y)) return CoordinateError(pair, end);
    p = SkipBlanks(p, end);
    if (p == end || (*p != ',' && *p != ')')) {
      return CoordinateError(pair, end);
    }
    sink(pt);
    if (*p++ == ')') break;
  }
  text.remove_prefix(static_cast<size_t>(p - text.data()));
  return Status::OK();
}

/// Scans "POLYGON ((x y, ...))" through the ring's closing parenthesis,
/// handing each vertex (closing vertex included) to `sink`.
template <typename Sink>
Status ScanPolygonRing(std::string_view text, Sink&& sink) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POLYGON"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(ScanCoordinates(text, sink));
  text = SkipBlanks(text);
  if (!text.empty() && text.front() == ',') {
    return Status::ParseError("polygons with holes are not supported");
  }
  return ExpectChar(text, ')');
}

/// A ring of `n` vertices as written, closed when the last repeats the
/// first, must keep 3 once the closing vertex is dropped.
Status CheckRing(size_t n, bool closed) {
  if (n - (closed ? 1 : 0) < 3) {
    return Status::ParseError("POLYGON ring needs at least 3 distinct points");
  }
  return Status::OK();
}

std::string CoordinateListToString(const std::vector<Point>& points) {
  std::string out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(points[i].x);
    out += " ";
    out += FormatDouble(points[i].y);
  }
  return out;
}

}  // namespace

std::string ToWkt(const Point& p) {
  return "POINT (" + FormatDouble(p.x) + " " + FormatDouble(p.y) + ")";
}

std::string ToWkt(const Polygon& poly) {
  if (poly.IsEmpty()) return "POLYGON EMPTY";
  // WKT rings repeat the first vertex at the end.
  std::vector<Point> closed = poly.ring();
  closed.push_back(closed.front());
  return "POLYGON ((" + CoordinateListToString(closed) + "))";
}

std::string LineStringToWkt(const std::vector<Point>& points) {
  return "LINESTRING (" + CoordinateListToString(points) + ")";
}

Result<Point> ParsePointWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POINT"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  Point point;
  size_t n = 0;
  SHADOOP_RETURN_NOT_OK(ScanCoordinates(text, [&](const Point& p) {
    point = p;
    ++n;
  }));
  if (n != 1) {
    return Status::ParseError("POINT must contain exactly one coordinate");
  }
  return point;
}

Result<Polygon> ParsePolygonWkt(std::string_view text) {
  // Vertices collect in a per-thread buffer, so the ring itself is one
  // exact-size allocation rather than a doubling series.
  thread_local std::vector<Point> scanned;
  scanned.clear();
  SHADOOP_RETURN_NOT_OK(ScanPolygonRing(
      text, [](const Point& p) { scanned.push_back(p); }));
  const bool closed = scanned.size() >= 2 && scanned.front() == scanned.back();
  SHADOOP_RETURN_NOT_OK(CheckRing(scanned.size(), closed));
  return Polygon(
      std::vector<Point>(scanned.begin(), scanned.end() - (closed ? 1 : 0)));
}

Result<Envelope> ParsePolygonWktBounds(std::string_view text) {
  // Folding the closing vertex too is exact: it compares equal to the
  // first, and a -0 against a folded +0 (or the reverse) never passes the
  // strict comparisons of ExpandToInclude.
  Envelope bounds;
  Point first;
  Point last;
  size_t n = 0;
  SHADOOP_RETURN_NOT_OK(ScanPolygonRing(text, [&](const Point& p) {
    if (n++ == 0) first = p;
    last = p;
    bounds.ExpandToInclude(p);
  }));
  SHADOOP_RETURN_NOT_OK(CheckRing(n, n >= 2 && first == last));
  return bounds;
}

Result<std::vector<Point>> ParseLineStringWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "LINESTRING"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  std::vector<Point> pts;
  SHADOOP_RETURN_NOT_OK(
      ScanCoordinates(text, [&pts](const Point& p) { pts.push_back(p); }));
  if (pts.size() < 2) {
    return Status::ParseError("LINESTRING needs at least 2 points");
  }
  return pts;
}

std::string PointToCsv(const Point& p) {
  return FormatDouble(p.x) + "," + FormatDouble(p.y);
}

std::string EnvelopeToCsv(const Envelope& e) {
  return FormatDouble(e.min_x()) + "," + FormatDouble(e.min_y()) + "," +
         FormatDouble(e.max_x()) + "," + FormatDouble(e.max_y());
}

Result<Point> ParsePointCsv(std::string_view text) {
  FieldCursor fields(StripWhitespace(text), ',');
  std::string_view fx;
  std::string_view fy;
  if (!fields.Next(&fx) || !fields.Next(&fy)) {
    return Status::ParseError("point record needs 'x,y': '" +
                              std::string(text) + "'");
  }
  SHADOOP_ASSIGN_OR_RETURN(double x, ParseDouble(fx));
  SHADOOP_ASSIGN_OR_RETURN(double y, ParseDouble(fy));
  return Point(x, y);
}

Result<Envelope> ParseEnvelopeCsv(std::string_view text) {
  FieldCursor fields(StripWhitespace(text), ',');
  std::string_view f[4];
  if (!fields.Next(&f[0]) || !fields.Next(&f[1]) || !fields.Next(&f[2]) ||
      !fields.Next(&f[3])) {
    return Status::ParseError("rectangle record needs 'x1,y1,x2,y2': '" +
                              std::string(text) + "'");
  }
  SHADOOP_ASSIGN_OR_RETURN(double x1, ParseDouble(f[0]));
  SHADOOP_ASSIGN_OR_RETURN(double y1, ParseDouble(f[1]));
  SHADOOP_ASSIGN_OR_RETURN(double x2, ParseDouble(f[2]));
  SHADOOP_ASSIGN_OR_RETURN(double y2, ParseDouble(f[3]));
  if (x2 < x1 || y2 < y1) {
    return Status::ParseError("rectangle with inverted bounds: '" +
                              std::string(text) + "'");
  }
  return Envelope(x1, y1, x2, y2);
}

}  // namespace shadoop
