#ifndef SHADOOP_GEOMETRY_WKT_H_
#define SHADOOP_GEOMETRY_WKT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace shadoop {

/// Well-Known-Text serialization for the geometry types the system stores
/// in its text record format (one geometry per HDFS record line).
///
/// Supported forms:
///   POINT (x y)
///   LINESTRING (x y, x y, ...)
///   POLYGON ((x y, x y, ...))        -- single ring; holes are rejected
///
/// Parsing is whitespace-tolerant (C-locale blanks) and case-insensitive
/// on keywords. A coordinate is two number tokens -- maximal runs of chars
/// other than blanks, ',' and ')' -- each read whole by std::from_chars.
/// Text after the geometry's closing parenthesis is ignored.
std::string ToWkt(const Point& p);
std::string ToWkt(const Polygon& poly);
std::string LineStringToWkt(const std::vector<Point>& points);

Result<Point> ParsePointWkt(std::string_view text);
Result<Polygon> ParsePolygonWkt(std::string_view text);
/// ParsePolygonWkt(text)->Bounds() without building the ring: accepts and
/// rejects exactly the same texts and returns the same envelope bit for bit.
Result<Envelope> ParsePolygonWktBounds(std::string_view text);
Result<std::vector<Point>> ParseLineStringWkt(std::string_view text);

/// Compact CSV forms used by the HDFS record layer:
///   point:     "x,y"
///   rectangle: "x1,y1,x2,y2"
std::string PointToCsv(const Point& p);
std::string EnvelopeToCsv(const Envelope& e);
Result<Point> ParsePointCsv(std::string_view text);
Result<Envelope> ParseEnvelopeCsv(std::string_view text);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_WKT_H_
