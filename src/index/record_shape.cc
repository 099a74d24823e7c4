#include "index/record_shape.h"

#include <atomic>

#include "common/string_util.h"
#include "geometry/wkt.h"

namespace shadoop::index {
namespace {

std::atomic<uint64_t> g_geometry_parses{0};

}  // namespace

uint64_t GeometryParseCount() {
  return g_geometry_parses.load(std::memory_order_relaxed);
}

void ResetGeometryParseCount() {
  g_geometry_parses.store(0, std::memory_order_relaxed);
}

const char* ShapeTypeName(ShapeType type) {
  switch (type) {
    case ShapeType::kPoint:
      return "point";
    case ShapeType::kRectangle:
      return "rectangle";
    case ShapeType::kPolygon:
      return "polygon";
  }
  return "?";
}

Result<ShapeType> ParseShapeType(const std::string& name) {
  const std::string upper = AsciiToUpper(name);
  if (upper == "POINT") return ShapeType::kPoint;
  if (upper == "RECTANGLE" || upper == "RECT") return ShapeType::kRectangle;
  if (upper == "POLYGON") return ShapeType::kPolygon;
  return Status::InvalidArgument("unknown shape type: " + name);
}

std::string_view GeometryField(std::string_view record) {
  const size_t tab = record.find('\t');
  return tab == std::string_view::npos ? record : record.substr(0, tab);
}

bool IsMetadataRecord(std::string_view record) {
  return !record.empty() && record.front() == '#';
}

std::string EncodeLocalIndexHeader(const std::vector<Envelope>& envelopes) {
  std::string header = "#lidx ";
  for (size_t i = 0; i < envelopes.size(); ++i) {
    if (i > 0) header.push_back('|');
    header += EnvelopeToCsv(envelopes[i]);
  }
  return header;
}

Result<std::vector<Envelope>> DecodeLocalIndexHeader(
    std::string_view record) {
  constexpr std::string_view kPrefix = "#lidx ";
  if (record.substr(0, kPrefix.size()) != kPrefix) {
    return Status::ParseError("not a local-index header");
  }
  std::vector<Envelope> envelopes;
  FieldCursor entries(record.substr(kPrefix.size()), '|');
  std::string_view field;
  while (entries.Next(&field)) {
    if (field.empty()) continue;
    // Slots for records that failed to parse at build time are stored as
    // the empty envelope ("inf,inf,-inf,-inf"), which the strict
    // rectangle parser rejects — decode the coordinates directly. Fields
    // are scanned in place: this decode runs once per partition per query,
    // over every record's envelope.
    FieldCursor coords(field, ',');
    std::string_view c[4];
    std::string_view extra;
    if (!coords.Next(&c[0]) || !coords.Next(&c[1]) || !coords.Next(&c[2]) ||
        !coords.Next(&c[3]) || coords.Next(&extra)) {
      return Status::ParseError("bad local-index entry: '" +
                                std::string(field) + "'");
    }
    double v[4];
    for (int i = 0; i < 4; ++i) {
      SHADOOP_ASSIGN_OR_RETURN(v[i], ParseDouble(c[i]));
    }
    envelopes.push_back(v[2] < v[0] || v[3] < v[1]
                            ? Envelope()
                            : Envelope(v[0], v[1], v[2], v[3]));
  }
  return envelopes;
}

Result<Envelope> RecordEnvelope(ShapeType type, std::string_view record) {
  g_geometry_parses.fetch_add(1, std::memory_order_relaxed);
  const std::string_view geom = GeometryField(record);
  switch (type) {
    case ShapeType::kPoint: {
      SHADOOP_ASSIGN_OR_RETURN(Point p, ParsePointCsv(geom));
      return Envelope::FromPoint(p);
    }
    case ShapeType::kRectangle:
      return ParseEnvelopeCsv(geom);
    case ShapeType::kPolygon:
      return ParsePolygonWktBounds(geom);
  }
  return Status::InvalidArgument("unknown shape type");
}

Result<Point> RecordPoint(std::string_view record) {
  g_geometry_parses.fetch_add(1, std::memory_order_relaxed);
  return ParsePointCsv(GeometryField(record));
}

Result<Polygon> RecordPolygon(std::string_view record) {
  g_geometry_parses.fetch_add(1, std::memory_order_relaxed);
  return ParsePolygonWkt(GeometryField(record));
}

Result<Envelope> RecordRectangle(std::string_view record) {
  g_geometry_parses.fetch_add(1, std::memory_order_relaxed);
  return ParseEnvelopeCsv(GeometryField(record));
}

}  // namespace shadoop::index
