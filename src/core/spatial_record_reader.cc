#include "core/spatial_record_reader.h"

#include "common/logging.h"

namespace shadoop::core {

void SpatialRecordReader::AttachCache(mapreduce::ArtifactCache* cache,
                                      uint64_t block_id) {
  if (cache == nullptr || block_id == 0) return;
  if (!records_.empty() || preparsed_envelopes_ != nullptr ||
      cache_ != nullptr) {
    // Attached too late or twice: this reader's content is not (known to
    // be) exactly one block, so per-block artifacts would be wrong.
    cache_ = nullptr;
    cache_block_id_ = 0;
    return;
  }
  cache_ = cache;
  cache_block_id_ = block_id;
}

std::string SpatialRecordReader::CacheKey(const char* kind) const {
  if (cache_ == nullptr || cache_block_id_ == 0) return std::string();
  return std::string(kind) + ':' +
         std::to_string(static_cast<int>(shape_)) + ':' +
         std::to_string(cache_block_id_);
}

void SpatialRecordReader::ConsumeHeader(std::string_view record) {
  const std::string key = CacheKey("lidx");
  if (!key.empty()) {
    if (auto hit = cache_->Lookup(key)) {
      preparsed_envelopes_ =
          std::static_pointer_cast<const std::vector<Envelope>>(hit);
      InvalidateColumns();
      return;
    }
  }
  auto decoded = index::DecodeLocalIndexHeader(record);
  if (!decoded.ok()) return;
  auto envelopes = std::make_shared<const std::vector<Envelope>>(
      std::move(decoded).value());
  preparsed_envelopes_ =
      key.empty() ? envelopes
                  : std::static_pointer_cast<const std::vector<Envelope>>(
                        cache_->Insert(key, envelopes));
  InvalidateColumns();
}

void SpatialRecordReader::Add(std::string_view record) {
  if (index::IsMetadataRecord(record)) {
    ConsumeHeader(record);
    return;
  }
  AddRecord(arena_.Intern(record));
}

void SpatialRecordReader::AddBorrowed(std::string_view record) {
  if (index::IsMetadataRecord(record)) {
    ConsumeHeader(record);
    return;
  }
  AddRecord(record);
}

void SpatialRecordReader::AddRecord(std::string_view stable_record) {
  records_.push_back(stable_record);
  InvalidateColumns();
}

void SpatialRecordReader::Clear() {
  records_.clear();
  preparsed_envelopes_.reset();
  bad_records_ = 0;
  arena_.Clear();
  cache_ = nullptr;
  cache_block_id_ = 0;
  InvalidateColumns();
  // Post-state invariant: nothing that could disagree with records_ may
  // survive a Clear() — no stale #lidx envelopes, columns, or arena
  // bytes backing now-dropped views.
  SHADOOP_DCHECK(records_.empty() && preparsed_envelopes_ == nullptr &&
                 arena_.empty() && point_column_ == nullptr &&
                 envelope_column_ == nullptr && polygon_column_ == nullptr);
  CheckInvariants();
}

void SpatialRecordReader::InvalidateColumns() {
  point_column_.reset();
  envelope_column_.reset();
  polygon_column_.reset();
}

void SpatialRecordReader::CheckInvariants() const {
  // Every built column covers every record, and a cleared reader must
  // hold no stale preparsed envelopes, columns, or arena bytes — the
  // states that could otherwise disagree with records_.
  SHADOOP_DCHECK(point_column_ == nullptr ||
                 point_column_->values.size() == records_.size());
  SHADOOP_DCHECK(envelope_column_ == nullptr ||
                 envelope_column_->values.size() == records_.size());
  SHADOOP_DCHECK(polygon_column_ == nullptr ||
                 polygon_column_->values.size() == records_.size());
}

void SpatialRecordReader::EnsurePointColumn() {
  if (point_column_ != nullptr) return;
  CheckInvariants();
  const std::string key = CacheKey("pt");
  if (!key.empty()) {
    if (auto hit = cache_->Lookup(key)) {
      point_column_ = std::static_pointer_cast<const PointColumn>(hit);
      return;
    }
  }
  auto column = std::make_shared<PointColumn>();
  column->values.assign(records_.size(), Point());
  column->valid.assign(records_.size(), 0);
  for (size_t i = 0; i < records_.size(); ++i) {
    auto p = index::RecordPoint(records_[i]);
    if (p.ok()) {
      column->values[i] = p.value();
      column->valid[i] = 1;
    } else {
      ++column->bad;
    }
  }
  point_column_ =
      key.empty() ? std::shared_ptr<const PointColumn>(std::move(column))
                  : std::static_pointer_cast<const PointColumn>(
                        cache_->Insert(key, std::move(column)));
}

void SpatialRecordReader::EnsureEnvelopeColumn() {
  if (envelope_column_ != nullptr) return;
  CheckInvariants();
  const std::string key = CacheKey("env");
  if (!key.empty()) {
    if (auto hit = cache_->Lookup(key)) {
      envelope_column_ = std::static_pointer_cast<const EnvelopeColumn>(hit);
      return;
    }
  }
  auto column = std::make_shared<EnvelopeColumn>();
  column->values.assign(records_.size(), Envelope());
  column->valid.assign(records_.size(), 0);
  if (has_local_index()) {
    // The persisted header already carries every record's envelope in
    // block order; empty slots mark records that failed to parse at
    // build time. No geometry is parsed here.
    const std::vector<Envelope>& preparsed = *preparsed_envelopes_;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (preparsed[i].IsEmpty()) {
        ++column->bad;
      } else {
        column->values[i] = preparsed[i];
        column->valid[i] = 1;
      }
    }
  } else if (shape_ == index::ShapeType::kPoint) {
    // A point's envelope is the point itself: share the point column's
    // single parse instead of parsing again.
    EnsurePointColumn();
    for (size_t i = 0; i < records_.size(); ++i) {
      if (point_column_->valid[i]) {
        column->values[i] = Envelope::FromPoint(point_column_->values[i]);
        column->valid[i] = 1;
      } else {
        ++column->bad;
      }
    }
  } else if (shape_ == index::ShapeType::kPolygon) {
    // Likewise derived: the polygon column's bounds.
    EnsurePolygonColumn();
    for (size_t i = 0; i < records_.size(); ++i) {
      if (polygon_column_->valid[i]) {
        column->values[i] = polygon_column_->values[i].Bounds();
        column->valid[i] = 1;
      } else {
        ++column->bad;
      }
    }
  } else {
    for (size_t i = 0; i < records_.size(); ++i) {
      auto env = index::RecordRectangle(records_[i]);
      if (env.ok()) {
        column->values[i] = env.value();
        column->valid[i] = 1;
      } else {
        ++column->bad;
      }
    }
  }
  envelope_column_ =
      key.empty() ? std::shared_ptr<const EnvelopeColumn>(std::move(column))
                  : std::static_pointer_cast<const EnvelopeColumn>(
                        cache_->Insert(key, std::move(column)));
}

void SpatialRecordReader::EnsurePolygonColumn() {
  if (polygon_column_ != nullptr) return;
  CheckInvariants();
  const std::string key = CacheKey("poly");
  if (!key.empty()) {
    if (auto hit = cache_->Lookup(key)) {
      polygon_column_ = std::static_pointer_cast<const PolygonColumn>(hit);
      return;
    }
  }
  auto column = std::make_shared<PolygonColumn>();
  column->values.assign(records_.size(), Polygon());
  column->valid.assign(records_.size(), 0);
  for (size_t i = 0; i < records_.size(); ++i) {
    auto poly = index::RecordPolygon(records_[i]);
    if (poly.ok()) {
      column->values[i] = std::move(poly).value();
      column->valid[i] = 1;
    } else {
      ++column->bad;
    }
  }
  polygon_column_ =
      key.empty() ? std::shared_ptr<const PolygonColumn>(std::move(column))
                  : std::static_pointer_cast<const PolygonColumn>(
                        cache_->Insert(key, std::move(column)));
}

std::vector<Point> SpatialRecordReader::Points() {
  EnsurePointColumn();
  bad_records_ += point_column_->bad;
  std::vector<Point> points;
  points.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (point_column_->valid[i]) points.push_back(point_column_->values[i]);
  }
  return points;
}

std::vector<index::RTree::Entry> SpatialRecordReader::Envelopes() {
  EnsureEnvelopeColumn();
  bad_records_ += envelope_column_->bad;
  std::vector<index::RTree::Entry> entries;
  entries.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (envelope_column_->valid[i]) {
      entries.push_back(
          {envelope_column_->values[i], static_cast<uint32_t>(i)});
    }
  }
  return entries;
}

void SpatialRecordReader::CountEnvelopeBad() {
  EnsureEnvelopeColumn();
  bad_records_ += envelope_column_->bad;
}

std::vector<Polygon> SpatialRecordReader::Polygons() {
  EnsurePolygonColumn();
  bad_records_ += polygon_column_->bad;
  std::vector<Polygon> polygons;
  polygons.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (polygon_column_->valid[i]) {
      polygons.push_back(polygon_column_->values[i]);
    }
  }
  return polygons;
}

const Envelope* SpatialRecordReader::EnvelopeAt(size_t i) {
  EnsureEnvelopeColumn();
  if (i >= records_.size() || !envelope_column_->valid[i]) return nullptr;
  return &envelope_column_->values[i];
}

const Point* SpatialRecordReader::PointAt(size_t i) {
  EnsurePointColumn();
  if (i >= records_.size() || !point_column_->valid[i]) return nullptr;
  return &point_column_->values[i];
}

const Polygon* SpatialRecordReader::PolygonAt(size_t i) {
  EnsurePolygonColumn();
  if (i >= records_.size() || !polygon_column_->valid[i]) return nullptr;
  return &polygon_column_->values[i];
}

}  // namespace shadoop::core
