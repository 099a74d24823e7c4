#ifndef SHADOOP_CORE_SPATIAL_RECORD_READER_H_
#define SHADOOP_CORE_SPATIAL_RECORD_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "hdfs/block_arena.h"
#include "index/record_shape.h"
#include "index/rtree.h"
#include "mapreduce/artifact_cache.h"

namespace shadoop::core {

/// The SpatialRecordReader of the MapReduce layer: map functions feed it
/// the raw records of their partition and it exposes typed geometry views
/// and the envelope entries a local index is bulk-loaded from
/// (PartitionView::LocalIndex). Malformed records are counted, not fatal
/// (HDFS text files routinely contain stray lines).
///
/// Storage is zero-copy: records are `std::string_view`s — either
/// borrowed from the caller (AddBorrowed, used on the runner's pinned
/// block bytes) or interned into the reader's own arena (Add). Geometry
/// is parsed at most once per record: the first typed accessor builds a
/// contiguous column (envelopes, point coordinates, or polygons) that
/// every later access — including the R-tree bulk load — reads directly.
/// A partition persisted with a `#lidx` header feeds the envelope column
/// without parsing any geometry at all.
///
/// With AttachCache() the columns and the decoded header are shared
/// across map tasks through the runner's ArtifactCache: the reader of a
/// later task over the same immutable block adopts the already-parsed
/// column instead of re-parsing. Hits change wall-clock time only —
/// bad-record counts and every value are identical by construction (the
/// artifact was built from the same bytes by the same code).
class SpatialRecordReader {
 public:
  explicit SpatialRecordReader(index::ShapeType shape) : shape_(shape) {}

  index::ShapeType shape() const { return shape_; }

  /// Enables artifact sharing for a reader that will hold exactly the
  /// records of the block with this immutable id. Must be called before
  /// any record is fed and at most once; later or repeated attaches
  /// disable caching for this reader (its content is no longer known to
  /// be exactly one block). Null cache / zero id are ignored.
  void AttachCache(mapreduce::ArtifactCache* cache, uint64_t block_id);

  mapreduce::ArtifactCache* cache() const { return cache_; }
  uint64_t cache_block_id() const { return cache_block_id_; }

  /// Feeds one raw record, copying it into the reader's arena — safe for
  /// callers whose bytes die immediately. '#'-prefixed metadata records
  /// (the persisted local-index header) are consumed here and never
  /// appear in records().
  void Add(std::string_view record);

  /// Zero-copy variant: the caller guarantees `record`'s bytes outlive
  /// this reader's use (the map runner pins block payloads for the whole
  /// task attempt, so partition mappers borrow).
  void AddBorrowed(std::string_view record);

  /// Drops all records, parsed columns, the local-index header, the
  /// cache attachment, and the arena — the reader is reusable as if
  /// freshly constructed.
  void Clear();

  /// True when the partition carried a persisted local index, so
  /// Envelopes() needs no geometry parsing. Callers use this to charge
  /// the cost model less CPU.
  bool has_local_index() const {
    return preparsed_envelopes_ != nullptr &&
           preparsed_envelopes_->size() == records_.size() &&
           !records_.empty();
  }

  size_t NumRecords() const { return records_.size(); }
  const std::vector<std::string_view>& records() const { return records_; }
  size_t bad_records() const { return bad_records_; }

  /// Parses all records as points (shape must be kPoint).
  std::vector<Point> Points();

  /// Envelopes of all records, paired with their indices in records().
  std::vector<index::RTree::Entry> Envelopes();

  /// Parses all records as polygons (shape must be kPolygon).
  std::vector<Polygon> Polygons();

  /// Adds the envelope column's parse-failure count to bad_records(),
  /// exactly like one Envelopes() call does — the local-index cache-hit
  /// path uses this to keep bad-record accounting identical without
  /// materializing the entry vector.
  void CountEnvelopeBad();

  // ------------------------------------------------------------------
  // Parse-once column access. Unlike the vector accessors above, these
  // do not re-count malformed records into bad_records() — they are pure
  // lookups into the memoized columns (nullptr = record i is malformed).

  /// Envelope of record i, or nullptr when it failed to parse.
  const Envelope* EnvelopeAt(size_t i);

  /// Point geometry of record i (shape must be kPoint).
  const Point* PointAt(size_t i);

  /// Polygon geometry of record i (shape must be kPolygon).
  const Polygon* PolygonAt(size_t i);

  // Memoized geometry columns (SoA): value + validity per record, plus
  // the parse-failure count each legacy accessor call adds to
  // bad_records(). Immutable once built, so they are shareable across
  // tasks through the ArtifactCache.
  struct PointColumn {
    std::vector<Point> values;
    std::vector<char> valid;
    size_t bad = 0;
  };
  struct EnvelopeColumn {
    std::vector<Envelope> values;
    std::vector<char> valid;
    size_t bad = 0;
  };
  struct PolygonColumn {
    std::vector<Polygon> values;
    std::vector<char> valid;
    size_t bad = 0;
  };

  /// The memoized envelope column (built on first use); exposed so batch
  /// kernels can run over the SoA lanes directly.
  const EnvelopeColumn& envelope_column() {
    EnsureEnvelopeColumn();
    return *envelope_column_;
  }

 private:
  void AddRecord(std::string_view stable_record);
  void ConsumeHeader(std::string_view record);
  void InvalidateColumns();
  void EnsurePointColumn();
  void EnsureEnvelopeColumn();
  void EnsurePolygonColumn();
  void CheckInvariants() const;

  /// Cache key for this block's artifact of the given kind, or "" when
  /// sharing is unavailable. Keys carry the shape because the envelope
  /// column's derivation depends on it.
  std::string CacheKey(const char* kind) const;

  index::ShapeType shape_;
  hdfs::BlockArena arena_;  // Owns bytes behind Add()-ed records.
  std::vector<std::string_view> records_;
  // From the #lidx header; shared so a cached decode is adopted, not
  // copied. Null until a header is decoded.
  std::shared_ptr<const std::vector<Envelope>> preparsed_envelopes_;
  size_t bad_records_ = 0;

  mapreduce::ArtifactCache* cache_ = nullptr;
  uint64_t cache_block_id_ = 0;

  // Null = not built yet.
  std::shared_ptr<const PointColumn> point_column_;
  std::shared_ptr<const EnvelopeColumn> envelope_column_;
  std::shared_ptr<const PolygonColumn> polygon_column_;
};

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_SPATIAL_RECORD_READER_H_
