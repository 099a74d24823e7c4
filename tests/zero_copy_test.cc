#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/range_query.h"
#include "core/spatial_record_reader.h"
#include "geometry/wkt.h"
#include "hdfs/block_arena.h"
#include "index/packed_rtree.h"
#include "index/record_shape.h"
#include "mapreduce/thread_pool.h"
#include "test_util.h"

namespace shadoop {
namespace {

using core::SpatialRecordReader;
using hdfs::BlockArena;
using index::ShapeType;

// ---------------------------------------------------------------------
// BlockArena lifetime guarantees. These tests are part of the ASan suite
// (scripts/check.sh): a violated lifetime contract shows up as a
// use-after-free under the sanitizer, not just a value mismatch.

TEST(BlockArenaTest, InternedViewsStayValidAcrossChunkGrowth) {
  BlockArena arena;
  std::vector<std::string> originals;
  std::vector<std::string_view> views;
  // Far more than one 16 KiB chunk, with sizes straddling the chunk
  // boundary, so growth allocates many new chunks while old views are
  // still held.
  for (int i = 0; i < 4000; ++i) {
    originals.push_back("record-" + std::to_string(i) + "-" +
                        std::string(static_cast<size_t>(i % 97), 'x'));
    views.push_back(arena.Intern(originals.back()));
  }
  // An interned view larger than the minimum chunk gets its own chunk.
  const std::string huge(64 * 1024, 'h');
  const std::string_view huge_view = arena.Intern(huge);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_EQ(huge_view, huge);
  EXPECT_GT(arena.interned_bytes(), size_t{64} * 1024);
}

TEST(BlockArenaTest, AddBlockPinsPayloadBeyondCallerRelease) {
  BlockArena arena;
  std::vector<std::string_view> records;
  {
    auto payload = std::make_shared<const std::string>("1,2\n3,4\nuntermina"
                                                       "ted");
    records = arena.AddBlock(payload);
    // The caller's reference dies here; the arena's pin must keep the
    // bytes alive.
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "1,2");
  EXPECT_EQ(records[1], "3,4");
  EXPECT_EQ(records[2], "unterminated");
  EXPECT_EQ(arena.pinned_blocks(), 1u);
}

TEST(BlockArenaTest, OpResultsOutliveArenaEviction) {
  // Views produced from arena bytes are materialized into owned strings
  // by every operation before they escape; this mirrors that flow and
  // lets ASan prove the owned results don't alias evicted chunks.
  std::vector<std::string> results;
  {
    BlockArena arena;
    for (int i = 0; i < 1000; ++i) {
      std::string_view v = arena.Intern("row-" + std::to_string(i));
      if (i % 3 == 0) results.emplace_back(v);
    }
    arena.Clear();  // Evicts every chunk; `results` must not notice.
    EXPECT_TRUE(arena.empty());
  }
  ASSERT_EQ(results.size(), 334u);
  EXPECT_EQ(results.front(), "row-0");
  EXPECT_EQ(results.back(), "row-999");
}

// ---------------------------------------------------------------------
// SpatialRecordReader: parse-once columns and reuse after Clear().

TEST(SpatialRecordReaderTest, GeometryIsParsedOncePerRecord) {
  SpatialRecordReader reader(ShapeType::kPoint);
  for (int i = 0; i < 100; ++i) {
    reader.Add(PointToCsv(Point(i, -i)));
  }
  index::ResetGeometryParseCount();
  const auto first = reader.Envelopes();
  EXPECT_EQ(index::GeometryParseCount(), 100u);
  // Every later access — repeat accessors, point lookups, the R-tree
  // bulk load — reads the memoized columns.
  const auto second = reader.Envelopes();
  reader.Points();
  index::PackedRTree(reader.Envelopes());
  for (size_t i = 0; i < reader.NumRecords(); ++i) {
    ASSERT_NE(reader.EnvelopeAt(i), nullptr);
    ASSERT_NE(reader.PointAt(i), nullptr);
  }
  EXPECT_EQ(index::GeometryParseCount(), 100u);
  ASSERT_EQ(first.size(), second.size());
}

TEST(SpatialRecordReaderTest, LocalIndexHeaderFeedsEnvelopesWithoutParsing) {
  std::vector<Envelope> envelopes = {Envelope(0, 0, 0, 0),
                                     Envelope(5, 5, 5, 5)};
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.Add(index::EncodeLocalIndexHeader(envelopes));
  reader.Add("0,0");
  reader.Add("5,5");
  ASSERT_TRUE(reader.has_local_index());
  index::ResetGeometryParseCount();
  const auto entries = reader.Envelopes();
  EXPECT_EQ(index::GeometryParseCount(), 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].box, envelopes[1]);
}

TEST(SpatialRecordReaderTest, ClearDropsPreparsedEnvelopesAndColumns) {
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.Add(index::EncodeLocalIndexHeader(
      {Envelope(1, 1, 1, 1), Envelope(2, 2, 2, 2)}));
  reader.Add("1,1");
  reader.Add("2,2");
  ASSERT_TRUE(reader.has_local_index());
  ASSERT_EQ(reader.Envelopes().size(), 2u);

  reader.Clear();
  EXPECT_EQ(reader.NumRecords(), 0u);
  EXPECT_FALSE(reader.has_local_index());
  EXPECT_EQ(reader.bad_records(), 0u);

  // Reuse with a different record count and NO header: were the two
  // stale preparsed envelopes still around, they would either be served
  // for the wrong records or trip has_local_index() at size 2.
  reader.Add("10,10");
  reader.Add("not-a-point");
  reader.Add("30,30");
  EXPECT_FALSE(reader.has_local_index());
  const auto entries = reader.Envelopes();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].box, Envelope::FromPoint(Point(10, 10)));
  EXPECT_EQ(entries[1].box, Envelope::FromPoint(Point(30, 30)));
  EXPECT_EQ(entries[1].payload, 2u);
  EXPECT_EQ(reader.bad_records(), 1u);
  EXPECT_EQ(reader.EnvelopeAt(1), nullptr);
}

TEST(SpatialRecordReaderTest, ClearAlsoReleasesInternedBytes) {
  SpatialRecordReader reader(ShapeType::kPoint);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      // Add() interns (the temporary dies immediately); records() views
      // must point at arena-owned bytes.
      reader.Add(PointToCsv(Point(round, i)));
    }
    ASSERT_EQ(reader.NumRecords(), 500u);
    EXPECT_EQ(reader.records().front(), PointToCsv(Point(round, 0)));
    EXPECT_EQ(reader.Points().size(), 500u);
    reader.Clear();
  }
  EXPECT_EQ(reader.NumRecords(), 0u);
}

TEST(SpatialRecordReaderTest, BorrowedViewsStableWhileArenaGrows) {
  // Mixing borrowed and interned records: growing the intern arena must
  // never move previously added records of either kind.
  const std::string stable_a = "1,2";
  const std::string stable_b = "3,4";
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.AddBorrowed(stable_a);
  for (int i = 0; i < 2000; ++i) {
    reader.Add(PointToCsv(Point(i, i)));
  }
  reader.AddBorrowed(stable_b);
  EXPECT_EQ(reader.records().front(), "1,2");
  EXPECT_EQ(reader.records().back(), "3,4");
  EXPECT_EQ(reader.records().front().data(), stable_a.data());
  EXPECT_EQ(reader.Points().size(), 2002u);
}

// ---------------------------------------------------------------------
// End-to-end: a job over a local-indexed file parses nothing, and the
// parse count never exceeds one per record processed.

TEST(ZeroCopyJobTest, IndexedRangeQueryParsesNothingWithPersistedLidx) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 3000);
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = index::PartitionScheme::kStr;
  options.build_local_indexes = true;
  const auto file = builder.Build("/pts", "/pts.idx", options).ValueOrDie();

  const Envelope query(2e5, 2e5, 7e5, 7e5);
  index::ResetGeometryParseCount();
  const auto rows =
      core::RangeQuerySpatial(&cluster.runner, file, query).ValueOrDie();
  // Every envelope comes from the persisted #lidx headers.
  EXPECT_EQ(index::GeometryParseCount(), 0u);

  size_t expected = 0;
  for (const Point& p : points) expected += query.Contains(p);
  EXPECT_EQ(rows.size(), expected);
}

TEST(ZeroCopyJobTest, UnindexedScanParsesEachRecordAtMostOnce) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  index::ResetGeometryParseCount();
  const Envelope query(0, 0, 5e5, 5e5);
  const auto rows = core::RangeQueryHadoop(&cluster.runner, "/pts",
                                           ShapeType::kPoint, query)
                        .ValueOrDie();
  EXPECT_FALSE(rows.empty());
  EXPECT_LE(index::GeometryParseCount(), 2000u);
}

// ---------------------------------------------------------------------
// ThreadPool.

TEST(ThreadPoolTest, CoversEveryIndexAndToleratesNesting) {
  mapreduce::ThreadPool& pool = mapreduce::ThreadPool::Shared();
  std::vector<std::atomic<int>> hits(512);
  pool.ParallelFor(hits.size(), 8, [&](size_t i) {
    // Nested calls degrade to serial execution; they must still cover
    // every index without deadlocking.
    if (i == 0) {
      pool.ParallelFor(4, 4, [&](size_t j) { hits[j].fetch_add(0); });
    }
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SerialAndParallelProduceSameAggregate) {
  mapreduce::ThreadPool& pool = mapreduce::ThreadPool::Shared();
  auto run = [&](int parallelism) {
    std::vector<uint64_t> out(1000);
    pool.ParallelFor(out.size(), parallelism,
                     [&](size_t i) { out[i] = i * i; });
    uint64_t sum = 0;
    for (uint64_t v : out) sum += v;
    return sum;
  };
  const uint64_t serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(64), serial);
}

}  // namespace
}  // namespace shadoop
