#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/local_join.h"
#include "core/spatial_join.h"
#include "geometry/wkt.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;

std::vector<Envelope> MakeRects(size_t count, uint64_t seed,
                                double max_side_fraction) {
  workload::RectGenOptions options;
  options.centers.count = count;
  options.centers.seed = seed;
  options.max_side_fraction = max_side_fraction;
  return workload::GenerateRectangles(options);
}

std::multiset<std::string> BruteForceJoin(const std::vector<Envelope>& a,
                                          const std::vector<Envelope>& b) {
  std::multiset<std::string> expected;
  for (const Envelope& ra : a) {
    for (const Envelope& rb : b) {
      if (ra.Intersects(rb)) {
        expected.insert(EnvelopeToCsv(ra) + std::string(1, kJoinSeparator) +
                        EnvelopeToCsv(rb));
      }
    }
  }
  return expected;
}

TEST(SpatialJoinTest, SjmrMatchesBruteForce) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(500, 5, 0.03);
  const std::vector<Envelope> b = MakeRects(400, 6, 0.03);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  auto result = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                         "/b", index::ShapeType::kRectangle)
                    .ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
            BruteForceJoin(a, b));
}

struct JoinCase {
  PartitionScheme scheme_a;
  PartitionScheme scheme_b;
};

class DistributedJoinSchemeTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(DistributedJoinSchemeTest, MatchesBruteForce) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(500, 15, 0.04);
  const std::vector<Envelope> b = MakeRects(350, 16, 0.04);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  const index::SpatialFileInfo file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          GetParam().scheme_a, index::ShapeType::kRectangle);
  const index::SpatialFileInfo file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          GetParam().scheme_b, index::ShapeType::kRectangle);
  auto result =
      DistributedJoin(&cluster.runner, file_a, file_b).ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
            BruteForceJoin(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    SchemeMatrix, DistributedJoinSchemeTest,
    ::testing::Values(JoinCase{PartitionScheme::kGrid, PartitionScheme::kGrid},
                      JoinCase{PartitionScheme::kStr, PartitionScheme::kStr},
                      JoinCase{PartitionScheme::kQuadTree,
                               PartitionScheme::kQuadTree},
                      JoinCase{PartitionScheme::kStrPlus,
                               PartitionScheme::kStr},
                      JoinCase{PartitionScheme::kKdTree,
                               PartitionScheme::kZCurve},
                      JoinCase{PartitionScheme::kHilbert,
                               PartitionScheme::kGrid}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      std::string name = index::PartitionSchemeName(info.param.scheme_a);
      name += "_";
      name += index::PartitionSchemeName(info.param.scheme_b);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

TEST(SpatialJoinTest, DjShufflesNothingAndBeatsSjmr) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(1500, 25, 0.02);
  const std::vector<Envelope> b = MakeRects(1200, 26, 0.02);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  const index::SpatialFileInfo file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          PartitionScheme::kStr, index::ShapeType::kRectangle);
  const index::SpatialFileInfo file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          PartitionScheme::kStr, index::ShapeType::kRectangle);

  OpStats sjmr_stats;
  OpStats dj_stats;
  auto sjmr = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                       "/b", index::ShapeType::kRectangle, &sjmr_stats)
                  .ValueOrDie();
  auto dj =
      DistributedJoin(&cluster.runner, file_a, file_b, &dj_stats).ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(sjmr.begin(), sjmr.end()),
            std::multiset<std::string>(dj.begin(), dj.end()));
  EXPECT_EQ(dj_stats.cost.bytes_shuffled, 0u) << "DJ is map-only";
  EXPECT_GT(sjmr_stats.cost.bytes_shuffled, 0u);
  EXPECT_LT(dj_stats.cost.total_ms, sjmr_stats.cost.total_ms);
}

TEST(SpatialJoinTest, PolygonJoinRefinesWithExactTest) {
  testing::TestCluster cluster;
  // Two polygons whose MBRs overlap but shapes do not: thin diagonal
  // triangles in opposite corners of the same box.
  const Polygon t1({{0, 0}, {10, 0}, {0, 1}});
  const Polygon t2({{10, 10}, {0, 10}, {10, 9}});
  // And two that really do intersect.
  const Polygon t3({{20, 0}, {30, 0}, {25, 10}});
  const Polygon t4({{20, 5}, {30, 5}, {25, -5}});
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/pa", {ToWkt(t1), ToWkt(t3)})
                  .ok());
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/pb", {ToWkt(t2), ToWkt(t4)})
                  .ok());
  auto result = SjmrJoin(&cluster.runner, "/pa", index::ShapeType::kPolygon,
                         "/pb", index::ShapeType::kPolygon)
                    .ValueOrDie();
  ASSERT_EQ(result.size(), 1u);
  auto pair = SplitJoinOutput(result.front()).ValueOrDie();
  EXPECT_EQ(pair.first, ToWkt(t3));
  EXPECT_EQ(pair.second, ToWkt(t4));
}

TEST(LocalJoinTest, ProbeMatchesNestedLoop) {
  Random rng(44);
  std::vector<index::RTree::Entry> a;
  std::vector<index::RTree::Entry> b;
  for (uint32_t i = 0; i < 400; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    a.push_back({Envelope(x, y, x + rng.NextDouble(0, 3),
                          y + rng.NextDouble(0, 3)),
                 i});
  }
  for (uint32_t i = 0; i < 300; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    b.push_back({Envelope(x, y, x + rng.NextDouble(0, 3),
                          y + rng.NextDouble(0, 3)),
                 i});
  }
  std::multiset<std::pair<uint32_t, uint32_t>> probe_pairs;
  LocalJoinPairs(a, b, [&](uint32_t pa, uint32_t pb) {
    probe_pairs.insert({pa, pb});
  });
  std::multiset<std::pair<uint32_t, uint32_t>> expected;
  for (const index::RTree::Entry& ea : a) {
    for (const index::RTree::Entry& eb : b) {
      if (ea.box.Intersects(eb.box)) expected.insert({ea.payload, eb.payload});
    }
  }
  EXPECT_EQ(probe_pairs, expected);
  EXPECT_FALSE(probe_pairs.empty());
}

TEST(LocalJoinTest, EmptySidesYieldNothing) {
  std::vector<index::RTree::Entry> some = {{Envelope(0, 0, 1, 1), 0}};
  int emitted = 0;
  LocalJoinPairs({}, some, [&](uint32_t, uint32_t) { ++emitted; });
  LocalJoinPairs(some, {}, [&](uint32_t, uint32_t) { ++emitted; });
  EXPECT_EQ(emitted, 0);
}

/// `rects` as records with a malformed line before every third one, so
/// a parseable record's position in the file differs from its position
/// among the parseable records.
std::vector<std::string> WithMalformedLines(
    const std::vector<Envelope>& rects) {
  std::vector<std::string> lines;
  const std::vector<std::string> records =
      workload::RectanglesToRecords(rects);
  for (size_t i = 0; i < records.size(); ++i) {
    if (i % 3 == 0) lines.push_back(i % 2 == 0 ? "oops" : "1,not-a-y");
    lines.push_back(records[i]);
  }
  return lines;
}

TEST(SpatialJoinTest, SjmrSkipsAndCountsMalformedLines) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(400, 47, 0.04);
  const std::vector<Envelope> b = MakeRects(300, 48, 0.04);
  ASSERT_TRUE(cluster.fs.WriteLines("/a", WithMalformedLines(a)).ok());
  ASSERT_TRUE(cluster.fs.WriteLines("/b", WithMalformedLines(b)).ok());
  OpStats stats;
  auto result = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                         "/b", index::ShapeType::kRectangle, &stats)
                    .ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
            BruteForceJoin(a, b));
  // One malformed line per three records on each side (134 + 100).
  EXPECT_EQ(stats.counters.Get("sjmr.bad_records"), 234);
}

TEST(SpatialJoinTest, DjJoinsPartitionsWithMalformedLines) {
  // One partition per side, so rewriting each data file as a single
  // block keeps every global-index entry valid. The map tasks then see
  // the malformed lines, and the join's entries skip them.
  testing::TestCluster cluster(/*block_size=*/64 * 1024);
  const std::vector<Envelope> a = MakeRects(60, 49, 0.2);
  const std::vector<Envelope> b = MakeRects(50, 50, 0.2);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  index::SpatialFileInfo file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          PartitionScheme::kGrid, index::ShapeType::kRectangle);
  index::SpatialFileInfo file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          PartitionScheme::kGrid, index::ShapeType::kRectangle);
  ASSERT_EQ(file_a.global_index.partitions().size(), 1u);
  ASSERT_EQ(file_b.global_index.partitions().size(), 1u);
  ASSERT_TRUE(cluster.fs.WriteLines("/a.bad", WithMalformedLines(a)).ok());
  ASSERT_TRUE(cluster.fs.WriteLines("/b.bad", WithMalformedLines(b)).ok());
  file_a.data_path = "/a.bad";
  file_b.data_path = "/b.bad";
  for (bool build_right : {false, true}) {
    DjOptions options;
    options.build_right = build_right;
    auto result = DistributedJoin(&cluster.runner, file_a, file_b, nullptr,
                                  options)
                      .ValueOrDie();
    EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
              BruteForceJoin(a, b))
        << "build_right=" << build_right;
  }
}

TEST(SpatialJoinTest, JoinOutputCodecRoundTrips) {
  const std::string left = "1,2,3,4";
  const std::string right = "5,6,7,8";
  auto pair =
      SplitJoinOutput(left + std::string(1, kJoinSeparator) + right)
          .ValueOrDie();
  EXPECT_EQ(pair.first, left);
  EXPECT_EQ(pair.second, right);
  EXPECT_FALSE(SplitJoinOutput("no-separator").ok());
}

}  // namespace
}  // namespace shadoop::core
