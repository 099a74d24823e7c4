#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "index/packed_rtree.h"

namespace shadoop::index {
namespace {

std::vector<RTree::Entry> RandomEntries(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    const double w = rng.NextDouble(0, 2);
    const double h = rng.NextDouble(0, 2);
    entries.push_back({Envelope(x, y, x + w, y + h),
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

std::set<uint32_t> BruteForceSearch(const std::vector<RTree::Entry>& entries,
                                    const Envelope& query) {
  std::set<uint32_t> hits;
  for (const RTree::Entry& e : entries) {
    if (e.box.Intersects(query)) hits.insert(e.payload);
  }
  return hits;
}

TEST(RTreeTest, EmptyTree) {
  PackedRTree tree;
  EXPECT_TRUE(tree.IsEmpty());
  std::vector<uint32_t> out;
  EXPECT_EQ(tree.Search(Envelope(0, 0, 1, 1), &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.NearestNeighbors(Point(0, 0), 3).empty());
}

TEST(RTreeTest, SearchMatchesBruteForce) {
  const auto entries = RandomEntries(2000, 7);
  const PackedRTree tree(entries);
  EXPECT_EQ(tree.Bounds(), [&] {
    Envelope e;
    for (const auto& entry : entries) e.ExpandToInclude(entry.box);
    return e;
  }());
  Random rng(8);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.NextDouble(0, 90);
    const double y = rng.NextDouble(0, 90);
    const Envelope query(x, y, x + rng.NextDouble(0, 20),
                         y + rng.NextDouble(0, 20));
    std::vector<uint32_t> out;
    tree.Search(query, &out);
    EXPECT_EQ(std::set<uint32_t>(out.begin(), out.end()),
              BruteForceSearch(entries, query));
  }
}

TEST(RTreeTest, SearchVisitsFewNodesForSelectiveQueries) {
  const auto entries = RandomEntries(10000, 3);
  const PackedRTree tree(entries);
  std::vector<uint32_t> out;
  const size_t visited = tree.Search(Envelope(50, 50, 51, 51), &out);
  // A point-ish query must not traverse the whole tree (~10000/32 leaves).
  EXPECT_LT(visited, 60u);
}

TEST(RTreeTest, NearestNeighborsMatchBruteForce) {
  // Point entries: exact distances.
  Random rng(12);
  std::vector<RTree::Entry> entries;
  std::vector<Point> points;
  for (uint32_t i = 0; i < 500; ++i) {
    const Point p(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    points.push_back(p);
    entries.push_back({Envelope::FromPoint(p), i});
  }
  const PackedRTree tree(entries);
  const Point q(33, 66);
  const auto knn = tree.NearestNeighbors(q, 10);
  ASSERT_EQ(knn.size(), 10u);
  std::vector<std::pair<double, uint32_t>> expected;
  for (uint32_t i = 0; i < points.size(); ++i) {
    expected.push_back({Distance(points[i], q), i});
  }
  std::sort(expected.begin(), expected.end());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(Distance(points[knn[i]], q), expected[i].first);
  }
}

TEST(RTreeTest, KnnLargerThanTreeReturnsAll) {
  const auto entries = RandomEntries(20, 4);
  const PackedRTree tree(entries);
  EXPECT_EQ(tree.NearestNeighbors(Point(0, 0), 100).size(), 20u);
  EXPECT_TRUE(tree.NearestNeighbors(Point(0, 0), 0).empty());
}

TEST(RTreeTest, SingleEntryAndSmallCapacity) {
  PackedRTree tree({{Envelope(1, 1, 2, 2), 9}}, /*leaf_capacity=*/2);
  std::vector<uint32_t> out;
  tree.Search(Envelope(0, 0, 3, 3), &out);
  EXPECT_EQ(out, std::vector<uint32_t>{9});

  // Deep tree via tiny capacity.
  const auto entries = RandomEntries(300, 5);
  const PackedRTree deep(entries, 2);
  out.clear();
  deep.Search(Envelope(0, 0, 100, 102), &out);
  EXPECT_EQ(out.size(), 300u);

  // Best-first kNN through the deep tree, ranked by box distance.
  const Point q(40, 60);
  std::vector<double> expected;
  for (const RTree::Entry& e : entries) {
    expected.push_back(e.box.MinDistance(q));
  }
  std::sort(expected.begin(), expected.end());
  const std::vector<uint32_t> knn = deep.NearestNeighbors(q, 25);
  ASSERT_EQ(knn.size(), 25u);
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(entries[knn[i]].box.MinDistance(q), expected[i]) << i;
  }
}

}  // namespace
}  // namespace shadoop::index
