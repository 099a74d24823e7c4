#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "catalog/dataset_catalog.h"
#include "geometry/wkt.h"
#include "index/index_builder.h"
#include "test_util.h"

namespace shadoop::index {
namespace {

class IndexBuilderSchemeTest
    : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(IndexBuilderSchemeTest, BuildsLoadableIndexPreservingAllRecords) {
  testing::TestCluster cluster;
  const std::vector<Point> points = testing::WritePoints(
      &cluster.fs, "/points", 3000, workload::Distribution::kClustered);

  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", GetParam());

  // The master file loads back to the same global index.
  const SpatialFileInfo loaded =
      LoadSpatialFile(cluster.fs, "/points.idx").ValueOrDie();
  EXPECT_EQ(loaded.global_index.scheme(), GetParam());
  EXPECT_EQ(loaded.shape, ShapeType::kPoint);
  ASSERT_EQ(loaded.global_index.NumPartitions(),
            built.global_index.NumPartitions());

  // Every input point appears in the data file exactly once (points are
  // never replicated) and in the partition covering it.
  std::multiset<std::string> input;
  for (const Point& p : points) input.insert(PointToCsv(p));
  std::multiset<std::string> stored;
  hdfs::FileMeta meta =
      cluster.fs.GetFileMeta("/points.idx").ValueOrDie();
  ASSERT_EQ(meta.blocks.size(), built.global_index.NumPartitions());
  for (const Partition& part : built.global_index.partitions()) {
    const std::vector<std::string> records =
        cluster.fs.ReadBlock("/points.idx", part.block_index).ValueOrDie();
    EXPECT_EQ(records.size(), part.num_records);
    for (const std::string& record : records) {
      stored.insert(record);
      const Point p = RecordPoint(record).ValueOrDie();
      EXPECT_TRUE(part.mbr.Contains(p));
      if (IsDisjointScheme(GetParam())) {
        EXPECT_TRUE(part.cell.Contains(p))
            << "cell " << part.cell.ToString() << " point " << p.x << ","
            << p.y;
      }
    }
  }
  EXPECT_EQ(input, stored);
}

TEST_P(IndexBuilderSchemeTest, PartitionMbrsAreTight) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 1500);
  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", GetParam());
  for (const Partition& part : built.global_index.partitions()) {
    Envelope recomputed;
    for (const std::string& record :
         cluster.fs.ReadBlock("/points.idx", part.block_index).ValueOrDie()) {
      recomputed.ExpandToInclude(RecordPoint(record).ValueOrDie());
    }
    EXPECT_EQ(recomputed, part.mbr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, IndexBuilderSchemeTest,
    ::testing::ValuesIn(testing::AllSchemes()),
    [](const ::testing::TestParamInfo<PartitionScheme>& info) {
      std::string name = PartitionSchemeName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

TEST(IndexBuilderTest, RectanglesAreReplicatedAcrossDisjointCells) {
  testing::TestCluster cluster;
  workload::RectGenOptions options;
  options.centers.count = 800;
  options.centers.seed = 7;
  options.max_side_fraction = 0.08;  // Large rects to force replication.
  const std::vector<Envelope> rects = workload::GenerateRectangles(options);
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/rects", workload::RectanglesToRecords(rects))
                  .ok());
  const SpatialFileInfo built =
      testing::BuildIndex(&cluster.runner, "/rects", "/rects.idx",
                          PartitionScheme::kGrid, ShapeType::kRectangle);
  size_t stored = 0;
  for (const Partition& part : built.global_index.partitions()) {
    stored += part.num_records;
  }
  EXPECT_GT(stored, rects.size());  // Replication happened.

  // Every stored copy intersects its partition cell.
  for (const Partition& part : built.global_index.partitions()) {
    for (const std::string& record :
         cluster.fs.ReadBlock("/rects.idx", part.block_index).ValueOrDie()) {
      const Envelope env = RecordRectangle(record).ValueOrDie();
      EXPECT_TRUE(env.Intersects(part.cell));
    }
  }
}

TEST(IndexBuilderTest, FailsOnMissingSource) {
  testing::TestCluster cluster;
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  EXPECT_TRUE(builder.Build("/missing", "/idx", options).status().IsNotFound());
}

TEST(IndexBuilderTest, FailsOnExistingDestination) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 100);
  ASSERT_TRUE(cluster.fs.WriteLines("/idx", {"x"}).ok());
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  EXPECT_TRUE(
      builder.Build("/points", "/idx", options).status().IsAlreadyExists());
}

TEST(IndexBuilderTest, BuildCostIncludesBothJobs) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 2000);
  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", PartitionScheme::kStr);
  // Analysis + partition jobs, each paying a job startup.
  EXPECT_GE(built.build_cost.total_ms,
            2 * cluster.runner.cluster().job_startup_ms);
  EXPECT_GT(built.build_cost.bytes_read, 0u);
  EXPECT_GT(built.build_cost.bytes_shuffled, 0u);
}

TEST(IndexBuilderTest, TargetPartitionsHonoured) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 2000);
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kKdTree;
  options.target_partitions = 8;
  const SpatialFileInfo built =
      builder.Build("/points", "/points.idx", options).ValueOrDie();
  EXPECT_EQ(built.global_index.NumPartitions(), 8u);
}

// The block layout and the shuffle run on up to num_slots host threads.
// Data blocks and master lines must not depend on the slot count, and at
// each slot count a build must equal one nested in a pool task, where
// every ParallelFor runs serially. (The simulated charges legitimately
// depend on num_slots: the makespan model schedules tasks on that many
// machines, and the partition job uses up to that many reducers.)
constexpr int kSlotCounts[] = {1, 2, 24};

struct LayoutSnapshot {
  std::vector<std::string> blocks;
  std::vector<std::string> master;
  mapreduce::JobCost cost;
};

LayoutSnapshot BuildWithLocalIndexes(int num_slots, bool in_pool_task) {
  testing::TestCluster cluster(4 * 1024, num_slots);
  testing::WritePoints(&cluster.fs, "/points", 3000,
                       workload::Distribution::kClustered);
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  options.build_local_indexes = true;
  Result<SpatialFileInfo> built = Status::Internal("not run");
  const auto build = [&] { built = builder.Build("/points", "/idx", options); };
  if (in_pool_task) {
    testing::RunAsPoolTask(build);
  } else {
    build();
  }
  SHADOOP_CHECK_OK(built.status());
  return {testing::BlockPayloads(cluster.fs, "/idx"),
          cluster.fs.ReadLines("/idx_master").ValueOrDie(),
          built->build_cost};
}

TEST(IndexBuilderTest, LocalIndexBuildIsIdenticalAcrossLaneCounts) {
  const LayoutSnapshot reference = BuildWithLocalIndexes(1, false);
  ASSERT_GT(reference.blocks.size(), 8u);
  ASSERT_EQ(reference.blocks[0].rfind("#lidx ", 0), 0u);
  for (int slots : kSlotCounts) {
    const LayoutSnapshot parallel = BuildWithLocalIndexes(slots, false);
    const LayoutSnapshot serial = BuildWithLocalIndexes(slots, true);
    EXPECT_EQ(parallel.blocks, reference.blocks) << slots << " slots";
    EXPECT_EQ(serial.blocks, reference.blocks) << slots << " slots";
    EXPECT_EQ(parallel.master, reference.master) << slots << " slots";
    EXPECT_EQ(serial.master, reference.master) << slots << " slots";
    EXPECT_EQ(testing::CostFields(parallel.cost),
              testing::CostFields(serial.cost))
        << slots << " slots";
  }
}

LayoutSnapshot AppendWithLocalIndexes(int num_slots, bool in_pool_task) {
  testing::TestCluster cluster(4 * 1024, num_slots);
  testing::WritePoints(&cluster.fs, "/points", 3000,
                       workload::Distribution::kClustered);
  testing::WritePoints(&cluster.fs, "/batch", 800,
                       workload::Distribution::kUniform, 7);
  catalog::DatasetCatalog catalog(&cluster.runner);
  IndexBuildOptions options;
  options.build_local_indexes = true;
  SHADOOP_CHECK_OK(
      catalog.Create("pts", "/points", "/idx", options).status());
  core::OpStats stats;
  Result<uint64_t> version = Status::Internal("not run");
  const auto append = [&] { version = catalog.Append("pts", "/batch", &stats); };
  if (in_pool_task) {
    testing::RunAsPoolTask(append);
  } else {
    append();
  }
  SHADOOP_CHECK_OK(version.status());
  return {testing::BlockPayloads(
              cluster.fs, catalog::DatasetCatalog::DeltaPathFor("/idx")),
          cluster.fs
              .ReadLines(catalog::DatasetCatalog::VersionMasterPathFor(
                  "/idx", version.value()))
              .ValueOrDie(),
          stats.cost};
}

TEST(IndexBuilderTest, LocalIndexAppendIsIdenticalAcrossLaneCounts) {
  const LayoutSnapshot reference = AppendWithLocalIndexes(1, false);
  ASSERT_GT(reference.blocks.size(), 4u);
  ASSERT_EQ(reference.blocks[0].rfind("#lidx ", 0), 0u);
  for (int slots : kSlotCounts) {
    const LayoutSnapshot parallel = AppendWithLocalIndexes(slots, false);
    const LayoutSnapshot serial = AppendWithLocalIndexes(slots, true);
    EXPECT_EQ(parallel.blocks, reference.blocks) << slots << " slots";
    EXPECT_EQ(serial.blocks, reference.blocks) << slots << " slots";
    EXPECT_EQ(parallel.master, reference.master) << slots << " slots";
    EXPECT_EQ(serial.master, reference.master) << slots << " slots";
    EXPECT_EQ(testing::CostFields(parallel.cost),
              testing::CostFields(serial.cost))
        << slots << " slots";
  }
}

}  // namespace
}  // namespace shadoop::index
