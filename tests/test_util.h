#ifndef SHADOOP_TESTS_TEST_UTIL_H_
#define SHADOOP_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "hdfs/file_system.h"
#include "index/index_builder.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/thread_pool.h"
#include "workload/generators.h"

namespace shadoop::testing {

/// A small simulated cluster sized so that modest datasets span many
/// blocks (and hence many partitions).
struct TestCluster {
  explicit TestCluster(size_t block_size = 4 * 1024, int num_slots = 4)
      : fs(MakeConfig(block_size)), runner(&fs, MakeCluster(num_slots)) {}

  static hdfs::HdfsConfig MakeConfig(size_t block_size) {
    hdfs::HdfsConfig config;
    config.block_size = block_size;
    config.num_datanodes = 8;
    config.replication = 3;
    return config;
  }

  static mapreduce::ClusterConfig MakeCluster(int num_slots) {
    mapreduce::ClusterConfig config;
    config.num_slots = num_slots;
    return config;
  }

  hdfs::FileSystem fs;
  mapreduce::JobRunner runner;
};

/// Writes a point dataset and returns the generated points.
inline std::vector<Point> WritePoints(
    hdfs::FileSystem* fs, const std::string& path, size_t count,
    workload::Distribution dist = workload::Distribution::kUniform,
    uint64_t seed = 42) {
  workload::PointGenOptions options;
  options.distribution = dist;
  options.count = count;
  options.seed = seed;
  std::vector<Point> points = workload::GeneratePoints(options);
  SHADOOP_CHECK_OK(fs->WriteLines(path, workload::PointsToRecords(points)));
  return points;
}

/// Builds an index over an existing file.
inline index::SpatialFileInfo BuildIndex(
    mapreduce::JobRunner* runner, const std::string& src,
    const std::string& dst, index::PartitionScheme scheme,
    index::ShapeType shape = index::ShapeType::kPoint) {
  index::IndexBuilder builder(runner);
  index::IndexBuildOptions options;
  options.scheme = scheme;
  options.shape = shape;
  return builder.Build(src, dst, options).ValueOrDie();
}

/// Runs `fn` as a task of the shared thread pool. The pool runs nested
/// ParallelFor calls serially there, so everything `fn` does runs on one
/// thread.
inline void RunAsPoolTask(const std::function<void()>& fn) {
  mapreduce::ThreadPool::Shared().ParallelFor(2, 2, [&fn](size_t i) {
    if (i == 0) fn();
  });
}

/// Every JobCost field, so EXPECT_EQ compares two costs bit for bit.
inline auto CostFields(const mapreduce::JobCost& c) {
  return std::make_tuple(c.total_ms, c.map_makespan_ms, c.shuffle_ms,
                         c.reduce_makespan_ms, c.bytes_read, c.bytes_shuffled,
                         c.bytes_written, c.num_map_tasks, c.num_reduce_tasks,
                         c.task_retries, c.speculative_launched,
                         c.speculative_won, c.replica_failovers,
                         c.admission_queued, c.admission_wait_ms,
                         c.admission_preempted_specs);
}

/// The raw payload of every block of `path`, in block order.
inline std::vector<std::string> BlockPayloads(const hdfs::FileSystem& fs,
                                              const std::string& path) {
  std::vector<std::string> payloads;
  const size_t num_blocks = fs.GetFileMeta(path).ValueOrDie().blocks.size();
  for (size_t i = 0; i < num_blocks; ++i) {
    payloads.push_back(*fs.ReadBlockRaw(path, i).ValueOrDie());
  }
  return payloads;
}

/// All spatial partitioning schemes, for parameterized suites.
inline std::vector<index::PartitionScheme> AllSchemes() {
  return {index::PartitionScheme::kGrid,     index::PartitionScheme::kStr,
          index::PartitionScheme::kStrPlus,  index::PartitionScheme::kQuadTree,
          index::PartitionScheme::kKdTree,   index::PartitionScheme::kZCurve,
          index::PartitionScheme::kHilbert};
}

inline std::vector<index::PartitionScheme> DisjointSchemes() {
  return {index::PartitionScheme::kGrid, index::PartitionScheme::kStrPlus,
          index::PartitionScheme::kQuadTree, index::PartitionScheme::kKdTree};
}

}  // namespace shadoop::testing

#endif  // SHADOOP_TESTS_TEST_UTIL_H_
