#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/thread_pool.h"
#include "test_util.h"

namespace shadoop::mapreduce {
namespace {

/// Classic word count: validates map -> shuffle -> reduce plumbing.
class WordCountMapper : public Mapper {
 public:
  void Map(std::string_view record, MapContext& ctx) override {
    for (std::string_view word : SplitWhitespace(record)) {
      ctx.Emit(std::string(word), "1");
    }
  }
};

class SumReducer : public Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              ReduceContext& ctx) override {
    ctx.Write(key + "=" + std::to_string(values.size()));
  }
};

JobConfig WordCountJob(hdfs::FileSystem& fs, const std::string& path,
                       int num_reducers) {
  JobConfig job;
  job.name = "wordcount";
  job.splits = MakeBlockSplits(fs, path).ValueOrDie();
  job.mapper = []() { return std::make_unique<WordCountMapper>(); };
  job.reducer = []() { return std::make_unique<SumReducer>(); };
  job.num_reducers = num_reducers;
  return job;
}

TEST(MapReduceTest, WordCount) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/text", {"a b a", "c b", "a"})
                  .ok());
  JobResult result = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 1));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.output, (std::vector<std::string>{"a=3", "b=2", "c=1"}));
}

TEST(MapReduceTest, MultipleReducersProduceSameGroups) {
  testing::TestCluster cluster;
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("w" + std::to_string(i % 17));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());
  JobResult r1 = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 1));
  JobResult r5 = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 5));
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r5.status.ok());
  std::vector<std::string> a = r1.output;
  std::vector<std::string> b = r5.output;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 17u);
}

TEST(MapReduceTest, CombinerReducesShuffleBytes) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(500, "x y x");
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());

  JobConfig plain = WordCountJob(cluster.fs, "/text", 1);
  JobResult without = cluster.runner.Run(plain);
  ASSERT_TRUE(without.status.ok());

  // A count-preserving combiner: re-emits one value per occurrence count.
  class CountCombiner : public Reducer {
   public:
    void Reduce(const std::string& key, const std::vector<std::string>& values,
                ReduceContext& ctx) override {
      (void)key;
      ctx.Write(std::to_string(values.size()));
    }
  };
  class WeightedSumReducer : public Reducer {
   public:
    void Reduce(const std::string& key, const std::vector<std::string>& values,
                ReduceContext& ctx) override {
      int64_t total = 0;
      for (const std::string& v : values) {
        total += ParseInt64(v).ValueOrDie();
      }
      ctx.Write(key + "=" + std::to_string(total));
    }
  };
  JobConfig combined = WordCountJob(cluster.fs, "/text", 1);
  combined.combiner = []() { return std::make_unique<CountCombiner>(); };
  combined.reducer = []() { return std::make_unique<WeightedSumReducer>(); };
  JobResult with = cluster.runner.Run(combined);
  ASSERT_TRUE(with.status.ok());

  EXPECT_EQ(with.output, (std::vector<std::string>{"x=1000", "y=500"}));
  EXPECT_LT(with.cost.bytes_shuffled, without.cost.bytes_shuffled / 10);
}

TEST(MapReduceTest, MapOnlyJobWritesDirectOutput) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"1", "2", "3"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      // One owned line moved in, one view into the block wrapped.
      std::string owned = "out:" + std::string(record);
      ctx.WriteOutput(std::move(owned));
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  job.output_path = "/out";
  JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.cost.num_reduce_tasks, 0);
  const std::vector<std::string> expected = {"out:1", "1", "out:2",
                                             "2",     "out:3", "3"};
  EXPECT_EQ(result.output, expected);
  EXPECT_EQ(cluster.fs.ReadLines("/out").ValueOrDie(), expected);
  // Every written line is charged size() + 1 bytes, moved or wrapped.
  EXPECT_EQ(result.cost.bytes_written, 3u * (5 + 1) + 3u * (1 + 1));
}

TEST(MapReduceTest, InjectedFaultIsRetried) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  job.fault_injector = [](int task, int attempt) {
    return task == 0 && attempt == 1;  // First attempt fails.
  };
  JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.output, std::vector<std::string>{"r"});
}

TEST(MapReduceTest, PersistentFaultFailsTheJob) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  job.fault_injector = [](int, int) { return true; };
  JobResult result = cluster.runner.Run(job);
  EXPECT_TRUE(result.status.IsIoError());
}

TEST(MapReduceTest, UserFailureSurfacesStatus) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"bad"}).ok());
  class FailMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.Fail(Status::ParseError("cannot parse " + std::string(record)));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<FailMapper>(); };
  JobResult result = cluster.runner.Run(job);
  EXPECT_TRUE(result.status.IsParseError());
}

TEST(MapReduceTest, CostModelChargesStartupAndScan) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(2000, "0123456789");
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  class NullMapper : public Mapper {
   public:
    void Map(std::string_view, MapContext&) override {}
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<NullMapper>(); };
  JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  const ClusterConfig& cfg = cluster.runner.cluster();
  EXPECT_GE(result.cost.total_ms, cfg.job_startup_ms);
  EXPECT_EQ(result.cost.bytes_read, 2000u * 11);
  EXPECT_GT(result.cost.map_makespan_ms, cfg.task_startup_ms);
}

TEST(MapReduceTest, SimulatedCostIsDeterministic) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(300, "a b c d");
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  JobResult r1 = cluster.runner.Run(WordCountJob(cluster.fs, "/in", 3));
  JobResult r2 = cluster.runner.Run(WordCountJob(cluster.fs, "/in", 3));
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_DOUBLE_EQ(r1.cost.total_ms, r2.cost.total_ms);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(MapReduceTest, MultiReducerJobIsIdenticalAcrossLaneCounts) {
  // The shuffle gathers and sorts each reducer's input on up to `lanes`
  // host threads. Output must not depend on the lane count, and at each
  // lane count the job must equal a run nested in a pool task, where
  // every ParallelFor runs serially. (The makespans legitimately depend
  // on the lane count: the cost model schedules on that many machines.)
  std::vector<std::string> lines;
  for (int i = 0; i < 3000; ++i) {
    lines.push_back("w" + std::to_string(i % 97) + " v" +
                    std::to_string(i % 13) + " w" + std::to_string(i % 31));
  }
  std::vector<std::string> reference;
  for (int lanes : {1, 2, 24}) {
    testing::TestCluster cluster(4 * 1024, lanes);
    ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
    const JobResult parallel =
        cluster.runner.Run(WordCountJob(cluster.fs, "/in", 7));
    JobResult serial;
    testing::RunAsPoolTask([&] {
      serial = cluster.runner.Run(WordCountJob(cluster.fs, "/in", 7));
    });
    ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
    ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
    ASSERT_GE(parallel.cost.num_map_tasks, 8);
    if (reference.empty()) reference = parallel.output;
    EXPECT_EQ(parallel.output, reference) << lanes << " lanes";
    EXPECT_EQ(serial.output, reference) << lanes << " lanes";
    EXPECT_EQ(testing::CostFields(parallel.cost),
              testing::CostFields(serial.cost))
        << lanes << " lanes";
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyInEveryLane) {
  // Every outer body, whichever lane runs it (the caller's included),
  // starts an inner ParallelFor. The inner calls must run serially on the
  // outer body's own thread, and both levels must cover every index.
  // Which lanes claim outer indices is up to the scheduler, so the batch
  // repeats until the caller's lane has run at least one.
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 16;
  ThreadPool pool(2);
  bool caller_ran_a_lane = false;
  for (int attempt = 0; attempt < 50 && !caller_ran_a_lane; ++attempt) {
    std::vector<uint64_t> out(kOuter * kInner, 0);
    std::vector<std::thread::id> outer_thread(kOuter);
    std::vector<std::thread::id> inner_thread(kOuter * kInner);
    pool.ParallelFor(kOuter, 3, [&](size_t i) {
      outer_thread[i] = std::this_thread::get_id();
      pool.ParallelFor(kInner, 3, [&](size_t j) {
        inner_thread[i * kInner + j] = std::this_thread::get_id();
        out[i * kInner + j] = (i + 1) * 1000 + j;
      });
    });
    for (size_t i = 0; i < kOuter; ++i) {
      if (outer_thread[i] == std::this_thread::get_id()) {
        caller_ran_a_lane = true;
      }
      for (size_t j = 0; j < kInner; ++j) {
        ASSERT_EQ(out[i * kInner + j], (i + 1) * 1000 + j);
        ASSERT_EQ(inner_thread[i * kInner + j], outer_thread[i])
            << "inner call of outer index " << i << " left its lane";
      }
    }
  }
  EXPECT_TRUE(caller_ran_a_lane);
  // The caller's flag is cleared after its batch: a later top-level call
  // from the same thread reaches the workers again.
  bool worker_ran = false;
  for (int attempt = 0; attempt < 50 && !worker_ran; ++attempt) {
    std::vector<std::thread::id> ran(kOuter);
    pool.ParallelFor(kOuter, 3, [&](size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id& id : ran) {
      if (id != std::this_thread::get_id()) worker_ran = true;
    }
  }
  EXPECT_TRUE(worker_ran);
}

TEST(MakespanTest, GreedyScheduling) {
  EXPECT_DOUBLE_EQ(Makespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(Makespan({5.0}, 4), 5.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1, 1, 1}, 4), 1.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1, 1, 1}, 2), 2.0);
  EXPECT_DOUBLE_EQ(Makespan({4, 1, 1, 1, 1}, 2), 4.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1}, 1), 2.0);
}

TEST(MakespanTest, MoreSlotsNeverSlower) {
  std::vector<double> tasks;
  Random rng(7);
  for (int i = 0; i < 50; ++i) tasks.push_back(rng.NextDouble(0.1, 10.0));
  double previous = Makespan(tasks, 1);
  for (int slots = 2; slots <= 64; slots *= 2) {
    const double current = Makespan(tasks, slots);
    EXPECT_LE(current, previous + 1e-9);
    previous = current;
  }
}

}  // namespace
}  // namespace shadoop::mapreduce
