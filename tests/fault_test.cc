#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/task_scheduler.h"
#include "test_util.h"

namespace shadoop {
namespace {

using fault::FaultInjector;
using fault::FaultPolicy;
using fault::TaskKind;
using mapreduce::AttemptInfo;
using mapreduce::AttemptOutcome;
using mapreduce::AttemptState;
using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MakeBlockSplits;
using mapreduce::MapContext;
using mapreduce::Mapper;
using mapreduce::ReduceContext;
using mapreduce::Reducer;
using mapreduce::TaskScheduler;
using mapreduce::TaskSchedulerOptions;

// ---------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultPolicy policy;
  policy.seed = 17;
  policy.map_failure_prob = 0.3;
  policy.straggler_prob = 0.2;
  policy.read_io_error_prob = 0.1;
  FaultInjector a(policy);
  FaultInjector b(policy);
  for (size_t task = 0; task < 50; ++task) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.ShouldFailAttempt(TaskKind::kMap, "job", task, attempt),
                b.ShouldFailAttempt(TaskKind::kMap, "job", task, attempt));
      EXPECT_EQ(a.StragglerDelayMs(TaskKind::kMap, "job", task, attempt),
                b.StragglerDelayMs(TaskKind::kMap, "job", task, attempt));
    }
    EXPECT_EQ(a.ReadFaultAt(task, 0), b.ReadFaultAt(task, 0));
  }
}

TEST(FaultInjectorTest, ZeroProbabilityNeverFires) {
  FaultInjector injector(FaultPolicy{});  // All-zero policy.
  for (size_t task = 0; task < 100; ++task) {
    EXPECT_FALSE(injector.ShouldFailAttempt(TaskKind::kMap, "j", task, 1));
    EXPECT_EQ(injector.StragglerDelayMs(TaskKind::kReduce, "j", task, 1), 0.0);
    EXPECT_EQ(injector.ReadFaultAt(task, 0), FaultInjector::ReadFault::kNone);
  }
  EXPECT_FALSE(injector.policy().AnyEnabled());
}

TEST(FaultInjectorTest, FailureSetGrowsMonotonicallyWithProbability) {
  // Raising the probability must only add faults, never move them: this
  // is what makes fault-matrix sweeps comparable across rates.
  for (double lo = 0.1; lo < 0.8; lo += 0.2) {
    FaultPolicy a;
    a.seed = 5;
    a.map_failure_prob = lo;
    FaultPolicy b = a;
    b.map_failure_prob = lo + 0.2;
    FaultInjector low(a), high(b);
    for (size_t task = 0; task < 200; ++task) {
      if (low.ShouldFailAttempt(TaskKind::kMap, "j", task, 1)) {
        EXPECT_TRUE(high.ShouldFailAttempt(TaskKind::kMap, "j", task, 1));
      }
    }
  }
}

TEST(FaultInjectorTest, SeedsDecorrelateDecisions) {
  FaultPolicy p;
  p.map_failure_prob = 0.5;
  p.seed = 1;
  FaultInjector a(p);
  p.seed = 2;
  FaultInjector b(p);
  int differ = 0;
  for (size_t task = 0; task < 200; ++task) {
    differ += a.ShouldFailAttempt(TaskKind::kMap, "j", task, 1) !=
              b.ShouldFailAttempt(TaskKind::kMap, "j", task, 1);
  }
  EXPECT_GT(differ, 20);
}

TEST(FaultInjectorTest, HitRateTracksProbability) {
  FaultPolicy p;
  p.seed = 99;
  p.map_failure_prob = 0.25;
  FaultInjector injector(p);
  int hits = 0;
  const int n = 2000;
  for (int task = 0; task < n; ++task) {
    hits += injector.ShouldFailAttempt(TaskKind::kMap, "j",
                                       static_cast<size_t>(task), 1);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.05);
}

// ---------------------------------------------------------------------
// TaskScheduler

TaskSchedulerOptions FastOptions() {
  TaskSchedulerOptions options;
  options.job_name = "sched-test";
  options.max_task_attempts = 3;
  return options;
}

TEST(TaskSchedulerTest, TransientFailuresAreRetried) {
  TaskScheduler sched(FastOptions(), nullptr);
  std::vector<std::atomic<int>> committed(4);
  sched.RunTasks(
      4, 4,
      [](size_t, const AttemptInfo& info, int,
         const std::atomic<bool>&) -> AttemptOutcome {
        if (info.id == 1) {
          return {Status::IoError("flaky"), /*transient=*/true};
        }
        return {};
      },
      [&](size_t task, int) { committed[task].fetch_add(1); });
  EXPECT_TRUE(sched.ok());
  EXPECT_EQ(sched.task_retries(), 4);
  for (const auto& c : committed) EXPECT_EQ(c.load(), 1);
  for (const auto& report : sched.reports()) {
    ASSERT_EQ(report.attempts.size(), 2u);
    EXPECT_EQ(report.attempts[0].state, AttemptState::kFailed);
    EXPECT_EQ(report.attempts[1].state, AttemptState::kCommitted);
    EXPECT_EQ(report.committed_attempt, 2);
    EXPECT_GT(report.sim_overhead_ms, 0.0);  // Backoff + wasted launch.
  }
}

TEST(TaskSchedulerTest, NonTransientFailureStopsImmediately) {
  TaskScheduler sched(FastOptions(), nullptr);
  sched.RunTasks(
      1, 1,
      [](size_t, const AttemptInfo&, int,
         const std::atomic<bool>&) -> AttemptOutcome {
        return {Status::ParseError("bad record"), /*transient=*/false};
      },
      [](size_t, int) { FAIL() << "must not commit"; });
  EXPECT_FALSE(sched.ok());
  EXPECT_EQ(sched.task_retries(), 0);
  ASSERT_EQ(sched.reports()[0].attempts.size(), 1u);
  EXPECT_TRUE(sched.MakeStatus().IsParseError());
}

TEST(TaskSchedulerTest, ExhaustedBudgetReportsHistory) {
  TaskScheduler sched(FastOptions(), nullptr);
  sched.RunTasks(
      2, 2,
      [](size_t task, const AttemptInfo&, int,
         const std::atomic<bool>&) -> AttemptOutcome {
        if (task == 1) return {Status::IoError("always down"), true};
        return {};
      },
      [](size_t, int) {});
  EXPECT_FALSE(sched.ok());
  const Status status = sched.MakeStatus();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("task 1"), std::string::npos);
  EXPECT_NE(status.message().find("3 attempt(s)"), std::string::npos);
  EXPECT_NE(status.message().find("#1 FAILED"), std::string::npos);
  EXPECT_EQ(sched.reports()[1].attempts.size(), 3u);
  // Exponential backoff: each relaunch waited twice the previous wait.
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[0].backoff_ms, 0.0);
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[1].backoff_ms, 1000.0);
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[2].backoff_ms, 2000.0);
}

TEST(TaskSchedulerTest, StragglerTriggersSpeculationAndCommitsOnce) {
  FaultPolicy policy;
  policy.seed = 3;
  policy.straggler_prob = 1.0;  // Every attempt straggles.
  policy.straggler_delay_ms = 30000.0;
  FaultInjector injector(policy);
  TaskSchedulerOptions options = FastOptions();
  options.speculative_slack_ms = 5000.0;
  TaskScheduler sched(options, &injector);
  std::vector<std::atomic<int>> committed(8);
  std::atomic<int> runs{0};
  sched.RunTasks(
      8, 4,
      [&](size_t, const AttemptInfo&, int,
          const std::atomic<bool>&) -> AttemptOutcome {
        runs.fetch_add(1);
        return {};
      },
      [&](size_t task, int) { committed[task].fetch_add(1); });
  EXPECT_TRUE(sched.ok());
  EXPECT_EQ(sched.speculative_launched(), 8);
  for (const auto& c : committed) EXPECT_EQ(c.load(), 1);  // Commit-once.
  for (const auto& report : sched.reports()) {
    ASSERT_EQ(report.attempts.size(), 2u);
    int committed_count = 0, killed_count = 0;
    for (const auto& attempt : report.attempts) {
      committed_count += attempt.state == AttemptState::kCommitted;
      killed_count += attempt.state == AttemptState::kKilled;
    }
    EXPECT_EQ(committed_count, 1);
    EXPECT_EQ(killed_count, 1);
  }
}

TEST(TaskSchedulerTest, SpeculativeWinnerIsDeterministic) {
  // Run the same straggler-heavy schedule twice; the simulated outcome
  // (who won, total overhead) must be identical even though the real
  // thread race differs run to run.
  FaultPolicy policy;
  policy.seed = 11;
  policy.straggler_prob = 0.6;
  policy.straggler_delay_ms = 20000.0;
  auto run_once = [&policy]() {
    FaultInjector injector(policy);
    TaskScheduler sched(FastOptions(), &injector);
    sched.RunTasks(
        16, 8,
        [](size_t, const AttemptInfo&, int,
           const std::atomic<bool>&) -> AttemptOutcome { return {}; },
        [](size_t, int) {});
    double overhead = 0;
    std::vector<int> winners;
    for (const auto& report : sched.reports()) {
      overhead += report.sim_overhead_ms;
      winners.push_back(report.committed_attempt);
    }
    return std::make_tuple(sched.speculative_launched(),
                           sched.speculative_won(), overhead, winners);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<0>(first), 0);
}

// ---------------------------------------------------------------------
// JobRunner integration

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

JobConfig WordCountJob(hdfs::FileSystem& fs, const std::string& path) {
  JobConfig job;
  job.name = "wordcount";
  job.splits = MakeBlockSplits(fs, path).ValueOrDie();
  job.mapper = []() { return std::make_unique<WordCountMapper>(); };
  job.reducer = []() { return std::make_unique<SumReducer>(); };
  job.num_reducers = 3;
  return job;
}

std::vector<std::string> ManyLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 400; ++i) {
    lines.push_back("w" + std::to_string(i % 23) + " w" +
                    std::to_string(i % 7));
  }
  return lines;
}

TEST(FaultToleranceTest, InjectionPreservesOutputAcrossSeeds) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/text", ManyLines()).ok());
  const JobResult clean = cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.cost.task_retries, 0);
  EXPECT_EQ(clean.counters.Get("fault.task_retries"), 0);

  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FaultPolicy policy;
    policy.seed = seed;
    policy.map_failure_prob = 0.3;
    policy.reduce_failure_prob = 0.2;
    policy.straggler_prob = 0.3;
    FaultInjector injector(policy);
    JobConfig job = WordCountJob(cluster.fs, "/text");
    job.fault_source = &injector;
    job.max_task_attempts = 8;  // Ample budget at a 30% failure rate.
    const JobResult faulty = cluster.runner.Run(job);
    ASSERT_TRUE(faulty.status.ok())
        << "seed " << seed << ": " << faulty.status.ToString();
    // The invariant: identical rows, only the fault counters differ.
    EXPECT_EQ(faulty.output, clean.output) << "seed " << seed;
    EXPECT_EQ(faulty.cost.bytes_shuffled, clean.cost.bytes_shuffled);
    EXPECT_GT(faulty.cost.task_retries + faulty.cost.speculative_launched, 0)
        << "seed " << seed;
    EXPECT_EQ(faulty.counters.Get("fault.task_retries"),
              faulty.cost.task_retries);
    // Recovery work inflates the simulated time, never shrinks it.
    EXPECT_GE(faulty.cost.total_ms, clean.cost.total_ms);
  }
}

TEST(FaultToleranceTest, FaultyCostIsReproducible) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/text", ManyLines()).ok());
  FaultPolicy policy;
  policy.seed = 7;
  policy.map_failure_prob = 0.25;
  policy.straggler_prob = 0.4;
  auto run = [&] {
    FaultInjector injector(policy);
    JobConfig job = WordCountJob(cluster.fs, "/text");
    job.fault_source = &injector;
    job.max_task_attempts = 8;
    return cluster.runner.Run(job);
  };
  const JobResult r1 = run();
  const JobResult r2 = run();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_DOUBLE_EQ(r1.cost.total_ms, r2.cost.total_ms);
  EXPECT_EQ(r1.cost.task_retries, r2.cost.task_retries);
  EXPECT_EQ(r1.cost.speculative_launched, r2.cost.speculative_launched);
  EXPECT_EQ(r1.cost.speculative_won, r2.cost.speculative_won);
}

TEST(FaultToleranceTest, RunnerLevelInjectorAppliesToEveryJob) {
  testing::TestCluster cluster;
  std::vector<std::string> lines;  // Several blocks -> several map tasks.
  for (int i = 0; i < 2000; ++i) {
    lines.push_back("alpha beta gamma " + std::to_string(i % 7));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());
  FaultPolicy policy;
  policy.seed = 21;
  policy.map_failure_prob = 0.4;
  policy.reduce_failure_prob = 0.4;
  FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  JobConfig job = WordCountJob(cluster.fs, "/text");
  job.max_task_attempts = 8;
  const JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.cost.task_retries, 0);
  cluster.runner.set_fault_injector(nullptr);
}

TEST(FaultToleranceTest, AbortCarriesTaskIdAndAttemptHistory) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.name = "doomed";
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  job.fault_injector = [](int, int) { return true; };  // Never succeeds.
  const JobResult result = cluster.runner.Run(job);
  EXPECT_TRUE(result.status.IsIoError());
  EXPECT_NE(result.status.message().find("map task 0"), std::string::npos);
  EXPECT_NE(result.status.message().find("'doomed'"), std::string::npos);
  EXPECT_NE(result.status.message().find("3 attempt(s)"), std::string::npos);
  EXPECT_NE(result.status.message().find("#3 FAILED"), std::string::npos);
}

// ---------------------------------------------------------------------
// HDFS replica failover

TEST(ReplicaFailoverTest, InjectedReadFaultsFailOverWithoutDataLoss) {
  testing::TestCluster cluster;  // Replication 3.
  FaultPolicy policy;
  policy.seed = 13;
  policy.read_io_error_prob = 0.5;
  policy.read_corruption_prob = 0.2;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);  // Before writing: checksums on.
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) lines.push_back("record-" + std::to_string(i));
  ASSERT_TRUE(cluster.fs.WriteLines("/data", lines).ok());

  auto read = cluster.fs.ReadLines("/data");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), lines);  // Failover, never data loss.
  EXPECT_GT(injector.replica_failovers(), 0u);
  EXPECT_EQ(injector.replica_failovers(),
            injector.read_io_errors() + injector.read_corruptions());
  cluster.fs.set_fault_injector(nullptr);
}

TEST(ReplicaFailoverTest, JobSurfacesReplicaFailoverCounter) {
  testing::TestCluster cluster;
  FaultPolicy policy;
  policy.seed = 29;
  policy.read_io_error_prob = 0.6;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);
  std::vector<std::string> lines;  // Several blocks' worth of input.
  for (int i = 0; i < 2000; ++i) {
    lines.push_back("w" + std::to_string(i % 23) + " w" +
                    std::to_string(i % 7));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());
  const JobResult result = cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.cost.replica_failovers, 0);
  EXPECT_EQ(result.counters.Get("fault.replica_failovers"),
            result.cost.replica_failovers);
  cluster.fs.set_fault_injector(nullptr);
}

TEST(ReplicaFailoverTest, DisabledInjectorLeavesReadsUntouched) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/data", {"a", "b"}).ok());
  // No injector installed at write time: no checksums recorded.
  ASSERT_TRUE(cluster.fs.GetFileMeta("/data").ok());
  EXPECT_EQ(cluster.fs.GetFileMeta("/data").ValueOrDie().blocks[0].checksum,
            0u);
  EXPECT_EQ(cluster.fs.ReadLines("/data").ValueOrDie(),
            (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace shadoop
