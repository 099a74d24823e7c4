// Tests for the Pigeon query server (src/server/, DESIGN.md §14): session
// byte-parity with the standalone executor, the shared result cache
// (hit == miss in rows and charges, a hit queues on the hitting tenant's
// own admission ledger, version bumps invalidate), the
// snapshot_version-0 re-pin fix, row ownership (sessions keep no rows,
// hits share the cached row buffer), and deterministic concurrent serving
// across admission seeds. The concurrent cases run under TSan via
// scripts/check.sh.
#include "server/query_server.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mapreduce/job.h"
#include "pigeon/executor.h"
#include "test_util.h"
#include "workload/generators.h"

namespace shadoop::server {
namespace {

using pigeon::ExecutionReport;

// The charge fields a result-cache hit must replay exactly. (wall-clock
// time is deliberately excluded everywhere.)
void ExpectSameCost(const mapreduce::JobCost& a, const mapreduce::JobCost& b) {
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
  EXPECT_DOUBLE_EQ(a.map_makespan_ms, b.map_makespan_ms);
  EXPECT_DOUBLE_EQ(a.shuffle_ms, b.shuffle_ms);
  EXPECT_DOUBLE_EQ(a.reduce_makespan_ms, b.reduce_makespan_ms);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.num_map_tasks, b.num_map_tasks);
  EXPECT_EQ(a.num_reduce_tasks, b.num_reduce_tasks);
  EXPECT_DOUBLE_EQ(a.admission_wait_ms, b.admission_wait_ms);
  EXPECT_EQ(a.admission_queued, b.admission_queued);
}

// Counters minus the server's own cache.* bookkeeping (the one
// deliberate difference between a served session and a standalone run).
std::map<std::string, int64_t> NonCacheCounters(
    const mapreduce::Counters& counters) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : counters.values()) {
    if (name.rfind("cache.", 0) == 0) continue;
    out.emplace(name, value);
  }
  return out;
}

void WriteBatch(hdfs::FileSystem* fs, const std::string& path, size_t count,
                uint64_t seed) {
  workload::PointGenOptions options;
  options.count = count;
  options.seed = seed;
  SHADOOP_CHECK_OK(fs->WriteLines(
      path, workload::PointsToRecords(workload::GeneratePoints(options))));
}

// Builds "/pts" + a bulk grid index persisted at "/pts_idx" so a server
// can AttachDataset it.
void SeedIndexedDataset(testing::TestCluster* cluster, size_t count = 600) {
  testing::WritePoints(&cluster->fs, "/pts", count);
  testing::BuildIndex(&cluster->runner, "/pts", "/pts_idx",
                      index::PartitionScheme::kGrid);
}

ServerOptions SmallClusterOptions() {
  ServerOptions options;
  options.cluster = testing::TestCluster::MakeCluster(4);
  return options;
}

// ---------------------------------------------------------------------------
// Single-session byte parity with the standalone executor.

TEST(QueryServerTest, SingleSessionMatchesDirectExecutorByteForByte) {
  const char* kScript[] = {
      "p = LOAD '/pts' AS POINT;",
      "i = INDEX p WITH GRID;",
      "r = RANGE i RECTANGLE(0, 0, 400000, 400000);",
      "c = COUNT i RECTANGLE(100000, 100000, 900000, 900000);",
      "DUMP r; DUMP c;",
      "n = KNN i POINT(500000, 500000) K 5; DUMP n;",
      "EXPLAIN i;",
  };

  // Reference: one standalone executor, one Execute call. The first
  // server session materializes temporaries under the "s0_" namespace
  // (so concurrent sessions never collide on the shared filesystem);
  // give the reference executor the same namespace so EXPLAIN prints
  // identical paths.
  testing::TestCluster direct_cluster;
  testing::WritePoints(&direct_cluster.fs, "/pts", 500);
  pigeon::Executor direct(&direct_cluster.runner);
  direct.set_temp_namespace("s0_");
  std::string joined;
  for (const char* stmt : kScript) joined += std::string(stmt) + "\n";
  const ExecutionReport expected = direct.Execute(joined).ValueOrDie();

  // Served: same statements split across one request each. The result
  // cache is off so the session's EXPLAIN/counters carry no cache.*
  // traces at all — cached-path parity is covered separately below.
  testing::TestCluster served_cluster;
  testing::WritePoints(&served_cluster.fs, "/pts", 500);
  ServerOptions options = SmallClusterOptions();
  options.enable_result_cache = false;
  QueryServer server(&served_cluster.fs, options);
  const SessionId session = server.OpenSession().ValueOrDie();
  std::vector<std::string> served_rows;
  for (const char* stmt : kScript) {
    Result<RequestResult> request = server.Execute(session, stmt);
    ASSERT_TRUE(request.ok()) << stmt;
    served_rows.insert(served_rows.end(), request->rows.begin(),
                       request->rows.end());
  }

  // Rows are returned per request; concatenated, they are the one-call
  // dump output. The session itself keeps the charges.
  EXPECT_EQ(served_rows, expected.dump_output);
  const ExecutionReport& report =
      *server.SessionReport(session).ValueOrDie();
  ExpectSameCost(report.stats.cost, expected.stats.cost);
  EXPECT_EQ(report.stats.jobs_run, expected.stats.jobs_run);
  EXPECT_EQ(NonCacheCounters(report.stats.counters),
            NonCacheCounters(expected.stats.counters));
}

// ---------------------------------------------------------------------------
// Result cache: hits are byte-identical to misses, shared across
// sessions, invalidated by version bumps.

TEST(QueryServerTest, CacheHitReturnsIdenticalRowsAndCharges) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const RequestResult miss =
      server
          .Execute(session,
                   "a = RANGE idx RECTANGLE(0, 0, 500000, 500000); DUMP a;")
          .ValueOrDie();
  EXPECT_EQ(miss.result_cache_hits, 0);
  EXPECT_EQ(miss.result_cache_misses, 1);
  EXPECT_FALSE(miss.rows.empty());
  EXPECT_GT(miss.sim_latency_ms, 0.0);

  // Different whitespace, comment noise and a different target name:
  // the normalized key matches and the hit replays the stored charges.
  const RequestResult hit =
      server
          .Execute(session,
                   "b =   RANGE idx -- same query, noisier spelling\n"
                   "  RECTANGLE(0,0, 500000,500000); DUMP b;")
          .ValueOrDie();
  EXPECT_EQ(hit.result_cache_hits, 1);
  EXPECT_EQ(hit.result_cache_misses, 0);
  EXPECT_EQ(hit.rows, miss.rows);
  ExpectSameCost(hit.cost, miss.cost);
  EXPECT_DOUBLE_EQ(hit.sim_latency_ms, miss.sim_latency_ms);

  EXPECT_EQ(server.result_cache().size(), 1u);
  EXPECT_EQ(server.result_cache().hits(), 1u);
  EXPECT_EQ(server.result_cache().misses(), 1u);
}

TEST(QueryServerTest, CacheIsSharedAcrossSessions) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();
  const SessionId s2 = server.OpenSession().ValueOrDie();

  const char* kQuery = "q = COUNT idx RECTANGLE(0, 0, 800000, 800000); DUMP q;";
  const RequestResult first = server.Execute(s1, kQuery).ValueOrDie();
  const RequestResult second = server.Execute(s2, kQuery).ValueOrDie();
  EXPECT_EQ(first.result_cache_misses, 1);
  // s2's first meeting with the key: a miss for the session, a hit in
  // the shared cache.
  EXPECT_EQ(second.result_cache_misses, 1);
  EXPECT_EQ(server.result_cache().hits(), 1u);
  EXPECT_EQ(second.rows, first.rows);
  ExpectSameCost(second.cost, first.cost);
}

TEST(QueryServerTest, AppendVersionBumpInvalidatesCacheKey) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  WriteBatch(&cluster.fs, "/batch", 200, 7);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult before = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(before.rows, std::vector<std::string>{"500"});

  // Ingest a batch: version 2 exists, but s1's binding stays pinned at
  // v1, so the same key still hits.
  ASSERT_TRUE(server.Execute(s1, "g = LOAD '/batch' APPEND idx;").ok());
  const RequestResult pinned = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(pinned.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(pinned.result_cache_hits, 1);

  // Re-pinning to the latest version changes the key: fresh miss, fresh
  // rows that include the appended batch.
  const RequestResult repinned =
      server.Execute(s1, std::string("SET snapshot_version 0; ") + kCount)
          .ValueOrDie();
  EXPECT_EQ(repinned.rows, std::vector<std::string>{"700"});
  EXPECT_EQ(repinned.result_cache_misses, 1);
  EXPECT_EQ(repinned.result_cache_hits, 0);
}

TEST(QueryServerTest, PlanFingerprintChangeInvalidatesCacheKey) {
  // The cache key carries the optimizer's plan token, so rows cached
  // under one physical plan are never replayed for another. The token is
  // deterministic, so the same text under the same plan hits — in the
  // producing session and in any other.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult planned = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(planned.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(planned.result_cache_misses, 1);

  const RequestResult replay = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(replay.result_cache_hits, 1);
  const SessionId s2 = server.OpenSession().ValueOrDie();
  const RequestResult shared = server.Execute(s2, kCount).ValueOrDie();
  EXPECT_EQ(shared.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(shared.result_cache_misses, 1);  // s2's first meeting.
  EXPECT_EQ(server.result_cache().hits(), 2u);
}

// ---------------------------------------------------------------------------
// snapshot_version 0 semantics (the re-pin fix) and per-session pinning.

TEST(ExecutorSnapshotTest, ExplicitSnapshotVersionZeroFollowsLatest) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 500);
  WriteBatch(&cluster.fs, "/batch", 200, 11);
  pigeon::Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor
          .Execute(R"(
    raw = LOAD '/pts' AS POINT;
    idx = INDEX raw WITH GRID;
    g = LOAD '/batch' APPEND idx;
    c_pinned = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    SET snapshot_version 0;
    c_latest = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    DUMP c_pinned;
    DUMP c_latest;
  )")
          .ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 2u);
  // Before the knob: the binding's own v1 pin.
  EXPECT_EQ(report.dump_output[0], "500");
  // `SET snapshot_version 0` re-pins to the latest version at next use —
  // it must NOT keep serving the stale v1 binding.
  EXPECT_EQ(report.dump_output[1], "700");
}

TEST(QueryServerTest, TwoSessionsPinDifferentVersionsOfOneDataset) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  WriteBatch(&cluster.fs, "/batch", 200, 13);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());

  // s1 opens against v1, then the dataset grows to v2; s2 opens after
  // and pre-binds v2. The two sessions must read their own snapshots.
  const SessionId s1 = server.OpenSession().ValueOrDie();
  ASSERT_TRUE(server.Execute(s1, "g = LOAD '/batch' APPEND idx;").ok());
  const SessionId s2 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult old_pin = server.Execute(s1, kCount).ValueOrDie();
  const RequestResult new_pin = server.Execute(s2, kCount).ValueOrDie();
  EXPECT_EQ(old_pin.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(new_pin.rows, std::vector<std::string>{"700"});
  // Distinct versions, distinct cache keys: both were misses.
  EXPECT_EQ(old_pin.result_cache_misses, 1);
  EXPECT_EQ(new_pin.result_cache_misses, 1);

  // After s1 re-pins to latest it converges with s2 — and takes the
  // entry s2 just produced (a shared-cache hit; s1's first meeting with
  // the key, so the session counts a miss).
  const RequestResult converged =
      server.Execute(s1, std::string("SET snapshot_version 0; ") + kCount)
          .ValueOrDie();
  EXPECT_EQ(converged.rows, new_pin.rows);
  EXPECT_EQ(converged.result_cache_misses, 1);
  EXPECT_EQ(server.result_cache().hits(), 1u);
  ExpectSameCost(converged.cost, new_pin.cost);
}

// ---------------------------------------------------------------------------
// EXPLAIN cache counters.

TEST(QueryServerTest, ExplainSurfacesResultCacheButNotArtifactCache) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const char* kQuery = "r = RANGE idx RECTANGLE(0, 0, 300000, 300000);";
  ASSERT_TRUE(server.Execute(session, kQuery).ok());
  ASSERT_TRUE(server.Execute(session, kQuery).ok());
  const RequestResult explain =
      server.Execute(session, "EXPLAIN idx;").ValueOrDie();
  ASSERT_EQ(explain.rows.size(), 1u);
  const std::string& line = explain.rows[0];
  // The session ran real jobs, so the artifact cache was consulted — and
  // that shows in the host channel, never in EXPLAIN, because its
  // hit/miss split depends on thread interleaving.
  const mapreduce::ArtifactCache* artifacts =
      server.SessionArtifactCache(session).ValueOrDie();
  EXPECT_GT(artifacts->hits() + artifacts->misses(), 0u);
  EXPECT_EQ(line.find("artifact_cache"), std::string::npos) << line;
  // One executed query, one cached replay.
  EXPECT_NE(line.find("; result_cache: hits=1, misses=1"), std::string::npos)
      << line;
}

TEST(ExecutorExplainTest, NoCacheSegmentsBeforeAnyLookup) {
  // nonzero-only contract: a fresh session that ran no job shows
  // neither cache segment, keeping historical EXPLAIN output
  // byte-identical.
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 100);
  pigeon::Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor.Execute("p = LOAD '/pts' AS POINT; EXPLAIN p;").ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 1u);
  EXPECT_EQ(report.dump_output[0].find("artifact_cache"), std::string::npos);
  EXPECT_EQ(report.dump_output[0].find("result_cache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Row ownership: a row is built once and moved or shared, never retained
// by the session (DESIGN.md §8, §14.1).

TEST(QueryServerTest, SessionReportHoldsNoRowsAfterRequests) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  size_t rows_returned = 0;
  for (int i = 1; i <= 6; ++i) {
    const std::string corner = std::to_string(100000 * i);
    const RequestResult request =
        server
            .Execute(session, "r = RANGE idx RECTANGLE(0, 0, " + corner +
                                  ", " + corner + "); DUMP r;")
            .ValueOrDie();
    rows_returned += request.rows.size();
    const ExecutionReport& report =
        *server.SessionReport(session).ValueOrDie();
    EXPECT_TRUE(report.dump_output.empty()) << "after request " << i;
    EXPECT_EQ(report.stats.counters.Get("cache.result_misses"), i);
  }
  EXPECT_GT(rows_returned, 0u);

  // A failing request leaves no rows behind either.
  EXPECT_FALSE(server.Execute(session, "DUMP r; DUMP missing;").ok());
  EXPECT_TRUE(
      server.SessionReport(session).ValueOrDie()->dump_output.empty());
}

TEST(QueryServerTest, CacheHitBindsStoredRowBuffer) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();
  const SessionId s2 = server.OpenSession().ValueOrDie();

  const RequestResult miss =
      server.Execute(s1, "a = RANGE idx RECTANGLE(0, 0, 500000, 500000);")
          .ValueOrDie();
  const RequestResult hit =
      server.Execute(s2, "b = RANGE idx RECTANGLE(0, 0, 500000, 500000);")
          .ValueOrDie();
  ASSERT_EQ(miss.result_cache_misses, 1);
  ASSERT_EQ(server.result_cache().hits(), 1u);

  // The miss stored its binding's buffer; the hit bound that same buffer.
  const pigeon::Dataset stored = server.Binding(s1, "a").ValueOrDie();
  const pigeon::Dataset bound = server.Binding(s2, "b").ValueOrDie();
  ASSERT_NE(stored.lines, nullptr);
  EXPECT_FALSE(stored.lines->empty());
  EXPECT_EQ(bound.lines.get(), stored.lines.get());
}

TEST(QueryServerTest, DumpRowsSurviveCacheHitRebind) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const char* kQuery = "a = RANGE idx RECTANGLE(0, 0, 600000, 600000);";
  const RequestResult before =
      server.Execute(session, std::string(kQuery) + " DUMP a;").ValueOrDie();
  const pigeon::Dataset first = server.Binding(session, "a").ValueOrDie();

  // The hit rebinds `a` to the entry's buffer, which the first binding
  // produced: DUMP before and after — and dumping twice — give the same
  // bytes, so no DUMP moved rows out of the shared buffer.
  const RequestResult after =
      server.Execute(session, std::string(kQuery) + " DUMP a; DUMP a;")
          .ValueOrDie();
  EXPECT_EQ(after.result_cache_hits, 1);
  ASSERT_FALSE(before.rows.empty());
  std::vector<std::string> twice = before.rows;
  twice.insert(twice.end(), before.rows.begin(), before.rows.end());
  EXPECT_EQ(after.rows, twice);
  EXPECT_EQ(server.Binding(session, "a").ValueOrDie().lines.get(),
            first.lines.get());
  EXPECT_EQ(*first.lines, before.rows);
}

// ---------------------------------------------------------------------------
// Concurrent serving: determinism across reruns, admission seeds, and
// vs. sequential execution of the same mix.

// The mixed query template stream of one session. Repeats guarantee
// cross-session cache traffic.
std::vector<std::string> MixedScripts(int salt) {
  const std::string r1 = std::to_string(100000 * (salt + 1));
  return {
      "a = RANGE idx RECTANGLE(0, 0, " + r1 + ", " + r1 + "); DUMP a;",
      "b = COUNT idx RECTANGLE(0, 0, 600000, 600000); DUMP b;",
      "c = KNN idx POINT(450000, 550000) K 3; DUMP c;",
      "d = COUNT idx RECTANGLE(0, 0, 600000, 600000); DUMP d;",
  };
}

struct ConcurrentRun {
  std::vector<std::vector<std::string>> rows;     // [stream][request] rows
  std::vector<std::vector<double>> latencies_ms;  // [stream][request]
};

ConcurrentRun RunSaturation(uint64_t admission_seed) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  ServerOptions options = SmallClusterOptions();
  options.admission_seed = admission_seed;
  QueryServer server(&cluster.fs, options);
  SHADOOP_CHECK_OK(server.AttachDataset("idx", "/pts_idx"));

  // 4 tenants x 1 slot on a 4-slot cluster: equal, seed-invariant lane
  // shares, and no tenant ever queues behind itself.
  std::vector<SessionStream> streams;
  for (int i = 0; i < 4; ++i) {
    const SessionId id =
        server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
    streams.push_back(SessionStream{id, MixedScripts(i)});
  }
  const auto results = server.ExecuteConcurrent(streams).ValueOrDie();

  ConcurrentRun run;
  run.rows.resize(results.size());
  run.latencies_ms.resize(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    for (const RequestResult& request : results[i]) {
      std::string flat;
      for (const std::string& row : request.rows) flat += row + "\n";
      run.rows[i].push_back(std::move(flat));
      run.latencies_ms[i].push_back(request.sim_latency_ms);
    }
  }
  return run;
}

TEST(QueryServerTest, ConcurrentExecutionIsDeterministicAcrossSeeds) {
  const ConcurrentRun base = RunSaturation(0);
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const ConcurrentRun other = RunSaturation(seed);
    EXPECT_EQ(other.rows, base.rows) << "seed " << seed;
    ASSERT_EQ(other.latencies_ms.size(), base.latencies_ms.size());
    for (size_t i = 0; i < base.latencies_ms.size(); ++i) {
      ASSERT_EQ(other.latencies_ms[i].size(), base.latencies_ms[i].size());
      for (size_t j = 0; j < base.latencies_ms[i].size(); ++j) {
        EXPECT_DOUBLE_EQ(other.latencies_ms[i][j], base.latencies_ms[i][j])
            << "stream " << i << " request " << j << " seed " << seed;
      }
    }
  }
}

TEST(QueryServerTest, ConcurrentExecutionIsDeterministicAcrossReruns) {
  const ConcurrentRun first = RunSaturation(0);
  const ConcurrentRun second = RunSaturation(0);
  EXPECT_EQ(second.rows, first.rows);
  for (size_t i = 0; i < first.latencies_ms.size(); ++i) {
    for (size_t j = 0; j < first.latencies_ms[i].size(); ++j) {
      EXPECT_DOUBLE_EQ(second.latencies_ms[i][j], first.latencies_ms[i][j]);
    }
  }
}

TEST(QueryServerTest, ConcurrentRowsMatchSequentialExecution) {
  // A fresh server running the same streams one session at a time must
  // produce byte-identical rows: concurrency is invisible in results.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  std::vector<std::vector<std::string>> sequential_rows;
  for (int i = 0; i < 4; ++i) {
    const SessionId id =
        server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
    sequential_rows.emplace_back();
    for (const std::string& script : MixedScripts(i)) {
      const RequestResult request = server.Execute(id, script).ValueOrDie();
      std::string flat;
      for (const std::string& row : request.rows) flat += row + "\n";
      sequential_rows.back().push_back(std::move(flat));
    }
  }
  const ConcurrentRun concurrent = RunSaturation(0);
  EXPECT_EQ(concurrent.rows, sequential_rows);
}

TEST(QueryServerTest, ConcurrentCacheTrafficIsAccounted) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  std::vector<SessionStream> streams;
  for (int i = 0; i < 4; ++i) {
    const SessionId id =
        server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
    streams.push_back(SessionStream{id, MixedScripts(i)});
  }
  const auto results = server.ExecuteConcurrent(streams).ValueOrDie();
  int64_t lookups = 0;
  for (const auto& stream : results) {
    for (const RequestResult& request : stream) {
      lookups += request.result_cache_hits + request.result_cache_misses;
    }
  }
  // Every cacheable assignment consulted the cache exactly once (4
  // sessions x 4 queries). The shared cache's hit/miss split depends on
  // the interleaving; its total does not.
  EXPECT_EQ(lookups, 16);
  EXPECT_EQ(server.result_cache().hits() + server.result_cache().misses(),
            16u);
  // At least the distinct keys missed; repeats within one session always
  // hit (requests are sequential per session).
  EXPECT_GE(server.result_cache().hits(), 4u);
}

TEST(QueryServerTest, ExplainCacheSegmentIsInterleavingFree) {
  // 4 tenant sessions meet one key at once; whichever of them executes
  // and whichever take its entry, each session's EXPLAIN counts its own
  // first meeting as a miss.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  std::set<std::string> explains;
  for (int rep = 0; rep < 40; ++rep) {
    QueryServer server(&cluster.fs, SmallClusterOptions());
    ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
    std::vector<SessionStream> streams;
    for (int i = 0; i < 4; ++i) {
      const SessionId id =
          server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
      streams.push_back(SessionStream{
          id, {"c = KNN idx POINT(450000, 550000) K 3; EXPLAIN c;"}});
    }
    const auto results = server.ExecuteConcurrent(streams).ValueOrDie();
    for (const auto& stream : results) {
      ASSERT_EQ(stream.size(), 1u);
      ASSERT_EQ(stream[0].rows.size(), 1u);
      explains.insert(stream[0].rows[0]);
    }
  }
  ASSERT_EQ(explains.size(), 1u);
  EXPECT_NE(explains.begin()->find("; result_cache: hits=0, misses=1"),
            std::string::npos)
      << *explains.begin();
}

TEST(QueryServerTest, CacheHitChargesTheHittingTenantsOwnAdmissionWait) {
  // Sequential, so no race decides the outcome: tenant 0 produces the
  // entry for Q after its own RANGE, tenant 1 hits it after a different
  // RANGE. Each tenant queues on its own simulated lane ledger, so
  // tenant 1's Q must cost what executing Q itself would have cost it.
  const char* kQuery = "q = KNN idx POINT(450000, 550000) K 3; DUMP q;";
  const char* kRange0 = "r = RANGE idx RECTANGLE(0, 0, 200000, 200000);";
  const char* kRange1 = "r = RANGE idx RECTANGLE(0, 0, 700000, 700000);";

  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId t0 = server.OpenSession("tenant0", 1).ValueOrDie();
  const SessionId t1 = server.OpenSession("tenant1", 1).ValueOrDie();
  ASSERT_TRUE(server.Execute(t0, kRange0).ok());
  const RequestResult produced = server.Execute(t0, kQuery).ValueOrDie();
  ASSERT_TRUE(server.Execute(t1, kRange1).ok());
  const RequestResult hit = server.Execute(t1, kQuery).ValueOrDie();
  ASSERT_EQ(produced.result_cache_misses, 1);
  ASSERT_EQ(hit.result_cache_misses, 1);  // Tenant 1's first meeting.
  ASSERT_EQ(server.result_cache().hits(), 1u);

  // Reference: the same two requests of tenant 1, executed, on a server
  // with the cache off and the same tenants opened (same lane shares).
  testing::TestCluster ref_cluster;
  SeedIndexedDataset(&ref_cluster, 800);
  ServerOptions ref_options = SmallClusterOptions();
  ref_options.enable_result_cache = false;
  QueryServer reference(&ref_cluster.fs, ref_options);
  ASSERT_TRUE(reference.AttachDataset("idx", "/pts_idx").ok());
  ASSERT_TRUE(reference.OpenSession("tenant0", 1).ok());
  const SessionId ref_t1 = reference.OpenSession("tenant1", 1).ValueOrDie();
  ASSERT_TRUE(reference.Execute(ref_t1, kRange1).ok());
  const RequestResult executed =
      reference.Execute(ref_t1, kQuery).ValueOrDie();

  EXPECT_EQ(hit.rows, executed.rows);
  ExpectSameCost(hit.cost, executed.cost);
  EXPECT_DOUBLE_EQ(hit.sim_latency_ms, executed.sim_latency_ms);

  // A repeat in tenant 1 replays what tenant 1 paid the first time.
  const RequestResult repeat = server.Execute(t1, kQuery).ValueOrDie();
  EXPECT_EQ(repeat.result_cache_hits, 1);
  EXPECT_EQ(repeat.rows, hit.rows);
  ExpectSameCost(repeat.cost, hit.cost);
  EXPECT_DOUBLE_EQ(repeat.sim_latency_ms, hit.sim_latency_ms);
}

// ---------------------------------------------------------------------------
// Request error paths.

TEST(QueryServerTest, ErrorsCarryLineAnchorsAndDoNotKillTheSession) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const auto bad = server.Execute(session, "x = RANGE nope RECTANGLE(0,0,1,1);");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown dataset"), std::string::npos);

  // The session keeps serving.
  EXPECT_TRUE(server
                  .Execute(session,
                           "r = COUNT idx RECTANGLE(0, 0, 1000, 1000); DUMP r;")
                  .ok());
  // Unknown sessions are rejected.
  EXPECT_FALSE(server.Execute(99, "DUMP idx;").ok());
}

}  // namespace
}  // namespace shadoop::server
