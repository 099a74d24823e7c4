#ifndef SHADOOP_SERVER_QUERY_SERVER_H_
#define SHADOOP_SERVER_QUERY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "hdfs/file_system.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_runner.h"
#include "pigeon/ast.h"
#include "pigeon/executor.h"
#include "server/result_cache.h"

namespace shadoop::server {

struct ServerOptions {
  mapreduce::ClusterConfig cluster;

  /// Seed of the admission controller's lane tie-break hash. With equal
  /// tenant weights that divide the slots evenly, shares are
  /// seed-invariant; otherwise the seed picks which tenants get the
  /// leftover lanes (deterministically).
  uint64_t admission_seed = 0;

  bool enable_result_cache = true;
  size_t result_cache_capacity = 1024;
};

using SessionId = int;

/// What one Execute() call produced: the rows its DUMP/EXPLAIN
/// statements emitted (moved out of the session, which keeps none) and
/// the *simulated* charge delta of the request.
/// sim_latency_ms is modeled cluster time (job makespans plus simulated
/// admission wait), so saturation benchmarks report identical latency
/// distributions on every machine and every rerun.
struct RequestResult {
  std::vector<std::string> rows;
  mapreduce::JobCost cost;
  double sim_latency_ms = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
};

/// One client's request sequence for ExecuteConcurrent: scripts run in
/// order within the stream, streams run concurrently.
struct SessionStream {
  SessionId session = 0;
  std::vector<std::string> scripts;
};

/// The Pigeon serving tier (DESIGN.md §14): a long-lived, in-process,
/// deterministic query server over the Pigeon executor.
///
///   - Datasets attach once into a shared catalog; every session
///     pre-binds them read-only at the then-latest version (snapshot
///     pinning keeps readers isolated from live ingest).
///   - Each session owns its runner and executor (so EXPLAIN counters
///     and artifact caches stay per-session deterministic) but shares
///     the catalog, the admission controller and the result cache.
///   - Every statement of a tenant-bound session routes through the
///     AdmissionController: lane shares gate real concurrent request
///     streams, and admission wait lands in sim_latency_ms.
///   - Cacheable assignments (queries over catalog-pinned indexed
///     datasets) go through the ResultCache; hits bind the cached rows
///     (the entry's shared buffer, not a copy) and replay the stored
///     charges, byte-identical to a miss.
///   - A session keeps cumulative charges, counters and jobs_run, but no
///     rows: each request's rows are moved into its RequestResult, so a
///     long-lived session's memory does not grow with what it dumped.
///
/// Threading: attach datasets and open sessions first (single-threaded
/// setup), then serve — Execute() on distinct sessions is safe from
/// concurrent threads, and requests within one session serialize on the
/// session's mutex. ExecuteConcurrent drives that pattern on the shared
/// thread pool.
class QueryServer {
 public:
  explicit QueryServer(hdfs::FileSystem* fs,
                       ServerOptions options = ServerOptions());

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens an existing indexed dataset (one persisted by the catalog or
  /// a plain indexed file) into the shared catalog. Sessions opened
  /// afterwards pre-bind it under `name` at the latest version.
  Status AttachDataset(const std::string& name, const std::string& data_path);

  /// Opens a session. With a nonempty `tenant`, the session binds to the
  /// shared admission controller under that tenant, and `tenant_slots`
  /// (when > 0) sets the tenant's quota/lane weight up front — configure
  /// every tenant before serving concurrently so lane shares are fixed.
  /// An empty tenant runs unconstrained, byte-identical to a standalone
  /// executor.
  Result<SessionId> OpenSession(const std::string& tenant = "",
                                int tenant_slots = 0);

  /// Parses and runs `script` in the session, returning the request's
  /// rows and simulated charge delta. Splitting a workload across many
  /// Execute calls yields byte-identical output to one call: the
  /// requests' rows, concatenated, equal the single call's rows.
  Result<RequestResult> Execute(SessionId session, std::string_view script);

  /// Runs every stream concurrently (scripts sequential within each
  /// stream) and returns per-stream, per-script results. On any failure
  /// the error of the lowest-indexed failing stream is returned.
  Result<std::vector<std::vector<RequestResult>>> ExecuteConcurrent(
      const std::vector<SessionStream>& streams);

  /// The session's cumulative charges: cost, counters and jobs_run of
  /// every request so far. Charges only — `dump_output` is always empty
  /// between requests, because Execute moves each request's rows into its
  /// RequestResult. Not safe against a concurrent Execute on the same
  /// session.
  Result<const pigeon::ExecutionReport*> SessionReport(
      SessionId session) const;

  /// Host channel for the session runner's artifact-cache reuse. Its
  /// hits()/misses() depend on thread interleaving, so they never reach
  /// EXPLAIN or any other deterministic output.
  Result<const mapreduce::ArtifactCache*> SessionArtifactCache(
      SessionId session) const;

  /// The dataset bound to `name` in the session, resolved as a query
  /// would resolve it: a handle sharing the binding's rows and index (for
  /// tests and tooling).
  Result<pigeon::Dataset> Binding(SessionId session,
                                  const std::string& name) const;

  catalog::DatasetCatalog& catalog() { return catalog_; }
  mapreduce::AdmissionController& admission() { return admission_; }
  ResultCache& result_cache() { return result_cache_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Session {
    std::string tenant;
    std::unique_ptr<mapreduce::JobRunner> runner;
    std::unique_ptr<pigeon::Executor> executor;
    pigeon::ExecutionReport report;  // Charges; rows only mid-request.
    Mutex mu;  // Serializes this session's requests.
  };

  Session* FindSession(SessionId session) const SHADOOP_EXCLUDES(mu_);

  /// Runs one statement, routing cacheable assignments through the
  /// result cache. Caller holds the session's mutex.
  Status ExecuteSessionStatement(Session& session,
                                 const pigeon::Statement& stmt);

  /// Builds the result-cache key for an assignment, or returns false
  /// when the statement is not cacheable (non-query expression, a source
  /// that is not a catalog-pinned indexed dataset, unresolvable text).
  bool BuildCacheKey(Session& session, const pigeon::Statement& stmt,
                     std::string* key) const;

  hdfs::FileSystem* fs_;
  ServerOptions options_;
  /// Backs catalog maintenance jobs (Open scans, future appends issued
  /// through the catalog directly rather than a session).
  mapreduce::JobRunner catalog_runner_;
  catalog::DatasetCatalog catalog_;
  mapreduce::AdmissionController admission_;
  ResultCache result_cache_;

  mutable Mutex mu_;  // Guards the containers, not the sessions.
  std::vector<std::string> attached_ SHADOOP_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Session>> sessions_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop::server

#endif  // SHADOOP_SERVER_QUERY_SERVER_H_
