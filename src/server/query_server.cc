#include "server/query_server.h"

#include <utility>

#include "core/query_normalizer.h"
#include "mapreduce/thread_pool.h"
#include "pigeon/parser.h"

namespace shadoop::server {
namespace {

mapreduce::AdmissionOptions AdmissionOptionsFor(const ServerOptions& options) {
  mapreduce::AdmissionOptions admission;
  admission.total_slots = options.cluster.num_slots;
  admission.seed = options.admission_seed;
  return admission;
}

/// after - before, field by field. Charges only accumulate, so every
/// delta is non-negative.
mapreduce::JobCost CostDelta(const mapreduce::JobCost& after,
                             const mapreduce::JobCost& before) {
  mapreduce::JobCost d;
  d.total_ms = after.total_ms - before.total_ms;
  d.map_makespan_ms = after.map_makespan_ms - before.map_makespan_ms;
  d.shuffle_ms = after.shuffle_ms - before.shuffle_ms;
  d.reduce_makespan_ms = after.reduce_makespan_ms - before.reduce_makespan_ms;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.bytes_shuffled = after.bytes_shuffled - before.bytes_shuffled;
  d.bytes_written = after.bytes_written - before.bytes_written;
  d.num_map_tasks = after.num_map_tasks - before.num_map_tasks;
  d.num_reduce_tasks = after.num_reduce_tasks - before.num_reduce_tasks;
  d.task_retries = after.task_retries - before.task_retries;
  d.speculative_launched =
      after.speculative_launched - before.speculative_launched;
  d.speculative_won = after.speculative_won - before.speculative_won;
  d.replica_failovers = after.replica_failovers - before.replica_failovers;
  d.admission_queued = after.admission_queued - before.admission_queued;
  d.admission_wait_ms = after.admission_wait_ms - before.admission_wait_ms;
  d.admission_preempted_specs =
      after.admission_preempted_specs - before.admission_preempted_specs;
  return d;
}

bool IsCacheableExpr(pigeon::Expr::Kind kind) {
  switch (kind) {
    case pigeon::Expr::Kind::kCount:
    case pigeon::Expr::Kind::kRange:
    case pigeon::Expr::Kind::kKnn:
    case pigeon::Expr::Kind::kJoin:
    case pigeon::Expr::Kind::kKnnJoin:
    case pigeon::Expr::Kind::kSkyline:
    case pigeon::Expr::Kind::kConvexHull:
    case pigeon::Expr::Kind::kClosestPair:
    case pigeon::Expr::Kind::kFarthestPair:
    case pigeon::Expr::Kind::kUnion:
      return true;
    // Loads, appends and index builds mutate session or catalog state;
    // they must execute every time.
    case pigeon::Expr::Kind::kLoad:
    case pigeon::Expr::Kind::kAppend:
    case pigeon::Expr::Kind::kLoadIndex:
    case pigeon::Expr::Kind::kIndex:
      return false;
  }
  return false;
}

}  // namespace

QueryServer::QueryServer(hdfs::FileSystem* fs, ServerOptions options)
    : fs_(fs),
      options_(options),
      catalog_runner_(fs, options.cluster),
      catalog_(&catalog_runner_),
      admission_(AdmissionOptionsFor(options)),
      result_cache_(options.result_cache_capacity) {}

Status QueryServer::AttachDataset(const std::string& name,
                                  const std::string& data_path) {
  SHADOOP_RETURN_NOT_OK(catalog_.Open(name, data_path));
  MutexLock lock(&mu_);
  attached_.push_back(name);
  return Status::OK();
}

Result<SessionId> QueryServer::OpenSession(const std::string& tenant,
                                           int tenant_slots) {
  auto session = std::make_unique<Session>(options_.result_cache_capacity);
  session->runner =
      std::make_unique<mapreduce::JobRunner>(fs_, options_.cluster);
  session->executor =
      std::make_unique<pigeon::Executor>(session->runner.get(), &catalog_);
  if (!tenant.empty()) {
    if (tenant_slots > 0) admission_.SetTenantSlots(tenant, tenant_slots);
    // Share the server's controller, then bind the tenant through the
    // normal SET path so the session is indistinguishable from one that
    // scripted its own knobs.
    session->executor->set_admission_controller(&admission_);
    SHADOOP_RETURN_NOT_OK(session->executor->ExecuteInto(
        "SET tenant '" + tenant + "';", &session->report));
  }

  MutexLock lock(&mu_);
  const SessionId id = static_cast<SessionId>(sessions_.size());
  // Concurrent sessions share one file system; a unique temp namespace
  // keeps their materialized intermediates from colliding.
  session->executor->set_temp_namespace("s" + std::to_string(id) + "_");
  // Pre-bind every attached dataset at its current latest version: the
  // session reads that snapshot until it re-pins (`SET snapshot_version`)
  // or rebinds, no matter how much ingest lands later.
  for (const std::string& name : attached_) {
    SHADOOP_ASSIGN_OR_RETURN(uint64_t latest, catalog_.LatestVersion(name));
    SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo info,
                             catalog_.Snapshot(name, latest));
    pigeon::Dataset dataset;
    dataset.kind = pigeon::Dataset::Kind::kIndexed;
    dataset.shape = info.shape;
    dataset.path = info.data_path;
    dataset.catalog_name = name;
    dataset.version = latest;
    dataset.info =
        std::make_shared<const index::SpatialFileInfo>(std::move(info));
    session->executor->Bind(name, std::move(dataset));
  }
  sessions_.push_back(std::move(session));
  return id;
}

QueryServer::Session* QueryServer::FindSession(SessionId session) const {
  MutexLock lock(&mu_);
  if (session < 0 || static_cast<size_t>(session) >= sessions_.size()) {
    return nullptr;
  }
  return sessions_[static_cast<size_t>(session)].get();
}

Result<RequestResult> QueryServer::Execute(SessionId session,
                                           std::string_view script) {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  MutexLock lock(&s->mu);
  SHADOOP_ASSIGN_OR_RETURN(pigeon::Script statements, pigeon::Parse(script));
  const mapreduce::JobCost cost_before = s->report.stats.cost;
  const int64_t hits_before =
      s->report.stats.counters.Get("cache.result_hits");
  const int64_t misses_before =
      s->report.stats.counters.Get("cache.result_misses");
  Status status;
  for (const pigeon::Statement& stmt : statements) {
    status = ExecuteSessionStatement(*s, stmt);
    if (!status.ok()) break;
  }
  // The request's rows leave the session, even when a statement failed:
  // the session keeps charges, never rows.
  RequestResult out;
  out.rows = std::move(s->report.dump_output);
  s->report.dump_output.clear();
  SHADOOP_RETURN_NOT_OK(status);
  out.cost = CostDelta(s->report.stats.cost, cost_before);
  // Modeled end-to-end latency of the request: simulated cluster time of
  // its jobs plus simulated admission queueing.
  out.sim_latency_ms = out.cost.total_ms + out.cost.admission_wait_ms;
  out.result_cache_hits =
      s->report.stats.counters.Get("cache.result_hits") - hits_before;
  out.result_cache_misses =
      s->report.stats.counters.Get("cache.result_misses") - misses_before;
  return out;
}

Result<std::vector<std::vector<RequestResult>>> QueryServer::ExecuteConcurrent(
    const std::vector<SessionStream>& streams) {
  std::vector<std::vector<RequestResult>> results(streams.size());
  std::vector<Status> statuses(streams.size(), Status::OK());
  // One lane per stream; scripts stay sequential within their stream.
  // Map tasks inside a session's jobs degrade to serial when the pool is
  // saturated by the streams themselves (ThreadPool nesting rule), which
  // changes nothing deterministic: all charges are simulated.
  mapreduce::ThreadPool::Shared().ParallelFor(
      streams.size(), static_cast<int>(streams.size()), [&](size_t i) {
        for (const std::string& script : streams[i].scripts) {
          Result<RequestResult> request = Execute(streams[i].session, script);
          if (!request.ok()) {
            statuses[i] = request.status();
            return;
          }
          results[i].push_back(std::move(request).value());
        }
      });
  for (const Status& status : statuses) {
    SHADOOP_RETURN_NOT_OK(status);
  }
  return results;
}

Result<const pigeon::ExecutionReport*> QueryServer::SessionReport(
    SessionId session) const {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  return const_cast<const pigeon::ExecutionReport*>(&s->report);
}

Result<const mapreduce::ArtifactCache*> QueryServer::SessionArtifactCache(
    SessionId session) const {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  return const_cast<const mapreduce::ArtifactCache*>(
      s->runner->artifact_cache());
}

Result<pigeon::Dataset> QueryServer::Binding(SessionId session,
                                             const std::string& name) const {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  MutexLock lock(&s->mu);
  return s->executor->ResolveBinding(name, /*line=*/0);
}

Status QueryServer::ExecuteSessionStatement(Session& session,
                                            const pigeon::Statement& stmt) {
  std::string key;
  if (!options_.enable_result_cache ||
      stmt.kind != pigeon::Statement::Kind::kAssign ||
      session.runner->fault_injector() != nullptr ||
      !BuildCacheKey(session, stmt, &key)) {
    return session.executor->ExecuteStatement(stmt, &session.report);
  }

  // Every lookup counts in the shared cache, repeats included.
  const std::shared_ptr<const CachedResult> hit = result_cache_.Lookup(key);
  if (std::shared_ptr<const CachedResult> repeat = session.paid.Lookup(key)) {
    // A repeat: replay exactly what this session paid the first time, so
    // its charges never depend on which session produced the entry.
    ReplayEntry(session, stmt, *repeat);
    session.report.stats.counters.Increment("cache.result_hits");
    return Status::OK();
  }

  // First meeting with the key: whether this session executes or takes
  // another session's rows, it pays the same job charges, queues each
  // job through its own tenant's lane ledger and counts a miss.
  auto paid = std::make_shared<CachedResult>();
  if (hit != nullptr) {
    *paid = *hit;
    if (mapreduce::AdmissionController* admission =
            session.runner->admission_controller()) {
      // The wait and counters JobRunner::Run reports for an admitted job.
      for (mapreduce::JobCost& job : paid->jobs) {
        SHADOOP_ASSIGN_OR_RETURN(
            job.admission_wait_ms,
            admission->ReplayJob(session.runner->tenant(), job.total_ms));
        if (job.admission_wait_ms <= 0) continue;
        job.admission_queued = 1;
        paid->counters["admission.queued"] += 1;
        paid->counters["admission.wait_ms"] +=
            static_cast<int64_t>(job.admission_wait_ms + 0.5);
      }
    }
    ReplayEntry(session, stmt, *paid);
    session.paid.Insert(key, std::move(paid));
    session.report.stats.counters.Increment("cache.result_misses");
    return Status::OK();
  }

  const mapreduce::Counters counters_before = session.report.stats.counters;
  session.runner->set_job_cost_sink(&paid->jobs);
  const Status status =
      session.executor->ExecuteStatement(stmt, &session.report);
  session.runner->set_job_cost_sink(nullptr);
  SHADOOP_RETURN_NOT_OK(status);
  const auto& env = session.executor->environment();
  const auto it = env.find(stmt.target);
  if (it != env.end() && it->second.kind == pigeon::Dataset::Kind::kLines) {
    paid->lines = it->second.lines;  // The binding's buffer, shared.
    paid->shape = it->second.shape;
    for (const auto& [name, value] : session.report.stats.counters.values()) {
      const int64_t delta = value - counters_before.Get(name);
      if (delta != 0) paid->counters.emplace(name, delta);
    }
    // The shared entry keeps the job charges and drops this tenant's
    // queueing, which came from its own ledger.
    auto entry = std::make_shared<CachedResult>(*paid);
    for (mapreduce::JobCost& job : entry->jobs) {
      job.admission_wait_ms = 0;
      job.admission_queued = 0;
    }
    entry->counters.erase("admission.queued");
    entry->counters.erase("admission.wait_ms");
    // Share the resident entry's rows, which may be another session's.
    paid->lines = result_cache_.Insert(key, std::move(entry))->lines;
    session.paid.Insert(key, std::move(paid));
  }
  session.report.stats.counters.Increment("cache.result_misses");
  return Status::OK();
}

void QueryServer::ReplayEntry(Session& session, const pigeon::Statement& stmt,
                              const CachedResult& entry) {
  pigeon::Dataset dataset;
  dataset.kind = pigeon::Dataset::Kind::kLines;
  dataset.shape = entry.shape;
  dataset.lines = entry.lines;  // Shared, not copied.
  session.executor->Bind(stmt.target, std::move(dataset));
  // Job by job, through the arithmetic executing uses, so a replay adds
  // the same bits to the report that running the jobs would.
  for (const mapreduce::JobCost& job : entry.jobs) {
    mapreduce::JobResult result;
    result.cost = job;
    session.report.stats.Accumulate(result);
  }
  for (const auto& [name, value] : entry.counters) {
    session.report.stats.counters.Increment(name, value);
  }
}

bool QueryServer::BuildCacheKey(Session& session,
                                const pigeon::Statement& stmt,
                                std::string* key) const {
  if (!IsCacheableExpr(stmt.expr.kind)) return false;
  // Every source must be an indexed dataset pinned in the catalog —
  // those are the shared, versioned, immutable inputs the cache key can
  // name. Session-local results (kLines) and raw files stay uncached.
  std::string sources;
  for (const std::string* name : {&stmt.expr.source, &stmt.expr.source_b}) {
    if (name->empty()) continue;
    Result<pigeon::Dataset> source =
        session.executor->ResolveBinding(*name, stmt.line);
    if (!source.ok()) return false;  // Let execution surface the error.
    if (source->kind != pigeon::Dataset::Kind::kIndexed ||
        source->catalog_name.empty()) {
      return false;
    }
    sources += "|" + source->catalog_name + "@v" +
               std::to_string(source->version);
  }
  if (sources.empty()) return false;
  // Key on the expression only (text after the '='), so two sessions
  // assigning the same query to different names share an entry.
  const size_t eq = stmt.text.find('=');
  if (eq == std::string::npos) return false;
  const std::string normalized = core::NormalizeQueryText(
      std::string_view(stmt.text).substr(eq + 1));
  // Charges depend on the tenant's lane share under admission (an
  // admitted job is costed with its share), so sessions with different
  // shares must not exchange entries.
  std::string lanes = "all";
  if (const mapreduce::AdmissionController* admission =
          session.runner->admission_controller()) {
    lanes = std::to_string(admission->LaneShare(session.runner->tenant()));
  }
  // The plan fingerprint makes plan changes invalidate structurally: an
  // optimizer that picks a different strategy (new stats, different
  // snapshot) never reuses an entry whose rows/charges came from another
  // physical plan.
  const std::string plan = session.executor->PlanFingerprint(stmt.expr);
  *key = normalized + sources + "|lanes=" + lanes + "|plan=" + plan;
  return true;
}

}  // namespace shadoop::server
