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

void AddCost(mapreduce::JobCost* into, const mapreduce::JobCost& delta) {
  into->total_ms += delta.total_ms;
  into->map_makespan_ms += delta.map_makespan_ms;
  into->shuffle_ms += delta.shuffle_ms;
  into->reduce_makespan_ms += delta.reduce_makespan_ms;
  into->bytes_read += delta.bytes_read;
  into->bytes_shuffled += delta.bytes_shuffled;
  into->bytes_written += delta.bytes_written;
  into->num_map_tasks += delta.num_map_tasks;
  into->num_reduce_tasks += delta.num_reduce_tasks;
  into->task_retries += delta.task_retries;
  into->speculative_launched += delta.speculative_launched;
  into->speculative_won += delta.speculative_won;
  into->replica_failovers += delta.replica_failovers;
  into->admission_queued += delta.admission_queued;
  into->admission_wait_ms += delta.admission_wait_ms;
  into->admission_preempted_specs += delta.admission_preempted_specs;
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
  auto session = std::make_unique<Session>();
  session->tenant = tenant;
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

  if (std::shared_ptr<const CachedResult> hit = result_cache_.Lookup(key)) {
    // Replay the stored execution: bind the rows and merge the exact
    // charge delta the producing run paid, so a hit is byte-identical to
    // a miss in rows, cost and counters.
    pigeon::Dataset dataset;
    dataset.kind = pigeon::Dataset::Kind::kLines;
    dataset.shape = hit->shape;
    dataset.lines = hit->lines;  // Shared, not copied.
    session.executor->Bind(stmt.target, std::move(dataset));
    AddCost(&session.report.stats.cost, hit->cost);
    for (const auto& [name, value] : hit->counters) {
      session.report.stats.counters.Increment(name, value);
    }
    session.report.stats.jobs_run += hit->jobs_run;
    session.report.stats.counters.Increment("cache.result_hits");
    return Status::OK();
  }

  const mapreduce::JobCost cost_before = session.report.stats.cost;
  const mapreduce::Counters counters_before = session.report.stats.counters;
  const int jobs_before = session.report.stats.jobs_run;
  SHADOOP_RETURN_NOT_OK(
      session.executor->ExecuteStatement(stmt, &session.report));
  const auto& env = session.executor->environment();
  const auto it = env.find(stmt.target);
  if (it != env.end() && it->second.kind == pigeon::Dataset::Kind::kLines) {
    auto entry = std::make_shared<CachedResult>();
    entry->lines = it->second.lines;  // The binding's buffer, shared.
    entry->shape = it->second.shape;
    entry->cost = CostDelta(session.report.stats.cost, cost_before);
    for (const auto& [name, value] : session.report.stats.counters.values()) {
      const int64_t delta = value - counters_before.Get(name);
      if (delta != 0) entry->counters.emplace(name, delta);
    }
    entry->jobs_run = session.report.stats.jobs_run - jobs_before;
    result_cache_.Insert(key, std::move(entry));
  }
  session.report.stats.counters.Increment("cache.result_misses");
  return Status::OK();
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
  if (session.executor->admission_controller() != nullptr) {
    lanes = std::to_string(
        session.executor->admission_controller()->LaneShare(session.tenant));
  }
  // The plan fingerprint makes plan changes invalidate structurally: a
  // session with the optimizer off ("legacy") or an optimizer that picks
  // a different strategy (new stats, different snapshot) never reuses an
  // entry whose rows/charges came from another physical plan.
  const std::string plan = session.executor->PlanFingerprint(stmt.expr);
  *key = normalized + sources + "|lanes=" + lanes + "|plan=" + plan;
  return true;
}

}  // namespace shadoop::server
