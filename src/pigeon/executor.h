#ifndef SHADOOP_PIGEON_EXECUTOR_H_
#define SHADOOP_PIGEON_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/result.h"
#include "core/op_stats.h"
#include "index/index_builder.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/job_runner.h"
#include "optimizer/optimizer.h"
#include "pigeon/ast.h"

namespace shadoop::pigeon {

/// A bound dataset in the executor's environment: a raw HDFS file, a
/// spatially indexed file, or materialized result lines.
///
/// A cheap handle: the global index and the rows are immutable and
/// shared, so looking a binding up, rebinding it or caching it copies two
/// pointers, never the rows or the partition list (DESIGN.md §8).
struct Dataset {
  enum class Kind { kFile, kIndexed, kLines };

  Kind kind = Kind::kFile;
  index::ShapeType shape = index::ShapeType::kPoint;
  std::string path;                                    // kFile / kIndexed.
  std::shared_ptr<const index::SpatialFileInfo> info;  // kIndexed.
  std::shared_ptr<const std::vector<std::string>> lines;  // kLines.

  /// Catalog lineage of an indexed dataset (empty for plain files and
  /// results): the binding is pinned to `version` of `catalog_name`, and
  /// stays on that snapshot while appends create later versions.
  std::string catalog_name;
  uint64_t version = 0;
};

/// Result of running a script: everything DUMP produced, per-dataset row
/// counts, and the aggregated cost of all jobs the script triggered.
struct ExecutionReport {
  std::vector<std::string> dump_output;
  core::OpStats stats;
};

/// Executes Pigeon scripts against a cluster. The executor routes each
/// logical operation to the best physical operator available: indexed
/// inputs use the SpatialHadoop operators (pruned splits, distributed
/// join), unindexed inputs fall back to the Hadoop full-scan operators.
/// This routing *is* the demo's "flexibility" claim: the script does not
/// change when an index appears, only its cost does.
class Executor {
 public:
  /// A standalone session: the executor owns its dataset catalog.
  explicit Executor(mapreduce::JobRunner* runner)
      : runner_(runner),
        owned_catalog_(std::make_unique<catalog::DatasetCatalog>(runner)),
        catalog_(owned_catalog_.get()) {}

  /// A server session (DESIGN.md §14): many executors share one catalog
  /// so datasets and their indexes are loaded once and read by every
  /// session. The catalog must outlive the executor; the caller (the
  /// query server) is responsible for serializing writes — catalog reads
  /// themselves are thread-safe.
  Executor(mapreduce::JobRunner* runner, catalog::DatasetCatalog* catalog)
      : runner_(runner), catalog_(catalog) {}

  /// Parses and runs `script`. The environment persists across calls, so
  /// a REPL can feed statements incrementally.
  Result<ExecutionReport> Execute(std::string_view script);

  /// Like Execute, but accumulates into an existing report. The query
  /// server keeps one report per session for its cumulative charges (so
  /// EXPLAIN counters match a single Execute call) and moves each
  /// request's dump_output out to the caller.
  Status ExecuteInto(std::string_view script, ExecutionReport* report);

  /// Runs one already-parsed statement against the session. The server's
  /// result cache sits between Parse and this call: cacheable assignments
  /// are intercepted, everything else flows through unchanged.
  Status ExecuteStatement(const Statement& stmt, ExecutionReport* report);

  /// Resolves `name` exactly as a query would (including any SET
  /// snapshot_version re-pinning). `line` anchors error messages.
  Result<Dataset> ResolveBinding(const std::string& name, int line) const {
    return LookUp(name, line);
  }

  /// Binds `name` directly, bypassing evaluation — the server uses this
  /// to pre-bind shared catalog datasets into a fresh session and to
  /// install result-cache hits.
  void Bind(const std::string& name, Dataset dataset) {
    env_[name] = std::move(dataset);
  }

  /// Access to bound datasets (for tests and tooling).
  const std::map<std::string, Dataset>& environment() const { return env_; }

  /// The session's dataset catalog: every INDEX registers its result here
  /// (version 1), `LOAD ... APPEND` grows it, and `SET snapshot_version`
  /// re-pins catalog-bound datasets at lookup time.
  catalog::DatasetCatalog& catalog() { return *catalog_; }
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// Namespace prefix for the temporary files that materialize result
  /// datasets ("/.pigeon_tmp_<ns><n>"). Concurrent server sessions share
  /// one file system, so each session must set a unique prefix; the
  /// default (empty) keeps standalone paths byte-identical to before.
  void set_temp_namespace(std::string ns) { temp_namespace_ = std::move(ns); }

  /// Multi-tenant admission (DESIGN.md §10). A session starts with no
  /// controller — jobs run unconstrained, byte-identical to the
  /// pre-admission runtime. The first `SET tenant`/`SET tenant_slots`
  /// statement lazily creates a session-owned controller sized to the
  /// runner's cluster; call set_admission_controller first to share one
  /// controller across sessions instead (multi-session fairness). The
  /// executor does not take ownership of a shared controller.
  void set_admission_controller(mapreduce::AdmissionController* controller) {
    admission_ = controller;
    BindAdmission();
  }
  mapreduce::AdmissionController* admission_controller() const {
    return admission_;
  }
  const std::string& tenant() const { return tenant_; }

  /// Every plan decision this session made, in execution order. EXPLAIN
  /// renders the latest decision for its target as the `; plan:` segment.
  const std::vector<optimizer::PlanDecision>& plan_log() const {
    return plan_log_;
  }

  /// The plan the optimizer would pick for `expr` right now, as a short
  /// token ("dj.l", "sjmr", "pruned", ...). "default" for operations
  /// without costed alternatives (or
  /// when the inputs cannot be resolved — the statement will fail with
  /// its own error). The server folds this into its result-cache key so a
  /// plan change invalidates structurally.
  std::string PlanFingerprint(const Expr& expr) const;

 private:
  /// `bind_name` is the assignment target; INDEX and LOADINDEX register
  /// catalog datasets under it.
  Result<Dataset> Eval(const Expr& expr, ExecutionReport* report,
                       const std::string& bind_name);
  Result<Dataset> LookUp(const std::string& name, int line) const;

  /// Materializes a dataset as an HDFS file (writing result lines to a
  /// temporary file when needed) so it can feed another operation.
  Result<std::string> EnsureFile(const Dataset& dataset);

  /// The physical-operator router behind every query expression: indexed
  /// datasets run `spatial` (the pruned SpatialJobBuilder plan over the
  /// global index), everything else is materialized as a file and runs
  /// `hadoop` (the full-scan plan). `allow_spatial` lets an operation add
  /// extra requirements on the index (e.g. UNION needs disjoint cells).
  template <typename Spatial, typename Hadoop>
  auto Dispatch(const Dataset& source, Spatial&& spatial, Hadoop&& hadoop,
                bool allow_spatial = true) -> decltype(hadoop(std::string())) {
    if (source.kind == Dataset::Kind::kIndexed && allow_spatial) {
      return spatial(*source.info);
    }
    SHADOOP_ASSIGN_OR_RETURN(std::string path, EnsureFile(source));
    return hadoop(path);
  }

  /// Ensures an admission controller exists (creating the session-owned
  /// one if none was shared) and rebinds the runner to it.
  void EnsureAdmission();
  void BindAdmission();

  mapreduce::JobRunner* runner_;
  std::unique_ptr<catalog::DatasetCatalog> owned_catalog_;
  catalog::DatasetCatalog* catalog_;
  /// SET snapshot_version override: n >= 1 re-resolves catalog-bound
  /// datasets to version n at lookup time. An *explicit* `SET
  /// snapshot_version 0` (snapshot_follow_latest_) re-pins each binding
  /// to the catalog's latest version at its next use — a session that
  /// never touched the knob keeps each binding's own pinned version.
  uint64_t snapshot_version_ = 0;
  bool snapshot_follow_latest_ = false;
  std::map<std::string, Dataset> env_;
  int temp_counter_ = 0;
  std::string temp_namespace_;
  std::string tenant_ = "default";
  std::unique_ptr<mapreduce::AdmissionController> owned_admission_;
  mapreduce::AdmissionController* admission_ = nullptr;
  std::vector<optimizer::PlanDecision> plan_log_;
};

}  // namespace shadoop::pigeon

#endif  // SHADOOP_PIGEON_EXECUTOR_H_
