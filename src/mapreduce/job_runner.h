#ifndef SHADOOP_MAPREDUCE_JOB_RUNNER_H_
#define SHADOOP_MAPREDUCE_JOB_RUNNER_H_

#include <string>
#include <vector>

#include "hdfs/file_system.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/artifact_cache.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace shadoop::mapreduce {

/// Executes MapReduce jobs against a simulated HDFS instance.
///
/// Execution is *real* (map and reduce functions run on a thread pool and
/// produce real output) while time is *modeled*: JobResult::cost carries
/// the deterministic simulated cluster time derived from bytes moved,
/// records processed, task counts and the ClusterConfig — this is the
/// metric the benchmark suite reports, because it is machine-independent
/// and reproduces the paper's cost structure (job startup, scan, shuffle).
///
/// Failed task attempts (I/O errors on dead datanodes, injected faults)
/// are retried with exponential backoff up to JobConfig::max_task_attempts
/// before failing the job; stragglers are speculatively re-executed. See
/// TaskScheduler and DESIGN.md §9.
class JobRunner {
 public:
  JobRunner(hdfs::FileSystem* fs, ClusterConfig cluster = ClusterConfig())
      : fs_(fs), cluster_(cluster) {}

  const ClusterConfig& cluster() const { return cluster_; }
  hdfs::FileSystem* file_system() const { return fs_; }

  /// Installs the deterministic fault source used by every subsequent
  /// Run() (unless the job overrides it via JobConfig::fault_source).
  /// Not owned; null (the default) disables task-fault injection.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_injector_; }

  /// Binds this runner's session to an admission controller and tenant:
  /// every subsequent Run() is admitted under the tenant's quotas (jobs
  /// queue FIFO-per-tenant, task lanes shrink to the tenant's share, and
  /// speculation respects it — DESIGN.md §10). Neither is owned; a null
  /// controller (the default) disables admission entirely and keeps the
  /// runtime byte-identical to the pre-admission behavior.
  void set_admission(AdmissionController* controller, std::string tenant) {
    admission_ = controller;
    tenant_ = std::move(tenant);
  }
  AdmissionController* admission_controller() const { return admission_; }
  const std::string& tenant() const { return tenant_; }

  /// While set, every Run() that succeeds appends its JobCost to `*sink`,
  /// in run order. Not owned; null (the default) records nothing. The
  /// query server sets one around a single statement and clears it
  /// afterwards, so the runner keeps no list across statements.
  void set_job_cost_sink(std::vector<JobCost>* sink) {
    job_cost_sink_ = sink;
  }

  /// Session-level override of JobConfig::max_task_attempts (the Pigeon
  /// `SET max_task_attempts` knob); 0 (the default) keeps each job's own
  /// setting.
  void set_max_task_attempts_override(int attempts) {
    max_task_attempts_override_ = attempts;
  }
  int max_task_attempts_override() const {
    return max_task_attempts_override_;
  }

  /// Runs the job to completion. Never throws; failures are reported in
  /// JobResult::status. With an admission controller bound, blocks until
  /// the session's tenant has a free job slot first, and fails without
  /// running when the tenant's quota is zero.
  JobResult Run(const JobConfig& job);

  /// The runner's per-block artifact cache, handed to map tasks through
  /// MapContext::artifact_cache() — except while any fault injector is
  /// active, when tasks see null so injected faults are never masked.
  ArtifactCache* artifact_cache() { return &artifact_cache_; }

 private:
  /// Run() under the bound admission controller: admits the job under
  /// the session's tenant, runs it with the tenant's lane share and
  /// releases it with its simulated cost.
  JobResult RunUnderAdmission(const JobConfig& job);

  /// The admitted run: `lanes` caps task parallelism (real threads and
  /// the simulated makespan alike) and `gate` brackets every attempt.
  JobResult RunAdmitted(const JobConfig& job, int lanes, AttemptGate* gate);

  hdfs::FileSystem* fs_;
  ClusterConfig cluster_;
  ArtifactCache artifact_cache_;
  fault::FaultInjector* fault_injector_ = nullptr;
  AdmissionController* admission_ = nullptr;
  std::string tenant_ = "default";
  std::vector<JobCost>* job_cost_sink_ = nullptr;
  int max_task_attempts_override_ = 0;
};

/// Builds one split per block of `path`, with empty metadata — the
/// default, non-spatial splitter of plain Hadoop.
Result<std::vector<InputSplit>> MakeBlockSplits(const hdfs::FileSystem& fs,
                                                const std::string& path);

/// The default partitioner: FNV-1a hash of the key modulo num_reducers.
int HashPartition(std::string_view key, int num_reducers);

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_JOB_RUNNER_H_
