#ifndef SHADOOP_MAPREDUCE_ADMISSION_CONTROLLER_H_
#define SHADOOP_MAPREDUCE_ADMISSION_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "mapreduce/task_scheduler.h"

namespace shadoop::mapreduce {

/// Multi-tenant admission control over the job runner (DESIGN.md §10).
///
/// The cluster serves many concurrent sessions ("tenants"); without
/// admission control one heavy spatial join monopolizes every task lane
/// and starves the casual range queries the paper's Pigeon front end is
/// built for. The controller enforces two quotas per tenant:
///
///   - a *job* quota: at most `tenant_slots` jobs of a tenant run
///     concurrently; excess jobs queue FIFO **per tenant**, so one
///     tenant's backlog never delays another tenant's admission.
///   - a *lane* share: the scheduler's task lanes (ClusterConfig::
///     num_slots) are divided among the configured tenants by weighted
///     max-min (weight = the tenant's `tenant_slots`), with leftover
///     lanes tie-broken by a seeded hash so the split is deterministic
///     and seedable. An admitted job runs — and is *costed* — with its
///     tenant's lane share instead of the whole cluster.
///
/// Determinism: real admission blocks on a mutex/condvar (so wall-clock
/// order depends on the callers), but every number the controller emits
/// is modeled, not measured. `wait_ms` comes from a per-tenant simulated
/// lane ledger (greedy least-loaded assignment of each job's simulated
/// JobCost), `queued` counts jobs whose simulated wait was nonzero, and
/// speculative preemption is a pure function of the lane share — so
/// admission counters and JobCost reproduce across runs and machines
/// exactly like the fault counters do (DESIGN.md §9).
struct AdmissionOptions {
  /// Task lanes shared by all tenants; mirrors ClusterConfig::num_slots.
  int total_slots = 25;
  /// Seed of the lane tie-break hash.
  uint64_t seed = 0;
};

/// Cumulative per-tenant admission statistics.
struct TenantStats {
  int64_t jobs_admitted = 0;
  /// Admissions whose simulated FIFO wait was nonzero.
  int64_t jobs_queued = 0;
  /// Total simulated milliseconds jobs of this tenant spent queued.
  double wait_ms = 0;
  /// Speculative backups denied because the lane share cannot fit a
  /// second concurrent attempt of the same task.
  int64_t preempted_specs = 0;
  /// Attempt-lane acquire/release pairs (primary, retried and
  /// speculative attempts all count; the two totals must match after
  /// every job — the quota-release invariant).
  int64_t lanes_acquired = 0;
  int64_t lanes_released = 0;
  /// High-water mark of concurrently running attempts.
  int peak_lanes = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = AdmissionOptions());

  /// One admitted job. Implements the scheduler's AttemptGate so every
  /// task attempt of the job (including retries and speculative backups)
  /// acquires a lane on start and releases it on completion, and so
  /// speculation respects the tenant's lane share.
  class JobTicket : public AttemptGate {
   public:
    const std::string& tenant() const { return tenant_; }
    int lane_share() const { return lane_share_; }
    /// Simulated milliseconds this job waited in its tenant's queue.
    double sim_wait_ms() const { return sim_wait_ms_; }
    /// Speculative backups denied for this job.
    int64_t preempted_specs() const {
      return preempted_specs_.load(std::memory_order_relaxed);
    }

    void OnAttemptStart(bool speculative) override;
    void OnAttemptDone(bool speculative) override;
    bool AllowSpeculative(size_t task) override;

   private:
    friend class AdmissionController;
    AdmissionController* controller_ = nullptr;
    std::string tenant_;
    int lane_share_ = 1;
    double sim_wait_ms_ = 0;
    size_t sim_lane_ = 0;
    std::atomic<int64_t> preempted_specs_{0};
  };

  /// Sets a tenant's slot quota: its maximum concurrent jobs and its
  /// weight in the lane-share split. 0 makes the tenant inadmissible
  /// (every AdmitJob is rejected) until raised again; unconfigured
  /// tenants default to `total_slots` (effectively unconstrained).
  void SetTenantSlots(const std::string& tenant, int slots)
      SHADOOP_EXCLUDES(mu_);
  int TenantSlots(const std::string& tenant) const SHADOOP_EXCLUDES(mu_);

  /// The tenant's current deterministic lane share (see
  /// ComputeLaneShares). A tenant unknown to the controller gets the
  /// share it would receive if admitted now.
  int LaneShare(const std::string& tenant) const SHADOOP_EXCLUDES(mu_);

  /// Blocks until the tenant has a free job slot (FIFO within the
  /// tenant), then returns the job's ticket. Fails immediately with
  /// ResourceExhausted when the tenant's quota is zero. The caller must
  /// pass the finished job's simulated cost to ReleaseJob exactly once.
  Result<std::unique_ptr<JobTicket>> AdmitJob(const std::string& tenant)
      SHADOOP_EXCLUDES(mu_);

  /// Releases the job's slot, charges `sim_cost_ms` to the tenant's
  /// simulated lane ledger, and wakes queued jobs.
  void ReleaseJob(JobTicket* ticket, double sim_cost_ms)
      SHADOOP_EXCLUDES(mu_);

  /// Charges one job that another tenant's session already ran (a
  /// result-cache entry's job, DESIGN.md §14.2) to `tenant`'s simulated
  /// lane ledger, exactly as AdmitJob followed by ReleaseJob(sim_cost_ms)
  /// would: picks the least-loaded lane, returns its backlog as the
  /// job's simulated wait, and adds `sim_cost_ms` to it. Blocks on
  /// nothing and takes no job slot. The tenant's jobs_admitted,
  /// jobs_queued and wait_ms advance; lanes_acquired, lanes_released and
  /// preempted_specs do not, because no attempt runs. Fails with
  /// ResourceExhausted, like AdmitJob, when the tenant's quota is zero.
  Result<double> ReplayJob(const std::string& tenant, double sim_cost_ms)
      SHADOOP_EXCLUDES(mu_);

  TenantStats StatsFor(const std::string& tenant) const
      SHADOOP_EXCLUDES(mu_);

  /// Jobs of `tenant` currently waiting in AdmitJob (for tests and
  /// cross-thread synchronization).
  int QueuedJobs(const std::string& tenant) const SHADOOP_EXCLUDES(mu_);
  /// Jobs of `tenant` currently admitted and not yet released.
  int RunningJobs(const std::string& tenant) const SHADOOP_EXCLUDES(mu_);

  const AdmissionOptions& options() const { return options_; }

  /// Deterministic weighted max-min split of `total` lanes among the
  /// given tenants (weight 0 tenants are excluded). Largest-remainder
  /// rounding; ties and leftover lanes go to tenants in seeded-hash
  /// order, and every weighted tenant keeps at least one lane while
  /// lanes remain. Exposed for tests.
  static std::map<std::string, int> ComputeLaneShares(
      int total, const std::map<std::string, int>& weights, uint64_t seed);

 private:
  struct Tenant {
    int slots = -1;  // -1 = unconfigured (defaults to total_slots).
    int running_jobs = 0;
    int waiting_jobs = 0;
    uint64_t next_seq = 0;    // Next FIFO ticket to hand out.
    uint64_t admit_seq = 0;   // Next FIFO ticket allowed to admit.
    int lanes_in_use = 0;     // Attempts currently holding a lane.
    std::vector<double> sim_lanes;  // Simulated lane finish times.
    TenantStats stats;
  };

  int QuotaOf(const Tenant& tenant) const {
    return tenant.slots < 0 ? options_.total_slots : tenant.slots;
  }
  /// Sizes the tenant's simulated ledger to its quota and returns the
  /// least-loaded lane (lowest index on ties), under mu_.
  size_t LeastLoadedSimLaneLocked(Tenant& tenant) SHADOOP_REQUIRES(mu_);
  /// Lane shares over every known nonzero-quota tenant, under mu_.
  std::map<std::string, int> CurrentLaneSharesLocked() const
      SHADOOP_REQUIRES(mu_);

  AdmissionOptions options_;
  mutable Mutex mu_;
  std::condition_variable admit_cv_;
  std::map<std::string, Tenant> tenants_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_ADMISSION_CONTROLLER_H_
