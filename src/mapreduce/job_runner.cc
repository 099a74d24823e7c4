#include "mapreduce/job_runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "fault/fault_injector.h"
#include "hdfs/block_arena.h"
#include "mapreduce/task_scheduler.h"
#include "mapreduce/thread_pool.h"

namespace shadoop::mapreduce {
namespace {

/// Per-task accounting shared by both context implementations.
struct TaskAccounting {
  Counters counters;
  uint64_t charged_cpu_ops = 0;
  uint64_t records_processed = 0;
  Status status;  // First failure reported by user code.
};

/// One emitted pair, stored as offsets into the owning task's shuffle
/// buffer instead of a pair of owned strings: the key bytes start at
/// `offset`, the value bytes follow immediately.
struct EmitSlice {
  uint64_t offset = 0;
  uint32_t key_len = 0;
  uint32_t value_len = 0;
};

class MapContextImpl : public MapContext {
 public:
  MapContextImpl(const InputSplit& split, int num_reducers)
      : split_(split), emitted_(std::max(1, num_reducers)) {}

  void Emit(std::string_view key, std::string_view value) override {
    const int bucket =
        partition_ ? partition_(key, static_cast<int>(emitted_.size()))
                   : HashPartition(key, static_cast<int>(emitted_.size()));
    emitted_bytes_ += key.size() + value.size();
    const uint64_t offset = buffer_.size();
    buffer_.append(key);
    buffer_.append(value);
    emitted_[bucket].push_back({offset, static_cast<uint32_t>(key.size()),
                                static_cast<uint32_t>(value.size())});
  }

  void WriteOutput(std::string line) override {
    output_bytes_ += line.size() + 1;
    output_.push_back(std::move(line));
  }

  void ChargeCpu(uint64_t ops) override { acct_.charged_cpu_ops += ops; }

  Counters& counters() override { return acct_.counters; }
  const InputSplit& split() const override { return split_; }
  void Fail(Status status) override {
    if (acct_.status.ok()) acct_.status = std::move(status);
  }

  void set_partitioner(const Partitioner& p) { partition_ = p; }

  ArtifactCache* artifact_cache() override { return cache_; }
  uint64_t block_cache_id(size_t ordinal) const override {
    return ordinal < block_ids_.size() ? block_ids_[ordinal] : 0;
  }
  void set_artifact_cache(ArtifactCache* cache,
                          std::vector<uint64_t> block_ids) {
    cache_ = cache;
    block_ids_ = std::move(block_ids);
  }

  std::string_view KeyOf(const EmitSlice& s) const {
    return std::string_view(buffer_).substr(s.offset, s.key_len);
  }
  std::string_view ValueOf(const EmitSlice& s) const {
    return std::string_view(buffer_).substr(s.offset + s.key_len, s.value_len);
  }

  const InputSplit& split_;
  Partitioner partition_;
  ArtifactCache* cache_ = nullptr;
  std::vector<uint64_t> block_ids_;  // Per split ordinal; 0 = unknown.
  std::string buffer_;  // Backing bytes of every emitted pair.
  std::vector<std::vector<EmitSlice>> emitted_;  // One bucket per reducer.
  std::vector<std::string> output_;              // Map-side final output.
  uint64_t emitted_bytes_ = 0;
  uint64_t output_bytes_ = 0;
  uint64_t bytes_read_ = 0;
  TaskAccounting acct_;
};

class ReduceContextImpl : public ReduceContext {
 public:
  void Write(std::string line) override {
    output_bytes_ += line.size() + 1;
    output_.push_back(std::move(line));
  }
  void ChargeCpu(uint64_t ops) override { acct_.charged_cpu_ops += ops; }
  Counters& counters() override { return acct_.counters; }
  void Fail(Status status) override {
    if (acct_.status.ok()) acct_.status = std::move(status);
  }

  std::vector<std::string> output_;
  uint64_t output_bytes_ = 0;
  TaskAccounting acct_;
};

/// Combiner context: Write() re-emits the line under the current group
/// key instead of producing final output.
class CombineContextImpl : public ReduceContext {
 public:
  explicit CombineContextImpl(TaskAccounting* acct) : acct_(acct) {}

  void Write(std::string line) override {
    combined_.push_back({current_key_, std::move(line)});
  }
  void ChargeCpu(uint64_t ops) override { acct_->charged_cpu_ops += ops; }
  Counters& counters() override { return acct_->counters; }
  void Fail(Status status) override {
    if (acct_->status.ok()) acct_->status = std::move(status);
  }

  std::string current_key_;
  std::vector<KeyValue> combined_;
  TaskAccounting* acct_;
};

/// Reference to one shuffled pair: points into the emitting map task's
/// buffer, which stays alive for the whole job, so the shuffle moves
/// 16-byte references instead of copying key/value strings.
struct ShuffleRef {
  const std::string* buffer = nullptr;
  uint64_t offset = 0;
  uint32_t key_len = 0;
  uint32_t value_len = 0;

  std::string_view key() const {
    return std::string_view(*buffer).substr(offset, key_len);
  }
  std::string_view value() const {
    return std::string_view(*buffer).substr(offset + key_len, value_len);
  }
};

/// Same ordering as the old KeyValue operator<: by key, then value.
bool ShuffleRefLess(const ShuffleRef& a, const ShuffleRef& b) {
  const std::string_view ka = a.key();
  const std::string_view kb = b.key();
  if (ka != kb) return ka < kb;
  return a.value() < b.value();
}

/// Runs `fn(i)` for i in [0, n) on up to `max_threads` threads, via the
/// shared persistent pool.
void ParallelFor(size_t n, int max_threads,
                 const std::function<void(size_t)>& fn) {
  ThreadPool::Shared().ParallelFor(n, max_threads, fn);
}

/// Groups a key-sorted run of pairs and invokes the reducer per group.
/// Values are materialized here, at the reduce boundary — the only place
/// the public Reducer API still requires owned strings.
void ReduceSortedRun(const std::vector<ShuffleRef>& pairs, Reducer& reducer,
                     ReduceContext& ctx) {
  size_t i = 0;
  while (i < pairs.size()) {
    size_t j = i;
    const std::string_view group_key = pairs[i].key();
    std::vector<std::string> values;
    while (j < pairs.size() && pairs[j].key() == group_key) {
      values.emplace_back(pairs[j].value());
      ++j;
    }
    const std::string key(group_key);
    reducer.Reduce(key, values, ctx);
    i = j;
  }
  reducer.Finish(ctx);
}

double CpuMs(const ClusterConfig& cfg, const TaskAccounting& acct) {
  const double ops = static_cast<double>(acct.charged_cpu_ops) +
                     static_cast<double>(acct.records_processed) *
                         cfg.ops_per_record;
  return ops / cfg.cpu_ops_per_ms;
}

TaskSchedulerOptions SchedulerOptions(const JobConfig& job,
                                      const ClusterConfig& cluster,
                                      fault::TaskKind kind,
                                      int max_attempts_override,
                                      AttemptGate* gate) {
  TaskSchedulerOptions options;
  options.job_name = job.name;
  options.kind = kind;
  options.max_task_attempts = max_attempts_override > 0
                                  ? max_attempts_override
                                  : job.max_task_attempts;
  options.task_startup_ms = cluster.task_startup_ms;
  options.retry_backoff_ms = cluster.retry_backoff_ms;
  options.speculative_execution = cluster.speculative_execution;
  options.speculative_slack_ms = cluster.speculative_slack_ms;
  options.gate = gate;
  return options;
}

}  // namespace

int HashPartition(std::string_view key, int num_reducers) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<int>(hash % static_cast<uint64_t>(
                                     std::max(1, num_reducers)));
}

Result<std::vector<InputSplit>> MakeBlockSplits(const hdfs::FileSystem& fs,
                                                const std::string& path) {
  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta, fs.GetFileMeta(path));
  std::vector<InputSplit> splits;
  splits.reserve(meta.blocks.size());
  for (size_t i = 0; i < meta.blocks.size(); ++i) {
    InputSplit split;
    split.blocks.push_back({path, i});
    split.estimated_bytes = meta.blocks[i].num_bytes;
    split.estimated_records = meta.blocks[i].num_records;
    splits.push_back(std::move(split));
  }
  return splits;
}

JobResult JobRunner::Run(const JobConfig& job) {
  if (admission_ == nullptr) {
    return RunAdmitted(job, cluster_.num_slots, /*gate=*/nullptr);
  }
  // Admission gate: blocks until the session's tenant has a free job
  // slot (FIFO within the tenant; other tenants' queues are independent)
  // and pins the tenant's deterministic lane share for the whole run.
  auto admit = admission_->AdmitJob(tenant_);
  if (!admit.ok()) {
    JobResult result;
    result.status = admit.status();
    return result;
  }
  std::unique_ptr<AdmissionController::JobTicket> ticket =
      std::move(admit).value();
  const int lanes =
      std::max(1, std::min(cluster_.num_slots, ticket->lane_share()));
  JobResult result = RunAdmitted(job, lanes, ticket.get());

  // Admission accounting rides on the result the same way the fault
  // counters do: JobCost fields always, Counters entries only when
  // nonzero, so un-contended runs stay byte-identical.
  result.cost.admission_wait_ms = ticket->sim_wait_ms();
  result.cost.admission_queued = ticket->sim_wait_ms() > 0 ? 1 : 0;
  result.cost.admission_preempted_specs = ticket->preempted_specs();
  if (result.cost.admission_queued > 0) {
    result.counters.Increment("admission.queued",
                              result.cost.admission_queued);
  }
  if (result.cost.admission_wait_ms > 0) {
    result.counters.Increment(
        "admission.wait_ms",
        static_cast<int64_t>(result.cost.admission_wait_ms + 0.5));
  }
  if (result.cost.admission_preempted_specs > 0) {
    result.counters.Increment("admission.preempted_specs",
                              result.cost.admission_preempted_specs);
  }
  // Release even for failed jobs: a job that aborted mid-phase still
  // held its slot (an aborted job's total_ms is 0, so it adds no
  // simulated backlog to the tenant's ledger).
  admission_->ReleaseJob(ticket.get(), result.cost.total_ms);
  return result;
}

JobResult JobRunner::RunAdmitted(const JobConfig& job, int lanes,
                                 AttemptGate* gate) {
  Stopwatch wall;
  JobResult result;
  result.cost.num_map_tasks = static_cast<int>(job.splits.size());
  const bool has_reduce = static_cast<bool>(job.reducer);
  const int num_reducers = has_reduce ? std::max(1, job.num_reducers) : 1;
  result.cost.num_reduce_tasks = has_reduce ? num_reducers : 0;

  if (!job.mapper) {
    result.status = Status::InvalidArgument("job '" + job.name +
                                            "' has no mapper");
    return result;
  }

  fault::FaultInjector* injector =
      job.fault_source != nullptr ? job.fault_source : fault_injector_;

  // Read-fault counters are owned by the file system's injector; the
  // job's share is the delta across the run.
  fault::FaultInjector* fs_injector = fs_->fault_injector();
  const uint64_t failovers_before =
      fs_injector != nullptr ? fs_injector->replica_failovers() : 0;

  // ------------------------------------------------------------------
  // Map phase: each task runs as a sequence of attempts under the task
  // scheduler. Every attempt builds a fresh, private context in its lane
  // slot; only the committed attempt's context is published to
  // `map_ctxs`, so a retried or speculative attempt can never double-emit
  // (commit-once, DESIGN.md §9).
  const size_t num_maps = job.splits.size();
  std::vector<std::unique_ptr<MapContextImpl>> map_ctxs(num_maps);
  std::vector<std::array<std::unique_ptr<MapContextImpl>, 2>> map_slots(
      num_maps);

  // Artifact caching is offered only on fully fault-free runs: any active
  // injector (scheduler faults, legacy per-call hook, or HDFS read
  // faults) could otherwise be masked by an artifact parsed before the
  // fault fired. Block ids are resolved once per job from the namenode.
  const bool cache_enabled = injector == nullptr && fs_injector == nullptr &&
                             !job.fault_injector;
  std::vector<std::vector<uint64_t>> split_block_ids;
  if (cache_enabled) {
    split_block_ids.resize(num_maps);
    std::unordered_map<std::string, hdfs::FileMeta> metas;
    for (size_t i = 0; i < num_maps; ++i) {
      for (const BlockRef& block : job.splits[i].blocks) {
        auto it = metas.find(block.path);
        // Point lookup — no order observed.
        if (it == metas.end()) {  // lint:allow(unordered-iteration)
          auto meta = fs_->GetFileMeta(block.path);
          it = metas.emplace(
                        block.path,
                        meta.ok() ? std::move(meta).value() : hdfs::FileMeta())
                   .first;
        }
        const hdfs::FileMeta& meta = it->second;
        split_block_ids[i].push_back(
            block.block_index < meta.blocks.size()
                ? meta.blocks[block.block_index].id
                : 0);
      }
    }
  }

  TaskScheduler map_sched(
      SchedulerOptions(job, cluster_, fault::TaskKind::kMap,
                       max_task_attempts_override_, gate),
      injector);
  map_sched.RunTasks(
      num_maps, lanes,
      [&](size_t i, const AttemptInfo& info, int slot,
          const std::atomic<bool>& cancelled) -> AttemptOutcome {
        const InputSplit& split = job.splits[i];
        // Legacy per-call fault hook (tests): fail before doing any work.
        if (job.fault_injector &&
            job.fault_injector(static_cast<int>(i), info.id)) {
          return {Status::IoError("injected fault in map task " +
                                  std::to_string(i)),
                  /*transient=*/true};
        }
        auto ctx = std::make_unique<MapContextImpl>(split, num_reducers);
        ctx->set_partitioner(job.partitioner);
        if (cache_enabled) {
          ctx->set_artifact_cache(&artifact_cache_, split_block_ids[i]);
        }
        std::unique_ptr<Mapper> mapper = job.mapper();
        mapper->BeginSplit(*ctx);
        // The arena pins every block of the attempt, so record views stay
        // valid across the whole split — through EndSplit() — without any
        // per-record copies.
        hdfs::BlockArena arena;
        uint64_t bytes = 0;
        for (size_t ordinal = 0; ordinal < split.blocks.size(); ++ordinal) {
          if (cancelled.load(std::memory_order_acquire)) {
            return {Status::Cancelled("map attempt killed by rival commit"),
                    /*transient=*/true};
          }
          const BlockRef& block = split.blocks[ordinal];
          auto payload = fs_->ReadBlockRaw(block.path, block.block_index);
          if (!payload.ok()) {
            // Transient: a replica may still be alive on retry.
            return {payload.status(), /*transient=*/true};
          }
          mapper->BeginBlock(ordinal, *ctx);
          for (std::string_view record :
               arena.AddBlock(std::move(payload).value())) {
            bytes += record.size() + 1;
            ++ctx->acct_.records_processed;
            mapper->Map(record, *ctx);
            if (!ctx->acct_.status.ok()) break;
          }
          if (!ctx->acct_.status.ok()) break;
        }
        if (ctx->acct_.status.ok()) mapper->EndSplit(*ctx);
        if (!ctx->acct_.status.ok()) {
          // User-code failure: deterministic, retrying would repeat it.
          return {ctx->acct_.status, /*transient=*/false};
        }
        ctx->bytes_read_ = bytes;
        map_slots[i][slot] = std::move(ctx);
        return {};
      },
      [&](size_t i, int slot) {
        map_ctxs[i] = std::move(map_slots[i][slot]);
      });
  map_slots.clear();  // Discard losing attempts' partial output.

  TaskScheduler reduce_sched(
      SchedulerOptions(job, cluster_, fault::TaskKind::kReduce,
                       max_task_attempts_override_, gate),
      injector);

  auto finish_fault_accounting = [&] {
    result.cost.task_retries =
        map_sched.task_retries() + reduce_sched.task_retries();
    result.cost.speculative_launched =
        map_sched.speculative_launched() + reduce_sched.speculative_launched();
    result.cost.speculative_won =
        map_sched.speculative_won() + reduce_sched.speculative_won();
    if (fs_injector != nullptr) {
      result.cost.replica_failovers = static_cast<int64_t>(
          fs_injector->replica_failovers() - failovers_before);
    }
    // Counters appear only when nonzero, so fault-free runs (and the
    // golden parity suite) serialize byte-identically to the pre-fault
    // runtime.
    if (result.cost.task_retries > 0) {
      result.counters.Increment("fault.task_retries",
                                result.cost.task_retries);
    }
    if (result.cost.speculative_launched > 0) {
      result.counters.Increment("fault.speculative_launched",
                                result.cost.speculative_launched);
    }
    if (result.cost.speculative_won > 0) {
      result.counters.Increment("fault.speculative_won",
                                result.cost.speculative_won);
    }
    if (result.cost.replica_failovers > 0) {
      result.counters.Increment("fault.replica_failovers",
                                result.cost.replica_failovers);
    }
  };

  if (!map_sched.ok()) {
    finish_fault_accounting();
    result.status = map_sched.MakeStatus();
    result.wall_ms = wall.ElapsedMillis();
    return result;
  }

  // Optional combiner: per map task, sort + group + combine in place,
  // then rebuild the task's shuffle buffer from the combined pairs.
  if (job.combiner) {
    ParallelFor(num_maps, lanes, [&](size_t i) {
      MapContextImpl& ctx = *map_ctxs[i];
      std::unique_ptr<Reducer> combiner = job.combiner();
      uint64_t new_bytes = 0;
      std::string new_buffer;
      for (auto& bucket : ctx.emitted_) {
        std::sort(bucket.begin(), bucket.end(),
                  [&ctx](const EmitSlice& a, const EmitSlice& b) {
                    const std::string_view ka = ctx.KeyOf(a);
                    const std::string_view kb = ctx.KeyOf(b);
                    if (ka != kb) return ka < kb;
                    return ctx.ValueOf(a) < ctx.ValueOf(b);
                  });
        CombineContextImpl cc(&ctx.acct_);
        size_t p = 0;
        while (p < bucket.size()) {
          size_t q = p;
          const std::string_view group_key = ctx.KeyOf(bucket[p]);
          std::vector<std::string> values;
          while (q < bucket.size() && ctx.KeyOf(bucket[q]) == group_key) {
            values.emplace_back(ctx.ValueOf(bucket[q]));
            ++q;
          }
          cc.current_key_ = std::string(group_key);
          ctx.acct_.records_processed += values.size();
          combiner->Reduce(cc.current_key_, values, cc);
          p = q;
        }
        std::vector<EmitSlice> rebuilt;
        rebuilt.reserve(cc.combined_.size());
        for (const KeyValue& kv : cc.combined_) {
          const uint64_t offset = new_buffer.size();
          new_buffer.append(kv.key);
          new_buffer.append(kv.value);
          rebuilt.push_back({offset, static_cast<uint32_t>(kv.key.size()),
                             static_cast<uint32_t>(kv.value.size())});
          new_bytes += kv.key.size() + kv.value.size();
        }
        bucket = std::move(rebuilt);
      }
      ctx.buffer_ = std::move(new_buffer);
      ctx.emitted_bytes_ = new_bytes;
    });
  }

  // ------------------------------------------------------------------
  // Shuffle: route each map task's buckets to reduce task inputs. Only
  // (buffer, offset) references move; the bytes stay in the map tasks'
  // buffers, which outlive the reduce phase.
  std::vector<std::vector<ShuffleRef>> reduce_inputs(num_reducers);
  uint64_t shuffle_bytes = 0;
  for (size_t i = 0; i < num_maps; ++i) {
    MapContextImpl& ctx = *map_ctxs[i];
    shuffle_bytes += ctx.emitted_bytes_;
    for (int r = 0; r < num_reducers; ++r) {
      auto& bucket = ctx.emitted_[r];
      reduce_inputs[r].reserve(reduce_inputs[r].size() + bucket.size());
      for (const EmitSlice& s : bucket) {
        reduce_inputs[r].push_back(
            {&ctx.buffer_, s.offset, s.key_len, s.value_len});
      }
      bucket.clear();
      bucket.shrink_to_fit();
    }
  }

  // Sort each reduce input once, before any attempt runs: concurrent
  // speculative attempts then share the sorted run read-only, so a
  // re-executed reducer sees bit-identical input.
  ParallelFor(static_cast<size_t>(num_reducers), lanes,
              [&](size_t r) {
                std::sort(reduce_inputs[r].begin(), reduce_inputs[r].end(),
                          ShuffleRefLess);
              });

  // ------------------------------------------------------------------
  // Reduce phase, under the same attempt scheduler as the map phase.
  std::vector<std::unique_ptr<ReduceContextImpl>> reduce_ctxs(num_reducers);
  if (has_reduce) {
    std::vector<std::array<std::unique_ptr<ReduceContextImpl>, 2>>
        reduce_slots(num_reducers);
    reduce_sched.RunTasks(
        static_cast<size_t>(num_reducers), lanes,
        [&](size_t r, const AttemptInfo& info, int slot,
            const std::atomic<bool>& cancelled) -> AttemptOutcome {
          (void)info;
          (void)cancelled;
          auto ctx = std::make_unique<ReduceContextImpl>();
          std::unique_ptr<Reducer> reducer = job.reducer();
          ctx->acct_.records_processed += reduce_inputs[r].size();
          ReduceSortedRun(reduce_inputs[r], *reducer, *ctx);
          if (!ctx->acct_.status.ok()) {
            return {ctx->acct_.status, /*transient=*/false};
          }
          reduce_slots[r][slot] = std::move(ctx);
          return {};
        },
        [&](size_t r, int slot) {
          reduce_ctxs[r] = std::move(reduce_slots[r][slot]);
        });
    if (!reduce_sched.ok()) {
      finish_fault_accounting();
      result.status = reduce_sched.MakeStatus();
      result.wall_ms = wall.ElapsedMillis();
      return result;
    }
  } else {
    // Map-only job: emitted pairs (if any) pass through as "key<TAB>value".
    for (int r = 0; r < num_reducers; ++r) {
      reduce_ctxs[r] = std::make_unique<ReduceContextImpl>();
      for (const ShuffleRef& ref : reduce_inputs[r]) {
        reduce_ctxs[r]->Write(ref.key_len == 0
                                  ? std::string(ref.value())
                                  : std::string(ref.key()) + "\t" +
                                        std::string(ref.value()));
      }
    }
  }

  // ------------------------------------------------------------------
  // Assemble output and counters deterministically (task order). Lines
  // move out of the task contexts; the reserve makes this one allocation.
  size_t num_lines = 0;
  for (const auto& ctx : map_ctxs) num_lines += ctx->output_.size();
  for (const auto& ctx : reduce_ctxs) num_lines += ctx->output_.size();
  result.output.reserve(num_lines);
  for (size_t i = 0; i < num_maps; ++i) {
    MapContextImpl& ctx = *map_ctxs[i];
    result.counters.MergeFrom(ctx.acct_.counters);
    for (std::string& line : ctx.output_) {
      result.output.push_back(std::move(line));
    }
  }
  for (std::unique_ptr<ReduceContextImpl>& ctx : reduce_ctxs) {
    result.counters.MergeFrom(ctx->acct_.counters);
    for (std::string& line : ctx->output_) {
      result.output.push_back(std::move(line));
    }
  }
  finish_fault_accounting();

  if (!job.output_path.empty()) {
    Status write_status = fs_->WriteLines(job.output_path, result.output);
    if (!write_status.ok()) {
      result.status = write_status;
      result.wall_ms = wall.ElapsedMillis();
      return result;
    }
  }

  // ------------------------------------------------------------------
  // Deterministic simulated cost. Retries, backoff waits and straggler
  // delays show up as per-task overhead from the scheduler reports —
  // pure functions of the fault policy, independent of real scheduling.
  std::vector<double> map_costs;
  map_costs.reserve(num_maps);
  uint64_t total_read = 0;
  uint64_t map_output_bytes = 0;
  for (size_t i = 0; i < num_maps; ++i) {
    MapContextImpl& ctx = *map_ctxs[i];
    total_read += ctx.bytes_read_;
    map_output_bytes += ctx.output_bytes_;
    const double io_ms =
        static_cast<double>(ctx.bytes_read_) / cluster_.disk_bytes_per_ms +
        static_cast<double>(ctx.emitted_bytes_ + ctx.output_bytes_) /
            cluster_.disk_bytes_per_ms;
    map_costs.push_back(cluster_.task_startup_ms + io_ms +
                        CpuMs(cluster_, ctx.acct_) +
                        map_sched.reports()[i].sim_overhead_ms);
  }

  std::vector<double> reduce_costs;
  uint64_t reduce_output_bytes = 0;
  if (has_reduce) {
    reduce_costs.reserve(num_reducers);
    for (int r = 0; r < num_reducers; ++r) {
      uint64_t in_bytes = 0;
      for (const ShuffleRef& ref : reduce_inputs[r]) {
        in_bytes += ref.key_len + ref.value_len;
      }
      reduce_output_bytes += reduce_ctxs[r]->output_bytes_;
      const double io_ms =
          static_cast<double>(in_bytes + reduce_ctxs[r]->output_bytes_) /
          cluster_.disk_bytes_per_ms;
      reduce_costs.push_back(cluster_.task_startup_ms + io_ms +
                             CpuMs(cluster_, reduce_ctxs[r]->acct_) +
                             reduce_sched.reports()[r].sim_overhead_ms);
    }
  }

  result.cost.bytes_read = total_read;
  result.cost.bytes_shuffled = shuffle_bytes;
  result.cost.bytes_written = map_output_bytes + reduce_output_bytes;
  result.cost.map_makespan_ms = Makespan(map_costs, lanes);
  result.cost.shuffle_ms =
      static_cast<double>(shuffle_bytes) / cluster_.net_bytes_per_ms;
  result.cost.reduce_makespan_ms = Makespan(reduce_costs, lanes);
  result.cost.total_ms = cluster_.job_startup_ms + result.cost.map_makespan_ms +
                         result.cost.shuffle_ms +
                         result.cost.reduce_makespan_ms;
  result.wall_ms = wall.ElapsedMillis();
  result.status = Status::OK();
  return result;
}

}  // namespace shadoop::mapreduce
