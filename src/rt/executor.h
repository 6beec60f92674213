// Graph executors.
//
// SequentialExecutor is the single-core reference the paper's Ramiel also
// generates ("a single core non-parallel version of the code"). It runs the
// whole batch back to back on one thread, on a compile-time memory plan of
// its own: one stream in topological order, planned once at construction and
// reused by every sample of every run.
//
// ParallelExecutor is the analogue of the generated parallel Python: one
// worker thread per (hyper)cluster, cross-cluster tensors delivered through
// keyed inboxes (the queue.put()/queue.get() pairs of Algorithm 4). A plain
// batch-1 clustering is just a Hyperclustering with batch == 1.
//
// ParallelExecutor is *persistent* (the Taskflow executor pattern): its
// worker threads are spawned once in the constructor, park between calls,
// and are reused by every run() — a serving loop dispatching thousands of
// batches must not pay thread create/join per request. run() may be called
// any number of times; calls are serialized internally, so a single
// executor can be shared behind a queue (see src/serve/).
//
// Intra-op parallelism: when RunOptions.intra_op_threads > 1, each worker
// owns a private thread pool of that size for its kernels — exactly how the
// paper's per-cluster Python processes each carry their own OpenMP pool,
// including the oversubscription behaviour Table V observes. The pools are
// also persistent: created on the first run that asks for them and rebuilt
// only when the requested width changes.
//
// Multi-program hosting (the fleet pool, src/serve/fleet/): one
// ParallelExecutor can host several compiled models' hyperclustered
// programs on ONE set of persistent worker threads. Each program keeps its
// own streams, memory plan and arena set — arenas are keyed
// (program, worker, stream), so every model's MemPlan stays valid — while
// the threads, inboxes and intra-op pools are shared. run_program(p, ...)
// dispatches one batch of program p; dispatches are serialized, which is
// exactly the sharing model: tenants time-slice the same cores instead of
// oversubscribing them with per-model thread pools. add_program() /
// remove_program() support hot model loading between dispatches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "mem/arena.h"
#include "mem/plan.h"
#include "passes/hypercluster.h"
#include "rt/executor_kind.h"
#include "rt/mailbox.h"
#include "rt/planned.h"
#include "rt/profiler.h"
#include "tensor/tensor.h"

namespace ramiel::obs {
class Gauge;
}  // namespace ramiel::obs

namespace ramiel {

struct OpContext;

/// Named tensors for one batch sample (graph inputs or outputs).
using TensorMap = std::unordered_map<std::string, Tensor>;

struct RunOptions {
  /// Kernel-level threads per worker; 1 = serial kernels.
  int intra_op_threads = 1;
  /// Record per-task trace events into the profile.
  bool trace = false;
};

/// The executor seam: everything the serving layer (and the tools) need
/// from a batch runtime, implemented by the static per-cluster
/// ParallelExecutor and by the work-stealing StealExecutor (rt/steal/).
/// Construct concrete executors directly or via make_executor()
/// (rt/steal/steal_executor.h).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one batch (size fixed by the hyperclustering); returns per-sample
  /// graph outputs. Safe to call repeatedly and from multiple threads.
  virtual std::vector<TensorMap> run(const std::vector<TensorMap>& inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr) = 0;

  virtual ExecutorKind kind() const = 0;
  virtual int num_workers() const = 0;
  virtual int batch() const = 0;
  virtual std::uint64_t runs_completed() const = 0;

  /// True when this executor backs intermediates with a static memory plan.
  virtual bool mem_plan_enabled() const = 0;
};

/// Single-threaded reference executor.
///
/// The constructor plans memory for a one-worker, batch-1 hyperclustering of
/// the graph's topological order (mem::plan_memory). Samples run back to
/// back, so that one stream region is reused by every sample of every run:
/// intermediates live in a persistent arena (which also holds kernel
/// scratch) instead of being allocated and faulted in per sample. Graph
/// outputs stay on the heap, and values without a usable shape fall back to
/// it on their own. The arena serves one run at a time; a caller that finds
/// it busy runs on the heap instead, with bitwise-equal results.
class SequentialExecutor {
 public:
  /// The graph must outlive the executor.
  explicit SequentialExecutor(const Graph* graph);

  /// Runs every sample in `batch_inputs` back to back; returns per-sample
  /// graph outputs keyed by value name. Fills *profile when non-null. Safe
  /// to call from several threads at once.
  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) const;

  /// Bytes the arena holds for planned slots and kernel scratch (0 before
  /// the first run). Waits for a run that holds the arena.
  std::size_t arena_bytes_allocated() const;

 private:
  const Graph* graph_;
  std::vector<NodeId> order_;
  std::vector<char> is_output_;  // by ValueId: the value is a graph output
  std::int64_t planned_bytes_ = 0;  // the single stream region
  rt::SlotTable slots_;
  mutable std::mutex arena_mu_;  // held by the run using the arena
  mutable mem::MemArena arena_;
};

/// One compiled program a ParallelExecutor hosts: the graph, its
/// hyperclustered task lists and (optionally) its static memory plan. The
/// graph and plan must outlive the executor (the plan is copied, the graph
/// is not).
struct ExecutorProgram {
  const Graph* graph = nullptr;
  Hyperclustering hc;
  const mem::MemPlan* mem_plan = nullptr;
};

/// Multi-worker cluster executor (one persistent thread per hypercluster),
/// optionally hosting several models' programs on the same threads.
class ParallelExecutor final : public Executor {
 public:
  /// The graph must outlive the executor. `hc.batch` fixes the batch size
  /// accepted by run(). Worker threads start immediately and park until the
  /// first run(). When `mem_plan` is non-null (and non-empty) the executor
  /// copies it and backs planned intermediates with persistent per-worker
  /// arenas instead of per-run heap allocations; null runs fully on the
  /// heap (`--mem-plan=off`).
  ParallelExecutor(const Graph* graph, Hyperclustering hc,
                   const mem::MemPlan* mem_plan = nullptr);

  /// Shared-pool form: hosts every program on one set of worker threads
  /// (thread count = the widest program). Requires at least one program.
  explicit ParallelExecutor(std::vector<ExecutorProgram> programs);
  ~ParallelExecutor() override;

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Runs one batch of program 0 (batch_inputs.size() must equal that
  /// program's hyperclustering batch — checked up front). Returns
  /// per-sample graph outputs. Reuses the persistent workers; safe to call
  /// repeatedly and from multiple threads (calls are serialized).
  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) override;

  /// Runs one batch of program `program`. Dispatches across programs share
  /// the worker threads and are serialized against each other.
  std::vector<TensorMap> run_program(int program,
                                     const std::vector<TensorMap>& batch_inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr);

  /// Hot-loads another program onto the pool (spawning extra worker threads
  /// if it is wider than any current program). Returns its program id.
  /// Safe to call while other programs are being dispatched.
  int add_program(const Graph* graph, Hyperclustering hc,
                  const mem::MemPlan* mem_plan = nullptr);

  /// Retires a program: frees its arenas and rejects future dispatches.
  /// The caller must ensure no dispatch of it is in flight (the fleet
  /// registry drops entries only after their last batch completed). Worker
  /// threads are never shrunk. Ids are not reused.
  void remove_program(int program);

  ExecutorKind kind() const override { return ExecutorKind::kStatic; }

  int num_workers() const override { return program_workers(0); }

  /// Worker (cluster) count of one hosted program.
  int program_workers(int program) const;

  /// Batch size every run() must supply (program 0's).
  int batch() const override { return program_batch(0); }

  /// Batch size of one hosted program.
  int program_batch(int program) const;

  /// Hosted program slots, including retired ones (ids are stable).
  int num_programs() const;

  /// Number of run() calls completed (success or failure) — lets tests
  /// confirm thread reuse rather than re-creation.
  std::uint64_t runs_completed() const override;

  /// True when program 0 runs with a (non-empty) memory plan.
  bool mem_plan_enabled() const override;

  /// Bytes currently held by all programs' arenas (0 before the first
  /// planned run, and always 0 with plans disabled).
  std::size_t arena_bytes_allocated() const;

 private:
  struct RunState;

  /// One cross-worker delivery of a task output.
  struct Send {
    std::int32_t output;  // index into the node's outputs
    std::int32_t dest;    // consuming worker
  };

  /// Everything one hosted model needs: per-worker per-sample streams, the
  /// memory plan with its arena set, and the precomputed slot tables.
  struct Program {
    const Graph* graph = nullptr;
    Hyperclustering hc;
    /// streams[worker][sample] = that worker's tasks for that sample, in
    /// the cluster's topological order (invariant across runs).
    std::vector<std::vector<std::vector<NodeId>>> streams;
    /// Static memory plan (empty = disabled) and its runtime arenas, one
    /// per worker of THIS program.
    mem::MemPlan plan;
    std::vector<mem::MemArena> arenas;
    /// Planned outputs of every (worker, sample, node) task.
    rt::SlotTable slots;
    /// Remote consumers of each task's outputs: the entries of task
    /// (node, sample) are sends[send_begin[r]..send_begin[r + 1]) with
    /// r = sample * (node count) + node, ordered by output, then worker.
    /// The task's own worker is fixed by the hyperclustering, so (node,
    /// sample) names it.
    std::vector<std::int32_t> send_begin;
    std::vector<Send> sends;
    bool live = true;
    int workers() const { return static_cast<int>(hc.workers.size()); }
  };

  int add_program_locked(ExecutorProgram program);
  void ensure_threads(int count);
  void worker_loop(int me);
  void execute_tasks(int me, Program& prog, RunState& st,
                     const OpContext& ctx);

  /// Hosted programs; unique_ptr keeps addresses stable while add_program
  /// grows the vector (parked workers dereference entries during runs).
  std::vector<std::unique_ptr<Program>> programs_;

  /// Shared across programs, sized to the widest one. deque: Inbox holds a
  /// mutex and cannot move when add_program widens the pool.
  std::deque<Inbox> inboxes_;
  /// Registry gauges mirroring each inbox's depth (series
  /// ramiel_rt_inbox_depth{worker="i"}), updated on every put with the
  /// depth the put already computed — one relaxed atomic store.
  std::vector<obs::Gauge*> depth_gauges_;
  std::vector<std::thread> threads_;

  std::mutex run_mu_;  // serializes concurrent run()/add/remove callers

  // Start/finish handshake between run() and the parked workers.
  mutable std::mutex ctl_mu_;
  std::condition_variable start_cv_;  // workers: wait for a new run/shutdown
  std::condition_variable done_cv_;   // run(): wait for all workers to finish
  std::uint64_t run_seq_ = 0;         // bumped per run
  std::uint64_t runs_completed_ = 0;
  int workers_done_ = 0;
  int workers_ready_ = 0;  // threads that captured their initial run_seq_
  bool shutdown_ = false;
  RunState* state_ = nullptr;  // non-null only while a run is in flight
};

}  // namespace ramiel
