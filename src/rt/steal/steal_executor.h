// Work-stealing dynamic executor — the second runtime beside the static
// per-cluster placement of rt/executor.h.
//
// The static ParallelExecutor pins one worker per hypercluster and runs each
// worker's streams in a fixed cooperative order; when cluster costs are
// skewed (or several models share a machine) the loaded worker becomes the
// makespan while its siblings idle. StealExecutor instead decomposes the
// hyperclustered program into fine-grained tasks (task_graph.h) with atomic
// dependency counts, runs them on a pool of persistent workers, and lets
// idle workers steal from the tail of victims' deques (Chase–Lev, deque.h):
//
//   * a completed task decrements each successor; a successor hitting zero
//     is pushed onto the finishing worker's own deque (LIFO hot path);
//   * an empty worker scans the other deques and steals from the top —
//     the oldest task, most likely to unlock a whole region of the graph;
//   * cross-cluster tensors are read straight from the shared value table —
//     a dependency edge replaces the static runtime's mailbox hop.
//
// The static memory plan stays valid: each task carries the worker stream
// the plan placed it on ("home"), its planned outputs land in that stream's
// arena slots, and the task graph chains every stream into its planned
// order (see task_graph.h) so slot-reuse liveness is exactly what the
// planner assumed. Kernel scratch comes from a per-worker-thread scratch
// arena instead of the plan's (two streams homed to one arena can now run
// concurrently, so the per-arena scratch bump allocator of the static path
// would race).
//
// Outputs are bit-identical to the static executor's: every task runs the
// same kernel on the same inputs with the same intra-op width; only the
// interleaving differs (enforced by tests/steal_test.cc across the zoo).
//
// Observability: obs counters ramiel_steal_{runs,tasks,steals}_total and
// histogram ramiel_steal_run_wall_ms; with RunOptions.trace, per-task spans
// land on the same Timeline the static runtime uses (worker = the thread
// that actually executed the task, which is how steals become visible in
// the trace).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mem/arena.h"
#include "mem/plan.h"
#include "rt/executor.h"
#include "rt/planned.h"
#include "rt/steal/deque.h"
#include "rt/steal/task_graph.h"

namespace ramiel {

struct OpContext;

class StealExecutor final : public Executor {
 public:
  /// The graph must outlive the executor. Worker count and batch come from
  /// the hyperclustering (same contract as ParallelExecutor, so the two are
  /// drop-in interchangeable behind the Executor seam). `mem_plan` non-null
  /// and non-empty backs planned intermediates with per-home arenas and
  /// chains each planned stream to its planned order.
  StealExecutor(const Graph* graph, Hyperclustering hc,
                const mem::MemPlan* mem_plan = nullptr);
  ~StealExecutor() override;

  StealExecutor(const StealExecutor&) = delete;
  StealExecutor& operator=(const StealExecutor&) = delete;

  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) override;

  ExecutorKind kind() const override { return ExecutorKind::kSteal; }
  int num_workers() const override { return num_workers_; }
  int batch() const override { return hc_.batch; }
  std::uint64_t runs_completed() const override;
  bool mem_plan_enabled() const override { return !plan_.empty(); }

  /// Bytes currently held by the per-home arenas (planned-slot blocks).
  std::size_t arena_bytes_allocated() const;

  /// The dependency-counted decomposition (test introspection).
  const steal::TaskGraph& task_graph() const { return tg_; }

 private:
  struct RunState;

  void worker_loop(int me);
  void work(int me, RunState& st, const OpContext& ctx, mem::SlotSink& sink);
  void execute_task(int me, std::int32_t t, bool stolen, RunState& st,
                    const OpContext& ctx, mem::SlotSink& sink);
  void signal_work();

  const Graph* graph_;
  Hyperclustering hc_;
  steal::TaskGraph tg_;
  int num_workers_ = 0;

  /// Static memory plan (empty = disabled) and its runtime arenas, indexed
  /// by the *home* worker of a task (not the thread executing it).
  mem::MemPlan plan_;
  std::vector<mem::MemArena> arenas_;
  /// Planned outputs of every (home, sample, node) task.
  rt::SlotTable slots_;
  /// Per worker *thread* scratch arenas for kernel pack/im2col buffers.
  std::vector<mem::MemArena> scratch_arenas_;

  // Live scheduling state, reset by run() while all workers are parked.
  std::vector<steal::WorkDeque> deques_;
  std::unique_ptr<std::atomic<std::int32_t>[]> deps_;
  std::vector<Tensor> values_;  // (value, sample) -> produced tensor
  std::atomic<std::int64_t> remaining_{0};
  std::atomic<bool> abort_{false};

  // Idle workers park here; any push of newly-ready work (and the final
  // task) bumps the epoch and notifies. Sleeps are bounded (wait_for), so a
  // racy missed notification only costs one timeout, never a hang.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<int> sleepers_{0};

  std::vector<std::thread> threads_;
  std::mutex run_mu_;  // serializes concurrent run() callers

  // Start/finish handshake (same shape as ParallelExecutor's).
  mutable std::mutex ctl_mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t run_seq_ = 0;
  std::uint64_t runs_completed_ = 0;
  int workers_done_ = 0;
  bool shutdown_ = false;
  RunState* state_ = nullptr;
};

/// Constructs the requested executor behind the seam. `kind` must be
/// kStatic or kSteal — resolve kAuto (a serving-layer policy) first.
std::unique_ptr<Executor> make_executor(ExecutorKind kind, const Graph* graph,
                                        Hyperclustering hc,
                                        const mem::MemPlan* mem_plan = nullptr);

}  // namespace ramiel
