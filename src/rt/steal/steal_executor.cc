#include "rt/steal/steal_executor.h"

#include <chrono>
#include <exception>
#include <utility>

#include "graph/op_eval.h"
#include "obs/metrics.h"
#include "rt/exec_util.h"
#include "rt/planned.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "tensor/thread_pool.h"

namespace ramiel {
namespace {

/// Process-wide steal-runtime counters, resolved once and bumped per run()
/// (the hot path only touches the per-run WorkerProfile).
struct StealMetrics {
  obs::Counter* runs = obs::registry().counter(
      "ramiel_steal_runs_total", "Steal-executor run() calls completed");
  obs::Counter* tasks = obs::registry().counter(
      "ramiel_steal_tasks_total",
      "Tasks executed by the work-stealing runtime (node x sample)");
  obs::Counter* steals = obs::registry().counter(
      "ramiel_steal_steals_total",
      "Tasks obtained by stealing from another worker's deque");
  obs::Histogram* run_wall_ms = obs::registry().histogram(
      "ramiel_steal_run_wall_ms", "Steal-executor run() wall time (ms)");
  // Shared with the static runtime: the memory-plan layer's semantics are
  // executor-independent, so both runtimes feed one pair of series.
  obs::Counter* allocs_avoided = obs::registry().counter(
      "ramiel_mem_alloc_avoided_total",
      "Kernel output allocations served from a planned arena slot");
  obs::Counter* arena_grows = obs::registry().counter(
      "ramiel_mem_arena_grow_total",
      "Times a nonempty worker arena had to be reallocated larger");
};

StealMetrics& steal_metrics() {
  static StealMetrics* m = new StealMetrics();
  return *m;
}

}  // namespace

/// Everything one run() shares with the workers. Lives on run()'s stack;
/// workers only touch it between the start and done handshakes.
struct StealExecutor::RunState {
  const std::vector<TensorMap>* batch_inputs = nullptr;
  RunOptions options;
  std::vector<WorkerProfile> wps;
  std::vector<std::vector<TaskEvent>> wevents;
  std::exception_ptr first_error;
  std::mutex error_mu;
};

StealExecutor::StealExecutor(const Graph* graph, Hyperclustering hc,
                             const mem::MemPlan* mem_plan)
    : graph_(graph), hc_(std::move(hc)) {
  RAMIEL_CHECK(graph != nullptr, "graph must not be null");
  RAMIEL_CHECK(!hc_.workers.empty(), "hyperclustering has no workers");
  RAMIEL_CHECK(hc_.batch >= 1, "hyperclustering batch must be >= 1");
  num_workers_ = static_cast<int>(hc_.workers.size());
  const int k = num_workers_;

  const bool planned = mem_plan != nullptr && !mem_plan->empty();
  tg_ = steal::build_task_graph(*graph_, hc_, /*chain_streams=*/planned);

  if (planned) {
    RAMIEL_CHECK(static_cast<int>(mem_plan->workers.size()) == k,
                 "memory plan was computed for a different hyperclustering");
    plan_ = *mem_plan;
    arenas_ = std::vector<mem::MemArena>(static_cast<std::size_t>(k));
    slots_ = rt::SlotTable(*graph_, plan_);
  }
  scratch_arenas_ = std::vector<mem::MemArena>(static_cast<std::size_t>(k));

  deques_ = std::vector<steal::WorkDeque>(static_cast<std::size_t>(k));
  for (steal::WorkDeque& d : deques_) d.reset_capacity(tg_.size());
  deps_ = std::make_unique<std::atomic<std::int32_t>[]>(tg_.size());
  values_.resize(graph_->values().size() *
                 static_cast<std::size_t>(hc_.batch));

  threads_.reserve(static_cast<std::size_t>(k));
  for (int w = 0; w < k; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

StealExecutor::~StealExecutor() {
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::uint64_t StealExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  return runs_completed_;
}

std::size_t StealExecutor::arena_bytes_allocated() const {
  std::size_t total = 0;
  for (const mem::MemArena& a : arenas_) total += a.capacity_bytes();
  return total;
}

void StealExecutor::signal_work() {
  work_epoch_.fetch_add(1, std::memory_order_release);
  // The empty critical section orders the epoch bump against a sleeper that
  // evaluated its predicate but has not yet blocked; the bounded wait_for
  // below would recover from a miss anyway, this just makes wakes prompt.
  { std::lock_guard<std::mutex> lk(idle_mu_); }
  idle_cv_.notify_all();
}

void StealExecutor::worker_loop(int me) {
  // Persistent per-worker intra-op pool, rebuilt only on width change —
  // the same steady-state-serving economics as the static executor.
  std::unique_ptr<ThreadPool> pool;
  int pool_threads = 1;
  std::uint64_t seen = 0;

  mem::SlotSink sink;
  sink.set_scratch_arena(&scratch_arenas_[static_cast<std::size_t>(me)]);

  while (true) {
    RunState* st = nullptr;
    {
      std::unique_lock<std::mutex> lk(ctl_mu_);
      start_cv_.wait(lk, [&] { return shutdown_ || run_seq_ != seen; });
      if (shutdown_) return;
      seen = run_seq_;
      st = state_;
    }

    if (st->options.intra_op_threads != pool_threads) {
      pool.reset();
      if (st->options.intra_op_threads > 1) {
        pool = std::make_unique<ThreadPool>(st->options.intra_op_threads - 1);
      }
      pool_threads = st->options.intra_op_threads;
    }
    OpContext ctx;
    if (pool_threads > 1) {
      ctx.threads = pool_threads;
      ctx.pool = pool.get();
    }

    try {
      work(me, *st, ctx, sink);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(st->error_mu);
        if (!st->first_error) st->first_error = std::current_exception();
      }
      abort_.store(true, std::memory_order_release);
      signal_work();  // unpark every sibling so the run unwinds
    }

    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

// The scheduling loop: drain the own deque (LIFO), then steal (FIFO, round
// robin over victims), then park until new work is published or the run
// ends. Parks are bounded so a lost wakeup degrades to one timeout.
void StealExecutor::work(int me, RunState& st, const OpContext& ctx,
                         mem::SlotSink& sink) {
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  steal::WorkDeque& mine = deques_[static_cast<std::size_t>(me)];
  const int k = num_workers_;

  while (true) {
    if (abort_.load(std::memory_order_acquire)) return;

    std::int32_t task;
    if (mine.pop(&task)) {
      execute_task(me, task, /*stolen=*/false, st, ctx, sink);
      continue;
    }
    bool got = false;
    for (int i = 1; i < k && !got; ++i) {
      got = deques_[static_cast<std::size_t>((me + i) % k)].steal(&task);
    }
    if (got) {
      execute_task(me, task, /*stolen=*/true, st, ctx, sink);
      continue;
    }

    if (remaining_.load(std::memory_order_acquire) == 0) return;

    // Nothing runnable anywhere we looked. Re-scan cheaply (a push may have
    // landed mid-scan), then park against the work epoch.
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
    bool maybe = false;
    for (int w = 0; w < k && !maybe; ++w) {
      maybe = deques_[static_cast<std::size_t>(w)].maybe_nonempty();
    }
    if (maybe) continue;

    const std::int64_t t0 = Stopwatch::now_ns();
    {
      std::unique_lock<std::mutex> lk(idle_mu_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      idle_cv_.wait_for(lk, std::chrono::microseconds(200), [&] {
        return work_epoch_.load(std::memory_order_acquire) != epoch ||
               remaining_.load(std::memory_order_acquire) == 0 ||
               abort_.load(std::memory_order_acquire);
      });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    wp.recv_wait_ns += Stopwatch::now_ns() - t0;
  }
}

void StealExecutor::execute_task(int me, std::int32_t t, bool stolen,
                                 RunState& st, const OpContext& ctx,
                                 mem::SlotSink& sink) {
  const Graph& g = *graph_;
  const steal::StealTask& task = tg_.tasks[static_cast<std::size_t>(t)];
  const Node& n = g.node(task.node);
  const int s = task.sample;
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  if (stolen) ++wp.tasks_stolen;

  const auto value_idx = [&](ValueId v) {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(hc_.batch) +
           static_cast<std::size_t>(s);
  };

  // Constant nodes are no-ops (consumers read the payload off the value),
  // but still unlock their successors below.
  if (n.kind != OpKind::kConstant) {
    const std::vector<TensorMap>& batch_inputs = *st.batch_inputs;
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (ValueId v : n.inputs) {
      Tensor in;
      if (!rt::fetch_static_input(g, v, batch_inputs[static_cast<std::size_t>(s)],
                                  &in)) {
        // Produced by a predecessor task; the dependency count reaching
        // zero ordered that write before this read.
        in = values_[value_idx(v)];
        RAMIEL_CHECK(in.numel() > 0 || g.value(v).shape.numel() == 0,
                     str_cat("value '", g.value(v).name,
                             "' not computed (dependency edge missing)"));
      }
      inputs.push_back(std::move(in));
    }

    // Planned outputs land in the task's home stream slots, whichever
    // thread runs it.
    const rt::PlannedOuts outs = slots_.outs(task.home, s, task.node);
    float* const arena_base =
        outs.empty() ? nullptr
                     : arenas_[static_cast<std::size_t>(task.home)].data();
    const std::int64_t t0 = Stopwatch::now_ns();
    std::vector<Tensor> outputs = rt::eval_planned(
        n, inputs, ctx, &sink, arena_base, outs, &wp.allocs_avoided);
    const std::int64_t t1 = Stopwatch::now_ns();
    wp.busy_ns += t1 - t0;
    if (st.options.trace) {
      st.wevents[static_cast<std::size_t>(me)].push_back(
          TaskEvent{task.node, s, me, t0, t1});
    }

    for (std::size_t i = 0; i < outputs.size(); ++i) {
      values_[value_idx(n.outputs[i])] = std::move(outputs[i]);
    }
  }
  ++wp.tasks;

  // Publish, then unlock: each successor whose count hits zero goes onto
  // this worker's deque (its inputs are hot here). The fetch_sub release
  // sequence orders every producer's value writes before the successor's
  // execution, whichever thread ends up running it.
  bool pushed = false;
  for (std::int32_t i = tg_.succ_begin[static_cast<std::size_t>(t)];
       i < tg_.succ_begin[static_cast<std::size_t>(t) + 1]; ++i) {
    const std::int32_t succ = tg_.succ[static_cast<std::size_t>(i)];
    const std::int32_t left = deps_[succ].fetch_sub(
        1, std::memory_order_acq_rel);
    RAMIEL_CHECK(left >= 1, "dependency count underflow (task executed twice?)");
    if (left == 1) {
      deques_[static_cast<std::size_t>(me)].push(succ);
      pushed = true;
    }
  }
  if (pushed && sleepers_.load(std::memory_order_seq_cst) > 0) signal_work();
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    signal_work();  // last task: wake every parked sibling so they exit
  }
}

std::vector<TensorMap> StealExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  const Graph& g = *graph_;
  const int batch = hc_.batch;
  RAMIEL_CHECK(static_cast<int>(batch_inputs.size()) == batch,
               str_cat("batch size mismatch: executor compiled for batch ",
                       batch, " (hyperclustering), run() got ",
                       batch_inputs.size(), " sample",
                       batch_inputs.size() == 1 ? "" : "s"));
  const int k = num_workers_;

  // All workers are parked, so the scheduling state can be reset without
  // racing; the ctl_mu_ handshake below publishes it to the workers.
  for (std::size_t t = 0; t < tg_.size(); ++t) {
    deps_[t].store(tg_.initial_deps[t], std::memory_order_relaxed);
  }
  for (steal::WorkDeque& d : deques_) d.reset_capacity(tg_.size());
  for (Tensor& v : values_) v = Tensor();
  remaining_.store(static_cast<std::int64_t>(tg_.size()),
                   std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  for (std::int32_t seed : tg_.seeds) {
    deques_[static_cast<std::size_t>(
                tg_.tasks[static_cast<std::size_t>(seed)].home)]
        .push(seed);
  }

  if (!plan_.empty()) {
    std::uint64_t grows = 0;
    for (int w = 0; w < k; ++w) {
      if (arenas_[static_cast<std::size_t>(w)].ensure(static_cast<std::size_t>(
              plan_.workers[static_cast<std::size_t>(w)].arena_bytes))) {
        ++grows;
      }
    }
    if (grows > 0) steal_metrics().arena_grows->inc(grows);
  }

  RunState st;
  st.batch_inputs = &batch_inputs;
  st.options = options;
  st.wps.resize(static_cast<std::size_t>(k));
  st.wevents.resize(static_cast<std::size_t>(k));

  Stopwatch wall;
  const std::int64_t run_t0 = Stopwatch::now_ns();
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    state_ = &st;
    workers_done_ = 0;
    ++run_seq_;
  }
  start_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(ctl_mu_);
    done_cv_.wait(lk, [&] { return workers_done_ == k; });
    state_ = nullptr;
    ++runs_completed_;
  }
  const std::int64_t run_t1 = Stopwatch::now_ns();
  const double wall_ms = wall.millis();

  if (st.first_error) {
    for (Tensor& v : values_) v = Tensor();  // drop arena-backed leftovers
    std::rethrow_exception(st.first_error);
  }

  // Collect graph outputs. Arena-backed tensors must not outlive the run
  // (their slots are rewritten by the next one) — detach them here.
  std::vector<TensorMap> results(static_cast<std::size_t>(batch));
  for (int s = 0; s < batch; ++s) {
    rt::collect_static_outputs(g, batch_inputs[static_cast<std::size_t>(s)],
                               &results[static_cast<std::size_t>(s)]);
    for (ValueId ov : g.outputs()) {
      const Value& val = g.value(ov);
      if (val.is_constant() || val.producer == kNoNode ||
          g.node(val.producer).dead) {
        continue;  // collected statically above
      }
      const Tensor& produced =
          values_[static_cast<std::size_t>(ov) *
                      static_cast<std::size_t>(batch) +
                  static_cast<std::size_t>(s)];
      results[static_cast<std::size_t>(s)].emplace(
          val.name, produced.owns_storage() ? produced : produced.clone());
    }
  }
  for (Tensor& v : values_) v = Tensor();

  StealMetrics& m = steal_metrics();
  std::uint64_t tasks = 0, steals = 0, avoided = 0;
  for (const WorkerProfile& w : st.wps) {
    tasks += static_cast<std::uint64_t>(w.tasks);
    steals += static_cast<std::uint64_t>(w.tasks_stolen);
    avoided += static_cast<std::uint64_t>(w.allocs_avoided);
  }
  m.tasks->inc(tasks);
  m.steals->inc(steals);
  if (avoided > 0) m.allocs_avoided->inc(avoided);
  m.runs->inc();
  m.run_wall_ms->observe(wall_ms);

  if (profile != nullptr) {
    profile->wall_ms = wall_ms;
    profile->start_ns = run_t0;
    profile->end_ns = run_t1;
    profile->events.clear();
    for (auto& ev : st.wevents) {
      profile->events.insert(profile->events.end(), ev.begin(), ev.end());
    }
    profile->messages.clear();       // no mailbox hops in this runtime
    profile->queue_depths.clear();
    profile->workers = std::move(st.wps);
  }
  return results;
}

std::unique_ptr<Executor> make_executor(ExecutorKind kind, const Graph* graph,
                                        Hyperclustering hc,
                                        const mem::MemPlan* mem_plan) {
  switch (kind) {
    case ExecutorKind::kStatic:
      return std::make_unique<ParallelExecutor>(graph, std::move(hc),
                                                mem_plan);
    case ExecutorKind::kSteal:
      return std::make_unique<StealExecutor>(graph, std::move(hc), mem_plan);
    case ExecutorKind::kAuto:
      break;
  }
  throw Error("make_executor: resolve ExecutorKind::kAuto before construction");
}

}  // namespace ramiel
