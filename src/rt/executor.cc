#include "rt/executor.h"

#include <algorithm>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <tuple>

#include "graph/op_eval.h"
#include "mem/planner.h"
#include "obs/metrics.h"
#include "rt/exec_util.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "tensor/thread_pool.h"

namespace ramiel {

using rt::collect_static_outputs;
using rt::fetch_static_input;
using rt::is_graph_output;

namespace {

/// Payload size of one message/activation (dense float32 tensors).
std::int64_t tensor_bytes(const Tensor& t) { return t.byte_size(); }

/// Process-wide runtime counters, resolved once. Bumped per run() (not per
/// task) so the hot path only touches the per-run WorkerProfile.
struct RtMetrics {
  obs::Counter* tasks = obs::registry().counter(
      "ramiel_rt_tasks_total", "Graph tasks executed (node x sample)");
  obs::Counter* messages = obs::registry().counter(
      "ramiel_rt_messages_total", "Cross-worker tensor messages delivered");
  obs::Counter* bytes_sent = obs::registry().counter(
      "ramiel_rt_bytes_sent_total", "Cross-worker message payload bytes");
  obs::Counter* runs = obs::registry().counter(
      "ramiel_rt_runs_total", "Executor run() calls completed");
  obs::Histogram* run_wall_ms = obs::registry().histogram(
      "ramiel_rt_run_wall_ms", "Executor run() wall time (ms)");
  obs::Counter* allocs_avoided = obs::registry().counter(
      "ramiel_mem_alloc_avoided_total",
      "Kernel output allocations served from a planned arena slot");
  obs::Counter* arena_grows = obs::registry().counter(
      "ramiel_mem_arena_grow_total",
      "Times a nonempty worker arena had to be reallocated larger");
};

RtMetrics& rt_metrics() {
  static RtMetrics* m = new RtMetrics();
  return *m;
}

void record_run_metrics(const std::vector<WorkerProfile>& wps,
                        double wall_ms) {
  RtMetrics& m = rt_metrics();
  std::uint64_t tasks = 0, messages = 0, bytes = 0, avoided = 0;
  for (const WorkerProfile& w : wps) {
    tasks += static_cast<std::uint64_t>(w.tasks);
    messages += static_cast<std::uint64_t>(w.messages_sent);
    bytes += static_cast<std::uint64_t>(w.bytes_sent);
    avoided += static_cast<std::uint64_t>(w.allocs_avoided);
  }
  m.tasks->inc(tasks);
  m.messages->inc(messages);
  m.bytes_sent->inc(bytes);
  if (avoided > 0) m.allocs_avoided->inc(avoided);
  m.runs->inc();
  m.run_wall_ms->observe(wall_ms);
}

}  // namespace

SequentialExecutor::SequentialExecutor(const Graph* graph) : graph_(graph) {
  RAMIEL_CHECK(graph != nullptr, "graph must not be null");
  order_ = graph->topo_order();  // live nodes only
  is_output_.assign(graph->values().size(), 0);
  for (ValueId ov : graph->outputs()) {
    is_output_[static_cast<std::size_t>(ov)] = 1;
  }

  // One worker running the whole graph for one sample: the planner's
  // single-stream case, reused for every sample.
  Hyperclustering hc;
  hc.num_nodes = static_cast<int>(graph->nodes().size());
  hc.worker_of.assign(static_cast<std::size_t>(hc.num_nodes), -1);
  hc.workers.emplace_back();
  for (NodeId id : order_) {
    hc.workers[0].push_back(HyperTask{id, 0});
    hc.worker_of[static_cast<std::size_t>(id)] = 0;
  }
  const mem::MemPlan plan = mem::plan_memory(*graph, hc);
  planned_bytes_ = plan.peak_bytes;
  slots_ = rt::SlotTable(*graph, plan);
}

std::size_t SequentialExecutor::arena_bytes_allocated() const {
  std::lock_guard<std::mutex> lk(arena_mu_);
  return arena_.capacity_bytes() + arena_.scratch_capacity_bytes();
}

std::vector<TensorMap> SequentialExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) const {
  const Graph& g = *graph_;
  const int batch = static_cast<int>(batch_inputs.size());
  RAMIEL_CHECK(batch >= 1, "need at least one sample");

  std::unique_ptr<ThreadPool> pool;
  OpContext ctx;
  if (options.intra_op_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.intra_op_threads - 1);
    ctx.threads = options.intra_op_threads;
    ctx.pool = pool.get();
  }

  // The arena backs one run at a time; a concurrent caller computes the
  // same bits on the heap.
  std::unique_lock<std::mutex> arena_lock(arena_mu_, std::try_to_lock);
  const bool planned = arena_lock.owns_lock();
  mem::SlotSink sink;
  float* arena_base = nullptr;
  if (planned) {
    if (arena_.ensure(static_cast<std::size_t>(planned_bytes_))) {
      rt_metrics().arena_grows->inc();
    }
    arena_base = arena_.data();
    sink.set_scratch_arena(&arena_);
  }

  Stopwatch wall;
  const std::int64_t run_t0 = Stopwatch::now_ns();
  std::vector<TensorMap> results(static_cast<std::size_t>(batch));
  WorkerProfile wp;
  std::vector<TaskEvent> events;
  // Per-sample value table. Planned entries point into the arena and are
  // rewritten by the next sample before they are read again.
  std::vector<Tensor> values(g.values().size());
  std::vector<Tensor> inputs;

  for (int s = 0; s < batch; ++s) {
    const TensorMap& sample_in = batch_inputs[static_cast<std::size_t>(s)];
    TensorMap& out = results[static_cast<std::size_t>(s)];
    collect_static_outputs(g, sample_in, &out);
    for (NodeId id : order_) {
      const Node& n = g.node(id);
      // Constant nodes carry their payload on the output value; consumers
      // read it directly, so the "execution" is a no-op.
      if (n.kind == OpKind::kConstant) {
        ++wp.tasks;
        continue;
      }
      inputs.clear();
      for (ValueId v : n.inputs) {
        Tensor t;
        if (!fetch_static_input(g, v, sample_in, &t)) {
          t = values[static_cast<std::size_t>(v)];
        }
        inputs.push_back(std::move(t));
      }
      const std::int64_t t0 = Stopwatch::now_ns();
      std::vector<Tensor> outputs = rt::eval_planned(
          n, inputs, ctx, planned ? &sink : nullptr, arena_base,
          slots_.outs(0, 0, id), &wp.allocs_avoided);
      const std::int64_t t1 = Stopwatch::now_ns();
      wp.busy_ns += t1 - t0;
      ++wp.tasks;
      if (profile != nullptr && options.trace) {
        events.push_back(TaskEvent{id, s, 0, t0, t1});
      }
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        const ValueId ov = n.outputs[i];
        if (is_output_[static_cast<std::size_t>(ov)]) {
          // Results outlive the sample's slots: detach arena-backed ones.
          out.emplace(g.value(ov).name, outputs[i].owns_storage()
                                            ? outputs[i]
                                            : outputs[i].clone());
        }
        values[static_cast<std::size_t>(ov)] = std::move(outputs[i]);
      }
    }
  }
  inputs.clear();
  values.clear();  // drop arena views before the next run may take the arena
  if (arena_lock.owns_lock()) arena_lock.unlock();

  const std::int64_t run_t1 = Stopwatch::now_ns();
  record_run_metrics({wp}, wall.millis());
  if (profile != nullptr) {
    profile->wall_ms = wall.millis();
    profile->start_ns = run_t0;
    profile->end_ns = run_t1;
    profile->workers = {wp};
    profile->events = std::move(events);
    profile->messages.clear();
    profile->queue_depths.clear();
  }
  return results;
}

/// Everything one run() shares with the workers. Lives on run()'s stack;
/// workers only touch it between the start and done handshakes.
struct ParallelExecutor::RunState {
  Program* prog = nullptr;
  const std::vector<TensorMap>* batch_inputs = nullptr;
  RunOptions options;
  std::vector<TensorMap> results;
  std::mutex results_mu;
  std::vector<WorkerProfile> wps;
  std::vector<std::vector<TaskEvent>> wevents;
  // Tracing-only side channels, one lane per worker (no cross-worker
  // sharing, so no locks). Sends carry recv_ns == 0 until run() pairs them
  // with the matching receive observation.
  std::vector<std::vector<MessageEvent>> wsends;
  std::vector<std::vector<MessageEvent>> wrecvs;
  std::vector<std::vector<QueueDepthSample>> wdepths;
  std::exception_ptr first_error;
  std::mutex error_mu;
};

ParallelExecutor::ParallelExecutor(const Graph* graph, Hyperclustering hc,
                                   const mem::MemPlan* mem_plan)
    : ParallelExecutor(
          [&] {
            std::vector<ExecutorProgram> programs;
            programs.push_back(ExecutorProgram{graph, std::move(hc), mem_plan});
            return programs;
          }()) {}

ParallelExecutor::ParallelExecutor(std::vector<ExecutorProgram> programs) {
  RAMIEL_CHECK(!programs.empty(), "executor needs at least one program");
  std::lock_guard<std::mutex> run_lock(run_mu_);
  for (ExecutorProgram& p : programs) add_program_locked(std::move(p));
}

int ParallelExecutor::add_program(const Graph* graph, Hyperclustering hc,
                                  const mem::MemPlan* mem_plan) {
  // run_mu_ keeps every worker parked (no run can be in flight), so the
  // program table and the inbox/thread pool can grow safely.
  std::lock_guard<std::mutex> run_lock(run_mu_);
  return add_program_locked(ExecutorProgram{graph, std::move(hc), mem_plan});
}

int ParallelExecutor::add_program_locked(ExecutorProgram program) {
  RAMIEL_CHECK(program.graph != nullptr, "graph must not be null");
  RAMIEL_CHECK(!program.hc.workers.empty(), "hyperclustering has no workers");
  RAMIEL_CHECK(program.hc.batch >= 1, "hyperclustering batch must be >= 1");

  auto prog = std::make_unique<Program>();
  prog->graph = program.graph;
  prog->hc = std::move(program.hc);
  const int k = prog->workers();
  const int id = static_cast<int>(programs_.size());

  // Split each worker's interleaved task list into per-sample streams once;
  // the split is invariant across runs (order within a stream is the
  // cluster's topological order).
  prog->streams.resize(static_cast<std::size_t>(k));
  for (int w = 0; w < k; ++w) {
    auto& per_sample = prog->streams[static_cast<std::size_t>(w)];
    per_sample.resize(static_cast<std::size_t>(prog->hc.batch));
    for (const HyperTask& task :
         prog->hc.workers[static_cast<std::size_t>(w)]) {
      per_sample[static_cast<std::size_t>(task.sample)].push_back(task.node);
    }
  }

  // Remote consumers per (sample, node) task, deduplicated per output.
  const Graph& g = *prog->graph;
  const int nodes = prog->hc.num_nodes;
  prog->send_begin.reserve(static_cast<std::size_t>(prog->hc.batch) *
                               static_cast<std::size_t>(nodes) +
                           1);
  for (int s = 0; s < prog->hc.batch; ++s) {
    for (NodeId id = 0; id < nodes; ++id) {
      prog->send_begin.push_back(static_cast<std::int32_t>(prog->sends.size()));
      const int me = prog->hc.worker(id, s);
      if (me < 0) continue;
      const Node& n = g.node(id);
      for (std::size_t i = 0; i < n.outputs.size(); ++i) {
        std::set<int> destinations;
        for (NodeId c : g.value(n.outputs[i]).consumers) {
          if (g.node(c).dead) continue;
          const int wc = prog->hc.worker(c, s);
          if (wc != me && wc >= 0) destinations.insert(wc);
        }
        for (int dest : destinations) {
          prog->sends.push_back(Send{static_cast<std::int32_t>(i), dest});
        }
      }
    }
  }
  prog->send_begin.push_back(static_cast<std::int32_t>(prog->sends.size()));

  if (program.mem_plan != nullptr && !program.mem_plan->empty()) {
    RAMIEL_CHECK(static_cast<int>(program.mem_plan->workers.size()) == k,
                 "memory plan was computed for a different hyperclustering");
    prog->plan = *program.mem_plan;
    prog->arenas = std::vector<mem::MemArena>(static_cast<std::size_t>(k));
    prog->slots = rt::SlotTable(g, prog->plan);
    for (int w = 0; w < k; ++w) {
      const mem::WorkerPlan& wp =
          prog->plan.workers[static_cast<std::size_t>(w)];
      obs::registry()
          .gauge("ramiel_mem_planned_peak_bytes",
                 "Planned arena capacity for a worker's streams",
                 {{"program", std::to_string(id)},
                  {"worker", std::to_string(w)}})
          ->set(static_cast<double>(wp.arena_bytes));
      obs::registry()
          .gauge("ramiel_mem_naive_bytes",
                 "Per-run fresh-allocation bytes the plan replaces",
                 {{"program", std::to_string(id)},
                  {"worker", std::to_string(w)}})
          ->set(static_cast<double>(wp.naive_bytes));
    }
  }

  programs_.push_back(std::move(prog));
  ensure_threads(k);
  return id;
}

void ParallelExecutor::ensure_threads(int count) {
  // Called with run_mu_ held. Inboxes live in a deque so existing entries
  // never move while the pool widens.
  while (static_cast<int>(inboxes_.size()) < count) {
    const int w = static_cast<int>(inboxes_.size());
    inboxes_.emplace_back();
    depth_gauges_.push_back(obs::registry().gauge(
        "ramiel_rt_inbox_depth", "Undelivered messages in a worker's inbox",
        {{"worker", std::to_string(w)}}));
  }
  const int have = static_cast<int>(threads_.size());
  if (have >= count) return;
  for (int w = have; w < count; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  // Wait until every new thread captured its initial run_seq_: a thread
  // that read the counter after the next run bumped it would miss that run
  // and the dispatch would hang short of workers_done_ == thread count.
  std::unique_lock<std::mutex> lk(ctl_mu_);
  done_cv_.wait(lk, [&] {
    return workers_ready_ == static_cast<int>(threads_.size());
  });
}

void ParallelExecutor::remove_program(int program) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  Program& prog = *programs_[static_cast<std::size_t>(program)];
  prog.live = false;
  // Free the retired model's memory; streams stay (cheap) so ids and
  // diagnostics remain stable.
  prog.arenas.clear();
  prog.slots = rt::SlotTable{};
  prog.plan = mem::MemPlan{};
}

int ParallelExecutor::num_programs() const {
  return static_cast<int>(programs_.size());
}

int ParallelExecutor::program_workers(int program) const {
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  return programs_[static_cast<std::size_t>(program)]->workers();
}

int ParallelExecutor::program_batch(int program) const {
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  return programs_[static_cast<std::size_t>(program)]->hc.batch;
}

bool ParallelExecutor::mem_plan_enabled() const {
  return !programs_.front()->plan.empty();
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::uint64_t ParallelExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  return runs_completed_;
}

std::size_t ParallelExecutor::arena_bytes_allocated() const {
  std::size_t total = 0;
  for (const auto& prog : programs_) {
    for (const mem::MemArena& a : prog->arenas) total += a.capacity_bytes();
  }
  return total;
}

void ParallelExecutor::worker_loop(int me) {
  // Persistent per-worker intra-op pool: built on the first run that wants
  // one, rebuilt only when the requested width changes (steady-state serving
  // uses one width, so this is a one-time cost).
  std::unique_ptr<ThreadPool> pool;
  int pool_threads = 1;
  std::uint64_t seen;
  {
    // Capture the run counter under the lock before reporting ready:
    // ensure_threads() holds back until every new thread has done this, so
    // no dispatch can slip past an unsynchronized-yet worker.
    std::lock_guard<std::mutex> lk(ctl_mu_);
    seen = run_seq_;
    ++workers_ready_;
  }
  done_cv_.notify_all();

  while (true) {
    RunState* st = nullptr;
    {
      std::unique_lock<std::mutex> lk(ctl_mu_);
      start_cv_.wait(lk, [&] { return shutdown_ || run_seq_ != seen; });
      if (shutdown_) return;
      seen = run_seq_;
      st = state_;
    }

    // Threads beyond this program's width sit the run out (the pool is
    // sized to the widest hosted program) but still check in below so the
    // dispatcher's workers_done_ target stays thread-count based.
    if (me >= st->prog->workers()) {
      {
        std::lock_guard<std::mutex> lk(ctl_mu_);
        ++workers_done_;
      }
      done_cv_.notify_one();
      continue;
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
      execute_tasks(me, *st->prog, *st, ctx);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(st->error_mu);
        if (!st->first_error) st->first_error = std::current_exception();
      }
      // Unblock every sibling so the run unwinds instead of deadlocking.
      for (Inbox& other : inboxes_) other.poison();
    }

    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

// Each worker runs its per-sample task streams cooperatively: the next task
// of the round-robin-preferred stream runs when all its inputs are
// available; otherwise the worker advances whichever sample *is* runnable
// ("multiple inference samples in flight", §III-E) and only sleeps when no
// stream can progress. Within a sample every stream is in topological
// order, so the globally earliest pending task is always runnable on its
// worker — the schedule cannot deadlock, for plain or switched
// hyperclusters alike.
void ParallelExecutor::execute_tasks(int me, Program& prog, RunState& st,
                                     const OpContext& ctx) {
  const Graph& g = *prog.graph;
  const int batch = prog.hc.batch;
  const std::vector<TensorMap>& batch_inputs = *st.batch_inputs;
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  Inbox& inbox = inboxes_[static_cast<std::size_t>(me)];
  const auto& streams = prog.streams[static_cast<std::size_t>(me)];

  const bool planned = !prog.plan.empty();
  mem::SlotSink sink;
  float* const arena_base =
      planned ? prog.arenas[static_cast<std::size_t>(me)].data() : nullptr;
  // Kernel scratch (GEMM pack buffers, im2col panels) also comes from this
  // worker's arena whenever the plan is active; without a plan kernels fall
  // back to heap scratch on their own.
  if (planned) {
    sink.set_scratch_arena(&prog.arenas[static_cast<std::size_t>(me)]);
  }

  std::vector<std::size_t> cursor(static_cast<std::size_t>(batch), 0);
  std::vector<std::unordered_map<ValueId, Tensor>> local(
      static_cast<std::size_t>(batch));
  std::size_t done_total = 0;
  const std::size_t all_tasks =
      prog.hc.workers[static_cast<std::size_t>(me)].size();

  // Attempts the next task of stream s. Returns true when it ran.
  auto try_advance = [&](int s) -> bool {
    auto su = static_cast<std::size_t>(s);
    if (cursor[su] >= streams[su].size()) return false;
    const NodeId id = streams[su][cursor[su]];
    const Node& n = g.node(id);
    auto& loc = local[su];

    // Constant nodes are no-ops: consumers read the payload straight
    // from the value, on any worker.
    if (n.kind == OpKind::kConstant) {
      ++wp.tasks;
      ++cursor[su];
      ++done_total;
      return true;
    }

    // Stage inputs; pull any newly arrived remote tensors into the
    // local cache. Bail out (without consuming order) if one is missing.
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (ValueId v : n.inputs) {
      Tensor t;
      if (fetch_static_input(g, v, batch_inputs[su], &t)) {
        inputs.push_back(std::move(t));
        continue;
      }
      auto it = loc.find(v);
      if (it != loc.end()) {
        inputs.push_back(it->second);
        continue;
      }
      Tensor received;
      if (inbox.try_get(MessageKey{v, s}, &received)) {
        wp.bytes_received += tensor_bytes(received);
        if (st.options.trace) {
          const std::int64_t now = Stopwatch::now_ns();
          st.wrecvs[static_cast<std::size_t>(me)].push_back(
              MessageEvent{v, s, /*src_worker=*/-1, me, /*send_ns=*/0, now,
                           tensor_bytes(received)});
          st.wdepths[static_cast<std::size_t>(me)].push_back(
              QueueDepthSample{me, now, static_cast<int>(inbox.pending())});
        }
        loc[v] = received;
        inputs.push_back(std::move(received));
        continue;
      }
      return false;  // input not yet delivered
    }

    const std::int64_t t0 = Stopwatch::now_ns();
    std::vector<Tensor> outputs = rt::eval_planned(
        n, inputs, ctx, planned ? &sink : nullptr, arena_base,
        prog.slots.outs(me, s, id), &wp.allocs_avoided);
    const std::int64_t t1 = Stopwatch::now_ns();
    wp.busy_ns += t1 - t0;
    ++wp.tasks;
    if (st.options.trace) {
      st.wevents[static_cast<std::size_t>(me)].push_back(
          TaskEvent{id, s, me, t0, t1});
    }

    const std::size_t task_row =
        su * static_cast<std::size_t>(prog.hc.num_nodes) +
        static_cast<std::size_t>(id);
    auto send = prog.sends.begin() + prog.send_begin[task_row];
    const auto send_end = prog.sends.begin() + prog.send_begin[task_row + 1];
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const ValueId ov = n.outputs[i];
      if (is_graph_output(g, ov)) {
        // Results outlive the run; arena-backed tensors must not (their
        // slots are rewritten by the next run), so detach them here.
        Tensor out =
            outputs[i].owns_storage() ? outputs[i] : outputs[i].clone();
        std::lock_guard<std::mutex> lk(st.results_mu);
        st.results[su].emplace(g.value(ov).name, std::move(out));
      }
      // Send to every other worker that consumes this value for this
      // sample.
      for (; send != send_end && send->output == static_cast<std::int32_t>(i);
           ++send) {
        const int dest = send->dest;
        // Stamp before the put: the receiver can consume (and stamp its
        // recv_ns) the instant put releases the inbox lock, so stamping
        // after would let recv_ns precede send_ns under scheduling delay.
        const std::int64_t send_ns =
            st.options.trace ? Stopwatch::now_ns() : 0;
        const std::size_t depth = inboxes_[static_cast<std::size_t>(dest)].put(
            MessageKey{ov, s}, outputs[i]);
        depth_gauges_[static_cast<std::size_t>(dest)]->set(
            static_cast<double>(depth));
        ++wp.messages_sent;
        wp.bytes_sent += tensor_bytes(outputs[i]);
        if (st.options.trace) {
          st.wsends[static_cast<std::size_t>(me)].push_back(
              MessageEvent{ov, s, me, dest, send_ns, /*recv_ns=*/0,
                           tensor_bytes(outputs[i])});
          st.wdepths[static_cast<std::size_t>(me)].push_back(
              QueueDepthSample{dest, send_ns, static_cast<int>(depth)});
        }
      }
      loc[ov] = std::move(outputs[i]);
    }
    ++cursor[su];
    ++done_total;
    return true;
  };

  int prefer = 0;
  while (done_total < all_tasks) {
    if (inbox.poisoned()) {
      throw Error("aborting: a sibling worker failed");
    }
    const std::uint64_t seen = inbox.version();
    bool progressed = false;
    for (int off = 0; off < batch; ++off) {
      const int s = (prefer + off) % batch;
      if (try_advance(s)) {
        progressed = true;
        // Stay on the sample that just ran: consecutive ops of one sample
        // share hot activations, so switching only when a sample *blocks*
        // keeps the cache warm while still filling every receive slack
        // (the paper's §III-E interleave switches at op granularity; on few
        // cores that costs locality without buying extra overlap).
        prefer = s;
        break;
      }
    }
    if (!progressed) {
      // Nothing runnable: sleep until a new message lands (slack).
      inbox.wait_change(seen, &wp.recv_wait_ns);
    }
  }
}

std::vector<TensorMap> ParallelExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) {
  return run_program(0, batch_inputs, options, profile);
}

std::vector<TensorMap> ParallelExecutor::run_program(
    int program, const std::vector<TensorMap>& batch_inputs,
    const RunOptions& options, Profile* profile) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  Program& prog = *programs_[static_cast<std::size_t>(program)];
  RAMIEL_CHECK(prog.live,
               str_cat("program ", program, " has been removed"));
  const Graph& g = *prog.graph;
  const int batch = prog.hc.batch;
  RAMIEL_CHECK(static_cast<int>(batch_inputs.size()) == batch,
               str_cat("batch size mismatch: executor compiled for batch ",
                       batch, " (hyperclustering), run() got ",
                       batch_inputs.size(), " sample",
                       batch_inputs.size() == 1 ? "" : "s"));
  const int k = prog.workers();
  // add_program (the only thing that grows the pool) also takes run_mu_,
  // so the thread count is stable for the whole dispatch.
  const int nthreads = static_cast<int>(threads_.size());

  // Workers are parked, so resetting the inboxes cannot race; this also
  // clears any poison/undelivered messages left by a failed previous run.
  for (Inbox& inbox : inboxes_) inbox.reset();

  // Size the arenas while no tensor can point into them (same parked-worker
  // argument; the ctl_mu_ handshake below publishes the new base pointers).
  if (!prog.plan.empty()) {
    std::uint64_t grows = 0;
    for (int w = 0; w < k; ++w) {
      if (prog.arenas[static_cast<std::size_t>(w)].ensure(
              static_cast<std::size_t>(
                  prog.plan.workers[static_cast<std::size_t>(w)]
                      .arena_bytes))) {
        ++grows;
      }
    }
    if (grows > 0) rt_metrics().arena_grows->inc(grows);
  }

  RunState st;
  st.prog = &prog;
  st.batch_inputs = &batch_inputs;
  st.options = options;
  st.results.resize(static_cast<std::size_t>(batch));
  st.wps.resize(static_cast<std::size_t>(k));
  st.wevents.resize(static_cast<std::size_t>(k));
  st.wsends.resize(static_cast<std::size_t>(k));
  st.wrecvs.resize(static_cast<std::size_t>(k));
  st.wdepths.resize(static_cast<std::size_t>(k));
  for (int s = 0; s < batch; ++s) {
    collect_static_outputs(g, batch_inputs[static_cast<std::size_t>(s)],
                           &st.results[static_cast<std::size_t>(s)]);
  }

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
    done_cv_.wait(lk, [&] { return workers_done_ == nthreads; });
    state_ = nullptr;
    ++runs_completed_;
  }
  const std::int64_t run_t1 = Stopwatch::now_ns();
  const double wall_ms = wall.millis();

  if (st.first_error) std::rethrow_exception(st.first_error);

  record_run_metrics(st.wps, wall_ms);
  if (profile != nullptr) {
    profile->wall_ms = wall_ms;
    profile->start_ns = run_t0;
    profile->end_ns = run_t1;
    profile->events.clear();
    for (auto& ev : st.wevents) {
      profile->events.insert(profile->events.end(), ev.begin(), ev.end());
    }
    // Pair each send with the receive that consumed it. The producing node
    // of a value is unique, so (value, sample, destination) identifies one
    // message; sends that were never consumed keep recv_ns == 0.
    profile->messages.clear();
    std::map<std::tuple<ValueId, int, int>, std::size_t> by_key;
    for (const auto& sends : st.wsends) {
      for (const MessageEvent& m : sends) {
        by_key[{m.value, m.sample, m.dst_worker}] = profile->messages.size();
        profile->messages.push_back(m);
      }
    }
    for (const auto& recvs : st.wrecvs) {
      for (const MessageEvent& m : recvs) {
        auto it = by_key.find({m.value, m.sample, m.dst_worker});
        if (it != by_key.end()) {
          profile->messages[it->second].recv_ns = m.recv_ns;
        }
      }
    }
    profile->queue_depths.clear();
    for (const auto& depths : st.wdepths) {
      profile->queue_depths.insert(profile->queue_depths.end(),
                                   depths.begin(), depths.end());
    }
    profile->workers = std::move(st.wps);
  }
  return std::move(st.results);
}

}  // namespace ramiel
