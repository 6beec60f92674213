// One benchmark run of one workload. Every layer is driven through its
// public entry point and timed from outside:
//
//   set-up    models::build + compile_model + the ParallelExecutor and
//             StealExecutor constructors, repeated; setup_s is the median;
//   runtimes  whole rounds of one batch each on SequentialExecutor,
//             ParallelExecutor and StealExecutor, every output checked
//             bitwise against the first sequential batch;
//   serving   the compiled model behind serve::Server (default options): a
//             closed loop of 4 client threads, and a single-thread open loop
//             of Poisson arrivals at the workload's fixed rate, every response
//             checked against the sequential result for its input.
//
// The runtime, closed-loop and open-loop blocks alternate in cycles over
// the whole run. With --trace 1, half of each runtime block runs with
// RunOptions::trace on; those profiles feed prof::analyze for the per-layer
// metrics, and the benchmark's spans plus the executors' task events are
// written as one Chrome/Perfetto trace.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "graph/op_kind.h"
#include "models/zoo.h"
#include "obs/prof/critical_path.h"
#include "obs/prof/whatif.h"
#include "obs/trace.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "rt/steal/steal_executor.h"
#include "serve/server.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace e2e {
namespace {

using namespace ramiel;

// Relative-L2 fences of the i8 lowering against f32 (tests/quant_test.cc):
// BERT's twelve layers accumulate one rounding per demoted dense output.
double i8_bound(const Workload& w) { return w.model == "bert" ? 8e-2 : 1e-2; }
constexpr double kNaiveRelL2Bound = 1e-5;    // f32 kernels vs double naive
constexpr int kClients = 4;                  // closed-loop client threads
constexpr int kDistinctInputs = 8;           // serving inputs per run
constexpr int kBenchPid = 3;                 // trace pid of benchmark spans

std::int64_t now_ns() { return Stopwatch::now_ns(); }
double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

enum Rt { kSeq = 0, kStatic = 1, kSteal = 2 };
const char* const kRtName[] = {"seq", "static", "steal"};

/// One benchmark-side span around a layer call.
struct Span {
  std::string name;
  std::string cat;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Benchmark-side spans (traced run only).
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void add(std::string name, std::string cat, int tid, std::int64_t start,
           std::int64_t end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), std::move(cat), tid, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Span tracks (tids under the benchmark pid).
constexpr int kTidSetup = 0;
constexpr int kTidRuntime = 1;     // +Rt
constexpr int kTidClosed = 10;     // +client
constexpr int kTidOpen = 20;       // +lane
constexpr int kOpenLanes = 16;

/// One set-up: the compiled model and both parallel executors. Members are
/// destroyed in reverse order, so the executors go before their graph.
struct Setup {
  std::unique_ptr<CompiledModel> cm;
  std::unique_ptr<ParallelExecutor> stat;
  std::unique_ptr<StealExecutor> steal;
  double build_ms = 0, compile_ms = 0, executor_ms = 0, total_s = 0;
};

PipelineOptions compile_options(const Workload& w, DType dtype) {
  PipelineOptions opts;
  opts.batch = w.batch;
  opts.dtype = dtype;
  opts.generate_code = false;  // runtime use needs no Python sources
  return opts;
}

Setup set_up(const Workload& w, SpanLog& spans) {
  Setup s;
  const std::int64_t t0 = now_ns();
  Graph g = models::build(w.model);
  const std::int64_t t1 = now_ns();
  s.cm = std::make_unique<CompiledModel>(
      compile_model(std::move(g), compile_options(w, w.dtype)));
  const std::int64_t t2 = now_ns();
  s.stat = std::make_unique<ParallelExecutor>(&s.cm->graph,
                                              s.cm->hyperclusters,
                                              &s.cm->mem_plan);
  const std::int64_t t3 = now_ns();
  s.steal = std::make_unique<StealExecutor>(&s.cm->graph, s.cm->hyperclusters,
                                            &s.cm->mem_plan);
  const std::int64_t t4 = now_ns();
  spans.add("models::build", "setup", kTidSetup, t0, t1);
  spans.add("compile_model", "setup", kTidSetup, t1, t2);
  spans.add("ParallelExecutor()", "setup", kTidSetup, t2, t3);
  spans.add("StealExecutor()", "setup", kTidSetup, t3, t4);
  s.build_ms = ms_between(t0, t1);
  s.compile_ms = ms_between(t1, t2);
  s.executor_ms = ms_between(t2, t4);
  s.total_s = ms_between(t0, t4) / 1e3;
  return s;
}

/// Per-runtime samples of the runtime phase.
struct RtSamples {
  std::vector<double> wall_ms;        // untraced batches
  std::vector<double> traced_ms;      // traced batches
  std::vector<double> minflt;         // per untraced batch
  std::vector<double> ctx_switches;   // per untraced batch
  std::vector<Profile> profiles;      // traced batches
};

/// Checks one batch's outputs; "" when they pass.
std::string check_batch(const Workload& w, std::vector<TensorMap>& out,
                        const std::vector<TensorMap>& ref,
                        const std::vector<TensorMap>* f32_ref) {
  if (f32_ref) {
    const double err = max_rel_l2(out, *f32_ref);
    if (!(err <= i8_bound(w))) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: relative L2 error %.4g vs f32 exceeds %.2g",
                    w.name.c_str(), err, i8_bound(w));
      return buf;
    }
  }
  return compare_bitwise(out, ref);
}

std::vector<TensorMap> run_one(int rt, Setup& s, const SequentialExecutor& seq,
                               const std::vector<TensorMap>& inputs,
                               const RunOptions& ro, Profile* prof) {
  switch (rt) {
    case kSeq: return seq.run(inputs, ro, prof);
    case kStatic: return s.stat->run(inputs, ro, prof);
    default: return s.steal->run(inputs, ro, prof);
  }
}

/// Runs whole rounds (seq, static, steal) while another round still fits
/// in `budget_ms` (at least one). `inject` applies the self-test fault to
/// the first static batch.
void runtime_rounds(const Workload& w, const Args& args, Setup& s,
                    const SequentialExecutor& seq,
                    const std::vector<TensorMap>& inputs,
                    const std::vector<TensorMap>& ref,
                    const std::vector<TensorMap>* f32_ref, double budget_ms,
                    bool traced, bool inject,
                    std::array<RtSamples, 3>& samples, Result& result,
                    SpanLog& spans) {
  RunOptions ro;
  ro.trace = traced;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_ms * 1e6);
  std::int64_t round_ns = 0;
  do {
    const std::int64_t round_start = now_ns();
    for (int rt = kSeq; rt <= kSteal; ++rt) {
      Profile prof;
      const Usage u0 = usage_now();
      const std::int64_t t0 = now_ns();
      std::vector<TensorMap> out;
      std::string error;
      try {
        out = run_one(rt, s, seq, inputs, ro, traced ? &prof : nullptr);
      } catch (const std::exception& e) {
        error = std::string("run threw: ") + e.what();
      }
      const std::int64_t t1 = now_ns();
      const Usage u1 = usage_now();
      spans.add(std::string(kRtName[rt]) + ".run", "batch", kTidRuntime + rt,
                t0, t1);
      if (error.empty()) {
        if (inject && rt == kStatic) {
          inject = false;
          if (args.inject == "flip-bit") flip_one_bit(out);
          if (args.inject == "i8-error") add_rel_noise(out, 2 * i8_bound(w));
        }
        error = check_batch(w, out, ref, f32_ref);
      }
      result.op(std::string("batch.") + kRtName[rt], error);
      RtSamples& smp = samples[static_cast<std::size_t>(rt)];
      if (traced) {
        smp.traced_ms.push_back(ms_between(t0, t1));
        smp.profiles.push_back(std::move(prof));
      } else {
        smp.wall_ms.push_back(ms_between(t0, t1));
        smp.minflt.push_back(static_cast<double>(u1.minflt - u0.minflt));
        smp.ctx_switches.push_back(
            static_cast<double>(u1.ctx_switches - u0.ctx_switches));
      }
    }
    round_ns = now_ns() - round_start;
  } while (now_ns() + round_ns <= deadline);
}

/// Serving-phase measurements, accumulated over every cycle's blocks.
struct ServeSamples {
  std::int64_t closed_served = 0;
  double closed_s = 0.0;                // summed closed-block durations
  std::vector<double> open_latency_ms;  // from each request's due time
  std::vector<double> open_late_ms;     // submit time - due time
  serve::ServerStats closed_stats, open_stats;  // summed over the blocks

  double closed_rps() const {
    return closed_s > 0 ? static_cast<double>(closed_served) / closed_s : 0.0;
  }
};

/// Adds the counter deltas b - a to *sum.
void add_delta(const serve::ServerStats& a, const serve::ServerStats& b,
               serve::ServerStats* sum) {
  sum->batches += b.batches - a.batches;
  sum->batch_slots += b.batch_slots - a.batch_slots;
  sum->batch_samples += b.batch_samples - a.batch_samples;
  sum->exec_wall_ms += b.exec_wall_ms - a.exec_wall_ms;
  sum->worker_busy_ms += b.worker_busy_ms - a.worker_busy_ms;
  sum->num_workers = b.num_workers;
}

/// Classifies a response: "" served and equal to its reference, "rejected"
/// for admission refusals, else the failure reason.
std::string check_response(const serve::Response& r, const TensorMap& ref) {
  if (!r.ok) return r.batch_slots == 0 ? "rejected" : "error: " + r.error;
  return compare_bitwise({r.outputs}, {ref});
}

void count_response(Result& result, const std::string& kind,
                    const std::string& verdict) {
  if (verdict == "rejected") {
    result.rejected(kind);
  } else {
    result.op(kind, verdict);
  }
}

void closed_loop(serve::Server& server, const std::vector<TensorMap>& inputs,
                 const std::vector<TensorMap>& refs, double budget_ms,
                 ServeSamples& out, Result& result, SpanLog& spans) {
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::int64_t served = 0;
  std::int64_t last_done = 0;
  const serve::ServerStats before = server.stats();
  const std::int64_t start = now_ns();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const std::size_t i = (static_cast<std::size_t>(c) + k * kClients) %
                              inputs.size();
        const std::int64_t t0 = now_ns();
        serve::Response r = server.submit(inputs[i]).get();
        const std::int64_t t1 = now_ns();
        spans.add("request", "closed", kTidClosed + c, t0, t1);
        const std::string verdict = check_response(r, refs[i]);
        std::lock_guard<std::mutex> lk(mu);
        count_response(result, "request.closed", verdict);
        if (verdict.empty()) ++served;
        last_done = std::max(last_done, t1);
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(budget_ms * 1e3)));
  stop = true;
  for (std::thread& t : clients) t.join();
  out.closed_served += served;
  out.closed_s += static_cast<double>(std::max(last_done, start) - start) / 1e9;
  add_delta(before, server.stats(), &out.closed_stats);
}

void open_loop(serve::Server& server, const std::vector<TensorMap>& inputs,
               const std::vector<TensorMap>& refs, double rate_rps,
               double budget_ms, Rng& rng, ServeSamples& out, Result& result,
               SpanLog& spans) {
  // Poisson arrival offsets, drawn from the run seed.
  std::vector<std::int64_t> due_off;
  for (double t = 0.0;;) {
    const double u = std::max(1e-12, 1.0 - rng.next_float());
    t += -std::log(u) / rate_rps * 1e9;
    if (t >= budget_ms * 1e6) break;
    due_off.push_back(static_cast<std::int64_t>(t));
  }
  struct InFlight {
    std::size_t i;
    std::int64_t due_ns;
    std::future<serve::Response> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;

  // Batches complete in submission order (one FIFO batcher), so collecting
  // futures in order timestamps each response when it is ready.
  std::thread collector([&] {
    for (std::size_t n = 0;; ++n) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      serve::Response r = f.fut.get();
      const std::int64_t t1 = now_ns();
      spans.add("request", "open", kTidOpen + static_cast<int>(n % kOpenLanes),
                f.due_ns, t1);
      const std::string verdict =
          check_response(r, refs[f.i % refs.size()]);
      count_response(result, "request.open", verdict);
      if (verdict.empty()) out.open_latency_ms.push_back(ms_between(f.due_ns, t1));
    }
  });
  // Ends and joins the collector on every path out of this function.
  struct Finish {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& done;
    std::thread& collector;
    ~Finish() {
      {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
      }
      cv.notify_one();
      collector.join();
    }
  } finish{mu, cv, done, collector};
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; k < due_off.size(); ++k) {
    const std::int64_t due = start + due_off[k];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::size_t i = k % inputs.size();
    std::future<serve::Response> fut = server.submit(inputs[i]);
    out.open_late_ms.push_back(ms_between(due, now_ns()));
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back({i, due, std::move(fut)});
    }
    cv.notify_one();
  }
}

/// FLOPs of one (node, sample) task of a GEMM-like kind, from the declared
/// shapes of its operands.
double gemm_flops(const Graph& g, const ShapeMap& declared, const Node& n) {
  auto shape = [&](ValueId id) -> const Shape& {
    const Value& v = g.value(id);
    if (v.shape.rank() > 0) return v.shape;
    auto it = declared.find(v.name);
    if (it == declared.end()) {
      throw std::runtime_error("no declared shape for " + v.name);
    }
    return it->second;
  };
  if (n.kind != OpKind::kConv2d && n.kind != OpKind::kMatMul &&
      n.kind != OpKind::kGemm) {
    return 0.0;
  }
  const Shape& y = shape(n.outputs[0]);
  switch (n.kind) {
    case OpKind::kConv2d: {
      const Shape& wt = shape(n.inputs[1]);  // [O, C/g, R, S]
      return 2.0 * static_cast<double>(y.numel()) *
             static_cast<double>(wt.dim(1) * wt.dim(2) * wt.dim(3));
    }
    case OpKind::kMatMul: {
      const Shape& a = shape(n.inputs[0]);
      return 2.0 * static_cast<double>(y.numel()) *
             static_cast<double>(a.dim(a.rank() - 1));
    }
    case OpKind::kGemm: {
      const Shape& a = shape(n.inputs[0]);
      const bool ta = n.attrs.get_int("trans_a", 0) != 0;
      return 2.0 * static_cast<double>(y.numel()) *
             static_cast<double>(ta ? a.dim(0) : a.dim(a.rank() - 1));
    }
    default:
      return 0.0;
  }
}

const char* const kKernelKinds[] = {
    "Conv", "MatMul", "Gemm", "Add", "Sub", "Mul", "Div", "Pow", "Erf",
    "ReduceMean", "Softmax", "Transpose", "Relu", "BatchNormalization",
    "AveragePool", "MaxPool"};

/// Kernel-time breakdown of one traced sequential batch.
struct KernelTimes {
  std::map<std::string, double> kind_ms;  // listed kinds + "other"
  double total_ms = 0.0;
  double gemm_ms = 0.0;
  double gemm_flops = 0.0;
  int tasks = 0;
};

KernelTimes kernel_times(const Graph& g, const ShapeMap& declared,
                         const Profile& p) {
  KernelTimes k;
  for (const char* kind : kKernelKinds) k.kind_ms[kind] = 0.0;
  k.kind_ms["other"] = 0.0;
  for (const TaskEvent& e : p.events) {
    const Node& n = g.node(e.node);
    const double ms = ms_between(e.start_ns, e.end_ns);
    const std::string name(op_kind_name(n.kind));
    auto it = k.kind_ms.find(name);
    (it == k.kind_ms.end() ? k.kind_ms["other"] : it->second) += ms;
    k.total_ms += ms;
    const double f = gemm_flops(g, declared, n);
    if (f > 0.0) {
      k.gemm_ms += ms;
      k.gemm_flops += f;
    }
    ++k.tasks;
  }
  return k;
}

/// Per-layer numbers of one traced parallel batch.
struct ParStats {
  double compute, comm, queue, idle, busy, wait, messages, bytes_kib,
      path_overhead_us, replay_over_wall, stolen, allocs_avoided;
};

ParStats par_stats(const CompiledModel& cm, const Profile& p) {
  prof::AnalyzeOptions ao;
  ao.what_if = false;
  ao.keep_path = false;
  ao.top_ops = 0;
  const prof::CriticalPathReport r = prof::analyze(cm.graph, cm.hyperclusters,
                                                   p, ao);
  const prof::ReplayDag dag =
      prof::build_replay_dag(cm.graph, p, prof::estimate_comm(p));
  ParStats s{};
  s.compute = r.compute_ms;
  s.comm = r.comm_ms;
  s.queue = r.queue_ms;
  s.idle = r.idle_ms;
  s.path_overhead_us =
      r.path_tasks > 0 ? (r.wall_ms - r.compute_ms) * 1e3 / r.path_tasks : 0.0;
  s.replay_over_wall =
      r.wall_ms > 0 ? prof::replay_ms(dag, dag.workers) / r.wall_ms : 0.0;
  for (const WorkerProfile& w : p.workers) {
    s.busy += static_cast<double>(w.busy_ns) / 1e6;
    s.wait += static_cast<double>(w.recv_wait_ns) / 1e6;
    s.messages += w.messages_sent;
    s.stolen += w.tasks_stolen;
    s.allocs_avoided += w.allocs_avoided;
  }
  s.bytes_kib = static_cast<double>(p.total_bytes_sent()) / 1024.0;
  return s;
}

template <typename F>
double median_of(const std::vector<Profile>& ps, F f) {
  std::vector<double> v;
  for (const Profile& p : ps) v.push_back(f(p));
  return median(v);
}

void write_trace(const Workload& w, const Args& args, const CompiledModel& cm,
                 const std::array<RtSamples, 3>& samples,
                 const SpanLog& spans) {
  obs::Timeline tl;
  add_compile_trace(cm, tl);
  tl.process_name(kBenchPid, "e2ebench " + w.name);
  tl.thread_name(kBenchPid, kTidSetup, "set-up");
  for (int rt = kSeq; rt <= kSteal; ++rt) {
    tl.thread_name(kBenchPid, kTidRuntime + rt,
                   std::string(kRtName[rt]) + " batches");
  }
  for (int c = 0; c < kClients; ++c) {
    tl.thread_name(kBenchPid, kTidClosed + c,
                   "closed-loop client " + std::to_string(c));
  }
  for (int l = 0; l < kOpenLanes; ++l) {
    tl.thread_name(kBenchPid, kTidOpen + l,
                   "open-loop requests " + std::to_string(l));
  }
  for (const Span& s : spans.spans()) {
    tl.span(s.name, s.cat, kBenchPid, s.tid, s.start_ns, s.end_ns);
  }
  // Task events of the last traced batch on each runtime.
  for (int rt = kSeq; rt <= kSteal; ++rt) {
    const auto& ps = samples[static_cast<std::size_t>(rt)].profiles;
    if (ps.empty()) continue;
    const Profile& p = ps.back();
    prof::CriticalPathReport report;
    if (rt != kSeq) report = prof::analyze(cm.graph, cm.hyperclusters, p);
    const auto critical = report.critical_tasks();
    p.to_timeline(cm.graph, tl, static_cast<std::uint64_t>(rt) << 32,
                  report.valid ? &critical : nullptr);
  }
  std::filesystem::create_directories(E2EBENCH_TRACE_DIR);
  const std::string path = std::string(E2EBENCH_TRACE_DIR) + "/" + w.name +
                           "-seed" + std::to_string(args.seed) + ".trace.json";
  std::ofstream os(path);
  os << tl.to_chrome_json();
  std::fprintf(stderr, "e2ebench: wrote trace %s (%zu events)\n", path.c_str(),
               tl.size());
}

}  // namespace

void run_workload(const Workload& w, const Args& args, Result& result) {
  SpanLog spans(args.trace);
  // The run is cut into cycles, each a runtime block, a closed-loop block
  // and an open-loop block, so every metric samples the whole run: this
  // host's speed drifts over seconds, and a metric measured in one
  // contiguous slice would inherit that slice's drift.
  const int cycles =
      std::max(1, static_cast<int>(std::lround(args.seconds / w.cycle_s)));
  const double cycle_ms = args.seconds * 1e3 / cycles;
  const double runtime_ms = cycle_ms * w.runtime_share;
  const double serve_ms = (cycle_ms - runtime_ms) / 2.0;

  // -- set-up ---------------------------------------------------------------
  // The first set-up is kept for the run; the other w.setup_reps - 1 are
  // spread over the cycles and torn down again.
  std::vector<double> setup_s, build_ms, compile_ms, executor_ms;
  std::map<std::string, std::vector<double>> pass_ms;
  auto record = [&](const Setup& su) {
    setup_s.push_back(su.total_s);
    build_ms.push_back(su.build_ms);
    compile_ms.push_back(su.compile_ms);
    executor_ms.push_back(su.executor_ms);
    for (const PassReport& p : su.cm->pass_reports) {
      pass_ms[p.pass].push_back(p.wall_ms);
    }
  };
  Setup s = set_up(w, spans);
  record(s);
  const CompiledModel& cm = *s.cm;

  // -- references -------------------------------------------------------------
  Rng rng(args.seed);
  const std::vector<TensorMap> inputs =
      make_example_inputs(cm.graph, w.batch, rng);
  std::vector<TensorMap> serve_inputs;
  for (int i = 0; i < kDistinctInputs; ++i) {
    serve_inputs.push_back(std::move(make_example_inputs(cm.graph, 1, rng)[0]));
  }
  SequentialExecutor seq(&cm.graph);
  const std::vector<TensorMap> ref = seq.run(inputs);
  const std::vector<TensorMap> serve_refs = seq.run(serve_inputs);
  const ShapeMap declared = declared_shapes(w.model);
  for (const auto* r : {&ref, &serve_refs}) {
    const std::string e = check_sane(cm.graph, declared, *r);
    if (!e.empty()) result.check_failed("sequential reference: " + e);
  }
  std::vector<TensorMap> f32_ref, f32_serve_refs;
  if (w.dtype != DType::kF32) {
    // The same graph lowered in f32, run on the same inputs.
    CompiledModel f32 = compile_model(models::build(w.model),
                                      compile_options(w, DType::kF32));
    SequentialExecutor f32_seq(&f32.graph);
    f32_ref = f32_seq.run(inputs);
    f32_serve_refs = f32_seq.run(serve_inputs);
    const double err = std::max(max_rel_l2(ref, f32_ref),
                                max_rel_l2(serve_refs, f32_serve_refs));
    std::fprintf(stderr, "e2ebench: %s relative L2 vs f32: %.4g (bound %.2g)\n",
                 w.name.c_str(), err, i8_bound(w));
    if (!(err <= i8_bound(w))) {
      result.check_failed("i8 sequential reference exceeds the L2 bound");
    }
  }
  if (w.model == "squeezenet" && w.dtype == DType::kF32) {
    std::vector<TensorMap> all_in = inputs, all_out = ref;
    all_in.insert(all_in.end(), serve_inputs.begin(), serve_inputs.end());
    all_out.insert(all_out.end(), serve_refs.begin(), serve_refs.end());
    const double err = naive_rel_l2(cm.graph, all_in, all_out);
    std::fprintf(stderr,
                 "e2ebench: %s vs naive double evaluator: rel L2 %.3g "
                 "(bound %.0e)\n",
                 w.name.c_str(), err, kNaiveRelL2Bound);
    if (!(err <= kNaiveRelL2Bound)) {
      result.check_failed("sequential output disagrees with the naive "
                          "double-precision evaluator");
    }
  }
  const std::vector<TensorMap>* f32_check =
      w.dtype != DType::kF32 ? &f32_ref : nullptr;

  // -- cycles ---------------------------------------------------------------
  std::array<RtSamples, 3> samples;
  ServeSamples ss;
  serve::Server server{CompiledModel(cm)};
  {
    // Warm-up: one round on the runtimes and one full batch of concurrent
    // requests (checked and counted, not timed into the medians).
    std::array<RtSamples, 3> warm;
    runtime_rounds(w, args, s, seq, inputs, ref, f32_check, 0.0, false,
                   /*inject=*/true, warm, result, spans);
    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < w.batch; ++i) {
      futs.push_back(server.submit(serve_inputs[i % kDistinctInputs]));
    }
    for (int i = 0; i < w.batch; ++i) {
      count_response(result, "request.warmup",
                     check_response(futs[static_cast<std::size_t>(i)].get(),
                                    serve_refs[i % kDistinctInputs]));
    }
  }
  Rng arrivals(args.seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  for (int c = 0; c < cycles; ++c) {
    while (static_cast<int>(setup_s.size()) <
           1 + (w.setup_reps - 1) * (c + 1) / cycles) {
      record(set_up(w, spans));
    }
    // With tracing, half of each runtime block runs traced.
    const double untraced_ms = args.trace ? runtime_ms / 2 : runtime_ms;
    runtime_rounds(w, args, s, seq, inputs, ref, f32_check, untraced_ms,
                   false, false, samples, result, spans);
    if (args.trace) {
      runtime_rounds(w, args, s, seq, inputs, ref, f32_check,
                     runtime_ms - untraced_ms, true, false, samples, result,
                     spans);
    }
    closed_loop(server, serve_inputs, serve_refs, serve_ms, ss, result, spans);
    const serve::ServerStats before = server.stats();
    open_loop(server, serve_inputs, serve_refs, w.open_rate_rps, serve_ms,
              arrivals, ss, result, spans);
    add_delta(before, server.stats(), &ss.open_stats);
  }
  server.shutdown();
  const Usage usage = usage_now();
  const double static_arena_kib =
      static_cast<double>(s.stat->arena_bytes_allocated()) / 1024.0;
  const int workers = s.stat->num_workers();
  const int steal_workers = s.steal->num_workers();

  // -- metrics ----------------------------------------------------------------
  if (!args.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mib", usage.max_rss_mib, "MiB");
    result.metric("seq_p50_ms", median(samples[kSeq].wall_ms), "ms");
    result.metric("static_p50_ms", median(samples[kStatic].wall_ms), "ms");
    result.metric("steal_p50_ms", median(samples[kSteal].wall_ms), "ms");
    return;
  }

  // Compiler.
  result.metric("models.build_ms", median(build_ms), "ms");
  result.metric("pipeline.compile_ms", median(compile_ms), "ms");
  for (const char* pass : {"shape_inference", "linear_clustering",
                           "cluster_merging", "hyperclustering",
                           "mem_planning", "quantize_weights"}) {
    auto it = pass_ms.find(pass);
    result.metric(std::string("passes.") + pass + "_ms",
                  it == pass_ms.end() ? 0.0 : median(it->second), "ms");
  }
  result.metric("rt.executor_setup_ms", median(executor_ms), "ms");
  result.metric("passes.clusters", workers, "count");
  result.metric("passes.tasks_per_batch",
                median_of(samples[kSeq].profiles, [](const Profile& p) {
                  return static_cast<double>(p.events.size());
                }),
                "count");
  // Memory.
  result.metric("mem.planned_peak_kib",
                static_cast<double>(cm.mem_plan.peak_bytes) / 1024.0, "KiB");
  result.metric("mem.naive_kib",
                static_cast<double>(cm.mem_plan.naive_bytes) / 1024.0, "KiB");
  result.metric("mem.static_arena_kib", static_arena_kib, "KiB");
  for (int rt = kSeq; rt <= kSteal; ++rt) {
    result.metric(std::string("mem.minflt_per_batch.") + kRtName[rt],
                  median(samples[static_cast<std::size_t>(rt)].minflt),
                  "count");
  }
  // Kernels (traced sequential batches).
  std::vector<KernelTimes> kts;
  for (const Profile& p : samples[kSeq].profiles) {
    kts.push_back(kernel_times(cm.graph, declared, p));
  }
  auto kt_median = [&](auto f) {
    std::vector<double> v;
    for (const KernelTimes& k : kts) v.push_back(f(k));
    return median(v);
  };
  result.metric("kernel.total_ms",
                kt_median([](const KernelTimes& k) { return k.total_ms; }),
                "ms");
  for (const auto& [kind, ms] : kts.front().kind_ms) {
    const std::string key = kind;
    result.metric("kernel." + key + "_ms",
                  kt_median([&](const KernelTimes& k) {
                    return k.kind_ms.at(key);
                  }),
                  "ms");
  }
  result.metric("kernel.gemm_gflops",
                kt_median([](const KernelTimes& k) {
                  return k.gemm_ms > 0 ? k.gemm_flops / (k.gemm_ms * 1e6) : 0.0;
                }),
                "GFLOP/s");
  {
    std::vector<double> v;
    for (std::size_t i = 0; i < kts.size(); ++i) {
      const Profile& p = samples[kSeq].profiles[i];
      v.push_back((p.wall_ms - kts[i].total_ms) * 1e3 /
                  std::max(1, kts[i].tasks));
    }
    result.metric("rt.seq.overhead_us_per_task", median(v), "us");
  }
  // Parallel runtimes.
  for (int rt : {kStatic, kSteal}) {
    const RtSamples& smp = samples[static_cast<std::size_t>(rt)];
    std::vector<ParStats> ps;
    for (const Profile& p : smp.profiles) ps.push_back(par_stats(cm, p));
    auto pm = [&](double ParStats::*field) {
      std::vector<double> v;
      for (const ParStats& p : ps) v.push_back(p.*field);
      return median(v);
    };
    const std::string pre = std::string("rt.") + kRtName[rt] + ".";
    result.metric(pre + "workers", rt == kStatic ? workers : steal_workers,
                  "count");
    result.metric(pre + "critpath_compute_ms", pm(&ParStats::compute), "ms");
    result.metric(pre + "critpath_comm_ms", pm(&ParStats::comm), "ms");
    result.metric(pre + "critpath_queue_ms", pm(&ParStats::queue), "ms");
    result.metric(pre + "critpath_idle_ms", pm(&ParStats::idle), "ms");
    result.metric(pre + "busy_ms", pm(&ParStats::busy), "ms");
    result.metric(pre + (rt == kStatic ? "recv_wait_ms" : "idle_ms"),
                  pm(&ParStats::wait), "ms");
    if (rt == kStatic) {
      result.metric(pre + "messages", pm(&ParStats::messages), "count");
      result.metric(pre + "bytes_sent_kib", pm(&ParStats::bytes_kib), "KiB");
    } else {
      result.metric(pre + "tasks_stolen", pm(&ParStats::stolen), "count");
    }
    result.metric(pre + "path_overhead_us_per_task",
                  pm(&ParStats::path_overhead_us), "us");
    result.metric(pre + "ctx_switches_per_batch", median(smp.ctx_switches),
                  "count");
    result.metric(std::string("mem.allocs_avoided.") + kRtName[rt],
                  pm(&ParStats::allocs_avoided), "count");
    result.metric(std::string("prof.replay_over_wall.") + kRtName[rt],
                  pm(&ParStats::replay_over_wall), "ratio");
  }
  result.metric("obs.trace_overhead_pct",
                (median(samples[kStatic].traced_ms) /
                     median(samples[kStatic].wall_ms) -
                 1.0) * 100.0,
                "%");
  // Serving.
  const serve::ServerStats& cs = ss.closed_stats;
  const serve::ServerStats& os = ss.open_stats;
  const double exec_ms =
      cs.batches ? cs.exec_wall_ms / static_cast<double>(cs.batches) : 0.0;
  result.metric("serve.exec_ms_per_batch", exec_ms, "ms");
  {
    double mean_lat = 0.0;
    for (double l : ss.open_latency_ms) mean_lat += l;
    if (!ss.open_latency_ms.empty()) {
      mean_lat /= static_cast<double>(ss.open_latency_ms.size());
    }
    const double open_exec =
        os.batches ? os.exec_wall_ms / static_cast<double>(os.batches) : 0.0;
    result.metric("serve.wait_ms", mean_lat - open_exec, "ms");
  }
  result.metric("serve.batch_fill.closed", cs.batch_fill(), "ratio");
  result.metric("serve.batch_fill.open", os.batch_fill(), "ratio");
  result.metric("serve.batches", static_cast<double>(cs.batches + os.batches),
                "count");
  result.metric("serve.worker_utilization", cs.worker_utilization(), "ratio");
  result.metric("serve.rps", ss.closed_rps(), "req/s");
  result.metric("serve.p50_ms", quantile(ss.open_latency_ms, 0.5), "ms");
  result.metric("serve.p99_ms", quantile(ss.open_latency_ms, 0.99), "ms");
  result.metric("serve.loadgen_late_p99_ms", quantile(ss.open_late_ms, 0.99),
                "ms");

  write_trace(w, args, cm, samples, spans);
}

}  // namespace e2e
