// Shared pieces of the end-to-end benchmark harness: the workload table,
// the result accumulator (metrics + operation accounting), the span log of
// the traced run, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/dtype.h"

namespace e2e {

/// One benchmark workload: a zoo model compiled at a batch size and storage
/// dtype, timed on the three runtimes and then served behind serve::Server.
struct Workload {
  std::string name;
  std::string model;
  int batch = 1;
  ramiel::DType dtype = ramiel::DType::kF32;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 5;
  /// Length of one measurement cycle (runtime rounds, closed-loop block,
  /// open-loop block); a run is --seconds / cycle_s cycles.
  double cycle_s = 4.0;
  /// Share of each cycle spent on runtime rounds; the rest is split evenly
  /// between the closed-loop and the open-loop serving block.
  double runtime_share = 0.6;
  /// Fixed offered rate of the open-loop Poisson phase.
  double open_rate_rps = 10.0;
};

const std::vector<Workload>& workloads();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test fault injection: "" (none), "flip-bit" or "i8-error".
  std::string inject;
};

/// Counts of one kind of operation (batches on one runtime, or requests of
/// one serving phase).
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;  // serving only: refused at admission
};

/// Everything one run reports.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records one operation of `kind`; `error` non-empty marks it failed.
  void op(const std::string& kind, const std::string& error);
  void rejected(const std::string& kind);

  /// A failed check outside the counted operations (a reference check).
  void check_failed(const std::string& what);

  std::int64_t attempted() const;
  std::int64_t failed() const;
  bool correct() const { return correct_; }

  /// Human-readable accounting lines ("# ops ...") for stdout.
  std::string accounting() const;

  /// The final JSON line.
  std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, OpCount> ops_;
  bool correct_ = true;
  int errors_printed_ = 0;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Host description printed at the top of every run.
struct HostInfo {
  int nproc = 0;
  bool avx2 = false;
  bool avx512 = false;
  bool vnni = false;
  double compute_probe_ms = 0.0;
  double membw_gbs = 0.0;
};

/// ISA flags and core count (cheap).
HostInfo host_info();
/// Runs the two fixed host probes into `h` (allocates 128 MiB briefly, so
/// runs after the peak-RSS reading).
void run_host_probes(HostInfo& h);

/// Process resource counters (getrusage, all threads).
struct Usage {
  std::int64_t minflt = 0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mib = 0.0;
};

Usage usage_now();

/// Runs one workload and fills `result`. Throws on set-up errors.
void run_workload(const Workload& w, const Args& args, Result& result);

}  // namespace e2e
