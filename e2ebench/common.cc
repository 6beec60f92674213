#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "bench.h"
#include "obs/json.h"

namespace e2e {

const std::vector<Workload>& workloads() {
  // Open-loop rates are fixed per workload (README "Workloads").
  static const std::vector<Workload> table = {
      {"nasnet-b4", "nasnet", 4, ramiel::DType::kF32, /*setup_reps=*/15,
       /*cycle_s=*/5.0, /*runtime_share=*/0.7, /*open_rate_rps=*/4.0},
      {"squeezenet-b4-i8", "squeezenet", 4, ramiel::DType::kI8, 41, 2.5, 0.7,
       200.0},
      {"squeezenet-serve-b4", "squeezenet", 4, ramiel::DType::kF32, 101, 2.5,
       0.3, 500.0},
      // Not in BENCHMARK.json: their medians did not repeat across runs on
      // the host the benchmark was defined on (README "Workloads").
      {"bert-b1", "bert", 1, ramiel::DType::kF32, 15, 4.0, 0.6, 6.0},
      {"bert-b1-i8", "bert", 1, ramiel::DType::kI8, 11, 5.0, 0.5, 3.0},
  };
  return table;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) check_failed("metric " + name + " is not finite");
  metrics_[name] = {value, unit};
}

void Result::op(const std::string& kind, const std::string& error) {
  OpCount& c = ops_[kind];
  ++c.attempted;
  if (!error.empty()) {
    ++c.failed;
    correct_ = false;
    if (errors_printed_++ < 10) {
      std::fprintf(stderr, "e2ebench: %s failed: %s\n", kind.c_str(),
                   error.c_str());
    }
  }
}

void Result::rejected(const std::string& kind) {
  OpCount& c = ops_[kind];
  ++c.attempted;
  ++c.failed;
  ++c.rejected;
}

void Result::check_failed(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "e2ebench: check failed: %s\n", what.c_str());
}

std::int64_t Result::attempted() const {
  std::int64_t n = 0;
  for (const auto& [k, c] : ops_) n += c.attempted;
  return n;
}

std::int64_t Result::failed() const {
  std::int64_t n = 0;
  for (const auto& [k, c] : ops_) n += c.failed;
  return n;
}

std::string Result::accounting() const {
  std::ostringstream os;
  for (const auto& [kind, c] : ops_) {
    os << "# ops " << kind << ": attempted=" << c.attempted
       << " ok=" << (c.attempted - c.failed) << " rejected=" << c.rejected
       << " failed=" << (c.failed - c.rejected) << "\n";
  }
  return os.str();
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted() << ", \"failed\": " << failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << "\"" << ramiel::obs::json_escape(name) << "\": {\"value\": " << num
       << ", \"unit\": \"" << ramiel::obs::json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Fixed scalar work: a 128^3 double matrix product, median of 5.
double compute_probe_ms() {
  constexpr int n = 128;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = (i % 7) * 0.25;
    b[static_cast<std::size_t>(i)] = (i % 5) * 0.5;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int k = 0; k < n; ++k) {
          acc += a[static_cast<std::size_t>(i * n + k)] *
                 b[static_cast<std::size_t>(k * n + j)];
        }
        c[static_cast<std::size_t>(i * n + j)] = acc;
      }
    }
    times.push_back(elapsed_ms(t0));
    // Feed a result back so the product cannot be elided.
    a[0] = c[static_cast<std::size_t>(rep)] * 1e-9;
  }
  return median(times);
}

/// Copy bandwidth over a 64 MiB buffer, median of 5 (read + write bytes).
double membw_gbs() {
  constexpr std::size_t bytes = std::size_t{64} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double s = elapsed_ms(t0) / 1e3;
    rates.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
  }
  if (dst[3] != 3) rates.push_back(0.0);  // keeps the copies observable
  return median(rates);
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  __builtin_cpu_init();
  h.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  h.avx512 = __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  h.vnni = h.avx512 && __builtin_cpu_supports("avx512vnni");
  return h;
}

void run_host_probes(HostInfo& h) {
  h.compute_probe_ms = compute_probe_ms();
  h.membw_gbs = membw_gbs();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minflt = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

}  // namespace e2e
