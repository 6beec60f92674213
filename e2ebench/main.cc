// e2ebench — the end-to-end benchmark of the Ramiel runtime.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a host header, per-operation accounting and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones (measured with tracing
// off); with --trace 1 they are the per-layer ones, and a Chrome/Perfetto
// trace is written. Exits non-zero on any failed operation or check.
// See README.md in this directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--inject flip-bit|i8-error]\n"
               "workloads:");
  for (const e2e::Workload& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--inject") {
      args.inject = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return usage();
  if (!args.inject.empty() && args.inject != "flip-bit" &&
      args.inject != "i8-error") {
    return usage();
  }
  const e2e::Workload* workload = nullptr;
  for (const e2e::Workload& w : e2e::workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (!workload) return usage();

  e2e::HostInfo host = e2e::host_info();
  e2e::Result result;
  try {
    e2e::run_workload(*workload, args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", workload->name.c_str(),
                 e.what());
    return 1;
  }
  // The probes allocate, so they run after the workload's peak-RSS reading.
  e2e::run_host_probes(host);
  if (args.trace) {
    result.metric("host.compute_probe_ms", host.compute_probe_ms, "ms");
    result.metric("host.membw_gbs", host.membw_gbs, "GB/s");
  }
  std::printf(
      "# host nproc=%d avx2=%d avx512=%d vnni=%d seed=%llu "
      "compute_probe_ms=%.3f membw_gbs=%.2f\n"
      "# workload %s seconds=%g trace=%d\n%s%s\n",
      host.nproc, host.avx2, host.avx512, host.vnni,
      static_cast<unsigned long long>(args.seed), host.compute_probe_ms,
      host.membw_gbs, workload->name.c_str(), args.seconds, args.trace ? 1 : 0,
      result.accounting().c_str(), result.to_json().c_str());
  std::fflush(stdout);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
