// lbmfbench: one command, four seeded workloads. Prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1)
// as the last line of stdout, after checking every workload's output.
//
//   lbmfbench --workload serve_rare|serve_storm|forkjoin|infer --seed N
//             --seconds S --trace 0|1 [--root DIR] [--trace-out FILE]
//             [--runs-log FILE]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lbmfbench: %s\nusage: lbmfbench --workload "
               "serve_rare|serve_storm|forkjoin|infer --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE] "
               "[--runs-log FILE]\n",
               why);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbmfbench;
  RunArgs a;
  a.root = ".";
  std::string runs_log;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, a.seed)) usage("--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 600) usage("--seconds must be 1..600");
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--runs-log") {
      runs_log = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }

  const CpuTimes cpu0 = read_cpu_times();
  Outcome o;
  if (a.workload == "serve_rare") {
    o = run_serve(a, /*storm=*/false);
  } else if (a.workload == "serve_storm") {
    o = run_serve(a, /*storm=*/true);
  } else if (a.workload == "forkjoin") {
    o = run_forkjoin(a);
  } else if (a.workload == "infer") {
    o = run_infer(a);
  } else {
    usage("unknown workload");
  }
  const CpuTimes cpu1 = read_cpu_times();
  o.set_layer("host.steal_frac", steal_frac(cpu0, cpu1));
  o.set_layer("host.cpu_util", cpu_util(cpu0, cpu1));
  o.set_e2e("peak_rss_mb", peak_rss_mb());

  for (const std::string& e : o.errors) {
    std::fprintf(stderr, "lbmfbench: check failed: %s\n", e.c_str());
  }
  const std::string host = host_fingerprint();
  const std::string result = result_json(o, a.trace);
  if (!runs_log.empty()) {
    std::ofstream(runs_log, std::ios::app)
        << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
        << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
        << ", \"host\": " << host << ", \"result\": " << result << "}\n";
  }
  std::printf("host %s\n%s\n", host.c_str(), result.c_str());
  return o.correct ? 0 : 1;
}
