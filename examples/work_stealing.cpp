// ACilk-5 in miniature: run Fig. 4 benchmarks on the work-stealing runtime
// under the symmetric (Cilk-5-style, mfence-per-pop) and asymmetric
// (ACilk-5-style, l-mfence software prototype) fence policies, and print
// the per-benchmark relative execution time plus the event counts the
// paper's Sec. 5 analysis is based on.
//
// Usage:  work_stealing [workers] [benchmark-name] [--adaptive]
//                       [--policy=table.json]
//         (default: 2 workers, fib + cilksort + nqueens)
//
// --adaptive adds a third runtime whose workers pick their fence at
// runtime (lbmf::adapt: monitor -> crossover table -> hysteresis, on the
// signal drain and its table plane) and reports the mode switches each run
// adopted. --policy loads the crossover table from a
// `fence_inferencer --sweep --policy-json` file instead of the builtin E17
// frontier.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lbmf/cilkbench/registry.hpp"
#include "lbmf/util/timing.hpp"

using namespace lbmf;
using cilkbench::Benchmark;
using cilkbench::Scale;

namespace {

/// Wall time of one run. The scheduler's counters only grow, so
/// `stats_out` gets the change over the run in the fields main prints.
template <FencePolicy P>
double run_once(ws::Scheduler<P>& sched, const Benchmark& b,
                ws::SchedulerStats* stats_out, std::uint64_t* checksum) {
  const ws::SchedulerStats before = sched.stats();
  Stopwatch sw;
  *checksum = cilkbench::run_on(sched, b);
  const double secs = sw.seconds();
  const ws::SchedulerStats after = sched.stats();
  stats_out->spawns = after.spawns - before.spawns;
  stats_out->steal_attempts = after.steal_attempts - before.steal_attempts;
  stats_out->steals_success = after.steals_success - before.steals_success;
  stats_out->policy_switches = after.policy_switches - before.policy_switches;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  bool adaptive = false;
  const char* policy_path = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adaptive") == 0) {
      adaptive = true;
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      policy_path = argv[i] + 9;
      adaptive = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t workers =
      !positional.empty() ? static_cast<std::size_t>(std::atoi(positional[0]))
                          : 2;
  const char* only = positional.size() > 1 ? positional[1] : nullptr;

  adapt::SelectorConfig aopts;
  if (policy_path != nullptr) {
    std::ifstream in(policy_path);
    std::stringstream ss;
    ss << in.rdbuf();
    const auto table = adapt::PolicyTable::from_json(ss.str());
    if (!table) {
      std::fprintf(stderr, "could not parse policy table from %s\n",
                   policy_path);
      return 1;
    }
    aopts.table = *table;
    std::printf("policy table: %s\n", policy_path);
  }

  const auto sym_list = cilkbench::all_benchmarks<SymmetricFence>(Scale::kTest);
  const auto asym_list =
      cilkbench::all_benchmarks<AsymmetricSignalFence>(Scale::kTest);
  const auto adapt_list =
      cilkbench::all_benchmarks<adapt::AdaptiveFence>(Scale::kTest);

  ws::Scheduler<SymmetricFence> sym(workers);
  ws::Scheduler<AsymmetricSignalFence> asym(workers);
  ws::Scheduler<adapt::AdaptiveFence> adap(workers);
  if (adaptive) adap.enable_adaptation(aopts);

  std::printf("%-10s %10s %10s %7s %9s %8s %10s", "benchmark", "sym(ms)",
              "asym(ms)", "rel", "spawns", "steals", "steal-eff");
  if (adaptive) std::printf(" %10s %9s", "adapt(ms)", "switches");
  std::printf("\n");
  const char* defaults[] = {"fib", "cilksort", "nqueens"};
  for (std::size_t i = 0; i < sym_list.size(); ++i) {
    const Benchmark& b = sym_list[i];
    if (only != nullptr) {
      if (b.name != only) continue;
    } else {
      bool pick = false;
      for (const char* d : defaults) pick |= b.name == d;
      if (!pick) continue;
    }

    ws::SchedulerStats ss{}, as{};
    std::uint64_t sum_s = 0, sum_a = 0;
    const double t_sym = run_once(sym, b, &ss, &sum_s);
    const double t_asym = run_once(asym, asym_list[i], &as, &sum_a);
    if (sum_s != sum_a) {
      std::fprintf(stderr, "checksum mismatch on %s!\n", b.name.c_str());
      return 1;
    }
    std::printf("%-10s %10.2f %10.2f %7.2f %9llu %8llu %9.0f%%",
                b.name.c_str(), t_sym * 1e3, t_asym * 1e3,
                t_sym > 0 ? t_asym / t_sym : 0.0,
                static_cast<unsigned long long>(as.spawns),
                static_cast<unsigned long long>(as.steals_success),
                as.steal_success_ratio() * 100.0);
    if (adaptive) {
      ws::SchedulerStats ds{};
      std::uint64_t sum_d = 0;
      const double t_adapt = run_once(adap, adapt_list[i], &ds, &sum_d);
      if (sum_s != sum_d) {
        std::fprintf(stderr, "adaptive checksum mismatch on %s!\n",
                     b.name.c_str());
        return 1;
      }
      std::printf(" %10.2f %9llu", t_adapt * 1e3,
                  static_cast<unsigned long long>(ds.policy_switches));
    }
    std::printf("\n");
  }

  std::printf(
      "\nrel < 1 means the asymmetric runtime (victim pays only a compiler\n"
      "fence; thieves signal) beat the symmetric mfence-per-pop baseline.\n"
      "steal-eff is the paper's signals-to-successful-steals ratio.\n");
  if (adaptive) {
    std::printf(
        "switches counts the quiescent-point fence changes the adaptive\n"
        "workers adopted while tracking the run's steal/pop mix.\n");
  }
  return 0;
}
