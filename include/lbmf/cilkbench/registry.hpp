#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lbmf/ws/scheduler.hpp"

namespace lbmf::cilkbench {

/// Input scales: kTest keeps every benchmark under ~100 ms for unit tests;
/// kBench is the default for the Fig. 5 reproduction on this host. Paper
/// inputs (Fig. 4) are recorded as strings for the report but are sized for
/// the authors' 16-core Opteron, not a CI container.
enum class Scale { kTest, kBench };

/// One Fig. 4 benchmark, bound to a fence policy and an input scale. run()
/// must be called from inside Scheduler<P>::run (it spawns).
struct Benchmark {
  std::string name;
  std::string description;
  std::string paper_input;
  std::string scaled_input;
  std::function<std::uint64_t()> run;

  /// Analytic estimate of the spawn-tree span T_inf in *task units* at the
  /// kBench input (recursion depth x sequential phases). Used by the Fig.
  /// 5(b) cost model to estimate parallel steal volume (classic
  /// work-stealing theory: expected steals = O(P * T_inf)) at the paper's
  /// 16 cores, four times the vCPUs of the measurement host.
  double span_tasks = 50.0;

  /// Fraction of signals that became successful steals in the paper's own
  /// 16-core runs (Sec. 5): 53.6% for cholesky, 72.8% for lu, "over 90%"
  /// for the rest. Used to convert estimated steals into signal counts.
  double paper_steal_efficiency = 0.92;
};

/// All 12 benchmarks of Fig. 4, instantiated for fence policy P.
template <FencePolicy P>
std::vector<Benchmark> all_benchmarks(Scale scale);

/// Convenience: run one benchmark on a scheduler and return its checksum.
template <FencePolicy P>
std::uint64_t run_on(ws::Scheduler<P>& sched, const Benchmark& b) {
  std::uint64_t result = 0;
  sched.run([&] { result = b.run(); });
  return result;
}

}  // namespace lbmf::cilkbench
