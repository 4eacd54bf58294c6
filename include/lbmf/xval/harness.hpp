#pragma once

/// The cross-validation harness: diff native executions of a litmus
/// against the simulator's exhaustively enumerated reachable set.
///
/// Soundness direction. The simulator claims to model x86-TSO; the
/// explorer enumerates *every* schedule of the litmus, so the set of
/// reachable terminal observations is the model's complete prediction of
/// what silicon may produce. A native observation outside that set
/// (observed ⊄ reachable) means real hardware exhibited a behaviour the
/// model says is impossible — a model-soundness failure, and the one
/// verdict this harness treats as an error. The converse direction is
/// *coverage*, not error: reachable outcomes never observed natively just
/// mean the stress run didn't hit that interleaving (or the host cannot —
/// e.g. simulated drain timings with no native analogue).
///
/// Lowering. The simulator explores the program the native leg runs
/// (native.hpp): LE is a plain load and the link never arms
/// (SimConfig::le_st_enabled = false), so every l-mfence is load; store;
/// mfence. An LE/ST exploration is the wrong oracle for that code: in the
/// window between LE and the guarded store LE/ST is strictly stronger, so
/// its set lacks outcomes TSO gives the lowered program (peterson_lmfence
/// has two), which would read as a false UNSOUND. LE/ST's own claims are
/// checked by litmus_runner and the litmus gates.
///
/// Violation witnesses. An outcome is *violating* when some execution
/// reaching it passes through a state that violates the litmus property
/// (two CPUs in the critical section, or a failed `final` directive).
/// This is deliberately outcome-level: broken Dekker's both-entered
/// terminal state is also reachable by a schedule whose critical sections
/// are disjoint in simulator time, so "reachable minus safe" would miss
/// it; instead the harness collects every violating state from a checked
/// exploration and re-explores forward from each, unchecked, to find the
/// terminal outcomes violations can produce. Natively observing one of
/// those is the hardware reproducing the model's counterexample family —
/// required of the broken_* litmus, forbidden (by SAFE verdicts +
/// soundness) of the fenced ones. Every path to a terminal state either
/// avoids violating states or passes a first one, so the two explorations
/// together give the whole reachable set: safe ∪ violating.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/xval/native.hpp"
#include "lbmf/xval/observation.hpp"

namespace lbmf::xval {

/// The simulator's outcome sets for one litmus.
struct ReachableSets {
  /// Every terminal observation of the lowered program: safe ∪ violating.
  std::set<std::string> reachable;
  /// Terminal observations of the checked graph (violating states pruned).
  std::set<std::string> safe;
  /// Terminal observations reachable through at least one violating state.
  std::set<std::string> violating;
  std::uint64_t states_explored = 0;
  std::uint64_t violating_states = 0;
  /// False when any exploration hit its state limit (sets may be partial,
  /// so containment verdicts are inconclusive rather than failures).
  bool complete = true;
  /// First property violation the checked run reported (diagnostic).
  std::string violation;
};

/// Exhaustively compute the reachable / safe / violating outcome sets.
/// Thread-symmetry reduction is deliberately NOT enabled: canonicalizing
/// permuted CPUs would merge outcome strings the native runner keeps
/// distinct, and xval litmus are small enough for the exact graph.
ReachableSets compute_reachable(const sim::AssembleResult& lit,
                                const ObservationSchema& schema,
                                std::uint64_t max_states = 2'000'000);

struct XvalOptions {
  NativeOptions native;
  std::uint64_t max_states = 2'000'000;
};

/// One cross-validation verdict, serializable as XVAL_*.json.
struct XvalReport {
  std::string litmus;

  // Host.
  std::string arch;
  std::size_t online_cpus = 0;
  bool skipped = false;       ///< native leg not run (unsupported host)
  std::string skip_reason;

  // Simulator side.
  ReachableSets sim;

  // Native side.
  std::map<std::string, std::uint64_t> observed;
  std::uint64_t iterations = 0;
  std::uint64_t wedged_iterations = 0;

  // The diff.
  std::vector<std::string> unexplained;  ///< observed \ reachable — errors
  std::vector<std::string> unobserved;   ///< reachable \ observed — coverage
  /// Iterations whose outcome lies in sim.violating: the hardware
  /// witnessing the model's counterexample family.
  std::uint64_t violations_observed = 0;

  /// observed ⊆ reachable (vacuously true when the native leg skipped).
  bool model_sound() const noexcept { return unexplained.empty(); }
  /// All native verdict inputs are trustworthy: sim sets complete and no
  /// iteration wedged.
  bool conclusive() const noexcept {
    return sim.complete && wedged_iterations == 0;
  }
  double coverage() const noexcept {
    if (sim.reachable.empty()) return 1.0;
    return static_cast<double>(sim.reachable.size() - unobserved.size()) /
           static_cast<double>(sim.reachable.size());
  }
};

/// Pure differ over precomputed halves — what xval_test feeds a
/// deliberately-weakened model through.
XvalReport diff_outcomes(std::string litmus_name, const NativeResult& native,
                         const ReachableSets& sim);

/// The whole pipeline: schema, simulator sets, host probe, native stress
/// run (skipped with a recorded reason on unsupported hosts), diff.
XvalReport cross_validate(std::string litmus_name,
                          const sim::AssembleResult& lit,
                          const XvalOptions& opts = {});

/// Serialize a report as the XVAL_*.json artifact schema.
std::string to_json(const XvalReport& r);

}  // namespace lbmf::xval
