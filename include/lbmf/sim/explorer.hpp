#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lbmf/sim/machine.hpp"

namespace lbmf::sim {

/// Result of an exhaustive interleaving exploration.
struct ExploreResult {
  std::uint64_t states_explored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal_states = 0;
  /// Transitions that landed on an already-visited state (memoization hits).
  std::uint64_t dedup_hits = 0;
  /// Approximate *resident* footprint of the visited-state structure at the
  /// end of the run (fingerprint slots, or canonical keys + node overhead
  /// in exact_dedup mode). Spilled segments are excluded.
  std::uint64_t visited_bytes = 0;
  /// Bytes of visited-set state frozen into file-backed spill segments
  /// (see Options::visited_budget_bytes), and how many segments.
  std::uint64_t spill_bytes = 0;
  std::uint32_t spill_segments = 0;
  /// Machine::symmetry_orbit() of the explored machine: how many raw states
  /// each canonical representative stands for (1 = no reduction).
  std::uint64_t symmetry_orbit = 1;
  bool hit_limit = false;

  /// First invariant violation found, with the schedule reaching it.
  std::optional<std::string> violation;
  std::vector<Choice> violation_trace;

  /// Distinct terminal observations (as produced by Options::observe).
  std::set<std::string> outcomes;

  bool ok() const noexcept { return !violation && !hit_limit; }
};

/// Depth-first enumeration of *all* schedules of a machine, with state
/// memoization: two interleavings that reach the same architectural state
/// are explored once. This turns the paper's Theorems 4 and 7 into
/// machine-checked statements (over bounded litmus programs): mutual
/// exclusion holds under l-mfence in every reachable interleaving, and the
/// checker exhibits a concrete violating schedule once fences are removed.
///
/// Engine (see docs/ARCHITECTURE.md "Explorer internals"):
///  * visited states are 128-bit Machine::fingerprint()s — hashed from the
///    fields, per-CPU hashes cached across steps — in an open-addressing
///    flat set (16 bytes/state); `exact_dedup` serializes and keeps the
///    full canonical_state() keys instead so collision behaviour is
///    auditable;
///  * the DFS is iterative (explicit frame stack, no recursion limit); each
///    edge steps a copy-assigned scratch snapshot, and a new state swaps
///    into a frame slot kept from earlier pops, so steady-state exploration
///    neither allocates nor frees a Machine;
///  * partial-order reduction prunes commuting interleavings of *local*
///    actions (Machine::action_is_local) via singleton ample sets with an
///    in-stack cycle proviso; terminal states, outcomes, and the built-in
///    coherence / mutual-exclusion verdicts are preserved exactly;
///  * a nonzero max_pending_stores explores only the schedules that keep
///    at most that many stores buffered per CPU — a bug-finding subgraph
///    whose counterexamples cross few fence sites (Joshi & Kroening's
///    reorder bound);
///  * a run is sequential and deterministic: the same machine and options
///    give the same counts, verdict and violating schedule every time.
///    Parallelism lives one level up, in lbmf::infer's candidate `batch`,
///    where each thread runs its own Explorer.
class Explorer {
 public:
  struct Options {
    /// Safety property, evaluated once per newly discovered state (states
    /// are predicates, so re-checking on every incoming transition would be
    /// redundant); return a description to flag a violation. Violating
    /// states count toward states_explored but are never expanded.
    std::function<std::optional<std::string>(const Machine&)> check;
    /// Projection of terminal states collected into ExploreResult::outcomes
    /// (e.g. final register values for litmus tests). Optional.
    std::function<std::string(const Machine&)> observe;
    /// Also check MESI/link invariants after every transition.
    bool check_coherence = true;
    /// Treat two concurrent critical sections as a violation.
    bool check_mutual_exclusion = true;
    /// Abort enumeration after visiting this many distinct states.
    std::uint64_t max_states = 2'000'000;
    /// Stop at the first violation (true) or keep enumerating (false).
    bool stop_at_violation = true;
    /// Partial-order reduction. Sound for the built-in properties, terminal
    /// states and outcomes; a custom `check` over *intermediate* states
    /// only sees the reduced graph — set por = false to check every state
    /// of the full graph.
    bool por = true;
    /// Store full canonical state keys instead of 128-bit fingerprints.
    /// Slower and ~15x more memory, but dedup is exact by construction —
    /// the audit mode tests use it to show fingerprinting loses nothing.
    bool exact_dedup = false;
    /// In-RAM budget for the visited set; 0 = unbounded. When the live set
    /// outgrows it, its fingerprints freeze into a file-backed mmap'd
    /// segment and a fresh live set takes over, so deep explorations
    /// degrade to probing disk-backed pages instead of OOMing. Ignored in
    /// exact_dedup mode.
    std::uint64_t visited_budget_bytes = 0;
    /// Reorder bound; 0 = unbounded. While a CPU holds this many
    /// store-buffer entries, its store Execute (a plain or register store,
    /// the l-mfence expansion's included) is not offered, so only its
    /// Drain remains. Machine::step is untouched, so every schedule a
    /// bounded run reports replays on the unbounded machine: its
    /// violations are real, but a SAFE verdict holds only within the bound.
    std::uint32_t max_pending_stores = 0;
  };

  Explorer(Machine initial, Options opts);

  ExploreResult run();

 private:
  Machine initial_;
  Options opts_;
};

/// The explorer's verdict on one state: coherence (check_coherence), then
/// mutual exclusion (check_mutual_exclusion), then `opts.check`; the first
/// violation found, or nullopt. Every state a run discovers is judged by
/// it, so a replayed schedule's last state can be judged the same way.
std::optional<std::string> check_state(const Machine& m,
                                       const Explorer::Options& opts);

/// Convenience: explore `machine` with default options and the given state
/// budget. Returns the result for further outcome assertions.
ExploreResult explore_all(Machine machine, std::uint64_t max_states = 2'000'000);

/// Convenience overload that honours every option (observe/check/por/...).
ExploreResult explore_all(Machine machine, Explorer::Options opts);

/// Replay a schedule (e.g. an explorer violation trace) on a fresh copy of
/// `initial` with event tracing attached, and return the annotated
/// event-by-event account plus the final safety verdict — the "waveform"
/// view of a counterexample.
std::string annotate_schedule(Machine initial,
                              const std::vector<Choice>& schedule);

}  // namespace lbmf::sim
