#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lbmf/infer/sites.hpp"
#include "lbmf/model/cost_model.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/types.hpp"

namespace lbmf::infer {

enum class InferStatus : std::uint8_t {
  kSat,    // a SAFE placement exists; `best` holds the cheapest one found
  kUnsat,  // no placement makes the program safe (fence-independent bug)
  kLimit,  // inconclusive: a state budget or candidate cap was hit first
};

const char* to_string(InferStatus s) noexcept;

/// One entry of the minimality certificate: what happened when `site` was
/// weakened (to = kNone) or swapped to the other fence kind, starting from
/// the winning assignment. Strengthenings are certified SAFE by lattice
/// monotonicity without a run; weakenings are answered by the verdict
/// cache, by a learned counterexample clause, or by a fresh exploration
/// when the mutation would actually be cheaper. Mutations that are both
/// pricier and undecidable without a run are omitted from the certificate.
struct MinimalityNote {
  std::size_t site = 0;
  FenceKind from = FenceKind::kNone;
  FenceKind to = FenceKind::kNone;
  bool safe = false;       // did the mutated placement stay SAFE?
  bool hit_limit = false;  // mutation check inconclusive
  double cost_delta = 0;   // cost(mutated) - cost(best); > 0 means pricier
};

/// Shared memo of safety verdicts, keyed by assignment. A placement's
/// SAFE/violation verdict depends only on the instantiated programs — never
/// on the CostTable or the freq weights — so a cost-frontier sweep that
/// revisits the same lattice points under different costs can reuse every
/// explorer run. Thread-safe (engines verify waves concurrently).
/// Inconclusive (hit_limit) results are never stored: a bigger budget on a
/// later run must be allowed to try again.
class VerdictCache {
 public:
  std::optional<sim::ExploreResult> lookup(
      const std::vector<FenceKind>& kinds) const {
    std::lock_guard<std::mutex> g(mu_);
    const auto it = map_.find(kinds);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  void store(const std::vector<FenceKind>& kinds,
             const sim::ExploreResult& r) {
    std::lock_guard<std::mutex> g(mu_);
    map_.emplace(kinds, r);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::vector<FenceKind>, sim::ExploreResult> map_;
};

struct InferResult {
  InferStatus status = InferStatus::kUnsat;

  /// Valid when status == kSat.
  Assignment best;
  double best_cost = 0;

  /// Assignments whose safety was actually model-checked (explorer runs),
  /// including the minimality pass; the CEGIS-vs-naive bench ratio is over
  /// this counter. One check is one candidate, whichever passes it ran.
  std::uint64_t candidates_verified = 0;
  /// Checks the bounded first pass settled: it found a violation, so the
  /// unbounded run was skipped.
  std::uint64_t bounded_refutations = 0;
  /// Assignments dispatched without an explorer run because a learned
  /// clause already covers them (a prior counterexample applies).
  std::uint64_t candidates_pruned = 0;
  /// Assignments answered from Options::verdict_cache instead of a fresh
  /// explorer run (0 when no cache is attached). Not counted in
  /// candidates_verified or states_total.
  std::uint64_t cache_hits = 0;
  /// Distinct assignments ever enqueued.
  std::uint64_t candidates_generated = 0;
  /// Full lattice size Π per-site kind counts (3^holes minus the l-mfence
  /// option at register-store sites) — what naive enumeration verifies.
  std::uint64_t lattice_size = 0;
  /// Σ states_explored over every explorer invocation, both passes of a
  /// check and the final recheck included.
  std::uint64_t states_total = 0;
  /// Always 0: every check explores from the root, so no prefix region is
  /// shared and no check resumes from one. Kept because the layered
  /// benchmark (lbmfbench/src/infer.cpp) still reports both fields.
  std::uint64_t prefix_states = 0;
  std::uint64_t incremental_reuses = 0;

  /// Final fresh explorer run over `best` (not counted above): the
  /// end-to-end certificate that the emitted placement is SAFE.
  bool recheck_safe = false;

  /// Human-readable learned clauses ("strengthen one of: ..."), in the
  /// order the counterexamples produced them.
  std::vector<std::string> clauses;
  std::vector<MinimalityNote> minimality;

  /// For kUnsat: the fence-independent violation and its schedule.
  std::optional<std::string> unsat_violation;
  std::vector<sim::Choice> unsat_trace;
};

/// Counterexample-guided search for the minimum-cost SAFE fence placement.
///
/// The search walks the per-site strength lattice (none < l-mfence <
/// mfence) best-first by cost lower bound, model-checking each popped
/// assignment with sim::Explorer. Every violating run is replayed to find
/// its *culprit sites* — the candidate program points a store-to-load
/// reordering actually crossed — and learns the clause "any safe placement
/// must strengthen one culprit site beyond what this candidate had there".
/// Candidates covered by a learned clause are pruned without an explorer
/// run; a counterexample with no culprit sites (the violation happens with
/// no reordering at all) proves the program unsafe under every placement.
/// Each check first explores with at most one buffered store per CPU
/// (sim::Explorer::Options::max_pending_stores): counterexamples with few
/// reorderings name few culprits, so their clauses prune more. Only a
/// candidate that pass finds no violation for gets the unbounded run, and
/// only unbounded runs answer SAFE; the final recheck is one more
/// unbounded run. Every run explores from the root.
/// A final minimality pass weakens/swaps each fence of the winner and
/// re-verifies, emitting a per-site certificate. See docs/ARCHITECTURE.md
/// "Fence inference".
class InferenceEngine {
 public:
  struct Options {
    model::CostTable costs;
    /// Explorer state budget per candidate check.
    std::uint64_t max_states_per_check = 500'000;
    /// Hard cap on explorer invocations (runaway-lattice backstop).
    std::uint64_t max_candidates = 100'000;
    /// Frontier candidates verified concurrently per wave (each on its own
    /// thread, each running its own sequential explorer). The verifier's
    /// one parallel knob: for a given batch, every run checks the same
    /// candidates and reports the same counts.
    std::size_t batch = 1;
    bool por = true;
    /// Naive 3^k enumeration instead of the guided search — the bench
    /// baseline and a cross-check oracle for tests.
    bool exhaustive = false;
    /// Learn clauses from counterexamples (off => plain best-first).
    bool learn_clauses = true;
    /// Run the drop/downgrade minimality pass on the winner.
    bool minimality_pass = true;
    /// Optional cross-run verdict memo (not owned; must outlive the
    /// engine). The final recheck always bypasses it, so the emitted
    /// certificate is a fresh exploration even on a fully cached run.
    VerdictCache* verdict_cache = nullptr;
    /// Thread-symmetry reduction: candidate assignments are canonicalized
    /// per orbit of the problem's symmetric_groups (one run stands for
    /// every within-group permutation of a placement), learned clauses
    /// prune across those permutations, and every explored machine gets
    /// Machine-level state symmetry via auto_symmetry(). Off = the exact
    /// search, one run per lattice point reached.
    bool symmetry = true;
  };

  InferenceEngine(InferProblem problem, Options opts);

  InferResult run();

  /// The explorer configuration `o` implies for checking candidates of `p`
  /// (coherence + mutual-exclusion checks, the problem's final-state
  /// property, state budget, POR): what every candidate check and the
  /// final recheck explore under, and what callers that explore a
  /// problem's programs themselves reuse.
  static sim::Explorer::Options explorer_options_for(const InferProblem& p,
                                                     const Options& o);

 private:
  InferProblem p_;
  Options o_;
};

}  // namespace lbmf::infer
