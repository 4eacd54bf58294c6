#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lbmf/model/cost_model.hpp"
#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/sim/machine.hpp"
#include "lbmf/sim/program.hpp"

namespace lbmf::infer {

using sim::FenceKind;

/// One candidate fence site: a store in a base program whose fence
/// discipline ({none, mfence, l-mfence}) is up for inference. Sites come
/// from `?fence` holes in a litmus text (problem_from_source) or from
/// static discovery over built programs (discover_sites).
struct FenceSite {
  std::size_t cpu = 0;
  /// Index of the candidate store in the *base* program of `cpu` (the
  /// all-none instantiation). instantiate() reports where it lands once
  /// fences are materialized.
  std::size_t instr_index = 0;
  sim::Addr addr = sim::kInvalidAddr;
  sim::Word value = 0;
  /// Register-sourced stores (kStoreReg) cannot take the l-mfence
  /// expansion, whose ST carries an immediate; only {none, mfence} apply.
  bool is_reg_store = false;
  /// Capability constraint, not a program property: the serialization
  /// backend this sweep plane models cannot run the light path on this
  /// side (e.g. the signal backend only inverts in the primary's favor),
  /// so l-mfence is excluded from the site's lattice. Part of the
  /// *assignment* space, never of the safety verdict, so VerdictCache
  /// entries stay shared across backend planes.
  bool no_lmfence = false;
  std::size_t src_line = 0;  // 1-based .lit line; 0 for programmatic sites
  /// Runtime-source location ("lbmf/ws/deque.hpp:84") carried over from
  /// the hole's `#@` provenance comment when the litmus text was
  /// machine-extracted (lbmf::extract); empty otherwise. Reported by the
  /// JSON source_map and the extract map-back pass; it never changes a
  /// verdict.
  std::string provenance;
};

/// A placement: one FenceKind per site, parallel to InferProblem::sites.
struct Assignment {
  std::vector<FenceKind> kinds;

  bool operator==(const Assignment&) const = default;
};

/// Strength of a kind in the search lattice: none(0) < l-mfence(1) <
/// mfence(2). Adding fence strength at a site only removes TSO behaviours
/// (mfence drains unconditionally; l-mfence drains when the guarded line is
/// remotely touched), so the SAFE region is upward-closed in this order —
/// the monotonicity the engine's counterexample pruning leans on.
int strength(FenceKind k) noexcept;

/// Pointwise: strength(a.kinds[i]) <= strength(b.kinds[i]) for all i.
bool weaker_equal(const Assignment& a, const Assignment& b) noexcept;

/// Compact rendering, e.g. "{l-mfence, none, mfence, none}".
std::string to_string(const Assignment& a);

/// A fence-inference instance: base programs (holes as plain stores), the
/// candidate sites, per-CPU execution frequencies, and the machine
/// configuration the explorer verifies under.
struct InferProblem {
  std::vector<sim::Program> programs;
  std::vector<FenceSite> sites;
  /// Relative execution frequency per CPU (default 1.0): how often this
  /// CPU's protocol entry runs per unit time. The paper's asymmetric Dekker
  /// is exactly the biased case — primary hot, secondary rare.
  std::vector<double> cpu_freqs;
  std::vector<std::pair<sim::Addr, sim::Word>> initial_memory;
  std::map<std::string, sim::Addr> symbols;
  /// Allowed terminal valuations (`final` directives), installed as the
  /// explorer's check on every candidate verification — see
  /// sim::final_state_check. Empty = deadlock detection only.
  std::vector<std::vector<std::pair<sim::Addr, sim::Word>>> final_allowed;
  sim::SimConfig config;
  /// Groups of interchangeable CPUs (byte-identical programs, equal freqs,
  /// aligned sites), auto-detected by problem_from_source. The engine uses
  /// them two ways: candidate assignments are canonicalized per orbit (one
  /// explorer run stands for every within-group permutation of a
  /// placement), and uniform-within-group candidates explore with
  /// Machine-level state symmetry on. Empty = no reduction.
  std::vector<std::vector<std::uint8_t>> symmetric_groups;

  /// Uniform assignment over all sites (e.g. the all-kNone lattice bottom).
  Assignment uniform(FenceKind k) const;

  double cpu_freq(std::size_t cpu) const noexcept;

  /// Symbolic name of `a` if the problem came from a litmus text with
  /// named locations, else the numeric "[N]" form.
  std::string location_name(sim::Addr a) const;

  /// Human-readable site label, e.g. "cpu0@2[L1]=1".
  std::string describe_site(std::size_t site) const;
};

/// Result of parsing a holey litmus text.
struct ProblemParse {
  std::optional<InferProblem> problem;
  std::optional<sim::AssembleError> error;

  bool ok() const noexcept { return problem.has_value(); }
};

/// Parse a litmus source with `?fence` holes (and optional `freq`
/// directives) into an inference problem. cfg.num_cpus is overridden by the
/// number of cpu sections. A source with zero holes is a valid (trivial)
/// problem.
ProblemParse problem_from_source(std::string_view source,
                                 sim::SimConfig cfg = {});

/// Static candidate discovery for builder-made programs: every store that
/// is followed by a later load in the same program (a store→load program
/// point — the only place TSO can reorder) becomes a site.
std::vector<FenceSite> discover_sites(
    const std::vector<sim::Program>& programs);

/// One materialized candidate: the programs with fences expanded, plus
/// where each site's store landed (instruction index in the instantiated
/// program of its CPU) — the program points the counterexample analysis
/// reasons about.
struct Instantiation {
  std::vector<sim::Program> programs;
  std::vector<std::size_t> site_pos;
};

/// Materialize an assignment: per site, nothing (kNone), an mfence
/// appended after the store (kMfence), or the store replaced by the
/// Fig. 3(b) l-mfence expansion (kLmfence). Branch targets are remapped
/// across the insertions. Aborts on kLmfence at a register-store site.
Instantiation instantiate(const InferProblem& p, const Assignment& a);

/// A machine with the problem's config and initial memory, running
/// `programs` (the base programs or an instantiation's) — ready for the
/// explorer. Every machine the engine explores is built here.
sim::Machine problem_machine(const InferProblem& p,
                             std::vector<sim::Program> programs);

/// instantiate() loaded into problem_machine().
sim::Machine instantiate_machine(const InferProblem& p, const Assignment& a);

/// Detect interchangeable CPUs of a problem: byte-identical base programs,
/// equal freqs, and fence sites aligned by (instr_index, addr, value).
/// Groups of size >= 2 only; used by problem_from_source.
std::vector<std::vector<std::uint8_t>> detect_symmetric_groups(
    const InferProblem& p);

/// Site indices per group member, ordered by instr_index:
/// result[g][k] lists the sites of p.symmetric_groups[g]'s k-th member.
/// Aligned across members by construction, so permuting the per-member
/// kind tuples of an Assignment along these lists realizes the CPU
/// permutation at the placement level.
std::vector<std::vector<std::vector<std::size_t>>> group_sites(
    const InferProblem& p);

/// Orbit representative of `a` under the problem's symmetric groups: the
/// per-member kind tuples of each group, sorted. Sound as a search-space
/// quotient because within-group CPU permutation is a transition-system
/// automorphism (same verdict) and site costs are group-invariant (equal
/// freqs and identical peer load profiles => equal cost).
Assignment canonicalize_assignment(const InferProblem& p, const Assignment& a);

/// Cost of choosing `k` at one site, in expected cycles per unit time:
///   kNone     0
///   kMfence   freq(cpu) * mfence_cycles
///   kLmfence  freq(cpu) * lest_victim_cycles
///               + Σ_peer-loads-of-addr freq(peer) * (lest_roundtrip
///                                                    + lest_primary_penalty)
/// The l-mfence term charges the *remote* serializations its guard causes:
/// every peer load of the guarded location pays the LE/ST round trip. This
/// is how the engine mechanically rediscovers the paper's Fig. 3 asymmetry
/// — the hot primary wants the 3-cycle l-mfence, while guarding the *rare*
/// side's flag would bill every hot-side load 150 cycles.
double site_cost(const InferProblem& p, std::size_t site, FenceKind k,
                 const model::CostTable& c);

/// Σ site_cost over the assignment.
double assignment_cost(const InferProblem& p, const Assignment& a,
                       const model::CostTable& c);

/// Lower bound on the cost of `a` and every strengthening of it:
/// Σ_site min over kinds with strength >= strength(a.kinds[site]).
/// (Cost is not monotone along the l-mfence→mfence edge, so best-first
/// search orders by this bound rather than by cost.)
double assignment_cost_lower_bound(const InferProblem& p, const Assignment& a,
                                   const model::CostTable& c);

}  // namespace lbmf::infer
