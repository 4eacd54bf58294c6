#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lbmf/adapt/policy_table.hpp"
#include "lbmf/infer/engine.hpp"
#include "lbmf/infer/sites.hpp"

namespace lbmf::infer {

/// A cost-frontier sweep over one inference problem (the synthesis analogue
/// of the paper's Fig. 6 crossover plots): re-solve the same holey litmus
/// at every point of a (victim frequency × LE/ST remote-round-trip cost)
/// grid and record where the inferred optimum flips between {mfence,
/// mfence}, the asymmetric mix, and double-l-mfence. Safety verdicts do
/// not depend on costs, so all grid points share one VerdictCache: the
/// explorer runs once per *distinct lattice point*, and every other grid
/// point re-ranks cached verdicts — which is what makes a 30-point grid
/// cost barely more than a single solve.
/// One plane of the sweep's serialization-backend dimension.
/// `inverts_roles` mirrors what adapt::realize grants the named mechanism
/// but is supplied by the caller, so CI sweeps identical planes regardless
/// of whether the build host itself supports the mechanism (membarrier
/// availability must not change the shipped frontier).
struct SweepBackend {
  std::string name;  // adapt::to_string spelling, e.g. "membarrier-pair"
  bool inverts_roles = false;
};

struct SweepOptions {
  /// Values swept for the victim CPU's `freq` weight (cpu_freqs[victim]);
  /// other CPUs keep the problem's own weights. Paper range: 1:1 … 10⁵:1.
  std::vector<double> victim_freqs = {1, 10, 100, 1'000, 10'000, 100'000};
  /// Values swept for CostTable::lest_roundtrip_cycles (the remote-trip
  /// constant that prices every peer load of an l-mfence-guarded line).
  std::vector<double> roundtrips = {10, 50, 150, 500, 1'500};
  /// Which CPU is "the victim" (the hot protocol side whose freq is swept).
  std::size_t victim_cpu = 0;
  /// Serialization-backend dimension: one extra grid per entry. A
  /// role-inverting backend leaves the assignment space unchanged, so its
  /// plane copies the base grid without re-solving; a non-inverting one
  /// re-solves with l-mfence excluded on every non-victim CPU's sites
  /// (FenceSite::no_lmfence). All planes share the base grid's
  /// VerdictCache and PrefixGraph — the constraint prunes assignments,
  /// never changes a verdict. Empty = no backend dimension.
  std::vector<SweepBackend> backends;
  /// Base engine options. costs.lest_roundtrip_cycles and any attached
  /// verdict_cache are overridden per grid point / per sweep.
  InferenceEngine::Options engine;
};

/// The inferred optimum at one grid point.
struct SweepPoint {
  double victim_freq = 1;
  double lest_roundtrip = 150;
  InferStatus status = InferStatus::kUnsat;
  Assignment best;        // valid when status == kSat
  double best_cost = 0;
  bool recheck_safe = false;
};

/// A flip of the inferred optimum between two adjacent victim_freq values
/// at a fixed roundtrip — one point of the Fig. 6 crossover boundary.
struct Crossover {
  double lest_roundtrip = 0;
  double freq_before = 0;
  double freq_after = 0;
  std::string from;  // to_string(Assignment) before the flip
  std::string to;
};

/// One backend plane's solved grid, same row-major geometry as the base.
struct SweepBackendPlane {
  std::string name;
  bool inverts_roles = false;
  std::vector<SweepPoint> points;
};

struct SweepResult {
  std::vector<SweepPoint> points;  // row-major: roundtrips × victim_freqs
  std::vector<double> victim_freqs;
  std::vector<double> roundtrips;
  std::vector<Crossover> crossovers;
  /// Backend dimension (one entry per SweepOptions::backends element, in
  /// order). Inverting planes are verbatim copies of `points`.
  std::vector<SweepBackendPlane> backend_planes;
  /// Explorer verification work across the whole grid, and how much of it
  /// the shared verdict cache absorbed.
  std::uint64_t explorer_runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t states_total = 0;
  /// Incremental re-exploration across the grid: the hole-independent
  /// prefix region is built once (its key excludes freqs and costs, so one
  /// graph serves every grid point) and each fresh verification resumes
  /// from it. prefix_states is that one-time region size;
  /// incremental_reuses counts the verifications that resumed from it.
  std::uint64_t prefix_states = 0;
  std::uint64_t incremental_reuses = 0;

  /// All grid points — backend planes included — solved to kSat with a
  /// SAFE recheck.
  bool all_sat() const noexcept;
  /// Distinct optima along the freq axis at the given roundtrip value (the
  /// CI gate asks for >= 2 at the paper's 150-cycle constant).
  std::size_t distinct_optima_at(double roundtrip) const;
};

/// Run the sweep. The problem is taken by value: each grid point solves a
/// copy with cpu_freqs[victim_cpu] replaced by the grid value.
SweepResult run_sweep(InferProblem problem, const SweepOptions& opts);

/// Single-line JSON report (grid, per-point optima, crossovers, cache
/// accounting, and — when the sweep ran a backend dimension — a trailing
/// "backend_planes" section) — the payload of BENCH_sweep.json and
/// --sweep --json.
std::string sweep_to_json(const SweepResult& r, const std::string& workload);

/// The report of one solve that fence_inferencer --json and lbmf_extract
/// --infer --json write: counters, the placement (plus a source_map when
/// any hole carries `#@` provenance), clauses and minimality notes, in
/// JsonWriter's report layout. A non-empty `protocol` is the first member.
std::string result_to_json(const InferProblem& p, const InferResult& r,
                           std::string_view protocol = {});

/// Collapse a sweep to the runtime policy table: the base grid plus one
/// plane per backend. Each grid point's optimum is classified by its
/// victim and thief *announce* sites, which in the THE-deque litmus hole
/// order {victim announce, victim retreat, thief announce, thief retreat}
/// are sites 0 and 2: both l-mfence → kDoubleLmfence, the victim only →
/// kAsymmetric, otherwise — non-SAT points included — kSymmetric, the
/// always-safe regime. The axes must ascend (run_sweep's defaults do).
adapt::PolicyTable policy_table(const SweepResult& r);

}  // namespace lbmf::infer
