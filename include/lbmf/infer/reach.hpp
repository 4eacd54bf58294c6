#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lbmf/infer/sites.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/util/hash.hpp"

namespace lbmf::infer {

/// The reached-state graph of a problem's *hole-independent prefix region*:
/// every state reachable from the root by schedules that never Execute an
/// instruction at a fence-site index. No such path depends on which fences
/// a candidate materializes — the region's states, edges, terminals and
/// safety verdicts are shared by all |lattice| instantiations — so the
/// engine explores it once (full expansion, POR off, so nothing is deferred
/// twice) and re-enters it per candidate through `seeds`: the frontier
/// states whose deferred at-hole Execute edges remain to be taken.
///
/// Per candidate, each seed's architectural snapshot is restored into a
/// machine running the *instantiated* programs, its pcs remapped through
/// Instantiation::pc_map (shared state, registers, store buffers and caches
/// are hole-independent by construction, and schedules are (cpu, action)
/// pairs — coordinate-free), and sim::explore_seeded resumes with the dedup
/// set preloaded with the region's fingerprints. Those fingerprints encode
/// base-coordinate pcs, so for candidates that insert instructions a suffix
/// path re-entering the region may re-discover a few shared states under
/// shifted pcs; that only ever *adds* exploration (verdicts are reachability
/// properties, and the parity tests pin cold-vs-warm verdict equality).
///
/// A violation found inside the region (no hole executed) transfers to
/// every candidate verbatim, so `base.violation` short-circuits the whole
/// wave. A graph that hit the state budget is left invalid and the engine
/// falls back to cold runs.
struct PrefixGraph {
  struct Seed {
    std::string arch;  // Machine::save_arch bytes, base coordinates
    std::vector<sim::Choice> prefix;  // schedule from the root to here
    std::vector<sim::Choice> agenda;  // deferred at-hole Execute edges
  };

  bool valid = false;
  /// Identity of the problem the graph was built for: config, programs,
  /// sites, initial memory and final property — but NOT cpu freqs or fence
  /// costs, so one graph serves a whole cost sweep.
  Hash128 key{};
  std::vector<sim::Fingerprint> visited;
  std::vector<Seed> seeds;
  /// Region counters/outcomes, merged into every candidate's result.
  sim::ExploreResult base;
};

/// The graph-identity hash (see PrefixGraph::key).
Hash128 problem_graph_key(const InferProblem& p);

/// Explore the hole-independent prefix region of `p` (BFS, full expansion)
/// under the explorer options' check/limits. Returns an invalid graph if
/// the region alone exhausts eo.max_states.
PrefixGraph build_prefix_graph(const InferProblem& p,
                               const sim::Explorer::Options& eo);

/// Instantiate `inst`'s seed machines for one candidate and resume the
/// exploration (see sim::explore_seeded). `eo` must carry the same checks
/// the graph was built under; it may add a reorder bound
/// (max_pending_stores), which the seeds and their agendas then honour.
/// `symmetry` turns on Machine-level state symmetry (auto_symmetry) for
/// the resumed suffix; the graph itself is always built with plain
/// fingerprints so its seed set covers every deferred hole edge even for
/// candidates that fence group members asymmetrically — preloading plain
/// region fingerprints into a symmetric suffix run stays sound because the
/// region is closed under the CPU permutations (base programs are what
/// made the CPUs symmetric).
sim::ExploreResult explore_with_prefix(const InferProblem& p,
                                       const Instantiation& inst,
                                       const PrefixGraph& g,
                                       const sim::Explorer::Options& eo,
                                       bool symmetry = false);

/// Persist / reload the graph (binary, versioned, fingerprint-keyed).
/// load returns false — leaving `g` invalid — on a missing file, a corrupt
/// file, or a key mismatch against `expected_key`.
bool save_prefix_graph(const PrefixGraph& g, const std::string& path);
bool load_prefix_graph(PrefixGraph& g, const std::string& path,
                       const Hash128& expected_key);

}  // namespace lbmf::infer
