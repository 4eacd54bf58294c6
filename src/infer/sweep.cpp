#include "lbmf/infer/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lbmf/infer/reach.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::infer {

bool SweepResult::all_sat() const noexcept {
  const auto ok = [](const std::vector<SweepPoint>& pts) {
    for (const SweepPoint& p : pts) {
      if (p.status != InferStatus::kSat || !p.recheck_safe) return false;
    }
    return !pts.empty();
  };
  if (!ok(points)) return false;
  for (const SweepBackendPlane& bp : backend_planes) {
    if (!ok(bp.points)) return false;
  }
  return true;
}

std::size_t SweepResult::distinct_optima_at(double roundtrip) const {
  std::vector<std::string> seen;
  for (const SweepPoint& p : points) {
    if (p.lest_roundtrip != roundtrip || p.status != InferStatus::kSat) {
      continue;
    }
    std::string key = to_string(p.best);
    bool fresh = true;
    for (const std::string& s : seen) {
      if (s == key) {
        fresh = false;
        break;
      }
    }
    if (fresh) seen.push_back(std::move(key));
  }
  return seen.size();
}

SweepResult run_sweep(InferProblem problem, const SweepOptions& opts) {
  LBMF_CHECK(!opts.victim_freqs.empty() && !opts.roundtrips.empty());
  LBMF_CHECK(opts.victim_cpu < problem.programs.size());
  if (problem.cpu_freqs.size() < problem.programs.size()) {
    problem.cpu_freqs.resize(problem.programs.size(), 1.0);
  }

  SweepResult out;
  out.victim_freqs = opts.victim_freqs;
  out.roundtrips = opts.roundtrips;

  // One verdict cache for the whole grid: safety is cost-independent, so
  // every lattice point is explored at most once across all grid points.
  // An externally supplied cache is honoured (and outlives the sweep).
  VerdictCache local_cache;
  VerdictCache* cache = opts.engine.verdict_cache != nullptr
                            ? opts.engine.verdict_cache
                            : &local_cache;

  // One prefix graph for the whole grid: problem_graph_key excludes freqs
  // and costs, so the hole-independent region built here matches every
  // grid point's problem and each engine adopts it instead of rebuilding.
  PrefixGraph grid_graph;
  const PrefixGraph* grid_graph_ptr = opts.engine.prefix_graph;
  if (opts.engine.incremental && grid_graph_ptr == nullptr &&
      !problem.sites.empty()) {
    grid_graph = build_prefix_graph(
        problem, InferenceEngine::explorer_options_for(problem, opts.engine));
    if (grid_graph.valid) grid_graph_ptr = &grid_graph;
  }
  if (grid_graph_ptr != nullptr) {
    out.prefix_states = grid_graph_ptr->base.states_explored;
  }

  const auto solve_grid = [&](const InferProblem& base,
                              std::vector<SweepPoint>& pts,
                              std::vector<Crossover>* crossovers) {
    for (double rt : opts.roundtrips) {
      const SweepPoint* prev = nullptr;
      for (double f : opts.victim_freqs) {
        InferProblem p = base;
        p.cpu_freqs[opts.victim_cpu] = f;
        InferenceEngine::Options eo = opts.engine;
        eo.costs.lest_roundtrip_cycles = rt;
        eo.verdict_cache = cache;
        eo.prefix_graph = grid_graph_ptr;
        InferenceEngine engine(std::move(p), eo);
        const InferResult r = engine.run();

        SweepPoint pt;
        pt.victim_freq = f;
        pt.lest_roundtrip = rt;
        pt.status = r.status;
        pt.best = r.best;
        pt.best_cost = r.best_cost;
        pt.recheck_safe = r.recheck_safe;
        out.explorer_runs += r.candidates_verified;
        out.cache_hits += r.cache_hits;
        out.states_total += r.states_total;
        out.incremental_reuses += r.incremental_reuses;

        if (crossovers != nullptr && prev != nullptr &&
            prev->status == InferStatus::kSat &&
            pt.status == InferStatus::kSat && !(prev->best == pt.best)) {
          Crossover x;
          x.lest_roundtrip = rt;
          x.freq_before = prev->victim_freq;
          x.freq_after = f;
          x.from = to_string(prev->best);
          x.to = to_string(pt.best);
          crossovers->push_back(std::move(x));
        }
        pts.push_back(std::move(pt));
        prev = &pts.back();
      }
    }
  };

  solve_grid(problem, out.points, &out.crossovers);

  for (const SweepBackend& b : opts.backends) {
    SweepBackendPlane plane;
    plane.name = b.name;
    plane.inverts_roles = b.inverts_roles;
    if (b.inverts_roles) {
      // Role inversion leaves every site's kind lattice intact, so the
      // plane's solution space — and therefore its solved grid — is the
      // base grid. Copy instead of re-solving.
      plane.points = out.points;
    } else {
      // The backend can only run the light path on the victim's side:
      // exclude l-mfence everywhere else and re-solve. The shared verdict
      // cache and prefix graph still apply (the constraint prunes
      // assignments; it never changes a safety verdict, and
      // problem_graph_key ignores it).
      InferProblem constrained = problem;
      for (FenceSite& s : constrained.sites) {
        if (s.cpu != opts.victim_cpu) s.no_lmfence = true;
      }
      // Orbit canonicalization permutes kind tuples within a symmetric
      // group, which is only sound when every member carries the same
      // constraint — drop groups mixing the victim with constrained peers.
      std::erase_if(constrained.symmetric_groups, [&](const auto& g) {
        bool has_victim = false, has_other = false;
        for (const std::uint8_t cpu : g) {
          (cpu == opts.victim_cpu ? has_victim : has_other) = true;
        }
        return has_victim && has_other;
      });
      solve_grid(constrained, plane.points, nullptr);
    }
    out.backend_planes.push_back(std::move(plane));
  }
  return out;
}

namespace {

void append_num(std::string& s, double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  s += buf;
}

}  // namespace

namespace {

void append_points(std::string& s, const std::vector<SweepPoint>& points) {
  s += "\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (i > 0) s += ',';
    s += "{\"freq\":";
    append_num(s, p.victim_freq);
    s += ",\"roundtrip\":";
    append_num(s, p.lest_roundtrip);
    s += ",\"status\":\"";
    s += to_string(p.status);
    s += "\",\"optimum\":\"" + to_string(p.best) + "\",\"cost\":";
    append_num(s, p.best_cost);
    s += ",\"recheck_safe\":";
    s += p.recheck_safe ? "true" : "false";
    s += '}';
  }
  s += ']';
}

}  // namespace

std::string sweep_to_json(const SweepResult& r, const std::string& workload) {
  std::string s = "{\"bench\":\"sweep\",\"workload\":\"" + workload + "\",";
  s += "\"victim_freqs\":[";
  for (std::size_t i = 0; i < r.victim_freqs.size(); ++i) {
    if (i > 0) s += ',';
    append_num(s, r.victim_freqs[i]);
  }
  s += "],\"roundtrips\":[";
  for (std::size_t i = 0; i < r.roundtrips.size(); ++i) {
    if (i > 0) s += ',';
    append_num(s, r.roundtrips[i]);
  }
  s += "],";
  append_points(s, r.points);
  s += ",\"crossovers\":[";
  for (std::size_t i = 0; i < r.crossovers.size(); ++i) {
    const Crossover& x = r.crossovers[i];
    if (i > 0) s += ',';
    s += "{\"roundtrip\":";
    append_num(s, x.lest_roundtrip);
    s += ",\"freq_before\":";
    append_num(s, x.freq_before);
    s += ",\"freq_after\":";
    append_num(s, x.freq_after);
    s += ",\"from\":\"" + x.from + "\",\"to\":\"" + x.to + "\"}";
  }
  s += "],\"explorer_runs\":" + std::to_string(r.explorer_runs);
  s += ",\"cache_hits\":" + std::to_string(r.cache_hits);
  s += ",\"states_total\":" + std::to_string(r.states_total);
  s += ",\"prefix_states\":" + std::to_string(r.prefix_states);
  s += ",\"incremental_reuses\":" + std::to_string(r.incremental_reuses);
  // The backend dimension rides after every base section so consumers that
  // stop at the first "points" array are unaffected.
  if (!r.backend_planes.empty()) {
    s += ",\"backend_planes\":[";
    for (std::size_t i = 0; i < r.backend_planes.size(); ++i) {
      const SweepBackendPlane& bp = r.backend_planes[i];
      if (i > 0) s += ',';
      s += "{\"backend\":\"" + bp.name + "\",\"inverts_roles\":";
      s += bp.inverts_roles ? "true" : "false";
      s += ',';
      append_points(s, bp.points);
      s += '}';
    }
    s += ']';
  }
  s += '}';
  return s;
}

adapt::PolicyTable policy_table(const SweepResult& r) {
  constexpr std::size_t kVictimAnnounce = 0;
  constexpr std::size_t kThiefAnnounce = 2;
  // points is row-major roundtrips × victim_freqs — exactly the cell order
  // PolicyTable expects.
  const auto modes = [](const std::vector<SweepPoint>& points) {
    std::vector<adapt::PolicyMode> out;
    out.reserve(points.size());
    for (const SweepPoint& p : points) {
      const auto lmfence_at = [&p](std::size_t site) {
        return p.status == InferStatus::kSat && site < p.best.kinds.size() &&
               p.best.kinds[site] == FenceKind::kLmfence;
      };
      adapt::PolicyMode m = adapt::PolicyMode::kSymmetric;
      if (lmfence_at(kVictimAnnounce)) {
        m = lmfence_at(kThiefAnnounce) ? adapt::PolicyMode::kDoubleLmfence
                                       : adapt::PolicyMode::kAsymmetric;
      }
      out.push_back(m);
    }
    return out;
  };
  adapt::PolicyTable t(r.victim_freqs, r.roundtrips, modes(r.points));
  for (const SweepBackendPlane& bp : r.backend_planes) {
    t.add_plane({bp.name, modes(bp.points)});
  }
  return t;
}

}  // namespace lbmf::infer
