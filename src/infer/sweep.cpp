#include "lbmf/infer/sweep.hpp"

#include <algorithm>

#include "lbmf/util/check.hpp"
#include "lbmf/util/json.hpp"

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
      // cache still applies (the constraint prunes assignments; it never
      // changes a safety verdict).
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

void write_points(JsonWriter& w, const std::vector<SweepPoint>& points) {
  w.key("points").begin_array();
  for (const SweepPoint& p : points) {
    w.begin_object();
    w.key("freq").number(p.victim_freq);
    w.key("roundtrip").number(p.lest_roundtrip);
    w.key("status").string(to_string(p.status));
    w.key("optimum").string(to_string(p.best));
    w.key("cost").number(p.best_cost);
    w.key("recheck_safe").boolean(p.recheck_safe);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string sweep_to_json(const SweepResult& r, const std::string& workload) {
  JsonWriter w;
  w.begin_object();
  w.key("bench").string("sweep");
  w.key("workload").string(workload);
  w.key("victim_freqs").begin_array();
  for (const double f : r.victim_freqs) w.number(f);
  w.end_array();
  w.key("roundtrips").begin_array();
  for (const double rt : r.roundtrips) w.number(rt);
  w.end_array();
  write_points(w, r.points);
  w.key("crossovers").begin_array();
  for (const Crossover& x : r.crossovers) {
    w.begin_object();
    w.key("roundtrip").number(x.lest_roundtrip);
    w.key("freq_before").number(x.freq_before);
    w.key("freq_after").number(x.freq_after);
    w.key("from").string(x.from);
    w.key("to").string(x.to);
    w.end_object();
  }
  w.end_array();
  w.key("explorer_runs").integer(r.explorer_runs);
  w.key("cache_hits").integer(r.cache_hits);
  w.key("states_total").integer(r.states_total);
  // The backend dimension rides after every base section so consumers that
  // stop at the first "points" array are unaffected.
  if (!r.backend_planes.empty()) {
    w.key("backend_planes").begin_array();
    for (const SweepBackendPlane& bp : r.backend_planes) {
      w.begin_object();
      w.key("backend").string(bp.name);
      w.key("inverts_roles").boolean(bp.inverts_roles);
      write_points(w, bp.points);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.text();
}

std::string result_to_json(const InferProblem& p, const InferResult& r,
                           std::string_view protocol) {
  JsonWriter w(JsonWriter::Layout::kReport);
  w.begin_object();
  if (!protocol.empty()) w.key("protocol").string(protocol);
  w.key("status").string(to_string(r.status));
  w.key("holes").integer(p.sites.size());
  w.key("lattice_size").integer(r.lattice_size);
  w.key("candidates_generated").integer(r.candidates_generated);
  w.key("candidates_verified").integer(r.candidates_verified);
  w.key("bounded_refutations").integer(r.bounded_refutations);
  w.key("candidates_pruned").integer(r.candidates_pruned);
  w.key("states_total").integer(r.states_total);
  w.key("cache_hits").integer(r.cache_hits);
  if (r.status == InferStatus::kSat) {
    w.key("best_cost").general(r.best_cost);
    w.key("recheck_safe").boolean(r.recheck_safe);
    w.key("placement").begin_array(/*one_per_line=*/true);
    for (std::size_t s = 0; s < p.sites.size(); ++s) {
      w.begin_object();
      w.key("site").string(p.describe_site(s));
      w.key("line").integer(p.sites[s].src_line);
      w.key("fence").string(sim::to_string(r.best.kinds[s]));
      w.end_object();
    }
    w.end_array();
    // Runtime-source map, present only when the litmus text carries `#@`
    // provenance comments (machine-extracted files). `fence` precedes
    // `source` on purpose: the extraction gate pins `"site": ..., "fence":
    // ...` prefixes that must not depend on volatile header line numbers.
    const bool any_prov =
        std::any_of(p.sites.begin(), p.sites.end(),
                    [](const FenceSite& s) { return !s.provenance.empty(); });
    if (any_prov) {
      w.key("source_map").begin_array(/*one_per_line=*/true);
      for (std::size_t s = 0; s < p.sites.size(); ++s) {
        w.begin_object();
        w.key("site").string(p.describe_site(s));
        w.key("fence").string(sim::to_string(r.best.kinds[s]));
        w.key("source").string(p.sites[s].provenance);
        w.end_object();
      }
      w.end_array();
    }
  }
  if (r.unsat_violation) w.key("violation").string(*r.unsat_violation);
  w.key("clauses").begin_array();
  for (const std::string& c : r.clauses) w.string(c);
  w.end_array();
  w.key("minimality").begin_array(/*one_per_line=*/true);
  for (const MinimalityNote& n : r.minimality) {
    w.begin_object();
    w.key("site").string(p.describe_site(n.site));
    w.key("from").string(sim::to_string(n.from));
    w.key("to").string(sim::to_string(n.to));
    w.key("safe").boolean(n.safe);
    w.key("cost_delta").general(n.cost_delta);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.text();
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
