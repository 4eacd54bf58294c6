#include "lbmf/infer/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "lbmf/infer/reach.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::infer {

using sim::Action;
using sim::Choice;
using sim::Op;

const char* to_string(InferStatus s) noexcept {
  switch (s) {
    case InferStatus::kSat: return "SAT";
    case InferStatus::kUnsat: return "UNSAT";
    case InferStatus::kLimit: return "LIMIT";
  }
  return "?";
}

namespace {

/// Learned from one counterexample: any assignment whose strength at every
/// listed site is <= the listed bound admits the same violating schedule.
struct Clause {
  std::vector<std::pair<std::size_t, int>> lits;  // (site, max strength)

  bool operator==(const Clause&) const = default;
};

bool covers(const Clause& c, const Assignment& a) {
  return std::all_of(c.lits.begin(), c.lits.end(), [&](const auto& l) {
    return strength(a.kinds[l.first]) <= l.second;
  });
}

/// Fence kinds available at a site, weakest first. Register-sourced stores
/// cannot take the l-mfence expansion (its ST carries an immediate);
/// backend-constrained sites (FenceSite::no_lmfence) exclude it by policy.
std::vector<FenceKind> valid_kinds(const FenceSite& s) {
  if (s.is_reg_store || s.no_lmfence) {
    return {FenceKind::kNone, FenceKind::kMfence};
  }
  return {FenceKind::kNone, FenceKind::kLmfence, FenceKind::kMfence};
}

/// Replay a violating schedule of assignment `a` and return the *culprit
/// sites*: candidate sites where a (stronger) fence would have ordered one
/// of the store→load crossings the schedule performs. A fence at site s
/// kills the crossing "store S delayed past load L" exactly when control
/// passes s's store between S entering the buffer and L executing — the
/// drain point sits between them — so we mirror the store buffer with a
/// shadow queue and stamp every entry with the sites passed while it was
/// buffered. If the replay diverges (it should not: the machine is
/// deterministic given the schedule), every site is conservatively culpable.
std::set<std::size_t> find_culprits(const InferProblem& p,
                                    const Instantiation& inst,
                                    const std::vector<Choice>& trace) {
  const std::size_t nsites = p.sites.size();
  std::set<std::size_t> everything;
  for (std::size_t s = 0; s < nsites; ++s) everything.insert(s);

  sim::Machine m = problem_machine(p, inst.programs);
  // Per CPU: instantiated instruction index of each site's store.
  std::vector<std::map<std::size_t, std::size_t>> site_at(m.num_cpus());
  for (std::size_t s = 0; s < nsites; ++s) {
    site_at[p.sites[s].cpu][inst.site_pos[s]] = s;
  }

  struct ShadowEntry {
    std::vector<char> passed;  // sites whose store ran since this was pushed
  };
  std::vector<std::deque<ShadowEntry>> shadow(m.num_cpus());
  std::set<std::size_t> culprits;

  for (const Choice& ch : trace) {
    if (ch.cpu >= m.num_cpus() || !m.action_enabled(ch.cpu, ch.action)) {
      return everything;
    }
    bool is_store = false;
    std::size_t pc_idx = 0;
    if (ch.action == Action::Execute) {
      const sim::CpuState& c = m.cpu(ch.cpu);
      pc_idx = static_cast<std::size_t>(c.pc);
      if (c.program == nullptr || pc_idx >= c.program->code.size()) {
        return everything;
      }
      const sim::Instr& in = c.program->code[pc_idx];
      if (in.op == Op::kLoad || in.op == Op::kLoadExclusive) {
        // Every buffered store is being reordered past this load; any site
        // it passed while buffered would have drained it first.
        for (const ShadowEntry& e : shadow[ch.cpu]) {
          for (std::size_t s = 0; s < nsites; ++s) {
            if (e.passed[s]) culprits.insert(s);
          }
        }
      }
      is_store = in.op == Op::kStore || in.op == Op::kStoreReg;
    }
    m.step(ch.cpu, ch.action);
    if (is_store) {
      const auto hit = site_at[ch.cpu].find(pc_idx);
      if (hit != site_at[ch.cpu].end()) {
        for (ShadowEntry& e : shadow[ch.cpu]) e.passed[hit->second] = 1;
      }
      ShadowEntry ne;
      ne.passed.assign(nsites, 0);
      // A fence at the store's own site drains the entry it just pushed.
      if (hit != site_at[ch.cpu].end()) ne.passed[hit->second] = 1;
      shadow[ch.cpu].push_back(std::move(ne));
    }
    // Any step can drain buffers — locally (Drain/mfence/full-buffer
    // stores/interrupts) or remotely (guard-triggered flushes) — always
    // FIFO, so reconciling lengths keeps the shadow an exact mirror.
    for (std::size_t k = 0; k < m.num_cpus(); ++k) {
      while (shadow[k].size() > m.cpu(k).sb.entries().size()) {
        shadow[k].pop_front();
      }
    }
  }
  return culprits;
}

struct Checked {
  Instantiation inst;
  sim::ExploreResult r;
  /// States this check explored over both passes, less the prefix region
  /// a resumed run carries in its counters (paid once, in prefix_states).
  std::uint64_t states = 0;
  bool cached = false;   // answered from Options::verdict_cache
  bool bounded = false;  // refuted by the bounded first pass
  bool reused = false;   // resumed from the prefix graph
};

/// Everything one candidate check needs: the problem, the options and —
/// when incremental mode has a trusted reached-state graph — the graph.
struct CheckCtx {
  const InferProblem& p;
  const InferenceEngine::Options& o;
  const PrefixGraph* graph = nullptr;  // null => cold exploration
};

/// Stores a CPU may hold buffered in a check's first pass. Schedules with
/// few reorderings cross few fence sites, so the counterexamples found
/// under the bound name few culprits, and the clauses learned from them
/// prune more of the lattice (Joshi & Kroening's reorder bound).
constexpr std::uint32_t kFirstPassPendingStores = 1;

/// One cold exploration of an instantiated candidate.
sim::ExploreResult explore_cold(const CheckCtx& x, const Instantiation& inst,
                                const sim::Explorer::Options& eo) {
  sim::Machine m = problem_machine(x.p, inst.programs);
  // State symmetry is per *instantiated* candidate: auto_symmetry groups
  // only byte-identical programs, so a candidate that fences the group
  // members differently simply explores without the reduction.
  if (x.o.symmetry) m.auto_symmetry();
  return sim::Explorer(std::move(m), eo).run();
}

/// Check one candidate: the verdict cache answers if it can. Otherwise a
/// pass under the reorder bound runs first, and its violation (a schedule
/// of the unbounded machine) is the counterexample. Only a candidate that
/// pass finds no violation for gets the unbounded run, which alone can
/// answer SAFE. Both passes resume from the prefix graph when there is one,
/// and both passes' verdicts are cached alike.
Checked check_one(const CheckCtx& x, const Assignment& a) {
  Checked c;
  c.inst = instantiate(x.p, a);
  VerdictCache* const cache = x.o.verdict_cache;
  if (cache != nullptr) {
    if (auto hit = cache->lookup(a.kinds)) {
      c.r = std::move(*hit);
      c.cached = true;
      return c;
    }
  }
  const auto explore = [&](const sim::Explorer::Options& eo) {
    if (x.graph == nullptr) {
      c.r = explore_cold(x, c.inst, eo);
      c.states += c.r.states_explored;
      return;
    }
    c.r = explore_with_prefix(x.p, c.inst, *x.graph, eo, x.o.symmetry);
    c.states += c.r.states_explored -
                std::min(c.r.states_explored, x.graph->base.states_explored);
    c.reused = true;
  };
  sim::Explorer::Options eo = InferenceEngine::explorer_options_for(x.p, x.o);
  eo.max_pending_stores = kFirstPassPendingStores;
  explore(eo);
  c.bounded = c.r.violation.has_value();
  if (!c.bounded) {
    eo.max_pending_stores = 0;
    explore(eo);
  }
  if (cache != nullptr && !c.r.hit_limit) cache->store(a.kinds, c.r);
  return c;
}

/// Verify a wave of candidates, one explorer per thread when batch > 1.
std::vector<Checked> check_wave(const CheckCtx& x,
                                const std::vector<Assignment>& wave) {
  std::vector<Checked> out(wave.size());
  if (wave.size() <= 1) {
    for (std::size_t i = 0; i < wave.size(); ++i) out[i] = check_one(x, wave[i]);
    return out;
  }
  std::vector<std::thread> ts;
  ts.reserve(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    ts.emplace_back([&, i] { out[i] = check_one(x, wave[i]); });
  }
  for (auto& t : ts) t.join();
  return out;
}

std::string describe_clause(const InferProblem& p, const Clause& c) {
  std::string s = "strengthen one of:";
  for (const auto& [site, str] : c.lits) {
    const char* k = str <= 0 ? "none"
                  : str == 1 ? sim::to_string(FenceKind::kLmfence)
                             : sim::to_string(FenceKind::kMfence);
    // Appended piecewise: GCC 12's -Wrestrict false-positives on chained
    // literal + temporary-string concatenations.
    s += ' ';
    s += p.describe_site(site);
    s += " beyond ";
    s += k;
    s += ';';
  }
  if (!c.lits.empty()) s.pop_back();
  return s;
}

}  // namespace

InferenceEngine::InferenceEngine(InferProblem problem, Options opts)
    : p_(std::move(problem)), o_(std::move(opts)) {}

sim::Explorer::Options InferenceEngine::explorer_options_for(
    const InferProblem& p, const Options& o) {
  sim::Explorer::Options e;
  e.check_coherence = true;
  e.check_mutual_exclusion = true;
  e.max_states = o.max_states_per_check;
  e.stop_at_violation = true;
  e.por = o.por;
  // Terminal-state property: `final` directives plus deadlock detection
  // (a no-op scan for problems without either construct).
  e.check = sim::final_state_check(p.final_allowed);
  return e;
}

InferResult InferenceEngine::run() {
  InferResult res;
  const std::size_t nsites = p_.sites.size();
  res.lattice_size = 1;
  for (const FenceSite& s : p_.sites) {
    res.lattice_size *= valid_kinds(s).size();
  }

  // --- Thread-symmetry setup. One explorer run per *orbit* of the
  // assignment lattice under the problem's symmetric groups: candidates
  // are canonicalized before dedup/frontier/cache, and clause coverage is
  // tested against every within-group permutation of a candidate (a clause
  // that kills any image kills the candidate, because the permutation is a
  // transition-system automorphism). Exhaustive mode never canonicalizes —
  // it is the one-run-per-lattice-point baseline the benches compare to.
  const bool sym = o_.symmetry && !p_.symmetric_groups.empty();
  const std::vector<std::vector<std::vector<std::size_t>>> gsites =
      sym ? group_sites(p_)
          : std::vector<std::vector<std::vector<std::size_t>>>{};
  std::uint64_t orbit_bound = 1;
  for (const auto& g : p_.symmetric_groups) {
    for (std::size_t k = 2; k <= g.size() && orbit_bound <= 64; ++k) {
      orbit_bound *= k;
    }
  }
  const auto canon = [&](Assignment a) {
    return sym ? canonicalize_assignment(p_, a) : std::move(a);
  };
  // All within-group permutation images of `a` (identity included); just
  // {a} when symmetry is off or the orbit is unreasonably large.
  const auto sym_images = [&](const Assignment& a) {
    std::vector<Assignment> images{a};
    if (!sym || orbit_bound > 64) return images;
    for (const auto& members : gsites) {
      std::vector<std::size_t> perm(members.size());
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::vector<Assignment> next;
      do {
        for (const Assignment& base : images) {
          Assignment img = base;
          for (std::size_t k = 0; k < members.size(); ++k) {
            for (std::size_t j = 0; j < members[k].size(); ++j) {
              img.kinds[members[perm[k]][j]] = base.kinds[members[k][j]];
            }
          }
          next.push_back(std::move(img));
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      images = std::move(next);
    }
    return images;
  };

  // --- Incremental setup. Build (or adopt) the hole-independent prefix
  // graph; every candidate check then resumes from its frontier. A region
  // that alone blows the state budget leaves `graph` null and the engine
  // degrades to cold per-candidate runs.
  PrefixGraph local_graph;
  const PrefixGraph* graph = nullptr;
  if (o_.incremental && nsites > 0) {
    const Hash128 key = problem_graph_key(p_);
    if (o_.prefix_graph != nullptr && o_.prefix_graph->valid &&
        o_.prefix_graph->key == key) {
      graph = o_.prefix_graph;
    } else {
      local_graph = build_prefix_graph(p_, explorer_options_for(p_, o_));
      if (local_graph.valid) graph = &local_graph;
    }
    if (graph != nullptr) res.prefix_states = graph->base.states_explored;
  }
  const CheckCtx ctx{p_, o_, graph};

  struct Node {
    double bound;
    double cost;
    Assignment a;
    bool operator<(const Node& o) const {
      if (bound != o.bound) return bound < o.bound;
      if (cost != o.cost) return cost < o.cost;
      return a.kinds < o.a.kinds;
    }
  };

  const double inf = std::numeric_limits<double>::infinity();
  double best_cost = inf;
  std::optional<Assignment> best;
  bool saw_limit = false;
  std::vector<Clause> clauses;

  std::set<Node> frontier;
  std::set<std::vector<FenceKind>> seen;
  const auto enqueue = [&](Assignment a) {
    // Orbit quotient: only the canonical representative is ever enqueued.
    // Costs are group-invariant, so the representative prices its whole
    // orbit; the one-step bump edges from representatives still reach a
    // member of every orbit (bump the canonical predecessor's sites).
    a = canon(std::move(a));
    if (!seen.insert(a.kinds).second) return;
    ++res.candidates_generated;
    Node n;
    n.bound = assignment_cost_lower_bound(p_, a, o_.costs);
    n.cost = assignment_cost(p_, a, o_.costs);
    n.a = std::move(a);
    frontier.insert(std::move(n));
  };
  // Successors: bump one site to the next-stronger kind in its chain (the
  // one-step edges cover the lattice from the bottom).
  const auto expand = [&](const Assignment& a) {
    for (std::size_t s = 0; s < nsites; ++s) {
      const std::vector<FenceKind> ks = valid_kinds(p_.sites[s]);
      const auto it = std::find(ks.begin(), ks.end(), a.kinds[s]);
      LBMF_CHECK(it != ks.end());
      if (it + 1 == ks.end()) continue;
      Assignment succ = a;
      succ.kinds[s] = *(it + 1);
      enqueue(std::move(succ));
    }
  };
  const auto account = [&](const Checked& c) {
    if (c.cached) {
      ++res.cache_hits;
      return;
    }
    ++res.candidates_verified;
    if (c.bounded) ++res.bounded_refutations;
    if (c.reused) ++res.incremental_reuses;
    res.states_total += c.states;
  };
  // A candidate is refuted by a learned clause if the clause covers any of
  // its within-group permutation images (same verdict by automorphism).
  const auto covered = [&](const Assignment& a) {
    if (clauses.empty()) return false;
    const std::vector<Assignment> images = sym_images(a);
    for (const Clause& c : clauses) {
      for (const Assignment& img : images) {
        if (covers(c, img)) return true;
      }
    }
    return false;
  };
  // Learn from a counterexample; returns false on the empty clause (the
  // violation involves no store→load crossing, so no placement helps).
  const auto learn_clause = [&](const Checked& c, const Assignment& a) -> bool {
    const std::set<std::size_t> culprits =
        find_culprits(p_, c.inst, c.r.violation_trace);
    if (culprits.empty()) {
      res.status = InferStatus::kUnsat;
      res.unsat_violation = c.r.violation;
      res.unsat_trace = c.r.violation_trace;
      return false;
    }
    Clause cl;
    for (std::size_t s : culprits) cl.lits.emplace_back(s, strength(a.kinds[s]));
    if (std::find(clauses.begin(), clauses.end(), cl) == clauses.end()) {
      res.clauses.push_back(describe_clause(p_, cl));
      clauses.push_back(std::move(cl));
    }
    return true;
  };

  if (o_.exhaustive) {
    // Naive baseline: verify every point of the lattice (odometer order).
    std::vector<std::size_t> digit(nsites, 0);
    std::optional<Checked> top_check;
    bool done = nsites == 0;
    Assignment cur = p_.uniform(FenceKind::kNone);
    for (;;) {
      for (std::size_t s = 0; s < nsites; ++s) {
        cur.kinds[s] = valid_kinds(p_.sites[s])[digit[s]];
      }
      if (res.candidates_verified >= o_.max_candidates) {
        saw_limit = true;
        break;
      }
      ++res.candidates_generated;
      Checked c = check_one(ctx, cur);
      account(c);
      if (c.r.hit_limit) {
        saw_limit = true;
      } else if (!c.r.violation) {
        const double cost = assignment_cost(p_, cur, o_.costs);
        if (cost < best_cost) {
          best_cost = cost;
          best = cur;
        }
      } else if (std::all_of(cur.kinds.begin(), cur.kinds.end(), [](FenceKind k) {
                   return k == FenceKind::kMfence;
                 })) {
        top_check = std::move(c);
      }
      if (done) break;
      // Advance the odometer.
      std::size_t s = 0;
      for (; s < nsites; ++s) {
        if (++digit[s] < valid_kinds(p_.sites[s]).size()) break;
        digit[s] = 0;
      }
      if (s == nsites) break;
    }
    if (!best && !saw_limit && top_check) {
      res.status = InferStatus::kUnsat;
      res.unsat_violation = top_check->r.violation;
      res.unsat_trace = top_check->r.violation_trace;
    }
  } else {
    enqueue(p_.uniform(FenceKind::kNone));
    while (!frontier.empty()) {
      if (best && frontier.begin()->bound >= best_cost) break;
      if (res.candidates_verified >= o_.max_candidates) {
        saw_limit = true;
        break;
      }
      // Pop a wave of candidates not already ruled out by learned clauses.
      std::vector<Assignment> wave;
      const std::size_t batch = std::max<std::size_t>(o_.batch, 1);
      while (!frontier.empty() && wave.size() < batch &&
             res.candidates_verified + wave.size() < o_.max_candidates) {
        Node n = *frontier.begin();
        frontier.erase(frontier.begin());
        if (best && n.bound >= best_cost) {
          frontier.clear();  // sorted by bound: nothing cheaper remains
          break;
        }
        expand(n.a);
        const bool pruned = o_.learn_clauses && covered(n.a);
        if (pruned) {
          ++res.candidates_pruned;
          continue;
        }
        wave.push_back(std::move(n.a));
      }
      if (wave.empty()) continue;
      const std::vector<Checked> checked = check_wave(ctx, wave);
      for (std::size_t i = 0; i < wave.size(); ++i) {
        account(checked[i]);
        if (checked[i].r.violation) {
          if (o_.learn_clauses && !learn_clause(checked[i], wave[i])) {
            return res;  // empty clause: unsat, res already filled
          }
        } else if (checked[i].r.hit_limit) {
          saw_limit = true;
        } else {
          const double cost = assignment_cost(p_, wave[i], o_.costs);
          if (cost < best_cost) {
            best_cost = cost;
            best = wave[i];
          }
        }
      }
    }
    if (!best && !saw_limit) {
      // Frontier exhausted with nothing safe. Confirm unsatisfiability with
      // a fresh check of the strongest placement (it may only have been
      // ruled out by counterexample reasoning, never explored directly).
      const Assignment top = p_.uniform(FenceKind::kMfence);
      Checked c = check_one(ctx, top);
      account(c);
      if (c.r.violation) {
        res.status = InferStatus::kUnsat;
        res.unsat_violation = c.r.violation;
        res.unsat_trace = c.r.violation_trace;
      } else if (c.r.hit_limit) {
        saw_limit = true;
      } else {
        best_cost = assignment_cost(p_, top, o_.costs);
        best = top;
      }
    }
  }

  if (!best) {
    // A proven UNSAT carries its fence-independent violation; anything else
    // without a winner means some budget made the search inconclusive.
    if (!res.unsat_violation) {
      res.status = saw_limit ? InferStatus::kLimit : InferStatus::kUnsat;
    }
    return res;
  }

  res.status = InferStatus::kSat;

  if (o_.minimality_pass && nsites > 0) {
    // Weaken or swap each placed fence: a per-site certificate that the
    // winner is locally minimal, and a repair pass if counterexample
    // pruning ever skipped a cheaper safe point. Most mutations are
    // decided without an explorer run — strengthenings by monotonicity
    // (SAFE is upward-closed in the strength lattice), weakenings by the
    // verdict cache or a learned clause; only a mutation that would
    // actually be *cheaper* and is undecided earns a fresh exploration.
    // Pricier undecided mutations are skipped without a note.
    bool improved = true;
    while (improved && res.candidates_verified < o_.max_candidates) {
      improved = false;
      for (std::size_t s = 0; s < nsites && !improved; ++s) {
        if (best->kinds[s] == FenceKind::kNone) continue;
        for (FenceKind alt : valid_kinds(p_.sites[s])) {
          if (alt == best->kinds[s]) continue;
          Assignment mut = *best;
          mut.kinds[s] = alt;
          const double cost = assignment_cost(p_, mut, o_.costs);
          MinimalityNote note;
          note.site = s;
          note.from = best->kinds[s];
          note.to = alt;
          note.cost_delta = cost - best_cost;
          if (strength(alt) > strength(best->kinds[s])) {
            note.safe = true;  // strengthening a SAFE placement stays SAFE
            res.minimality.push_back(note);
          } else {
            const Assignment mc = canon(mut);
            bool decided = false;
            if (o_.verdict_cache != nullptr) {
              if (auto hit = o_.verdict_cache->lookup(mc.kinds)) {
                note.safe = !hit->violation;  // hit_limit is never stored
                ++res.cache_hits;
                decided = true;
              }
            }
            if (!decided && o_.learn_clauses && covered(mc)) {
              note.safe = false;  // a search counterexample still applies
              ++res.candidates_pruned;
              decided = true;
            }
            if (!decided) {
              if (cost >= best_cost) continue;  // can't improve: skip
              Checked c = check_one(ctx, mc);
              account(c);
              note.hit_limit = c.r.hit_limit;
              note.safe = !c.r.violation && !c.r.hit_limit;
            }
            res.minimality.push_back(note);
          }
          if (note.safe && !note.hit_limit && cost < best_cost) {
            best_cost = cost;
            best = std::move(mut);
            improved = true;  // restart the sweep from the new winner
            break;
          }
        }
      }
    }
  }

  res.best = *best;
  res.best_cost = best_cost;

  // End-to-end certificate: one fresh *cold*, unbounded exploration of the
  // emitted placement — never served from the verdict cache and never
  // resumed from the prefix graph, so on incremental runs it independently
  // cross-checks the resumed verdict for the winner.
  {
    const sim::ExploreResult r = explore_cold(
        ctx, instantiate(p_, res.best), explorer_options_for(p_, o_));
    res.states_total += r.states_explored;
    res.recheck_safe = !r.violation && !r.hit_limit;
  }
  return res;
}

}  // namespace lbmf::infer
