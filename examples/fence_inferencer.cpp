// fence_inferencer — counterexample-guided fence synthesis over the LE/ST
// simulator: feed it a litmus test with `?fence` holes (see docs/LITMUS.md)
// and it searches the per-hole {none, mfence, l-mfence} lattice for the
// minimum-cost placement that makes every interleaving safe, prints the
// repaired program, and emits a JSON report. On the holey Dekker with a
// hot primary (freq 1000) and a rare secondary this mechanically
// rediscovers the paper's Fig. 3 asymmetric protocol: l-mfence on the
// primary, mfence on the secondary.
//
// Usage:
//   fence_inferencer test.lit                 # infer and print the repair
//   fence_inferencer -                        # read the test from stdin
//   fence_inferencer test.lit --json=out.json # also write the JSON report
//   fence_inferencer test.lit --exhaustive    # naive 3^k enumeration
//   fence_inferencer test.lit --no-minimality # skip the minimality sweep
//   fence_inferencer test.lit --no-symmetry   # no orbit canonicalization /
//                                             # machine state symmetry
//   fence_inferencer test.lit --no-incremental # cold explorer run per
//                                             # candidate (no prefix reuse)
//   fence_inferencer test.lit --graph-cache=g.bin # persist the reached-state
//                                             # prefix graph: loaded when the
//                                             # key matches, rebuilt + saved
//                                             # otherwise
//   fence_inferencer test.lit --max-states=N --batch=K # K candidates
//                                             # verified at once, each by
//                                             # its own explorer
//   fence_inferencer test.lit --sweep        # Fig. 6-style cost frontier:
//                                            # re-solve over a (victim freq
//                                            # × LE/ST round-trip) grid and
//                                            # chart the optimum crossovers
//   fence_inferencer test.lit --sweep --policy-json=table.json
//                                            # also write the sweep as a
//                                            # runtime policy table
//                                            # (adapt::PolicyTable's JSON,
//                                            # which work_stealing --policy
//                                            # loads)
//   fence_inferencer test.lit --sweep --backends=signal,membarrier-pair
//                                            # add the serialization-backend
//                                            # dimension: one extra plane per
//                                            # backend (non-inverting backends
//                                            # re-solve with l-mfence banned
//                                            # on non-victim sites)
//
// --policy-json and --backends act only on a sweep: without --sweep they
// are rejected with exit 2.
//
// Exit codes: 0 = SAT (repair printed; in --sweep mode: every grid point
// SAT with a SAFE recheck), 1 = UNSAT (no placement is safe), 2 =
// usage/parse error, 3 = inconclusive (state or candidate budget hit).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "infer_cli.hpp"
#include "lbmf/infer/infer.hpp"

using namespace lbmf;
using cli::bad_flag;

namespace {

struct CliOptions {
  infer::InferenceEngine::Options engine;
  std::string json_path;
  std::string policy_json_path;
  std::string graph_cache_path;
  std::vector<infer::SweepBackend> backends;
  bool sweep = false;
};

CliOptions parse_flags(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;  // the litmus file argument
    if (infer_cli::parse_engine_flag(a, cli.engine)) continue;
    if (a.rfind("--json=", 0) == 0) {
      cli.json_path = a.substr(7);
      if (cli.json_path.empty()) bad_flag(a);
    } else if (a.rfind("--policy-json=", 0) == 0) {
      cli.policy_json_path = a.substr(14);
      if (cli.policy_json_path.empty()) bad_flag(a);
    } else if (a.rfind("--graph-cache=", 0) == 0) {
      cli.graph_cache_path = a.substr(14);
      if (cli.graph_cache_path.empty()) bad_flag(a);
    } else if (a.rfind("--backends=", 0) == 0) {
      // Comma-separated serialization-backend planes for --sweep. The
      // role-inversion capability is fixed per name rather than probed on
      // the host, so the emitted planes are identical wherever the sweep
      // runs: signal cannot invert roles; membarrier-pair can.
      const std::string list = a.substr(11);
      if (list.empty()) bad_flag(a);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        infer::SweepBackend b;
        b.name = list.substr(pos, comma - pos);
        if (b.name == "signal") {
          b.inverts_roles = false;
        } else if (b.name == "membarrier-pair") {
          b.inverts_roles = true;
        } else {
          bad_flag(a);
        }
        cli.backends.push_back(std::move(b));
        pos = comma + 1;
      }
    } else if (a == "--sweep") {
      cli.sweep = true;
    } else if (a == "--exhaustive") {
      cli.engine.exhaustive = true;
    } else if (a == "--no-learning") {
      cli.engine.learn_clauses = false;
    } else if (a == "--no-minimality") {
      cli.engine.minimality_pass = false;
    } else if (a == "--no-symmetry") {
      cli.engine.symmetry = false;
    } else if (a == "--no-incremental") {
      cli.engine.incremental = false;
    } else if (a == "--no-por") {
      cli.engine.por = false;
    } else {
      bad_flag(a);
    }
  }
  if (!cli.sweep && (!cli.policy_json_path.empty() || !cli.backends.empty())) {
    std::fprintf(stderr,
                 "--policy-json and --backends need --sweep\n"
                 "usage: fence_inferencer <test.lit | -> --sweep "
                 "[--backends=LIST] [--policy-json=FILE]\n");
    std::exit(2);
  }
  return cli;
}

std::string bracketed(const infer::InferProblem& p, sim::Addr a) {
  const std::string n = p.location_name(a);
  return n.empty() || n.front() == '[' ? n : "[" + n + "]";
}

/// The repaired source: the original text with each `?fence` line replaced
/// by the concrete instruction(s) the winning assignment chose there.
std::string repair_source(const std::string& source,
                          const infer::InferProblem& p,
                          const infer::Assignment& a) {
  // Split keeping line numbers 1-based, like the assembler counts them.
  std::vector<std::string> lines;
  std::istringstream in(source);
  for (std::string l; std::getline(in, l);) lines.push_back(l);

  for (std::size_t s = 0; s < p.sites.size(); ++s) {
    const infer::FenceSite& site = p.sites[s];
    if (site.src_line == 0 || site.src_line > lines.size()) continue;
    std::string& l = lines[site.src_line - 1];
    const std::string indent = l.substr(0, l.find_first_not_of(" \t"));
    const std::string loc = bracketed(p, site.addr);
    const std::string val = std::to_string(site.value);
    switch (a.kinds[s]) {
      case sim::FenceKind::kNone:
        l = indent + "store " + loc + ", " + val;
        break;
      case sim::FenceKind::kMfence:
        l = indent + "store " + loc + ", " + val + "\n" + indent + "mfence";
        break;
      case sim::FenceKind::kLmfence:
        l = indent + "lmfence " + loc + ", " + val;
        break;
    }
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// --sweep mode: solve the problem over the (victim freq × LE/ST
/// round-trip) grid, print the optimum per point plus the crossover
/// boundaries, optionally dump the JSON report. Exit 0 iff every grid
/// point is SAT with a SAFE recheck.
int run_sweep_mode(const infer::InferProblem& p, const CliOptions& cli) {
  infer::SweepOptions so;
  so.engine = cli.engine;
  so.backends = cli.backends;
  const infer::SweepResult sr = infer::run_sweep(p, so);

  std::printf("\ncost-frontier sweep: victim=cpu%zu, %zux%zu grid\n",
              so.victim_cpu, sr.roundtrips.size(), sr.victim_freqs.size());
  for (double rt : sr.roundtrips) {
    std::printf("  roundtrip %g:\n", rt);
    for (const infer::SweepPoint& pt : sr.points) {
      if (pt.lest_roundtrip != rt) continue;
      std::printf("    freq %-8g %-7s %-40s cost %.0f%s\n", pt.victim_freq,
                  infer::to_string(pt.status),
                  infer::to_string(pt.best).c_str(), pt.best_cost,
                  pt.recheck_safe ? "" : " (recheck FAILED)");
    }
  }
  for (const infer::SweepBackendPlane& bp : sr.backend_planes) {
    std::size_t differs = 0;
    for (std::size_t i = 0;
         i < bp.points.size() && i < sr.points.size(); ++i) {
      if (!(bp.points[i].best == sr.points[i].best)) ++differs;
    }
    std::printf("  backend plane %-16s (%s roles): %zu/%zu optima differ "
                "from base\n",
                bp.name.c_str(), bp.inverts_roles ? "inverts" : "fixed",
                differs, bp.points.size());
  }
  std::printf("crossovers along the freq axis:\n");
  if (sr.crossovers.empty()) std::printf("  (none)\n");
  for (const infer::Crossover& x : sr.crossovers) {
    std::printf("  roundtrip %g: %s -> %s between freq %g and %g\n",
                x.lest_roundtrip, x.from.c_str(), x.to.c_str(), x.freq_before,
                x.freq_after);
  }
  std::printf("explorer runs %llu, verdict-cache hits %llu, states %llu, "
              "prefix region %llu states reused %llu times\n",
              static_cast<unsigned long long>(sr.explorer_runs),
              static_cast<unsigned long long>(sr.cache_hits),
              static_cast<unsigned long long>(sr.states_total),
              static_cast<unsigned long long>(sr.prefix_states),
              static_cast<unsigned long long>(sr.incremental_reuses));

  if (!cli.json_path.empty()) {
    std::ofstream jf(cli.json_path);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 2;
    }
    jf << infer::sweep_to_json(sr, "cli") << "\n";
    std::printf("report written to %s\n", cli.json_path.c_str());
  }
  if (!cli.policy_json_path.empty()) {
    std::ofstream jf(cli.policy_json_path);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", cli.policy_json_path.c_str());
      return 2;
    }
    jf << infer::policy_table(sr).to_json() << "\n";
    std::printf("policy table written to %s\n", cli.policy_json_path.c_str());
  }
  if (!sr.all_sat()) {
    std::printf("SWEEP FAILED: some grid point is not SAT+SAFE\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli = parse_flags(argc, argv);
  const std::string path = lbmf::cli::first_positional(argc, argv);
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: fence_inferencer <test.lit | -> [--flags]\n");
    return 2;
  }
  const std::string source = lbmf::cli::read_source(path);

  infer::ProblemParse parsed = infer::problem_from_source(source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error->to_string().c_str());
    return 2;
  }
  infer::InferProblem& p = *parsed.problem;
  std::printf("%zu cpu(s), %zu fence hole(s)", p.programs.size(),
              p.sites.size());
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    std::printf(" %s", p.describe_site(i).c_str());
  }
  std::printf("\nfreqs:");
  for (std::size_t c = 0; c < p.programs.size(); ++c) {
    std::printf(" cpu%zu=%g", c, p.cpu_freq(c));
  }
  std::printf("\n");
  if (!p.symmetric_groups.empty() && cli.engine.symmetry) {
    std::printf("symmetric groups:");
    for (const auto& g : p.symmetric_groups) {
      std::printf(" {");
      for (std::size_t k = 0; k < g.size(); ++k) {
        std::printf("%scpu%u", k ? "," : "", g[k]);
      }
      std::printf("}");
    }
    std::printf(" — searching per placement orbit\n");
  }

  infer::PrefixGraph cached_graph;
  infer_cli::use_prefix_cache(p, cli.graph_cache_path, cli.engine,
                              cached_graph);

  if (cli.sweep) return run_sweep_mode(p, cli);

  infer::InferenceEngine engine(p, cli.engine);
  const infer::InferResult r = engine.run();

  std::printf("%s: %llu explorer checks (%llu refuted under the reorder "
              "bound) over a %llu-point lattice (%llu pruned by %zu learned "
              "clauses), %llu states\n",
              infer::to_string(r.status),
              static_cast<unsigned long long>(r.candidates_verified),
              static_cast<unsigned long long>(r.bounded_refutations),
              static_cast<unsigned long long>(r.lattice_size),
              static_cast<unsigned long long>(r.candidates_pruned),
              r.clauses.size(),
              static_cast<unsigned long long>(r.states_total));
  if (r.incremental_reuses > 0) {
    std::printf("incremental: %llu checks resumed from a %llu-state prefix "
                "region\n",
                static_cast<unsigned long long>(r.incremental_reuses),
                static_cast<unsigned long long>(r.prefix_states));
  }
  for (const std::string& c : r.clauses) {
    std::printf("  clause: %s\n", c.c_str());
  }

  if (!cli.json_path.empty()) {
    std::ofstream jf(cli.json_path);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 2;
    }
    jf << infer::result_to_json(p, r) << "\n";
    std::printf("report written to %s\n", cli.json_path.c_str());
  }

  if (r.status == infer::InferStatus::kUnsat) {
    std::printf("UNSAT: no fence placement makes this program safe\n");
    if (r.unsat_violation) {
      std::printf("fence-independent violation: %s\n",
                  r.unsat_violation->c_str());
    }
    return 1;
  }
  if (r.status == infer::InferStatus::kLimit) {
    std::printf("INCONCLUSIVE: budget hit (raise --max-states=N)\n");
    return 3;
  }

  std::printf("minimum-cost placement (cost %.0f, re-check %s):\n",
              r.best_cost, r.recheck_safe ? "SAFE" : "FAILED");
  for (std::size_t s = 0; s < p.sites.size(); ++s) {
    std::printf("  line %zu %s -> %s", p.sites[s].src_line,
                p.describe_site(s).c_str(), sim::to_string(r.best.kinds[s]));
    if (!p.sites[s].provenance.empty()) {
      std::printf("  (%s)", p.sites[s].provenance.c_str());
    }
    std::printf("\n");
  }
  for (const infer::MinimalityNote& n : r.minimality) {
    std::printf("  minimality: site %zu %s -> %s is %s (cost %+.0f)\n", n.site,
                sim::to_string(n.from), sim::to_string(n.to),
                n.hit_limit ? "inconclusive" : n.safe ? "safe" : "UNSAFE",
                n.cost_delta);
  }
  std::printf("\nrepaired program:\n%s",
              repair_source(source, p, r.best).c_str());
  return r.recheck_safe ? 0 : 3;
}
