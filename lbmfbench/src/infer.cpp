// infer: counterexample-guided fence inference on the holey bakery, then
// explorer runs of the committed repair. The seed is unused: the inputs
// are committed litmus files.

#include <fstream>
#include <sstream>

#include "lbmf/infer/engine.hpp"
#include "workloads.hpp"

namespace lbmfbench {

namespace {

// A set-up reads and parses both litmus files, ~0.07 ms. Taken 25 times
// back to back at process start, their median followed the host of that
// moment: 45-52 us in some runs, 66-76 us in others. So each solve follows
// its own kParses set-ups, which spreads them over the pass as the solves
// are.
constexpr int kParses = 16;
// Explorer runs of the repair after each solve in traced runs, for the
// sim.* metrics. An untraced run spends its time on solves, the samples of
// its end-to-end metrics (a 3-5 s solve gives a 30 s run only 5-8 of
// them), and explores the repair once at the end.
constexpr int kExplorerRuns = 5;
constexpr double kExpectedCost = 7360.0;

std::string read_file(const std::string& path, Outcome& o) {
  std::ifstream f(path);
  o.check(static_cast<bool>(f), "cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct Problems {
  lbmf::infer::InferProblem holes, repaired;
};

/// Read and parse both litmus files into `out`; false if they do not parse.
bool parse(const RunArgs& a, Problems& out, Tracer* tr, Outcome& o) {
  const std::string dir = a.root + "/examples/litmus/";
  const std::string holes = read_file(dir + "bakery_holes.lit", o);
  const std::string repaired = read_file(dir + "bakery.lit", o);
  lbmf::infer::ProblemParse ph, pr;
  {
    Scope s(tr, SpanName::kProblemFromSource, 0);
    ph = lbmf::infer::problem_from_source(holes);
  }
  {
    Scope s(tr, SpanName::kProblemFromSource, 1);
    pr = lbmf::infer::problem_from_source(repaired);
  }
  o.check(ph.ok() && pr.ok(), "bakery litmus inputs do not parse");
  if (!ph.ok() || !pr.ok()) return false;
  out = {std::move(*ph.problem), std::move(*pr.problem)};
  return true;
}

/// The solve must be SAT at the known minimum cost, re-checked SAFE, and
/// its placement must instantiate to exactly the committed repair.
bool placement_ok(const Problems& p, const lbmf::infer::InferResult& r) {
  if (r.status != lbmf::infer::InferStatus::kSat || !r.recheck_safe ||
      r.best_cost != kExpectedCost) {
    return false;
  }
  const lbmf::infer::Instantiation inst = lbmf::infer::instantiate(p.holes, r.best);
  if (inst.programs.size() != p.repaired.programs.size()) return false;
  for (std::size_t c = 0; c < inst.programs.size(); ++c) {
    if (inst.programs[c].code != p.repaired.programs[c].code) return false;
  }
  return true;
}

struct PassResult {
  std::vector<double> setup_ns, solve_ns, explore_ns;
  lbmf::infer::InferResult last;
  lbmf::sim::ExploreResult explored;
};

/// One verify-only explorer run of the repair, with the declared thread
/// symmetry, as litmus_runner explores it; checked SAFE with a stable
/// state count.
void explore_repair(const Problems& p, PassResult& r, std::uint64_t& op,
                    Outcome& o, Tracer* tr) {
  const auto eo = lbmf::infer::InferenceEngine::explorer_options_for(
      p.repaired, lbmf::infer::InferenceEngine::Options{});
  lbmf::sim::Machine m = lbmf::infer::instantiate_machine(
      p.repaired, p.repaired.uniform(lbmf::sim::FenceKind::kNone));
  m.set_symmetric_groups(p.repaired.symmetric_groups);
  m.auto_symmetry();
  lbmf::sim::Explorer ex(std::move(m), eo);
  const std::int64_t t0 = now_ns();
  lbmf::sim::ExploreResult e;
  {
    Scope s(tr, SpanName::kExplorerRun, op++);
    e = ex.run();
  }
  r.explore_ns.push_back(static_cast<double>(now_ns() - t0));
  o.attempted += 1;
  o.check(e.ok() && (r.explore_ns.size() == 1 ||
                     e.states_explored == r.explored.states_explored),
          "explorer run of bakery.lit is not SAFE with a stable state count");
  r.explored = std::move(e);
}

/// Rounds of kParses set-ups, one solve and `explorer_runs` explorer runs
/// of the repair, while another round still fits in `seconds` (at least
/// one); then one explorer run if none ran. Interleaving puts every
/// metric's samples across the whole pass.
PassResult run_pass(const RunArgs& a, double seconds, int explorer_runs,
                    std::uint64_t& op, Outcome& o, Tracer* tr) {
  PassResult r;
  Scope phase(tr, SpanName::kPhase, 0);
  Problems p;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t round_ns = 0;
  do {
    const std::int64_t round_start = now_ns();
    bool parsed = true;
    for (int i = 0; i < kParses; ++i) {
      const std::int64_t t0 = now_ns();
      parsed = parse(a, p, tr, o);
      r.setup_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    if (!parsed) return r;
    lbmf::infer::InferenceEngine engine(p.holes, {});
    const std::int64_t t0 = now_ns();
    lbmf::infer::InferResult res;
    {
      Scope s(tr, SpanName::kInferRun, op++);
      res = engine.run();
    }
    r.solve_ns.push_back(static_cast<double>(now_ns() - t0));
    o.attempted += 1;
    o.check(placement_ok(p, res),
            std::string("inference result ") + lbmf::infer::to_string(res.status) +
                " at cost " + std::to_string(res.best_cost) +
                " is not the committed bakery.lit repair");
    o.check(r.solve_ns.size() == 1 || res.states_total == r.last.states_total,
            "inference state count changed between identical solves");
    r.last = std::move(res);
    for (int i = 0; i < explorer_runs; ++i) explore_repair(p, r, op, o, tr);
    round_ns = now_ns() - round_start;
  } while (now_ns() - start + round_ns <= budget);
  if (r.explore_ns.empty()) explore_repair(p, r, op, o, tr);
  return r;
}

double total(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

}  // namespace

Outcome run_infer(const RunArgs& a) {
  Outcome o;
  Tracer tracer(0);
  Tracer* tr = a.trace ? &tracer : nullptr;

  std::uint64_t op = 0;
  PassResult ref;
  if (a.trace) ref = run_pass(a, a.seconds / 2, kExplorerRuns, op, o, nullptr);
  PassResult r = a.trace ? run_pass(a, a.seconds / 2, kExplorerRuns, op, o, tr)
                         : run_pass(a, a.seconds, 0, op, o, nullptr);
  if (r.solve_ns.empty()) return o;  // the litmus inputs did not parse

  const double solve_ns = median(r.solve_ns);
  o.set_e2e("setup_s", median(r.setup_ns) * 1e-9);
  o.set_e2e("req_p50_us", solve_ns / 1e3);
  o.set_e2e("sat_rps", static_cast<double>(r.solve_ns.size()) /
                           (total(r.solve_ns) * 1e-9));
  if (!a.trace) return o;

  o.set_span_layers(tracer);
  o.set_layer("trace.overhead_frac", solve_ns / median(ref.solve_ns) - 1.0);
  o.set_layer("trace.sat_overhead_frac",
              median(r.explore_ns) / median(ref.explore_ns) - 1.0);
  const lbmf::infer::InferResult& ir = r.last;
  const double run_s = solve_ns * 1e-9;
  o.set_layer("infer.run_s", run_s);
  o.set_layer("infer.parse_ms", median(r.setup_ns) * 1e-6);
  o.set_layer("infer.candidates_generated",
              static_cast<double>(ir.candidates_generated));
  o.set_layer("infer.candidates_verified",
              static_cast<double>(ir.candidates_verified));
  o.set_layer("infer.candidates_pruned", static_cast<double>(ir.candidates_pruned));
  o.set_layer("infer.clauses", static_cast<double>(ir.clauses.size()));
  o.set_layer("infer.states_total", static_cast<double>(ir.states_total));
  o.set_layer("infer.prefix_states", static_cast<double>(ir.prefix_states));
  o.set_layer("infer.incremental_reuses",
              static_cast<double>(ir.incremental_reuses));
  o.set_layer("infer.states_per_s",
              static_cast<double>(ir.states_total + ir.prefix_states) / run_s);

  const lbmf::sim::ExploreResult& e = r.explored;
  const double explore_s = median(r.explore_ns) * 1e-9;
  o.set_layer("sim.explore_s", explore_s);
  o.set_layer("sim.states", static_cast<double>(e.states_explored));
  o.set_layer("sim.transitions", static_cast<double>(e.transitions));
  o.set_layer("sim.dedup_frac",
              e.transitions > 0 ? static_cast<double>(e.dedup_hits) /
                                      static_cast<double>(e.transitions)
                                : 0.0);
  o.set_layer("sim.visited_mb", static_cast<double>(e.visited_bytes) / (1 << 20));
  o.set_layer("sim.states_per_s",
              static_cast<double>(e.states_explored) / explore_s);
  write_spans(a, {&tracer});
  return o;
}

}  // namespace lbmfbench
