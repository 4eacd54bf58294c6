// xval_runner — cross-validate the LE/ST simulator against the host's real
// x86-TSO memory system: assemble a litmus test, exhaustively enumerate its
// reachable / safe / violating terminal outcomes in the simulator, run the
// same program as a pthread stress test over real shared memory, and diff
// the two worlds. A native observation outside the simulator's reachable
// set is a model-soundness failure; a reachable outcome never observed
// natively is coverage, not error.
//
// Usage:
//   xval_runner test.lit                       # full cross-validation
//   xval_runner test.lit --iters=1000000       # native stress iterations
//   xval_runner test.lit --seed=42             # skew-RNG seed
//   xval_runner test.lit --max-states=1000000  # simulator state budget
//   xval_runner test.lit --step-budget=200000  # native wedge cutoff
//   xval_runner test.lit --no-pin              # don't pin stress threads
//   xval_runner test.lit --json=XVAL_foo.json  # write the report artifact
//   xval_runner test.lit --expect-violation    # broken_*: require the
//                                              # hardware to witness an
//                                              # outcome from the violating
//                                              # (tainted) set
//   xval_runner test.lit --sim-only            # skip the native leg even on
//                                              # supported hosts (report the
//                                              # simulator sets only)
//   echo "..." | xval_runner -                 # read the test from stdin
//
// Exit codes: 0 = expected verdict (observed ⊆ reachable, and the
// violating set was witnessed under --expect-violation), 1 = model
// unsound or expected violation unobserved, 2 = usage/parse error,
// 3 = inconclusive (state limit hit or wedged iterations), 4 = host
// unsupported (non-x86-64 or <2 CPUs) — gate scripts treat 4 as a loud
// skip, not a failure. --json is written in every case, including skips.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "cli.hpp"
#include "lbmf/sim/assembler.hpp"
#include "lbmf/xval/xval.hpp"

using namespace lbmf;
using cli::bad_flag;

namespace {

struct CliOptions {
  xval::XvalOptions xv;
  std::string json_path;
  bool expect_violation = false;
  bool sim_only = false;
};

std::uint64_t parse_u64(const std::string& flag, std::size_t prefix) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(flag.c_str() + prefix, &end, 10);
  if (end == nullptr || *end != '\0') bad_flag(flag);
  return v;
}

CliOptions parse_flags(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;  // the litmus file argument
    if (a.rfind("--iters=", 0) == 0) {
      cli.xv.native.iterations = parse_u64(a, 8);
      if (cli.xv.native.iterations == 0) bad_flag(a);
    } else if (a.rfind("--seed=", 0) == 0) {
      cli.xv.native.seed = parse_u64(a, 7);
    } else if (a.rfind("--max-states=", 0) == 0) {
      cli.xv.max_states = parse_u64(a, 13);
      if (cli.xv.max_states == 0) bad_flag(a);
    } else if (a.rfind("--step-budget=", 0) == 0) {
      cli.xv.native.step_budget = parse_u64(a, 14);
      if (cli.xv.native.step_budget == 0) bad_flag(a);
    } else if (a == "--no-pin") {
      cli.xv.native.pin_threads = false;
    } else if (a.rfind("--json=", 0) == 0) {
      cli.json_path = a.substr(7);
      if (cli.json_path.empty()) bad_flag(a);
    } else if (a == "--expect-violation") {
      cli.expect_violation = true;
    } else if (a == "--sim-only") {
      cli.sim_only = true;
    } else {
      bad_flag(a);
    }
  }
  return cli;
}

std::string litmus_name(const std::string& path) {
  if (path.empty() || path == "-") return "stdin";
  const std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind(".lit");
  if (dot != std::string::npos && dot == base.size() - 4) base.resize(dot);
  return base;
}

void print_set(const char* label, const std::set<std::string>& s) {
  std::printf("%s (%zu):\n", label, s.size());
  for (const std::string& o : s) std::printf("  %s\n", o.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_flags(argc, argv);
  const std::string file = lbmf::cli::first_positional(argc, argv);
  if (file.empty()) {
    std::fprintf(stderr, "usage: xval_runner <test.lit | -> [flags]\n");
    return 2;
  }

  const std::string source = lbmf::cli::read_source(file);
  const sim::AssembleResult assembled = sim::assemble(source);
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s\n", assembled.error->to_string().c_str());
    return 2;
  }

  const std::string name = litmus_name(file);
  std::printf("xval: %s — %zu role(s), sim state budget %llu, native %llu "
              "iteration(s)\n",
              name.c_str(), assembled.programs.size(),
              static_cast<unsigned long long>(cli.xv.max_states),
              static_cast<unsigned long long>(cli.xv.native.iterations));

  xval::XvalReport report;
  if (cli.sim_only) {
    const xval::ObservationSchema schema =
        xval::ObservationSchema::from(assembled);
    report.litmus = name;
    report.sim = xval::compute_reachable(assembled, schema, cli.xv.max_states);
    report.skipped = true;
    report.skip_reason = "--sim-only";
    report.unobserved.assign(report.sim.reachable.begin(),
                             report.sim.reachable.end());
  } else {
    report = xval::cross_validate(name, assembled, cli.xv);
  }

  print_set("sim reachable", report.sim.reachable);
  print_set("sim violating (tainted)", report.sim.violating);
  if (!report.sim.violation.empty()) {
    std::printf("sim violation diagnostic: %s\n", report.sim.violation.c_str());
  }

  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 2;
    }
    out << xval::to_json(report);
    std::printf("report: %s\n", cli.json_path.c_str());
  }

  if (report.skipped && !cli.sim_only) {
    std::printf("SKIPPED: %s\n", report.skip_reason.c_str());
    return 4;
  }
  if (report.skipped) {
    std::printf("SIM-ONLY: %zu reachable, %zu violating outcome(s)\n",
                report.sim.reachable.size(), report.sim.violating.size());
    return 0;
  }

  std::printf("native: %llu iteration(s), %zu distinct outcome(s), %llu "
              "wedged, %llu violating outcome hit(s)\n",
              static_cast<unsigned long long>(report.iterations),
              report.observed.size(),
              static_cast<unsigned long long>(report.wedged_iterations),
              static_cast<unsigned long long>(report.violations_observed));
  for (const auto& [obs, count] : report.observed) {
    const bool reachable = report.sim.reachable.count(obs) != 0;
    const bool violating = report.sim.violating.count(obs) != 0;
    std::printf("  %10llu  %s%s\n", static_cast<unsigned long long>(count),
                obs.c_str(),
                !reachable ? "  <-- UNEXPLAINED"
                           : (violating ? "  (violating)" : ""));
  }
  std::printf("coverage: %.1f%% of reachable outcomes observed\n",
              100.0 * report.coverage());

  if (!report.model_sound()) {
    std::printf("UNSOUND: %zu native outcome(s) outside the simulator's "
                "reachable set\n",
                report.unexplained.size());
    return 1;
  }
  if (!report.conclusive()) {
    std::printf("INCONCLUSIVE: %s%s\n",
                report.sim.complete ? "" : "sim state limit hit; ",
                report.wedged_iterations != 0 ? "native iterations wedged"
                                              : "");
    return 3;
  }
  if (cli.expect_violation) {
    if (report.violations_observed == 0) {
      std::printf("EXPECTED-VIOLATION MISSING: hardware never produced an "
                  "outcome from the tainted set\n");
      return 1;
    }
    std::printf("OK: model sound; hardware witnessed the violating outcome "
                "family %llu time(s)\n",
                static_cast<unsigned long long>(report.violations_observed));
    return 0;
  }
  std::printf("OK: every native outcome is simulator-reachable\n");
  return 0;
}
