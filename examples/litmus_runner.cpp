// litmus_runner — a herd-style command-line model checker for the LE/ST
// simulator: feed it a textual litmus test (file argument, or stdin with
// "-", or the built-in demo) and it exhaustively enumerates every
// interleaving, reporting either "safe" or a step-by-step annotated
// counterexample schedule.
//
// Usage:
//   litmus_runner                           # built-in asymmetric-Dekker demo
//   litmus_runner test.lit                  # run a litmus file
//   litmus_runner test.lit --protocol=moesi # pick MSI / MESI / MOESI
//   litmus_runner test.lit --max-states=1000000   # state budget
//   litmus_runner test.lit --no-por         # disable partial-order reduction
//   litmus_runner test.lit --stats          # dedup hit rate, states/sec,
//                                           # symmetry orbit, spill bytes, ...
//   litmus_runner test.lit --no-symmetry    # disable thread-symmetry state
//                                           # canonicalization (see LITMUS.md
//                                           # `symmetric`; identical programs
//                                           # are also auto-detected)
//   litmus_runner test.lit --visited-budget=BYTES  # spill the visited set to
//                                           # mmap'd cold segments past BYTES
//   litmus_runner test.lit --expect-violation  # negative test: fail if SAFE
//   echo "..." | litmus_runner -            # read the test from stdin
//
// Exit codes: 0 = expected verdict (SAFE, or VIOLATION under
// --expect-violation), 1 = the opposite verdict, 2 = usage/parse error,
// 3 = state limit hit (always inconclusive, never the expected verdict).
//
// Litmus syntax: see include/lbmf/sim/assembler.hpp; sample tests live in
// examples/litmus/.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"

using namespace lbmf::sim;
using lbmf::cli::bad_flag;

namespace {

constexpr const char* kDemo = R"(# Built-in demo: the paper's asymmetric Dekker protocol (Fig. 3a).
# Change 'lmfence [L1], 1' to 'store [L1], 1' and watch it break.
cpu 0:
  lmfence [L1], 1
  load r0, [L2]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  store [L1], 0
  halt
cpu 1:
  store [L2], 1
  mfence
  load r0, [L1]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  store [L2], 0
  halt
)";

struct CliOptions {
  Protocol protocol = Protocol::kMesi;
  std::uint64_t max_states = 2'000'000;
  bool por = true;
  bool stats = false;
  /// Thread-symmetry reduction: canonicalize states under permutations of
  /// CPUs running byte-identical programs (`symmetric` directive groups
  /// plus auto-detection). --no-symmetry is the exact-search escape hatch.
  bool symmetry = true;
  /// Visited-set memory budget in bytes; 0 = unbounded (never spill).
  std::uint64_t visited_budget = 0;
  /// Negative tests (broken_*.lit): succeed only if a violation is found.
  bool expect_violation = false;
};

CliOptions parse_flags(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;  // the litmus file argument
    if (a == "--protocol=msi") {
      cli.protocol = Protocol::kMsi;
    } else if (a == "--protocol=mesi") {
      cli.protocol = Protocol::kMesi;
    } else if (a == "--protocol=moesi") {
      cli.protocol = Protocol::kMoesi;
    } else if (a.rfind("--max-states=", 0) == 0) {
      char* end = nullptr;
      cli.max_states = std::strtoull(a.c_str() + 13, &end, 10);
      if (end == nullptr || *end != '\0' || cli.max_states == 0) bad_flag(a);
    } else if (a == "--no-por") {
      cli.por = false;
    } else if (a == "--stats") {
      cli.stats = true;
    } else if (a == "--no-symmetry") {
      cli.symmetry = false;
    } else if (a.rfind("--visited-budget=", 0) == 0) {
      char* end = nullptr;
      cli.visited_budget = std::strtoull(a.c_str() + 17, &end, 10);
      if (end == nullptr || *end != '\0' || cli.visited_budget == 0) {
        bad_flag(a);
      }
    } else if (a == "--expect-violation") {
      cli.expect_violation = true;
    } else {
      bad_flag(a);
    }
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_flags(argc, argv);
  const std::string path = lbmf::cli::first_positional(argc, argv);
  const std::string source =
      path.empty() ? kDemo : lbmf::cli::read_source(path);
  const AssembleResult assembled = assemble(source);
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s\n", assembled.error->to_string().c_str());
    return 2;
  }

  std::printf("%zu cpu(s), %zu shared location(s):", assembled.programs.size(),
              assembled.symbols.size());
  for (const auto& [name, addr] : assembled.symbols) {
    std::printf(" %s=[%u]", name.c_str(), addr);
  }
  std::printf("\n");

  SimConfig cfg;
  cfg.num_cpus = assembled.programs.size();
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  cfg.protocol = cli.protocol;
  std::printf("coherence protocol: %s, por: %s\n", to_string(cfg.protocol),
              cli.por ? "on" : "off");
  Machine machine(cfg);
  for (const auto& [a, v] : assembled.initial_memory) machine.set_memory(a, v);
  for (std::size_t i = 0; i < assembled.programs.size(); ++i) {
    machine.load_program(i, assembled.programs[i]);
  }
  if (cli.symmetry) {
    // Declared `symmetric` groups were validated at assemble time;
    // auto_symmetry then groups any remaining byte-identical programs.
    std::vector<std::vector<std::uint8_t>> declared;
    for (const auto& g : assembled.symmetric_groups) {
      declared.emplace_back(g.begin(), g.end());
    }
    if (!declared.empty()) machine.set_symmetric_groups(std::move(declared));
    machine.auto_symmetry();
    if (machine.symmetry_orbit() > 1) {
      std::printf("thread symmetry: %zu group(s), orbit %llu "
                  "(--no-symmetry for the exact search)\n",
                  machine.symmetric_groups().size(),
                  static_cast<unsigned long long>(machine.symmetry_orbit()));
    }
  }

  Explorer::Options opts;
  opts.max_states = cli.max_states;
  opts.por = cli.por;
  opts.visited_budget_bytes = cli.visited_budget;
  // Terminal-state property: `final` directives (if any) plus deadlock
  // detection for tests using `lock`/`unlock`. A no-op for tests without
  // either construct.
  if (!assembled.final_allowed.empty()) {
    std::printf("final-state property: %zu allowed terminal valuation(s)\n",
                assembled.final_allowed.size());
  }
  opts.check = final_state_check(assembled.final_allowed);
  Explorer ex(machine, opts);
  const auto t0 = std::chrono::steady_clock::now();
  const ExploreResult r = ex.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("explored %llu states, %llu transitions, %llu terminal\n",
              static_cast<unsigned long long>(r.states_explored),
              static_cast<unsigned long long>(r.transitions),
              static_cast<unsigned long long>(r.terminal_states));
  if (cli.stats) {
    const double hit_rate =
        r.transitions == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.dedup_hits) /
                  static_cast<double>(r.transitions);
    std::printf("stats: %.0f states/sec, dedup hit rate %.1f%% "
                "(%llu of %llu), visited set %.1f KiB resident\n",
                seconds > 0 ? static_cast<double>(r.states_explored) / seconds
                            : 0.0,
                hit_rate, static_cast<unsigned long long>(r.dedup_hits),
                static_cast<unsigned long long>(r.transitions),
                static_cast<double>(r.visited_bytes) / 1024.0);
    std::printf("stats: symmetry orbit %llu, spilled %.1f KiB in %u "
                "segment(s)\n",
                static_cast<unsigned long long>(r.symmetry_orbit),
                static_cast<double>(r.spill_bytes) / 1024.0,
                r.spill_segments);
  }
  if (r.hit_limit) {
    std::printf("STATE LIMIT HIT — result inconclusive "
                "(raise with --max-states=N)\n");
    return 3;
  }
  if (!r.violation) {
    std::printf("SAFE: no schedule violates mutual exclusion, coherence, "
                "or the final-state property\n");
    if (cli.expect_violation) {
      std::printf("UNEXPECTED: --expect-violation was given but every "
                  "schedule is safe\n");
      return 1;
    }
    return 0;
  }

  std::printf("VIOLATION: %s\n\ncounterexample schedule (%zu steps):\n",
              r.violation->c_str(), r.violation_trace.size());
  // Rebuild an identical machine for the annotated replay.
  Machine replay(cfg);
  for (const auto& [a, v] : assembled.initial_memory) replay.set_memory(a, v);
  for (std::size_t i = 0; i < assembled.programs.size(); ++i) {
    replay.load_program(i, assembled.programs[i]);
  }
  std::printf("%s", annotate_schedule(std::move(replay),
                                      r.violation_trace).c_str());
  if (cli.expect_violation) {
    std::printf("EXPECTED: violation found, as requested\n");
    return 0;
  }
  return 1;
}
