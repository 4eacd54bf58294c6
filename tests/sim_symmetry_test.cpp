// Thread-symmetry reduction and the spillable visited set.
//
// The soundness claim behind `symmetric cpu` / auto_symmetry() is that a
// permutation of byte-identical CPUs is an automorphism of the transition
// system, so exploring canonical representatives (per-CPU state blocks
// sorted within each group) preserves reachability of every violation.
// These tests audit that claim empirically: the canonical search must
// agree with the exact (ungrouped, exact-dedup) search on every verdict,
// while visiting no more — and on genuinely symmetric workloads strictly
// fewer — states. The spill tests check that freezing cold fingerprints
// into mmap'd segments is invisible to every counter, and that segments
// stay in RAM when no spill file can be made.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/sim/visited.hpp"

namespace lbmf::sim {
namespace {

SimConfig cfg_n(std::size_t cpus) {
  SimConfig cfg;
  cfg.num_cpus = cpus;
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string litmus_path(const char* name) {
  return std::string(LBMF_LITMUS_DIR) + "/" + name;
}

// Assemble a litmus file into a machine; `symmetry` applies the declared
// groups plus auto-detection (exactly what litmus_runner does by default).
Machine machine_from_file(const char* name, bool symmetry,
                          AssembleResult* out = nullptr) {
  const AssembleResult a = assemble(slurp(litmus_path(name)));
  EXPECT_TRUE(a.ok()) << name << ": "
                      << (a.error ? a.error->message : "unknown");
  Machine m(cfg_n(a.programs.size()));
  for (const auto& [addr, v] : a.initial_memory) m.set_memory(addr, v);
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    m.load_program(i, a.programs[i]);
  }
  if (symmetry) {
    std::vector<std::vector<std::uint8_t>> declared;
    for (const auto& g : a.symmetric_groups) {
      declared.emplace_back(g.begin(), g.end());
    }
    if (!declared.empty()) m.set_symmetric_groups(std::move(declared));
    m.auto_symmetry();
  }
  if (out != nullptr) *out = a;
  return m;
}

// ------------------------------------------------------ directive parsing

TEST(SymmetricDirective, ParsesAndValidatesGroups) {
  const AssembleResult a = assemble(R"(symmetric cpu 1, 2
cpu 0:
  store [X], 1
  halt
cpu 1:
  load r0, [X]
  halt
cpu 2:
  load r0, [X]
  halt
)");
  ASSERT_TRUE(a.ok()) << (a.error ? a.error->message : "");
  ASSERT_EQ(a.symmetric_groups.size(), 1u);
  EXPECT_EQ(a.symmetric_groups[0], (std::vector<std::size_t>{1, 2}));
}

TEST(SymmetricDirective, RejectsUnknownCpu) {
  const AssembleResult a = assemble(R"(symmetric cpu 0, 3
cpu 0:
  halt
cpu 1:
  halt
)");
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error->message.find("cpu 3"), std::string::npos)
      << a.error->message;
}

TEST(SymmetricDirective, RejectsSingletonGroup) {
  const AssembleResult a = assemble("symmetric cpu 0\ncpu 0:\n  halt\n");
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error->message.find("at least two"), std::string::npos)
      << a.error->message;
}

TEST(SymmetricDirective, RejectsOverlappingGroups) {
  const AssembleResult a = assemble(R"(symmetric cpu 0, 1
symmetric cpu 1, 2
cpu 0:
  halt
cpu 1:
  halt
cpu 2:
  halt
)");
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error->message.find("more than one"), std::string::npos)
      << a.error->message;
}

TEST(SymmetricDirective, RejectsDivergentPrograms) {
  const AssembleResult a = assemble(R"(symmetric cpu 0, 1
cpu 0:
  store [X], 1
  halt
cpu 1:
  store [X], 2
  halt
)");
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error->message.find("different programs"), std::string::npos)
      << a.error->message;
}

TEST(SymmetricDirective, RejectsDivergentFreqs) {
  const AssembleResult a = assemble(R"(symmetric cpu 0, 1
cpu 0:
  freq 1000
  store [X], 1
  halt
cpu 1:
  store [X], 1
  halt
)");
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.error->message.find("different freqs"), std::string::npos)
      << a.error->message;
}

TEST(SymmetricDirective, RejectsMisalignedHoles) {
  const AssembleResult a = assemble(R"(symmetric cpu 0, 1
cpu 0:
  ?fence [X], 1
  halt
cpu 1:
  store [X], 1
  halt
)");
  ASSERT_FALSE(a.ok());
  // Byte-wise the programs agree (a hole assembles to its plain store);
  // the hole alignment check is what catches the drift.
  EXPECT_NE(a.error->message.find("misaligned"), std::string::npos)
      << a.error->message;
}

// -------------------------------------------------------- auto-detection

TEST(AutoSymmetry, GroupsByteIdenticalPrograms) {
  Machine m(cfg_n(4));
  for (std::size_t cpu = 0; cpu < 3; ++cpu) {
    m.load_program(cpu, dekker_side(addr::kFlag0, addr::kFlag1,
                                    FenceKind::kLmfence));
  }
  m.load_program(3, dekker_side(addr::kFlag1, addr::kFlag0,
                                FenceKind::kMfence));
  EXPECT_EQ(m.auto_symmetry(), 3u);  // three CPUs grouped, cpu3 left out
  ASSERT_EQ(m.symmetric_groups().size(), 1u);
  EXPECT_EQ(m.symmetric_groups()[0], (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(m.symmetry_orbit(), 6u);  // 3!
  m.clear_symmetric_groups();
  EXPECT_EQ(m.symmetry_orbit(), 1u);
}

TEST(AutoSymmetry, NoGroupsWhenAllProgramsDiffer) {
  Machine m = make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence,
                                  cfg_n(2));
  EXPECT_EQ(m.auto_symmetry(), 0u);
  EXPECT_TRUE(m.symmetric_groups().empty());
  EXPECT_EQ(m.symmetry_orbit(), 1u);
}

// Mirrored schedules of interchangeable CPUs must canonicalize to the same
// state with symmetry on, and to different states with it off.
TEST(Canonicalization, InvariantUnderGroupPermutation) {
  const auto build = [] {
    Machine m(cfg_n(2));
    ProgramBuilder b("twin");
    b.store(addr::kFlag0, 1);
    b.load(0, addr::kFlag1);
    b.halt();
    m.load_program(0, b.build());
    ProgramBuilder b2("twin");
    b2.store(addr::kFlag0, 1);
    b2.load(0, addr::kFlag1);
    b2.halt();
    m.load_program(1, b2.build());
    return m;
  };
  Machine a = build();
  Machine b = build();
  a.step(0, Action::Execute);  // cpu0 buffers the store
  b.step(1, Action::Execute);  // the mirror image on cpu1
  EXPECT_NE(a.canonical_state(), b.canonical_state());
  EXPECT_FALSE(a.fingerprint() == b.fingerprint());
  a.auto_symmetry();
  b.auto_symmetry();
  EXPECT_EQ(a.canonical_state(), b.canonical_state());
  EXPECT_TRUE(a.fingerprint() == b.fingerprint());
}

// ------------------------------------------------------- parity audit

// The audit that justifies trusting symmetric searches: on every litmus
// protocol — asymmetric ones (where the reduction must be a no-op) and the
// symmetric big protocols alike — the canonical search agrees with the
// exact exact-dedup search on the verdict, and never explores more states.
TEST(SymmetryParity, CanonicalSearchAgreesWithExactDedup) {
  const char* files[] = {
      "broken_dekker.lit",         // asymmetric, violating
      "asymmetric_dekker.lit",     // asymmetric, safe
      "the_deque_two_thieves.lit", // symmetric thieves, violating
      "chase_lev.lit",             // symmetric thieves, violating
      "biased_rwlock.lit",         // symmetric writers, violating
  };
  for (const char* name : files) {
    AssembleResult assembled;
    Machine sym = machine_from_file(name, /*symmetry=*/true, &assembled);
    Machine exact = machine_from_file(name, /*symmetry=*/false);

    Explorer::Options opts;
    opts.stop_at_violation = false;  // deterministic full traversal
    opts.max_states = 2'000'000;
    opts.check = final_state_check(assembled.final_allowed);
    Explorer::Options exact_opts = opts;
    exact_opts.exact_dedup = true;

    const ExploreResult rs = explore_all(sym, opts);
    const ExploreResult re = explore_all(std::move(exact), exact_opts);
    ASSERT_FALSE(rs.hit_limit) << name;
    ASSERT_FALSE(re.hit_limit) << name;
    EXPECT_EQ(rs.violation.has_value(), re.violation.has_value()) << name;
    EXPECT_LE(rs.states_explored, re.states_explored) << name;
    if (sym.symmetry_orbit() > 1) {
      // A real group must reduce the graph, and the orbit must be reported.
      EXPECT_LT(rs.states_explored, re.states_explored) << name;
      EXPECT_EQ(rs.symmetry_orbit, sym.symmetry_orbit()) << name;
    } else {
      EXPECT_EQ(rs.states_explored, re.states_explored) << name;
    }
  }
}

// With symmetry ON, fingerprint dedup and exact-string dedup must still
// agree bit-for-bit (the canonical encoding feeds both).
TEST(SymmetryParity, FingerprintMatchesExactUnderSymmetry) {
  AssembleResult assembled;
  Machine m = machine_from_file("the_deque_two_thieves.lit", true, &assembled);
  Explorer::Options opts;
  opts.stop_at_violation = false;
  opts.max_states = 2'000'000;
  opts.check = final_state_check(assembled.final_allowed);
  const ExploreResult fp = explore_all(m, opts);
  opts.exact_dedup = true;
  const ExploreResult ex = explore_all(std::move(m), opts);
  EXPECT_EQ(fp.states_explored, ex.states_explored);
  EXPECT_EQ(fp.transitions, ex.transitions);
  EXPECT_EQ(fp.terminal_states, ex.terminal_states);
  EXPECT_EQ(fp.violation.has_value(), ex.violation.has_value());
}

// ------------------------------------------------------- spillable set

TEST(VisitedSpill, SegmentsStillAnswerMembership) {
  // A 64 KiB budget freezes the live set after ~2.8k entries; 20k
  // distinct fingerprints therefore span several frozen segments, and
  // every duplicate probe must still be caught in whichever segment holds
  // it.
  VisitedSet vs(/*exact=*/false, 64 * 1024);
  const auto fp_of = [](std::uint64_t i) {
    return Fingerprint{i * 0x9E3779B97F4A7C15ull + 1, i + 1};
  };
  constexpr std::uint64_t kN = 20'000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(vs.insert(fp_of(i), "")) << i;
  }
  EXPECT_GE(vs.spill_segments(), 1u);
  EXPECT_GT(vs.spill_bytes(), 0u);
  // Residency stays bounded by (roughly) the budget.
  EXPECT_LE(vs.bytes(), 2 * 64 * 1024u);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_FALSE(vs.insert(fp_of(i), "")) << i;
  }
}

// Three byte-identical hot Dekker sides: big enough to outgrow a 64 KiB
// visited-set budget several times over.
Machine three_hot_sides() {
  Machine m(cfg_n(3));
  for (std::size_t cpu = 0; cpu < 3; ++cpu) {
    m.load_program(cpu, dekker_side(addr::kFlag0, addr::kFlag1,
                                    FenceKind::kLmfence));
  }
  return m;
}

TEST(VisitedSpill, TinyBudgetLeavesExplorationCountersUnchanged) {
  Explorer::Options opts;
  opts.max_states = 2'000'000;
  opts.check_mutual_exclusion = false;  // three sides share one CS
  const ExploreResult unbounded = explore_all(three_hot_sides(), opts);
  opts.visited_budget_bytes = 64 * 1024;
  const ExploreResult spilled = explore_all(three_hot_sides(), opts);

  ASSERT_FALSE(unbounded.hit_limit);
  EXPECT_EQ(spilled.states_explored, unbounded.states_explored);
  EXPECT_EQ(spilled.transitions, unbounded.transitions);
  EXPECT_EQ(spilled.terminal_states, unbounded.terminal_states);
  EXPECT_EQ(spilled.violation.has_value(), unbounded.violation.has_value());
  EXPECT_GE(spilled.spill_segments, 1u);
  EXPECT_GT(spilled.spill_bytes, 0u);
  EXPECT_EQ(unbounded.spill_segments, 0u);
  EXPECT_LT(spilled.visited_bytes, unbounded.visited_bytes);
}

TEST(VisitedSpill, MkstempFailureKeepsSegmentsInRam) {
  // Under a TMPDIR that does not exist, mkstemp fails and every frozen
  // segment stays in anonymous memory: the counters are unchanged, nothing
  // is on disk, and the resident bytes count the segments.
  Explorer::Options opts;
  opts.max_states = 2'000'000;
  opts.check_mutual_exclusion = false;  // three sides share one CS
  const ExploreResult unbounded = explore_all(three_hot_sides(), opts);
  opts.visited_budget_bytes = 64 * 1024;
  const ExploreResult spilled = explore_all(three_hot_sides(), opts);

  const std::string missing =
      testing::TempDir() + "lbmf-missing-" + std::to_string(::getpid());
  ASSERT_FALSE(std::filesystem::exists(missing)) << missing;
  const char* old = std::getenv("TMPDIR");
  const std::optional<std::string> saved =
      old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  ::setenv("TMPDIR", missing.c_str(), 1);
  const ExploreResult resident = explore_all(three_hot_sides(), opts);
  if (saved) {
    ::setenv("TMPDIR", saved->c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }

  ASSERT_FALSE(unbounded.hit_limit);
  EXPECT_EQ(resident.states_explored, unbounded.states_explored);
  EXPECT_EQ(resident.transitions, unbounded.transitions);
  EXPECT_EQ(resident.terminal_states, unbounded.terminal_states);
  EXPECT_GE(resident.spill_segments, 1u);
  EXPECT_EQ(resident.spill_bytes, 0u);
  // The same segments as the spilled run, each counted as resident.
  EXPECT_EQ(resident.spill_segments, spilled.spill_segments);
  EXPECT_EQ(resident.visited_bytes,
            spilled.visited_bytes + spilled.spill_bytes);
}

}  // namespace
}  // namespace lbmf::sim
