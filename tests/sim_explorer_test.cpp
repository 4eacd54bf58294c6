// Exhaustive interleaving checks: machine-checked versions of the paper's
// Theorem 7 (asymmetric Dekker with l-mfence is mutually exclusive) and the
// negative controls showing the checker has teeth (without fences, TSO does
// violate Dekker, and the explorer exhibits a schedule).
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"

namespace lbmf::sim {
namespace {

SimConfig cfg2() {
  SimConfig cfg;
  cfg.num_cpus = 2;
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  return cfg;
}

// ------------------------------------------------------------------ Dekker

struct DekkerCase {
  FenceKind primary;
  FenceKind secondary;
  bool safe;  // is mutual exclusion guaranteed?
  const char* label;
};

class DekkerExhaustive : public ::testing::TestWithParam<DekkerCase> {};

TEST_P(DekkerExhaustive, MutualExclusionMatchesTheory) {
  const DekkerCase& c = GetParam();
  Explorer::Options opts;
  Explorer ex(make_dekker_machine(c.primary, c.secondary, cfg2()), opts);
  const ExploreResult r = ex.run();
  ASSERT_FALSE(r.hit_limit) << "state space larger than expected";
  if (c.safe) {
    EXPECT_FALSE(r.violation.has_value())
        << c.label << ": " << *r.violation << " after trace of "
        << r.violation_trace.size() << " steps";
  } else {
    ASSERT_TRUE(r.violation.has_value())
        << c.label << ": expected a TSO mutual-exclusion violation but "
        << r.states_explored << " states were all safe";
    EXPECT_NE(r.violation->find("mutual exclusion"), std::string::npos);
    EXPECT_FALSE(r.violation_trace.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFenceCombinations, DekkerExhaustive,
    ::testing::Values(
        // The paper's asymmetric protocol (Fig. 3(a), Theorem 7).
        DekkerCase{FenceKind::kLmfence, FenceKind::kMfence, true,
                   "asymmetric l-mfence/mfence"},
        // Both sides with l-mfence — Sec. 4 notes the mirrored protocol is
        // still mutually exclusive.
        DekkerCase{FenceKind::kLmfence, FenceKind::kLmfence, true,
                   "mirrored l-mfence/l-mfence"},
        // The traditional symmetric protocol.
        DekkerCase{FenceKind::kMfence, FenceKind::kMfence, true,
                   "symmetric mfence/mfence"},
        DekkerCase{FenceKind::kMfence, FenceKind::kLmfence, true,
                   "mfence/l-mfence"},
        // Negative controls: any side running fence-free breaks Dekker
        // under TSO (Principle 4 reordering).
        DekkerCase{FenceKind::kNone, FenceKind::kNone, false,
                   "no fences at all"},
        DekkerCase{FenceKind::kNone, FenceKind::kMfence, false,
                   "primary fence-free"},
        DekkerCase{FenceKind::kLmfence, FenceKind::kNone, false,
                   "secondary fence-free"}),
    [](const ::testing::TestParamInfo<DekkerCase>& info) {
      std::string s = std::string(to_string(info.param.primary)) + "_" +
                      to_string(info.param.secondary);
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

TEST(DekkerExhaustive, AblatedLeStFallsBackToFenceAndStaysSafe) {
  // With LE/ST disabled in "hardware", the Fig. 3(b) code path always takes
  // the branch into MFENCE — l-mfence degrades to mfence and the protocol
  // must remain safe (just slower).
  SimConfig cfg = cfg2();
  cfg.le_st_enabled = false;
  const ExploreResult r =
      explore_all(make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence,
                                      cfg));
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  EXPECT_FALSE(r.violation.has_value()) << *r.violation;
}

TEST(DekkerExhaustive, TinyStoreBufferStillSafe) {
  // sb_capacity = 1 forces the guarded store to complete early on many
  // paths (link cleared by natural completion) — a different mix of Lemma 3
  // cases must still all be safe.
  SimConfig cfg = cfg2();
  cfg.sb_capacity = 1;
  const ExploreResult r = explore_all(
      make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence, cfg));
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  EXPECT_FALSE(r.violation.has_value()) << *r.violation;
}

TEST(DekkerExhaustive, TinyCacheEvictionPathsStillSafe) {
  // cache_capacity = 2 makes the guarded line evictable while armed,
  // exercising the notify-on-evict path under every schedule.
  SimConfig cfg = cfg2();
  cfg.cache_capacity = 2;
  const ExploreResult r = explore_all(
      make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence, cfg));
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  EXPECT_FALSE(r.violation.has_value()) << *r.violation;
}

// ----------------------------------------------------------------- Peterson

// The Sec. 7 future-work question, answered exhaustively: Peterson's
// algorithm with the l-mfence guarding only its LAST announce store (turn)
// is safe on TSO, because the FIFO store buffer completes flag[i] before
// turn.
class PetersonExhaustive : public ::testing::TestWithParam<DekkerCase> {};

TEST_P(PetersonExhaustive, MutualExclusionMatchesTheory) {
  const DekkerCase& c = GetParam();
  const ExploreResult r =
      explore_all(make_peterson_machine(c.primary, c.secondary, cfg2()));
  ASSERT_FALSE(r.hit_limit);
  if (c.safe) {
    EXPECT_FALSE(r.violation.has_value()) << c.label << ": " << *r.violation;
  } else {
    EXPECT_TRUE(r.violation.has_value()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FenceMatrix, PetersonExhaustive,
    ::testing::Values(
        DekkerCase{FenceKind::kLmfence, FenceKind::kMfence, true,
                   "peterson asymmetric"},
        DekkerCase{FenceKind::kLmfence, FenceKind::kLmfence, true,
                   "peterson mirrored l-mfence"},
        DekkerCase{FenceKind::kMfence, FenceKind::kMfence, true,
                   "peterson classic"},
        DekkerCase{FenceKind::kNone, FenceKind::kMfence, false,
                   "peterson primary fence-free"},
        DekkerCase{FenceKind::kNone, FenceKind::kNone, false,
                   "peterson no fences"}),
    [](const ::testing::TestParamInfo<DekkerCase>& info) {
      std::string s = std::string(to_string(info.param.primary)) + "_" +
                      to_string(info.param.secondary);
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

// --------------------------------------------------------------- SB litmus

struct SbCase {
  FenceKind f0;
  FenceKind f1;
  bool both_zero_allowed;
};

class StoreBufferLitmus : public ::testing::TestWithParam<SbCase> {};

TEST_P(StoreBufferLitmus, BothZeroOutcomeMatchesTso) {
  const SbCase& c = GetParam();
  Explorer::Options opts;
  opts.observe = observe_obs0;
  Explorer ex(make_store_buffer_litmus(c.f0, c.f1, cfg2()), opts);
  const ExploreResult r = ex.run();
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  const bool saw_both_zero = r.outcomes.count("r0=0,r0=0") > 0;
  EXPECT_EQ(saw_both_zero, c.both_zero_allowed)
      << to_string(c.f0) << "/" << to_string(c.f1);
  // The non-racy outcomes must always be reachable.
  EXPECT_TRUE(r.outcomes.count("r0=0,r0=1") || r.outcomes.count("r0=1,r0=0"));
}

INSTANTIATE_TEST_SUITE_P(
    FenceMatrix, StoreBufferLitmus,
    ::testing::Values(SbCase{FenceKind::kNone, FenceKind::kNone, true},
                      SbCase{FenceKind::kMfence, FenceKind::kMfence, false},
                      SbCase{FenceKind::kLmfence, FenceKind::kMfence, false},
                      SbCase{FenceKind::kMfence, FenceKind::kLmfence, false},
                      SbCase{FenceKind::kLmfence, FenceKind::kLmfence, false},
                      // One fenced side alone cannot forbid the outcome.
                      SbCase{FenceKind::kNone, FenceKind::kMfence, true},
                      SbCase{FenceKind::kNone, FenceKind::kLmfence, true}),
    [](const ::testing::TestParamInfo<SbCase>& info) {
      std::string s = std::string(to_string(info.param.f0)) + "_" +
                      to_string(info.param.f1);
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

// ------------------------------------------------------- message passing

TEST(MessagePassingLitmus, TsoForbidsFlagWithoutData) {
  Explorer::Options opts;
  opts.observe = [](const Machine& m) {
    return std::to_string(m.cpu(1).regs[reg::kObs0]) + "," +
           std::to_string(m.cpu(1).regs[reg::kObs1]);
  };
  Explorer ex(make_message_passing_litmus(cfg2()), opts);
  const ExploreResult r = ex.run();
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_EQ(r.outcomes.count("1,0"), 0u);  // the forbidden reordering
  EXPECT_GT(r.outcomes.count("1,42"), 0u);
  EXPECT_GT(r.outcomes.count("0,0"), 0u);
}

// ----------------------------------------------------- LB and IRIW litmus

TEST(LoadBufferingLitmus, TsoForbidsBothOnes) {
  // r0==1 on both CPUs would need load-store reordering; TSO (and this
  // simulator, which executes each instruction atomically in order) must
  // never produce it even with no fences.
  Explorer::Options opts;
  opts.observe = observe_obs0;
  Explorer ex(make_load_buffering_litmus(cfg2()), opts);
  const ExploreResult r = ex.run();
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_EQ(r.outcomes.count("r0=1,r0=1"), 0u);
  EXPECT_GT(r.outcomes.count("r0=0,r0=0"), 0u);  // the common outcome
}

TEST(IriwLitmus, ReadersAgreeOnStoreOrder) {
  // The forbidden IRIW outcome: reader2 sees x=1,y=0 while reader3 sees
  // y=1,x=0 — the two writes observed in opposite orders. TSO's single
  // store order (the bus serializes completions) forbids it.
  Explorer::Options opts;
  opts.observe = [](const Machine& m) {
    return std::to_string(m.cpu(2).regs[reg::kObs0]) +
           std::to_string(m.cpu(2).regs[reg::kObs1]) + "," +
           std::to_string(m.cpu(3).regs[reg::kObs0]) +
           std::to_string(m.cpu(3).regs[reg::kObs1]);
  };
  opts.max_states = 5'000'000;
  Explorer ex(make_iriw_litmus(cfg2()), opts);
  const ExploreResult r = ex.run();
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  // Forbidden: both readers saw their first write but not the other's.
  EXPECT_EQ(r.outcomes.count("10,10"), 0u);
  // Plenty of legal outcomes must exist.
  EXPECT_GT(r.outcomes.size(), 4u);
}

// ---------------------------------------------------------- explorer sanity

TEST(Explorer, ExploresMoreStatesThanRoundRobin) {
  const ExploreResult r = explore_all(make_message_passing_litmus(cfg2()));
  // The schedule tree must be non-trivial and fully enumerated.
  EXPECT_GT(r.states_explored, 20u);
  EXPECT_GT(r.terminal_states, 0u);
  EXPECT_FALSE(r.hit_limit);
}

TEST(Explorer, StateLimitIsHonored) {
  Explorer::Options opts;
  opts.max_states = 5;
  Explorer ex(make_message_passing_litmus(cfg2()), opts);
  const ExploreResult r = ex.run();
  EXPECT_TRUE(r.hit_limit);
  EXPECT_LE(r.states_explored, 5u);
}

TEST(Explorer, LimitHitNeverReportsSafe) {
  // Regression: a truncated exploration is inconclusive — ok() must come
  // back false even though no violation was found, and callers that need
  // to tell the two apart must see hit_limit set with violation empty.
  // The machine here is genuinely UNSAFE (fence-free Dekker), so trusting
  // a limit-hit run as "safe" would be exactly the bug.
  Explorer::Options opts;
  opts.max_states = 2;
  Explorer ex(make_dekker_machine(FenceKind::kNone, FenceKind::kNone, cfg2()),
              opts);
  const ExploreResult r = ex.run();
  ASSERT_TRUE(r.hit_limit);
  EXPECT_FALSE(r.violation.has_value());
  EXPECT_FALSE(r.ok());
}

TEST(Explorer, ViolationTraceReplaysToViolation) {
  // Take the schedule the explorer produced for the fence-free Dekker and
  // replay it step-by-step on a fresh machine: it must reproduce the
  // violation. This pins down that traces are faithful.
  Explorer::Options opts;
  Explorer ex(make_dekker_machine(FenceKind::kNone, FenceKind::kNone, cfg2()),
              opts);
  const ExploreResult r = ex.run();
  ASSERT_TRUE(r.violation.has_value());

  Machine m = make_dekker_machine(FenceKind::kNone, FenceKind::kNone, cfg2());
  for (const Choice& c : r.violation_trace) {
    ASSERT_TRUE(m.action_enabled(c.cpu, c.action));
    m.step(c.cpu, c.action);
  }
  EXPECT_GT(m.cpus_in_cs(), 1u);
}

// ----------------------------------------------------------- reorder bound

// A committed litmus file as litmus_runner explores it: initial memory,
// programs and thread symmetry; `opts.check` gets its final-state property.
Machine litmus_machine(const std::string& name, Explorer::Options& opts) {
  std::ifstream f(std::string(LBMF_LITMUS_DIR) + "/" + name);
  std::ostringstream ss;
  ss << f.rdbuf();
  const AssembleResult a = assemble(ss.str());
  EXPECT_TRUE(a.ok()) << name;
  SimConfig cfg;
  cfg.num_cpus = a.programs.size();
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  Machine m(cfg);
  for (const auto& [addr, v] : a.initial_memory) m.set_memory(addr, v);
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    m.load_program(i, a.programs[i]);
  }
  m.auto_symmetry();
  opts.check = final_state_check(a.final_allowed);
  return m;
}

// Flags any state in which one CPU holds two or more buffered stores.
std::optional<std::string> two_buffered(const Machine& m) {
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    if (m.cpu(cpu).sb.size() >= 2) {
      return "cpu" + std::to_string(cpu) + " buffers two stores";
    }
  }
  return std::nullopt;
}

TEST(ReorderBound, NoExploredStateBuffersTwoStoresOnOneCpu) {
  // Options::check sees every state the run discovers. Unbounded, bakery's
  // contenders buffer several stores at once; under max_pending_stores = 1
  // no explored state holds two entries on one CPU.
  Explorer::Options opts;
  const Machine m = litmus_machine("bakery.lit", opts);
  opts.check = two_buffered;
  const ExploreResult unbounded = Explorer(m, opts).run();
  ASSERT_TRUE(unbounded.violation.has_value());

  opts.max_pending_stores = 1;
  const ExploreResult bounded = Explorer(m, opts).run();
  EXPECT_FALSE(bounded.violation.has_value()) << *bounded.violation;
  EXPECT_FALSE(bounded.hit_limit);
  EXPECT_GT(bounded.states_explored, 0u);
}

TEST(ReorderBound, StoreBufferStillViolatesAndBakeryStaysSafe) {
  // One buffered store per CPU is all the store-buffering reordering needs:
  // under the bound, both loads can still read 0.
  Explorer::Options sb_opts;
  const Machine sb = litmus_machine("store_buffer.lit", sb_opts);
  sb_opts.check = [](const Machine& m) -> std::optional<std::string> {
    if (!m.finished() || m.cpu(0).regs[0] != 0 || m.cpu(1).regs[0] != 0) {
      return std::nullopt;
    }
    return "both loads read 0";
  };
  sb_opts.max_pending_stores = 1;
  const ExploreResult r = Explorer(sb, sb_opts).run();
  ASSERT_TRUE(r.violation.has_value());

  // The bounded schedule replays step for step on the unbounded machine.
  Machine replay = sb;
  for (const Choice& c : r.violation_trace) {
    ASSERT_TRUE(replay.action_enabled(c.cpu, c.action));
    replay.step(c.cpu, c.action);
  }
  EXPECT_TRUE(check_state(replay, sb_opts).has_value());

  // The bounded graph is a subgraph of the machine's: the repaired bakery
  // stays SAFE under the bound, in fewer states than the 83,193 of the
  // unbounded run.
  Explorer::Options bk_opts;
  const Machine bk = litmus_machine("bakery.lit", bk_opts);
  bk_opts.max_pending_stores = 1;
  const ExploreResult safe = Explorer(bk, bk_opts).run();
  EXPECT_TRUE(safe.ok());
  EXPECT_LT(safe.states_explored, 83'193u);
}

}  // namespace
}  // namespace lbmf::sim
