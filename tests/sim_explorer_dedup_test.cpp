// Audit tests for the explorer engine itself (rather than the litmus
// verdicts it produces): fingerprint dedup must be indistinguishable from
// exact dedup, partial-order reduction must shrink the graph without
// changing any observable result, and the iterative DFS must survive path
// depths that would overflow a recursive implementation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/sim/program.hpp"

namespace lbmf::sim {
namespace {

SimConfig cfg_n(std::size_t cpus) {
  SimConfig cfg;
  cfg.num_cpus = cpus;
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  return cfg;
}

struct LitmusProgram {
  const char* name;
  Machine machine;
};

// Every bundled litmus machine, safe and violating alike. Exploration runs
// with stop_at_violation = false so the traversal is a deterministic
// function of the state graph even for the negative controls.
std::vector<LitmusProgram> bundled_litmus_programs() {
  std::vector<LitmusProgram> v;
  const FenceKind kinds[] = {FenceKind::kNone, FenceKind::kMfence,
                             FenceKind::kLmfence};
  for (FenceKind a : kinds) {
    for (FenceKind b : kinds) {
      v.push_back({"dekker", make_dekker_machine(a, b, cfg_n(2))});
      v.push_back({"peterson", make_peterson_machine(a, b, cfg_n(2))});
      v.push_back({"store_buffer", make_store_buffer_litmus(a, b, cfg_n(2))});
    }
  }
  v.push_back({"message_passing", make_message_passing_litmus(cfg_n(2))});
  v.push_back({"load_buffering", make_load_buffering_litmus(cfg_n(2))});
  v.push_back({"iriw", make_iriw_litmus(cfg_n(4))});
  return v;
}

Explorer::Options audit_options() {
  Explorer::Options opts;
  opts.observe = observe_obs0;
  opts.stop_at_violation = false;  // deterministic full traversal
  opts.max_states = 5'000'000;
  return opts;
}

// ------------------------------------------------------- collision audit

// 128-bit fingerprints replace full canonical keys in the visited set. A
// hash collision would silently merge two distinct states and change the
// traversal. Run every bundled litmus program both ways and require the
// results to be bit-for-bit identical — if fingerprinting ever lost a
// state, at least one counter or outcome set would diverge.
TEST(CollisionAudit, FingerprintMatchesExactDedupOnEveryLitmusProgram) {
  for (auto& p : bundled_litmus_programs()) {
    Explorer::Options opts = audit_options();
    opts.exact_dedup = false;
    const ExploreResult fp = explore_all(p.machine, opts);
    opts.exact_dedup = true;
    const ExploreResult exact = explore_all(p.machine, opts);

    ASSERT_FALSE(fp.hit_limit) << p.name;
    EXPECT_EQ(fp.states_explored, exact.states_explored) << p.name;
    EXPECT_EQ(fp.transitions, exact.transitions) << p.name;
    EXPECT_EQ(fp.terminal_states, exact.terminal_states) << p.name;
    EXPECT_EQ(fp.dedup_hits, exact.dedup_hits) << p.name;
    EXPECT_EQ(fp.outcomes, exact.outcomes) << p.name;
    EXPECT_EQ(fp.violation.has_value(), exact.violation.has_value()) << p.name;
    // Exact mode keeps whole canonical strings, costing more than the 16
    // bytes a fingerprint slot takes. (Absolute totals are not comparable
    // on graphs smaller than the fingerprint set's minimum capacity.)
    EXPECT_GT(exact.visited_bytes, exact.states_explored * 16) << p.name;
  }
}

// ------------------------------------------------- partial-order reduction

// POR must prune strictly (otherwise it is dead weight) while preserving
// every observable: terminal outcomes, terminal count reachability of a
// violation, for each bundled program.
TEST(PartialOrderReduction, StrictlyFewerStatesIdenticalOutcomes) {
  for (auto& p : bundled_litmus_programs()) {
    Explorer::Options opts = audit_options();
    opts.por = false;
    const ExploreResult full = explore_all(p.machine, opts);
    opts.por = true;
    const ExploreResult reduced = explore_all(p.machine, opts);

    ASSERT_FALSE(full.hit_limit) << p.name;
    EXPECT_LT(reduced.states_explored, full.states_explored) << p.name;
    EXPECT_LE(reduced.transitions, full.transitions) << p.name;
    EXPECT_EQ(reduced.outcomes, full.outcomes) << p.name;
    EXPECT_EQ(reduced.violation.has_value(), full.violation.has_value())
        << p.name;
  }
}

// ------------------------------------------------------------- deep chains

// A 30k-instruction straight-line program produces a single schedule of
// depth ~30k. The seed explorer recursed once per step and overflowed the
// stack well short of this; the iterative DFS just walks it.
TEST(DeepPrograms, RegisterChainThirtyThousandDeep) {
  constexpr int kLen = 30'000;
  ProgramBuilder b("deep_regs");
  for (int i = 0; i < kLen; ++i) b.add(0, 1);
  b.halt();
  Machine m(cfg_n(1));
  m.load_program(0, b.build());

  Explorer::Options opts;
  opts.max_states = 200'000;
  const ExploreResult r = explore_all(std::move(m), opts);
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_EQ(r.terminal_states, 1u);
  EXPECT_GE(r.states_explored, static_cast<std::uint64_t>(kLen));
}

// Same idea with stores: a long straight-line store chain through a
// 1-entry store buffer interleaves Execute/Drain, so DFS paths reach
// ~2x chain length and every frame is a real branch point.
TEST(DeepPrograms, StoreChainTwelveThousandDeep) {
  constexpr int kLen = 12'000;
  ProgramBuilder b("deep_stores");
  for (int i = 0; i < kLen; ++i) {
    b.store(addr::kScratchBase, static_cast<Word>(i & 0xff));
  }
  b.halt();
  SimConfig cfg = cfg_n(1);
  cfg.sb_capacity = 1;
  Machine m(cfg);
  m.load_program(0, b.build());

  Explorer::Options opts;
  opts.max_states = 500'000;
  const ExploreResult r = explore_all(std::move(m), opts);
  ASSERT_FALSE(r.hit_limit) << "state budget hit: inconclusive, not SAFE";
  ASSERT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_EQ(r.terminal_states, 1u);
  EXPECT_GE(r.states_explored, static_cast<std::uint64_t>(kLen));
}

// ------------------------------------------------------- small satellites

TEST(ExploreAllOverload, OptionsVariantHonoursEveryOption) {
  Explorer::Options opts;
  opts.observe = observe_obs0;
  opts.por = false;
  opts.max_states = 10;  // force the limit so we know opts was used
  const ExploreResult r = explore_all(
      make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence, cfg_n(2)),
      opts);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.states_explored, 10u);  // a sequential run stops exactly there
}

TEST(AnnotateSchedule, ReportsIndexOfFirstNotEnabledStep) {
  Machine m = make_dekker_machine(FenceKind::kMfence, FenceKind::kMfence,
                                  cfg_n(2));
  // Step 0 is legal (CPU0 executes its first instruction); step 1 asks CPU1
  // to drain an empty store buffer, which is never enabled from the start.
  const std::vector<Choice> schedule = {
      Choice{0, Action::Execute},
      Choice{1, Action::Drain},
  };
  const std::string annotated = annotate_schedule(std::move(m), schedule);
  EXPECT_NE(annotated.find("schedule step 1 not enabled"), std::string::npos)
      << annotated;
  EXPECT_EQ(annotated.find("schedule step 0"), std::string::npos) << annotated;
}

}  // namespace
}  // namespace lbmf::sim
