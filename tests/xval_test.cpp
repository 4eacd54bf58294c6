// lbmf::xval unit tests: the pieces of the hardware cross-validation
// harness that do NOT need a multi-core x86 host — the observation
// schema, the reachable/violating set computation (pure simulator, on the
// lowering the native leg runs), the observed-vs-reachable differ (fed
// hand-built inputs, including a deliberately weakened model that must be
// reported unsound), and the JSON artifact writer. The native stress leg itself runs when the host
// allows (>= 2 CPUs, x86-64) and skips loudly otherwise — the CI gate
// script exercises it for real on the x86 runners.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/xval/xval.hpp"

namespace lbmf::xval {
namespace {

// Classic SB: both-zero is TSO-reachable; four terminal outcomes total.
constexpr const char* kStoreBuffer = R"(
cpu 0:
  store [x], 1
  load r0, [y]
  halt
cpu 1:
  store [y], 1
  load r0, [x]
  halt
)";

// Fig. 1 with no fences: the both-enter interleaving violates mutual
// exclusion, so its terminal outcome lands in the violating (tainted) set.
constexpr const char* kBrokenDekker = R"(
cpu 0:
  store [L1], 1
  load r0, [L2]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
cpu 1:
  store [L2], 1
  load r0, [L1]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
)";

sim::AssembleResult assemble_or_die(const std::string& src) {
  sim::AssembleResult r = sim::assemble(src);
  EXPECT_TRUE(r.ok()) << (r.error ? r.error->to_string() : "");
  return r;
}

sim::AssembleResult assemble_litmus(const std::string& name) {
  const std::string path = std::string(LBMF_LITMUS_DIR) + "/" + name + ".lit";
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << "missing " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return assemble_or_die(ss.str());
}

// One unchecked exploration of every terminal observation, on the
// harness's machine geometry, with the LE/ST link armable or not.
std::set<std::string> unchecked_outcomes(const sim::AssembleResult& lit,
                                         bool le_st) {
  sim::SimConfig cfg;
  cfg.num_cpus = lit.programs.size();
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  cfg.le_st_enabled = le_st;
  sim::Machine m(cfg);
  for (const auto& [a, v] : lit.initial_memory) m.set_memory(a, v);
  for (std::size_t i = 0; i < lit.programs.size(); ++i) {
    m.load_program(i, lit.programs[i]);
  }
  const ObservationSchema schema = ObservationSchema::from(lit);
  sim::Explorer::Options o;
  o.check_mutual_exclusion = false;
  o.stop_at_violation = false;
  o.observe = [&schema](const sim::Machine& s) {
    return schema.format(
        [&](std::size_t c, unsigned r) { return s.cpu(c).regs[r]; },
        [&](sim::Addr a) { return s.coherent_value(a); },
        [&](std::size_t c) { return !s.cpu(c).halted; });
  };
  sim::ExploreResult r = sim::explore_all(std::move(m), o);
  EXPECT_FALSE(r.hit_limit);
  EXPECT_FALSE(r.violation) << *r.violation;
  return std::move(r.outcomes);
}

// ------------------------------------------------------------- schema

TEST(XvalSchema, CoversRegistersAndLocations) {
  const sim::AssembleResult a = assemble_or_die(kStoreBuffer);
  const ObservationSchema s = ObservationSchema::from(a);
  ASSERT_EQ(s.reg_masks.size(), 2u);
  EXPECT_EQ(s.reg_masks[0], 1u);  // r0 written on each cpu
  EXPECT_EQ(s.reg_masks[1], 1u);
  ASSERT_EQ(s.locations.size(), 2u);  // x and y, named, ascending
  EXPECT_LT(s.locations[0].first, s.locations[1].first);
}

TEST(XvalSchema, FormatIsDeterministic) {
  const sim::AssembleResult a = assemble_or_die(kStoreBuffer);
  const ObservationSchema s = ObservationSchema::from(a);
  const std::string out = s.format(
      [](std::size_t, unsigned r) { return static_cast<sim::Word>(r); },
      [](sim::Addr) { return sim::Word{7}; },
      [](std::size_t cpu) { return cpu == 1; });
  // cpu1 is stuck (marked '!'), registers and memory appear in order.
  EXPECT_NE(out.find("cpu0{r0=0}"), std::string::npos);
  EXPECT_NE(out.find("cpu1!{r0=0}"), std::string::npos);
  EXPECT_NE(out.find("=7"), std::string::npos);
}

// ------------------------------------------------- reachable/violating

TEST(XvalReachable, StoreBufferHasFourOutcomesNoTaint) {
  const sim::AssembleResult a = assemble_or_die(kStoreBuffer);
  const ObservationSchema s = ObservationSchema::from(a);
  const ReachableSets sets = compute_reachable(a, s);
  EXPECT_TRUE(sets.complete);
  EXPECT_EQ(sets.reachable.size(), 4u);  // r0 in {0,1} on each cpu
  EXPECT_TRUE(sets.violating.empty());
  EXPECT_EQ(sets.safe.size(), 4u);
}

TEST(XvalReachable, BrokenDekkerTaintsTheBothZeroOutcome) {
  const sim::AssembleResult a = assemble_or_die(kBrokenDekker);
  const ObservationSchema s = ObservationSchema::from(a);
  const ReachableSets sets = compute_reachable(a, s);
  EXPECT_TRUE(sets.complete);
  EXPECT_GT(sets.violating_states, 0u);
  // The violating interleavings all terminate with both flags set and
  // both r0 reads zero — the store-buffer outcome of Fig. 1.
  ASSERT_EQ(sets.violating.size(), 1u);
  const std::string& tainted = *sets.violating.begin();
  EXPECT_NE(tainted.find("cpu0{r0=0}"), std::string::npos);
  EXPECT_NE(tainted.find("cpu1{r0=0}"), std::string::npos);
  // Tainted outcomes are also reachable outcomes.
  EXPECT_TRUE(sets.reachable.count(tainted));
}

// The native leg runs l-mfence as load; store; mfence, so the oracle is
// the lowered machine. In the window between LE and the guarded store
// LE/ST is strictly stronger: with the link armed, cpu 1's load of `turn`
// drains cpu 0's buffered flag0 store first, so LE/ST forbids the two
// outcomes in which both CPUs read turn == 0 before either store of it
// landed. TSO gives them to the lowered program, and they are safe: cpu 1
// leaves its critical section before cpu 0 enters.
TEST(XvalReachable, PetersonLmfenceExploresTheLoweredProgram) {
  const sim::AssembleResult a = assemble_litmus("peterson_lmfence");
  const ReachableSets sets = compute_reachable(a, ObservationSchema::from(a));
  EXPECT_TRUE(sets.complete);
  EXPECT_TRUE(sets.violating.empty());
  EXPECT_EQ(sets.reachable.size(), 24u);

  const std::set<std::string> lest = unchecked_outcomes(a, /*le_st=*/true);
  EXPECT_EQ(lest.size(), 22u);
  std::set<std::string> lowered_only;
  for (const std::string& o : sets.reachable) {
    if (lest.count(o) == 0) lowered_only.insert(o);
  }
  const std::set<std::string> want = {
      "cpu0{r0=0 r1=0 r7=0} cpu1{r0=0 r1=0 r7=0} mem{flag0=0 turn=1 flag1=0}",
      "cpu0{r0=0 r1=0 r7=0} cpu1{r0=0 r1=0 r7=0} mem{flag0=0 turn=2 flag1=0}"};
  EXPECT_EQ(lowered_only, want);
  for (const std::string& o : lest) {
    EXPECT_TRUE(sets.reachable.count(o)) << "LE/ST only: " << o;
  }
}

// reachable is computed as safe ∪ violating; on every litmus the xval
// gates run it must equal a plain unchecked exploration of the lowered
// machine.
TEST(XvalReachable, SafeUnionViolatingIsTheWholeLoweredGraph) {
  for (const char* name :
       {"store_buffer", "asymmetric_dekker", "peterson_lmfence", "spinlock",
        "futex_mutex", "bakery", "broken_dekker", "store_buffer_holes",
        "peterson_holes", "spinlock_holes"}) {
    const sim::AssembleResult a = assemble_litmus(name);
    const ReachableSets sets =
        compute_reachable(a, ObservationSchema::from(a));
    EXPECT_TRUE(sets.complete) << name;
    EXPECT_EQ(sets.reachable, unchecked_outcomes(a, /*le_st=*/false))
        << name;
  }
}

// ------------------------------------------------------------- differ

NativeResult fake_native() {
  NativeResult n;
  n.iterations = 100;
  n.observed["cpu0{r0=0} cpu1{r0=1} mem{x=1 y=1}"] = 60;
  n.observed["cpu0{r0=0} cpu1{r0=0} mem{x=1 y=1}"] = 40;
  return n;
}

TEST(XvalDiff, SoundModelExplainsEverything) {
  ReachableSets sets;
  sets.reachable = {"cpu0{r0=0} cpu1{r0=1} mem{x=1 y=1}",
                    "cpu0{r0=0} cpu1{r0=0} mem{x=1 y=1}",
                    "cpu0{r0=1} cpu1{r0=1} mem{x=1 y=1}"};
  sets.safe = sets.reachable;
  const XvalReport rep = diff_outcomes("sb", fake_native(), sets);
  EXPECT_TRUE(rep.model_sound());
  EXPECT_TRUE(rep.unexplained.empty());
  // The never-observed outcome is coverage, not error.
  ASSERT_EQ(rep.unobserved.size(), 1u);
  EXPECT_EQ(rep.unobserved[0], "cpu0{r0=1} cpu1{r0=1} mem{x=1 y=1}");
  EXPECT_NEAR(rep.coverage(), 2.0 / 3.0, 1e-9);
}

// The acceptance-critical direction: weaken the model (drop the TSO
// store-buffer outcome from the reachable set, as an SC-only simulator
// would) and the differ must flag the hardware observation as
// unexplained — observed ⊄ reachable is a model-soundness failure.
TEST(XvalDiff, WeakenedModelIsReportedUnsound) {
  ReachableSets sc_only;
  sc_only.reachable = {"cpu0{r0=0} cpu1{r0=1} mem{x=1 y=1}",
                       "cpu0{r0=1} cpu1{r0=1} mem{x=1 y=1}"};
  sc_only.safe = sc_only.reachable;
  const XvalReport rep = diff_outcomes("sb-sc", fake_native(), sc_only);
  EXPECT_FALSE(rep.model_sound());
  ASSERT_EQ(rep.unexplained.size(), 1u);
  EXPECT_EQ(rep.unexplained[0], "cpu0{r0=0} cpu1{r0=0} mem{x=1 y=1}");
}

TEST(XvalDiff, ViolatingObservationsAreCounted) {
  ReachableSets sets;
  sets.reachable = {"cpu0{r0=0} cpu1{r0=1} mem{x=1 y=1}",
                    "cpu0{r0=0} cpu1{r0=0} mem{x=1 y=1}"};
  sets.safe = {"cpu0{r0=0} cpu1{r0=1} mem{x=1 y=1}"};
  sets.violating = {"cpu0{r0=0} cpu1{r0=0} mem{x=1 y=1}"};
  const XvalReport rep = diff_outcomes("bd", fake_native(), sets);
  EXPECT_TRUE(rep.model_sound());  // tainted outcomes are still reachable
  EXPECT_EQ(rep.violations_observed, 40u);
}

// ------------------------------------------------------------- native leg

TEST(XvalNative, StressRunsWhenHostAllows) {
  std::string reason;
  if (!native_host_supported(2, &reason)) {
    GTEST_SKIP() << "native leg unsupported here: " << reason;
  }
  const sim::AssembleResult a = assemble_or_die(kStoreBuffer);
  const ObservationSchema s = ObservationSchema::from(a);
  NativeOptions opts;
  opts.iterations = 2'000;
  const NativeResult n = run_native(a, s, opts);
  EXPECT_EQ(n.iterations, 2'000u);
  EXPECT_EQ(n.wedged_iterations, 0u);
  EXPECT_GE(n.observed.size(), 1u);
  // Every observation must be simulator-reachable (model soundness).
  const ReachableSets sets = compute_reachable(a, s);
  for (const auto& [obs, count] : n.observed) {
    EXPECT_TRUE(sets.reachable.count(obs)) << "unexplained: " << obs;
  }
}

// ------------------------------------------------------------------ JSON

TEST(XvalJson, ReportSerializes) {
  ReachableSets sets;
  sets.reachable = {"a", "b"};
  sets.safe = {"a"};
  sets.violating = {"b"};
  NativeResult n;
  n.iterations = 10;
  n.observed["a"] = 9;
  n.observed["b"] = 1;
  XvalReport rep = diff_outcomes("demo", n, sets);
  rep.arch = "x86_64";
  rep.online_cpus = 4;
  const std::string j = to_json(rep);
  EXPECT_NE(j.find("\"xval\":\"demo\""), std::string::npos);
  EXPECT_NE(j.find("\"model_sound\":true"), std::string::npos);
  EXPECT_NE(j.find("\"violations_observed\":1"), std::string::npos);
  EXPECT_NE(j.find("\"reachable\""), std::string::npos);
  // Nothing unexplained: the array must be empty.
  EXPECT_EQ(j.find("\"unexplained\":[\""), std::string::npos);
  EXPECT_EQ(
      j,
      R"({"xval":"demo","arch":"x86_64","online_cpus":4,"skipped":false,)"
      R"("skip_reason":"","iterations":10,"wedged_iterations":0,)"
      R"("model_sound":true,"conclusive":true,"coverage":1.0000,)"
      R"("violations_observed":1,"sim":{"states_explored":0,)"
      R"("violating_states":0,"complete":true,"violation":"",)"
      R"("reachable":["a","b"],"safe":["a"],"violating":["b"]},)"
      R"("observed":{"a":9,"b":1},"unexplained":[],"unobserved":[]})"
      "\n");
}

TEST(XvalJson, SkipReasonIsEscaped) {
  XvalReport rep;
  rep.litmus = "demo";
  rep.skipped = true;
  rep.skip_reason = "no \"x86\" here\nsee dmesg";
  const std::string j = to_json(rep);
  EXPECT_NE(j.find(R"("skip_reason":"no \"x86\" here\nsee dmesg")"),
            std::string::npos)
      << j;
  // The only raw newline is the one that ends the report.
  EXPECT_EQ(j.find('\n'), j.size() - 1) << j;
}

}  // namespace
}  // namespace lbmf::xval
