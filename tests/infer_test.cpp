#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lbmf/infer/infer.hpp"

namespace lbmf::infer {
namespace {

using sim::addr::kFlag0;
using sim::addr::kFlag1;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << "missing " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Test sources are self-contained so the suite does not depend on example
// files; the example-file tests below additionally pin the shipped .lit
// files to the same answers.
constexpr const char* kHoleyDekker = R"(
cpu 0:
  freq 1000
  ?fence [L1], 1
  load r0, [L2]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  ?fence [L1], 0
  halt
cpu 1:
  freq 1
  ?fence [L2], 1
  load r0, [L1]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  ?fence [L2], 0
  halt
)";

constexpr const char* kHoleySb = R"(
cpu 0:
  ?fence [x], 1
  load r0, [y]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
cpu 1:
  ?fence [y], 1
  load r0, [x]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
)";

// Both CPUs enter the critical section unconditionally: no fence anywhere
// can restore mutual exclusion.
constexpr const char* kHopeless = R"(
cpu 0:
  ?fence [x], 1
  cs_enter
  cs_exit
  halt
cpu 1:
  cs_enter
  cs_exit
  halt
)";

InferProblem parse(const std::string& src) {
  ProblemParse p = problem_from_source(src);
  EXPECT_TRUE(p.ok()) << (p.error ? p.error->message : "");
  return *p.problem;
}

// ------------------------------------------------------------- lattice basics

TEST(InferLattice, StrengthOrdersKinds) {
  EXPECT_LT(strength(FenceKind::kNone), strength(FenceKind::kLmfence));
  EXPECT_LT(strength(FenceKind::kLmfence), strength(FenceKind::kMfence));
}

TEST(InferLattice, WeakerEqualIsPointwise) {
  const Assignment bottom{{FenceKind::kNone, FenceKind::kNone}};
  const Assignment mixed{{FenceKind::kLmfence, FenceKind::kNone}};
  const Assignment top{{FenceKind::kMfence, FenceKind::kMfence}};
  EXPECT_TRUE(weaker_equal(bottom, mixed));
  EXPECT_TRUE(weaker_equal(mixed, top));
  EXPECT_TRUE(weaker_equal(bottom, bottom));
  EXPECT_FALSE(weaker_equal(top, mixed));
  // Incomparable: each stronger somewhere.
  const Assignment other{{FenceKind::kNone, FenceKind::kMfence}};
  EXPECT_FALSE(weaker_equal(mixed, other));
  EXPECT_FALSE(weaker_equal(other, mixed));
}

// ------------------------------------------------------------------- parsing

TEST(InferParse, HolesCarryCpuIndexAddrAndLine) {
  const InferProblem p = parse(kHoleyDekker);
  ASSERT_EQ(p.sites.size(), 4u);
  ASSERT_EQ(p.programs.size(), 2u);
  EXPECT_EQ(p.sites[0].cpu, 0u);
  EXPECT_EQ(p.sites[0].instr_index, 0u);
  EXPECT_EQ(p.sites[0].value, 1);
  EXPECT_EQ(p.sites[1].cpu, 0u);
  EXPECT_EQ(p.sites[1].value, 0);
  EXPECT_EQ(p.sites[2].cpu, 1u);
  EXPECT_EQ(p.sites[3].cpu, 1u);
  // Announce holes sit at the top of each program.
  EXPECT_EQ(p.sites[2].instr_index, 0u);
  // 1-based source lines, increasing.
  EXPECT_GT(p.sites[0].src_line, 0u);
  EXPECT_LT(p.sites[0].src_line, p.sites[1].src_line);
  EXPECT_LT(p.sites[1].src_line, p.sites[2].src_line);
  // The two flags resolve to distinct symbols.
  EXPECT_NE(p.sites[0].addr, p.sites[2].addr);
  EXPECT_EQ(p.location_name(p.sites[0].addr), "L1");
}

TEST(InferParse, FreqDirectiveIsPerCpu) {
  const InferProblem p = parse(kHoleyDekker);
  EXPECT_DOUBLE_EQ(p.cpu_freq(0), 1000.0);
  EXPECT_DOUBLE_EQ(p.cpu_freq(1), 1.0);
  // Out-of-range CPUs default to 1.0 rather than crashing.
  EXPECT_DOUBLE_EQ(p.cpu_freq(7), 1.0);
}

TEST(InferParse, FreqOutsideCpuSectionIsAnError) {
  const ProblemParse p = problem_from_source("freq 10\ncpu 0:\n  halt\n");
  EXPECT_FALSE(p.ok());
}

TEST(InferParse, DuplicateFreqIsAnError) {
  const ProblemParse p =
      problem_from_source("cpu 0:\n  freq 10\n  freq 20\n  halt\n");
  EXPECT_FALSE(p.ok());
}

TEST(InferParse, HoleWithoutLaterUseStillParses) {
  const ProblemParse p =
      problem_from_source("cpu 0:\n  ?fence [x], 1\n  halt\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.problem->sites.size(), 1u);
}

// ------------------------------------------------------------ instantiation

TEST(InferInstantiate, BranchTargetsAreRemappedAcrossInsertions) {
  InferProblem p;
  sim::ProgramBuilder b;
  b.mov(0, 0);                  // 0
  b.branch_eq(0, 1, "end");     // 1 -> old target 4
  b.store(kFlag0, 1);           // 2  (the site)
  b.load(1, kFlag1);            // 3
  b.label("end");
  b.halt();                     // 4
  p.programs.push_back(b.build());
  FenceSite s;
  s.cpu = 0;
  s.instr_index = 2;
  s.addr = kFlag0;
  s.value = 1;
  p.sites.push_back(s);
  p.config.num_cpus = 1;

  {
    const Instantiation none = instantiate(p, Assignment{{FenceKind::kNone}});
    EXPECT_EQ(none.programs[0].code.size(), 5u);
    EXPECT_EQ(none.site_pos[0], 2u);
    EXPECT_EQ(none.programs[0].code[1].target, 4);
  }
  {
    const Instantiation mf = instantiate(p, Assignment{{FenceKind::kMfence}});
    ASSERT_EQ(mf.programs[0].code.size(), 6u);
    EXPECT_EQ(mf.site_pos[0], 2u);
    EXPECT_EQ(mf.programs[0].code[3].op, sim::Op::kMfence);
    EXPECT_EQ(mf.programs[0].code[1].target, 5);  // shifted past the mfence
    EXPECT_EQ(mf.programs[0].code[5].op, sim::Op::kHalt);
  }
  {
    const Instantiation lm = instantiate(p, Assignment{{FenceKind::kLmfence}});
    // mov, beq, SetLink, LE, ST, BranchLinkSet, Mfence, load, halt
    ASSERT_EQ(lm.programs[0].code.size(), 9u);
    EXPECT_EQ(lm.site_pos[0], 4u);
    EXPECT_EQ(lm.programs[0].code[4].op, sim::Op::kStore);
    EXPECT_EQ(lm.programs[0].code[1].target, 8);  // beq over the expansion
    // The expansion's own branch skips only its trailing mfence.
    EXPECT_EQ(lm.programs[0].code[5].op, sim::Op::kBranchLinkSet);
    EXPECT_EQ(lm.programs[0].code[5].target, 7);
    EXPECT_EQ(lm.programs[0].code[8].op, sim::Op::kHalt);
  }
}

TEST(InferInstantiate, LmfenceExpansionMatchesProgramBuilder) {
  InferProblem p;
  sim::ProgramBuilder b;
  b.store(kFlag0, 1).load(0, kFlag1).halt();
  p.programs.push_back(b.build());
  FenceSite s;
  s.cpu = 0;
  s.instr_index = 0;
  s.addr = kFlag0;
  s.value = 1;
  p.sites.push_back(s);

  const Instantiation lm = instantiate(p, Assignment{{FenceKind::kLmfence}});
  sim::ProgramBuilder ref;
  ref.lmfence(kFlag0, 1).load(0, kFlag1).halt();
  const sim::Program want = ref.build();
  ASSERT_EQ(lm.programs[0].code.size(), want.code.size());
  for (std::size_t i = 0; i < want.code.size(); ++i) {
    EXPECT_EQ(sim::to_string(lm.programs[0].code[i]),
              sim::to_string(want.code[i]))
        << "instr " << i;
  }
}

TEST(InferInstantiate, DiscoverSitesFindsStoreLoadPoints) {
  sim::ProgramBuilder b0;
  b0.store(kFlag0, 1).load(0, kFlag1).store(kFlag0, 0).halt();
  sim::ProgramBuilder b1;
  b1.load(0, kFlag0).halt();
  std::vector<sim::Program> progs{b0.build(), b1.build()};
  const std::vector<FenceSite> sites = discover_sites(progs);
  // Only the first store has a later load; the trailing clear does not.
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].cpu, 0u);
  EXPECT_EQ(sites[0].instr_index, 0u);
  EXPECT_EQ(sites[0].addr, kFlag0);
}

// --------------------------------------------------------------------- costs

TEST(InferCost, FrequencyAsymmetryDrivesTheFig3Answer) {
  const InferProblem p = parse(kHoleyDekker);
  const model::CostTable c;
  // Hot primary: l-mfence (3 cycles x 1000) + one rare remote read round
  // trip beats an mfence per entry by ~30x.
  EXPECT_LT(site_cost(p, 0, FenceKind::kLmfence, c),
            site_cost(p, 0, FenceKind::kMfence, c));
  // Rare secondary: guarding its flag would bill every hot-side load the
  // LE/ST round trip; the plain mfence is far cheaper.
  EXPECT_LT(site_cost(p, 2, FenceKind::kMfence, c),
            site_cost(p, 2, FenceKind::kLmfence, c));
  // The bound is sound: never above the cost of any strengthening.
  const Assignment bottom = p.uniform(FenceKind::kNone);
  const Assignment asym{{FenceKind::kLmfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone}};
  EXPECT_LE(assignment_cost_lower_bound(p, bottom, c), assignment_cost(p, asym, c));
}

// -------------------------------------------------------------------- engine

InferResult run_engine(const std::string& src,
                       InferenceEngine::Options o = {}) {
  InferenceEngine e(parse(src), o);
  return e.run();
}

TEST(InferEngine, DekkerRecoversThePaperAsymmetricProtocol) {
  const InferResult r = run_engine(kHoleyDekker);
  ASSERT_EQ(r.status, InferStatus::kSat);
  const Assignment want{{FenceKind::kLmfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone}};
  EXPECT_EQ(r.best, want);
  // freq 1000 * 3 + 1 * (150 + 10) for the l-mfence, + 1 * 100 mfence.
  EXPECT_NEAR(r.best_cost, 3260.0, 0.5);
  EXPECT_TRUE(r.recheck_safe);
  EXPECT_FALSE(r.clauses.empty());
  // Every fence in the winner is load-bearing: dropping any breaks safety.
  // (Swapping mfence -> l-mfence can stay safe — just never cheaper here.)
  for (const MinimalityNote& n : r.minimality) {
    if (n.to == FenceKind::kNone) {
      EXPECT_FALSE(n.safe);
    }
  }
}

TEST(InferEngine, CounterexamplePruningBeatsNaiveEnumeration) {
  const InferResult guided = run_engine(kHoleyDekker);
  InferenceEngine::Options naive;
  naive.exhaustive = true;
  naive.minimality_pass = false;
  const InferResult full = run_engine(kHoleyDekker, naive);
  ASSERT_EQ(guided.status, InferStatus::kSat);
  ASSERT_EQ(full.status, InferStatus::kSat);
  // Same optimum, found with >= 4x fewer explorer runs and confirmed by a
  // fresh full-explorer recheck (the E16 gate).
  EXPECT_EQ(guided.best, full.best);
  EXPECT_DOUBLE_EQ(guided.best_cost, full.best_cost);
  EXPECT_TRUE(guided.recheck_safe);
  EXPECT_EQ(full.candidates_verified, full.lattice_size);
  EXPECT_GE(full.candidates_verified, guided.candidates_verified * 4);
}

TEST(InferEngine, StoreBufferNeedsAFenceOnBothSides) {
  const InferResult r = run_engine(kHoleySb);
  ASSERT_EQ(r.status, InferStatus::kSat);
  // Equal frequencies: the 100-cycle mfence undercuts the l-mfence's
  // 150-cycle remote round trip on both sides.
  const Assignment want{{FenceKind::kMfence, FenceKind::kMfence}};
  EXPECT_EQ(r.best, want);
  EXPECT_NEAR(r.best_cost, 200.0, 0.5);
  EXPECT_TRUE(r.recheck_safe);
  // The forbidden both-read-zero outcome means a single fence never
  // suffices: every single-site weakening is re-verified UNSAFE.
  int weakenings_checked = 0;
  for (const MinimalityNote& n : r.minimality) {
    if (n.to == FenceKind::kNone) {
      EXPECT_FALSE(n.safe);
      ++weakenings_checked;
    }
  }
  EXPECT_EQ(weakenings_checked, 2);
}

TEST(InferEngine, FenceIndependentViolationIsUnsat) {
  const InferResult r = run_engine(kHopeless);
  ASSERT_EQ(r.status, InferStatus::kUnsat);
  ASSERT_TRUE(r.unsat_violation.has_value());
  EXPECT_NE(r.unsat_violation->find("mutual exclusion"), std::string::npos);
  EXPECT_FALSE(r.unsat_trace.empty());
}

TEST(InferEngine, StateBudgetExhaustionReportsLimitNotSat) {
  InferenceEngine::Options o;
  o.max_states_per_check = 1;  // every check is inconclusive
  const InferResult r = run_engine(kHoleyDekker, o);
  // Regression: an exploration that hits its limit must never be taken as
  // proof of safety.
  EXPECT_EQ(r.status, InferStatus::kLimit);
}

TEST(InferEngine, BatchedVerificationFindsTheSameOptimum) {
  InferenceEngine::Options o;
  o.batch = 4;
  const InferResult batched = run_engine(kHoleyDekker, o);
  const InferResult serial = run_engine(kHoleyDekker);
  ASSERT_EQ(batched.status, InferStatus::kSat);
  EXPECT_EQ(batched.best, serial.best);
  EXPECT_DOUBLE_EQ(batched.best_cost, serial.best_cost);
  // Batching is the verifier's one parallel path, and it is deterministic:
  // a second solve at the same batch checks the same candidates, learns
  // the same clauses and explores the same states.
  const InferResult again = run_engine(kHoleyDekker, o);
  EXPECT_EQ(again.candidates_verified, batched.candidates_verified);
  EXPECT_EQ(again.clauses.size(), batched.clauses.size());
  EXPECT_EQ(again.states_total, batched.states_total);
}

TEST(InferEngine, LearningOffStillFindsTheOptimum) {
  InferenceEngine::Options o;
  o.learn_clauses = false;
  const InferResult r = run_engine(kHoleyDekker, o);
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_NEAR(r.best_cost, 3260.0, 0.5);
  EXPECT_TRUE(r.clauses.empty());
  EXPECT_EQ(r.candidates_pruned, 0u);
}

TEST(InferEngine, NoHolesIsTriviallySatWhenSafe) {
  const InferResult r = run_engine(
      "cpu 0:\n  store [x], 1\n  halt\ncpu 1:\n  load r0, [x]\n  halt\n");
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_TRUE(r.best.kinds.empty());
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
  EXPECT_TRUE(r.recheck_safe);
}

// ------------------------------------------------------------ shipped files

TEST(InferExamples, DekkerHolesFileMatchesThePaper) {
  const InferResult r =
      run_engine(slurp(std::string(LBMF_LITMUS_DIR) + "/dekker_holes.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  const Assignment want{{FenceKind::kLmfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone}};
  EXPECT_EQ(r.best, want);
  EXPECT_TRUE(r.recheck_safe);
}

TEST(InferExamples, PetersonHolesFencesOnlyTheLastAnnounceStore) {
  const InferResult r =
      run_engine(slurp(std::string(LBMF_LITMUS_DIR) + "/peterson_holes.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  ASSERT_EQ(r.best.kinds.size(), 4u);
  // FIFO store buffers: fencing turn (the last announce store) also orders
  // the flag store, so the flag holes stay empty on both sides.
  EXPECT_EQ(r.best.kinds[0], FenceKind::kNone);
  EXPECT_EQ(r.best.kinds[1], FenceKind::kLmfence);  // hot primary
  EXPECT_EQ(r.best.kinds[2], FenceKind::kNone);
  EXPECT_EQ(r.best.kinds[3], FenceKind::kMfence);   // rare secondary
  EXPECT_TRUE(r.recheck_safe);
}

TEST(InferExamples, StoreBufferHolesFileNeedsBothMfences) {
  const InferResult r = run_engine(
      slurp(std::string(LBMF_LITMUS_DIR) + "/store_buffer_holes.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  const Assignment want{{FenceKind::kMfence, FenceKind::kMfence}};
  EXPECT_EQ(r.best, want);
}

TEST(InferExamples, TheDequeHolesRecoverThePaperPlacement) {
  // The tentpole acceptance test: on the THE-deque pop/steal handshake
  // (victim hot at freq 1000) the engine must rediscover the paper's
  // Sec. 6 protocol — l-mfence on the victim's announce, mfence on the
  // thief's announce, nothing on either retreat.
  const InferResult r =
      run_engine(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  const Assignment want{{FenceKind::kLmfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone}};
  EXPECT_EQ(r.best, want);
  // Site A: f=1000 * lest_victim(3) + 1 remote load * (150 + 10) = 3160;
  // site C: f=1 * mfence(100). Total 3260.
  EXPECT_NEAR(r.best_cost, 3260.0, 0.5);
  EXPECT_TRUE(r.recheck_safe);
}

TEST(InferExamples, TwoThievesPlacementIsThiefCountIndependent) {
  // Adding a second thief must not change the shape of the inferred
  // protocol: the victim still pays exactly one l-mfence on its announce,
  // each thief pays its own mfence, and no retreat is fenced — the thief
  // placement is copied per thief, never strengthened.
  const InferResult r = run_engine(
      slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_two_thieves.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  const Assignment want{{FenceKind::kLmfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone,
                         FenceKind::kMfence, FenceKind::kNone}};
  EXPECT_EQ(r.best, want);
  // Site A: f=1000 * lest_victim(3) + 2 remote loads * (150 + 10) = 3320;
  // sites C and E: f=1 * mfence(100) each. Total 3520.
  EXPECT_NEAR(r.best_cost, 3520.0, 0.5);
  EXPECT_TRUE(r.recheck_safe);
}

TEST(InferExamples, BakeryHolesSolvesToTheCommittedRepair) {
  // The three-CPU bakery, pinned: the committed bakery.lit placement at
  // cost 7360. Most checks are refuted under the reorder bound, whose
  // counterexamples name one to three culprit sites each, so 8 clauses
  // settle the 19,683-point lattice in 9 checks.
  const InferProblem holes =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/bakery_holes.lit"));
  const InferProblem repaired =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/bakery.lit"));
  const InferResult r = InferenceEngine(holes, {}).run();
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_EQ(r.best_cost, 7360.0);
  EXPECT_TRUE(r.recheck_safe);
  const Instantiation inst = instantiate(holes, r.best);
  ASSERT_EQ(inst.programs.size(), repaired.programs.size());
  for (std::size_t c = 0; c < inst.programs.size(); ++c) {
    EXPECT_EQ(inst.programs[c].code, repaired.programs[c].code) << "cpu" << c;
  }
  EXPECT_EQ(r.candidates_verified, 9u);
  EXPECT_EQ(r.bounded_refutations, 4u);
  EXPECT_EQ(r.clauses.size(), 8u);
}

// ------------------------------------------------------------ symmetry

// Orbit canonicalization must be invisible in every verdict: on each big
// symmetric protocol the reduced search lands on the exact search's
// optimum at the same cost, with a SAFE recheck, in no more explorer
// checks.
TEST(InferSymmetry, SameOptimumWithAndWithoutSymmetry) {
  for (const char* name :
       {"the_deque_two_thieves.lit", "chase_lev.lit", "biased_rwlock.lit"}) {
    const std::string src = slurp(std::string(LBMF_LITMUS_DIR) + "/" + name);
    InferenceEngine::Options exact_opts;
    exact_opts.symmetry = false;
    const InferResult exact = run_engine(src, exact_opts);
    ASSERT_EQ(exact.status, InferStatus::kSat) << name;
    const InferResult r = run_engine(src);
    ASSERT_EQ(r.status, InferStatus::kSat) << name;
    EXPECT_EQ(r.best.kinds, exact.best.kinds) << name;
    EXPECT_EQ(r.best_cost, exact.best_cost) << name;
    EXPECT_TRUE(r.recheck_safe) << name;
    EXPECT_LE(r.candidates_verified, exact.candidates_verified) << name;
  }
}

// An engine without the symmetry reduction needed 12 explorer runs for the
// two-thief lattice; symmetry and clause learning solve it in at most 4, at
// the same cost-3520 placement.
TEST(InferSymmetry, TwoThievesSolvedInAtMostFourRuns) {
  const InferResult r = run_engine(
      slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_two_thieves.lit"));
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_LE(r.candidates_verified, 4u);
  EXPECT_EQ(r.best_cost, 3520.0);
  EXPECT_TRUE(r.recheck_safe);
  const std::vector<FenceKind> want = {
      FenceKind::kLmfence, FenceKind::kNone, FenceKind::kMfence,
      FenceKind::kNone,    FenceKind::kMfence, FenceKind::kNone};
  EXPECT_EQ(r.best.kinds, want);
}

// Every point of `p`'s fence lattice.
std::vector<Assignment> lattice_points(const InferProblem& p) {
  std::vector<Assignment> points{p.uniform(FenceKind::kNone)};
  for (std::size_t s = 0; s < p.sites.size(); ++s) {
    std::vector<FenceKind> kinds{FenceKind::kNone, FenceKind::kMfence};
    if (!p.sites[s].is_reg_store && !p.sites[s].no_lmfence) {
      kinds.push_back(FenceKind::kLmfence);
    }
    std::vector<Assignment> next;
    for (const Assignment& a : points) {
      for (FenceKind k : kinds) {
        Assignment b = a;
        b.kinds[s] = k;
        next.push_back(std::move(b));
      }
    }
    points = std::move(next);
  }
  return points;
}

// Store-buffering with one more store between each fence hole and the
// load: the load can only overtake the hole's store while both stores are
// buffered, so the unfenced placements violate only beyond the reorder
// bound of 1.
constexpr const char* kTwoPendingSb = R"(
cpu 0:
  ?fence [x], 1
  store [u], 1
  load r0, [y]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
cpu 1:
  ?fence [y], 1
  store [w], 1
  load r0, [x]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  halt
)";

TEST(InferEngine, CachedVerdictsMatchColdRunsAndTracesReplay) {
  // An audit of both passes: exhaustive mode caches a verdict for every
  // lattice point, from the bounded first pass where it finds a violation
  // and from the unbounded run otherwise. Each must be the verdict of a
  // plain cold exploration, and each cached counterexample a schedule of
  // the unbounded machine that ends in a state the explorer's checks flag.
  std::vector<std::pair<std::string, InferProblem>> problems;
  for (const char* name :
       {"dekker_holes.lit", "peterson_holes.lit", "store_buffer_holes.lit"}) {
    problems.emplace_back(
        name, parse(slurp(std::string(LBMF_LITMUS_DIR) + "/" + name)));
  }
  problems.emplace_back("two-pending SB", parse(kTwoPendingSb));
  std::uint64_t bounded = 0, violating = 0;
  for (const auto& [name, p] : problems) {
    VerdictCache cache;
    InferenceEngine::Options o;
    o.exhaustive = true;
    o.verdict_cache = &cache;
    const InferResult r = InferenceEngine(p, o).run();
    ASSERT_EQ(r.status, InferStatus::kSat) << name;
    EXPECT_EQ(cache.size(), r.lattice_size) << name;
    bounded += r.bounded_refutations;

    const sim::Explorer::Options eo =
        InferenceEngine::explorer_options_for(p, o);
    for (const Assignment& a : lattice_points(p)) {
      const std::optional<sim::ExploreResult> cached = cache.lookup(a.kinds);
      ASSERT_TRUE(cached.has_value()) << name << " " << to_string(a);
      const Instantiation inst = instantiate(p, a);
      const sim::ExploreResult cold =
          sim::Explorer(problem_machine(p, inst.programs), eo).run();
      ASSERT_FALSE(cold.hit_limit);
      EXPECT_EQ(cached->violation.has_value(), cold.violation.has_value())
          << name << " " << to_string(a);
      if (!cached->violation) continue;
      ++violating;
      sim::Machine m = problem_machine(p, inst.programs);
      for (const sim::Choice& c : cached->violation_trace) {
        ASSERT_TRUE(m.action_enabled(c.cpu, c.action))
            << name << " " << to_string(a);
        m.step(c.cpu, c.action);
      }
      EXPECT_TRUE(sim::check_state(m, eo).has_value())
          << name << " " << to_string(a);
    }
  }
  // Both passes supplied cached counterexamples.
  EXPECT_GT(bounded, 0u);
  EXPECT_LT(bounded, violating);
}

// ------------------------------------------------------------------- sweep

TEST(InferSweep, DequeFrontierMatchesHandCheckedGridPoints) {
  const InferProblem p =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  SweepOptions so;
  so.victim_freqs = {1, 1000};
  so.roundtrips = {10, 150};
  const SweepResult r = run_sweep(p, so);
  ASSERT_EQ(r.points.size(), 4u);
  ASSERT_TRUE(r.all_sat());

  auto at = [&](double f, double rt) -> const SweepPoint& {
    for (const SweepPoint& pt : r.points) {
      if (pt.victim_freq == f && pt.lest_roundtrip == rt) return pt;
    }
    ADD_FAILURE() << "missing grid point";
    return r.points.front();
  };
  // Hand-derived from CostTable defaults (see EXPERIMENTS.md E17):
  // slow victim at the paper's 150-cycle round-trip -> symmetric mfences
  // (victim l-mfence would cost 3+160=163 > 100).
  const Assignment sym{{FenceKind::kMfence, FenceKind::kNone,
                        FenceKind::kMfence, FenceKind::kNone}};
  // Hot victim -> the asymmetric mix (mfence would cost 1000*100).
  const Assignment mix{{FenceKind::kLmfence, FenceKind::kNone,
                        FenceKind::kMfence, FenceKind::kNone}};
  // Near-free remote trips -> even the rare thief goes l-mfence
  // (1*3 + 2*(10+10) = 43 < 100).
  const Assignment dbl{{FenceKind::kLmfence, FenceKind::kNone,
                        FenceKind::kLmfence, FenceKind::kNone}};
  EXPECT_EQ(at(1, 150).best, sym);
  EXPECT_EQ(at(1000, 150).best, mix);
  EXPECT_EQ(at(1, 10).best, dbl);
  EXPECT_NEAR(at(1000, 150).best_cost, 3260.0, 0.5);

  EXPECT_GE(r.distinct_optima_at(150), 2u);
  ASSERT_FALSE(r.crossovers.empty());
}

TEST(InferSweep, PolicyJsonCollapsesOptimaToRuntimeModes) {
  const InferProblem p =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  SweepOptions so;
  so.victim_freqs = {1, 1000};
  so.roundtrips = {10, 150};
  const SweepResult r = run_sweep(p, so);
  ASSERT_TRUE(r.all_sat());
  // Cells follow the hand-checked optima above: near-free trips put even
  // the slow victim on l-mfence (both announces l-mfence = the double
  // mode); at the paper's 150-cycle constant the slow victim is symmetric
  // and the hot one asymmetric.
  const std::string j = policy_table(r).to_json();
  EXPECT_NE(j.find("\"ratios\":[1,1000]"), std::string::npos) << j;
  EXPECT_NE(j.find("\"roundtrips\":[10,150]"), std::string::npos) << j;
  EXPECT_NE(j.find("\"modes\":[\"double-lmfence\",\"asymmetric\","
                   "\"symmetric\",\"asymmetric\"]"),
            std::string::npos)
      << j;
}

// policy_table on hand-built sweeps: the collapse rule alone, no solving.

constexpr FenceKind kN = FenceKind::kNone;
constexpr FenceKind kM = FenceKind::kMfence;
constexpr FenceKind kL = FenceKind::kLmfence;

/// A one-row sweep (round trip 150) over the given THE-deque-ordered
/// optima, one per victim freq 1, 10, 100, ...
SweepResult one_row_sweep(const std::vector<Assignment>& optima) {
  SweepResult r;
  r.roundtrips = {150};
  double freq = 1;
  for (const Assignment& a : optima) {
    SweepPoint p;
    p.victim_freq = freq;
    p.lest_roundtrip = 150;
    p.status = InferStatus::kSat;
    p.best = a;
    p.recheck_safe = true;
    r.victim_freqs.push_back(freq);
    r.points.push_back(p);
    freq *= 10;
  }
  return r;
}

TEST(InferPolicyTable, SatOptimaCollapseToTheThreeModes) {
  // The announce sites are 0 (victim) and 2 (thief); the retreat sites
  // 1 and 3 do not matter.
  const SweepResult r = one_row_sweep({
      Assignment{{kM, kN, kM, kN}},
      Assignment{{kL, kN, kM, kN}},
      Assignment{{kL, kM, kL, kM}},
      Assignment{{kM, kL, kL, kL}},  // thief light, victim not: symmetric
  });
  const adapt::PolicyTable t = policy_table(r);
  EXPECT_EQ(t.ratios(), (std::vector<double>{1, 10, 100, 1000}));
  EXPECT_EQ(t.roundtrips(), (std::vector<double>{150}));
  EXPECT_EQ(t.modes(), (std::vector<adapt::PolicyMode>{
                           adapt::PolicyMode::kSymmetric,
                           adapt::PolicyMode::kAsymmetric,
                           adapt::PolicyMode::kDoubleLmfence,
                           adapt::PolicyMode::kSymmetric}));
  EXPECT_TRUE(t.planes().empty());
}

TEST(InferPolicyTable, NonSatPointCollapsesToSymmetric) {
  // Whatever `best` holds at an UNSAT or LIMIT point is not a placement;
  // the always-safe regime stands in for it.
  SweepResult r = one_row_sweep({Assignment{{kL, kN, kL, kN}},
                                 Assignment{{kL, kN, kM, kN}}});
  r.points[0].status = InferStatus::kUnsat;
  r.points[1].status = InferStatus::kLimit;
  const adapt::PolicyTable t = policy_table(r);
  EXPECT_EQ(t.modes(), (std::vector<adapt::PolicyMode>{
                           adapt::PolicyMode::kSymmetric,
                           adapt::PolicyMode::kSymmetric}));
}

TEST(InferPolicyTable, BackendPlanesComeThroughByName) {
  SweepResult r = one_row_sweep({Assignment{{kM, kN, kM, kN}},
                                 Assignment{{kL, kN, kM, kN}}});
  SweepBackendPlane signal{"signal", false, r.points};
  SweepBackendPlane inverting{"membarrier-pair", true, r.points};
  inverting.points[0].best = Assignment{{kL, kN, kL, kN}};
  r.backend_planes = {signal, inverting};
  const adapt::PolicyTable t = policy_table(r);
  ASSERT_EQ(t.planes().size(), 2u);
  EXPECT_EQ(t.planes()[0].backend, "signal");
  EXPECT_EQ(t.planes()[1].backend, "membarrier-pair");
  EXPECT_EQ(t.lookup(1, 150, "signal"), adapt::PolicyMode::kSymmetric);
  EXPECT_EQ(t.lookup(1, 150, "membarrier-pair"),
            adapt::PolicyMode::kDoubleLmfence);
  EXPECT_EQ(t.lookup(10, 150, "membarrier-pair"),
            adapt::PolicyMode::kAsymmetric);
  // The base grid is untouched by the planes, and the planes survive the
  // JSON round trip.
  EXPECT_EQ(t.lookup(1, 150), adapt::PolicyMode::kSymmetric);
  const std::optional<adapt::PolicyTable> back =
      adapt::PolicyTable::from_json(t.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(InferSweep, JsonIsByteStableOnAHandBuiltSweep) {
  SweepResult r = one_row_sweep({Assignment{{kM, kN, kM, kN}},
                                 Assignment{{kL, kN, kM, kN}}});
  r.points[0].best_cost = 200;
  r.points[1].best_cost = 326.5;
  r.crossovers.push_back({150, 1, 10, to_string(r.points[0].best),
                          to_string(r.points[1].best)});
  r.explorer_runs = 3;
  r.cache_hits = 5;
  r.states_total = 1234;
  SweepBackendPlane signal{"signal", false, r.points};
  SweepBackendPlane inverting{"membarrier-pair", true, r.points};
  inverting.points[0].best = Assignment{{kL, kN, kL, kN}};
  inverting.points[1].status = InferStatus::kLimit;
  inverting.points[1].recheck_safe = false;
  r.backend_planes = {signal, inverting};
  const std::string point_1 =
      R"({"freq":1,"roundtrip":150,"status":"SAT",)"
      R"("optimum":"{mfence, none, mfence, none}","cost":200,)"
      R"("recheck_safe":true})";
  const std::string point_10 =
      R"({"freq":10,"roundtrip":150,"status":"SAT",)"
      R"("optimum":"{l-mfence, none, mfence, none}","cost":326.5,)"
      R"("recheck_safe":true})";
  EXPECT_EQ(
      sweep_to_json(r, "unit"),
      R"({"bench":"sweep","workload":"unit","victim_freqs":[1,10],)"
      R"("roundtrips":[150],"points":[)" +
          point_1 + "," + point_10 +
          R"(],"crossovers":[{"roundtrip":150,"freq_before":1,)"
          R"("freq_after":10,"from":"{mfence, none, mfence, none}",)"
          R"("to":"{l-mfence, none, mfence, none}"}],"explorer_runs":3,)"
          R"("cache_hits":5,"states_total":1234,"backend_planes":[)"
          R"({"backend":"signal","inverts_roles":false,"points":[)" +
          point_1 + "," + point_10 +
          R"(]},{"backend":"membarrier-pair","inverts_roles":true,)"
          R"("points":[{"freq":1,"roundtrip":150,"status":"SAT",)"
          R"("optimum":"{l-mfence, none, l-mfence, none}","cost":200,)"
          R"("recheck_safe":true},{"freq":10,"roundtrip":150,)"
          R"("status":"LIMIT","optimum":"{l-mfence, none, mfence, none}",)"
          R"("cost":326.5,"recheck_safe":false}]}]})");
}

TEST(InferSweep, GridSharesOneVerdictCacheAcrossPoints) {
  const InferProblem p =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  SweepOptions so;
  so.victim_freqs = {1, 10, 1000};
  so.roundtrips = {10, 150};
  const SweepResult r = run_sweep(p, so);
  ASSERT_TRUE(r.all_sat());
  // Safety verdicts are cost-independent, so across the 6-point grid the
  // explorer only runs for lattice points the first solve didn't already
  // settle; every later check is a cache hit.
  EXPECT_GT(r.cache_hits, 0u);
  EXPECT_LT(r.explorer_runs, r.cache_hits);
}

TEST(InferSweep, ExternalCacheIsSharedAndSurvivesTheSweep) {
  const InferProblem p =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  VerdictCache cache;
  SweepOptions so;
  so.victim_freqs = {1, 1000};
  so.roundtrips = {150};
  so.engine.verdict_cache = &cache;
  const SweepResult first = run_sweep(p, so);
  ASSERT_TRUE(first.all_sat());
  EXPECT_GT(cache.size(), 0u);
  // Re-running against the warm cache does zero new explorer work beyond
  // the per-point final recheck (which always bypasses the cache).
  const SweepResult second = run_sweep(p, so);
  ASSERT_TRUE(second.all_sat());
  EXPECT_GT(second.cache_hits, first.cache_hits);
  EXPECT_EQ(first.points[0].best, second.points[0].best);
  EXPECT_EQ(first.points[1].best, second.points[1].best);
}

TEST(InferSweep, JsonReportCarriesGridPointsAndCrossovers) {
  const InferProblem p =
      parse(slurp(std::string(LBMF_LITMUS_DIR) + "/the_deque_holes.lit"));
  SweepOptions so;
  so.victim_freqs = {1, 1000};
  so.roundtrips = {150};
  const SweepResult r = run_sweep(p, so);
  const std::string json = sweep_to_json(r, "unit");
  EXPECT_NE(json.find("\"bench\":\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"optimum\":\"{mfence, none, mfence, none}\""),
            std::string::npos);
  EXPECT_NE(json.find("\"optimum\":\"{l-mfence, none, mfence, none}\""),
            std::string::npos);
  EXPECT_NE(json.find("\"crossovers\":[{"), std::string::npos);
}

// ------------------------------------------------------------ solve report

// The report fence_inferencer --json and lbmf_extract --infer --json write,
// pinned byte for byte on the holey Dekker. The `#@` comments make the
// source_map appear; the search learns clauses and the minimality pass
// leaves notes.
constexpr const char* kProvenanceDekker = R"(
cpu 0:
  freq 1000
  ?fence [L1], 1     #@ dekker.hpp:10
  load r0, [L2]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  ?fence [L1], 0
  halt
cpu 1:
  ?fence [L2], 1     #@ dekker.hpp:20
  load r0, [L1]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  ?fence [L2], 0
  halt
)";

constexpr const char* kProvenanceDekkerReport = R"({
  "status": "SAT",
  "holes": 4,
  "lattice_size": 81,
  "candidates_generated": 36,
  "candidates_verified": 5,
  "bounded_refutations": 4,
  "candidates_pruned": 12,
  "states_total": 1912,
  "cache_hits": 0,
  "best_cost": 3260,
  "recheck_safe": true,
  "placement": [
    {"site": "cpu0@0[L1]=1", "line": 4, "fence": "l-mfence"},
    {"site": "cpu0@5[L1]=0", "line": 10, "fence": "none"},
    {"site": "cpu1@0[L2]=1", "line": 13, "fence": "mfence"},
    {"site": "cpu1@5[L2]=0", "line": 19, "fence": "none"}
  ],
  "source_map": [
    {"site": "cpu0@0[L1]=1", "fence": "l-mfence", "source": "dekker.hpp:10"},
    {"site": "cpu0@5[L1]=0", "fence": "none", "source": ""},
    {"site": "cpu1@0[L2]=1", "fence": "mfence", "source": "dekker.hpp:20"},
    {"site": "cpu1@5[L2]=0", "fence": "none", "source": ""}
  ],
  "clauses": ["strengthen one of: cpu0@0[L1]=1 beyond none; cpu1@0[L2]=1 beyond none", "strengthen one of: cpu0@0[L1]=1 beyond none; cpu1@0[L2]=1 beyond l-mfence", "strengthen one of: cpu0@0[L1]=1 beyond none", "strengthen one of: cpu1@0[L2]=1 beyond none"],
  "minimality": [
    {"site": "cpu0@0[L1]=1", "from": "l-mfence", "to": "none", "safe": false, "cost_delta": -3160},
    {"site": "cpu0@0[L1]=1", "from": "l-mfence", "to": "mfence", "safe": true, "cost_delta": 96840},
    {"site": "cpu1@0[L2]=1", "from": "mfence", "to": "none", "safe": false, "cost_delta": -100}
  ]
})";

TEST(InferReport, JsonIsByteStableWithSourceMapClausesAndMinimality) {
  const InferProblem p = parse(kProvenanceDekker);
  InferenceEngine engine(p, {});
  const InferResult r = engine.run();
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_EQ(result_to_json(p, r), kProvenanceDekkerReport);
  // A protocol name rides first; the rest of the report is unchanged.
  const std::string named = result_to_json(p, r, "dekker");
  EXPECT_EQ(named, "{\n  \"protocol\": \"dekker\"," +
                       std::string(kProvenanceDekkerReport).substr(1));
}

}  // namespace
}  // namespace lbmf::infer
