// Incremental re-exploration and orbit-canonical candidate search.
//
// The engine's two scale-up levers must be invisible in every verdict:
// resuming candidate verifications from the persisted hole-independent
// prefix region (PrefixGraph) and collapsing placement orbits of declared
// symmetric CPUs must produce bit-identical optima to the cold, exact
// search — just with fewer explorer runs and fewer suffix states. These
// tests pin that equivalence on the real litmus protocols and exercise the
// graph's persistence format (save/load, key mismatch rejection).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "lbmf/infer/infer.hpp"

namespace lbmf::infer {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

InferProblem problem_from_file(const char* name) {
  const ProblemParse parse =
      problem_from_source(slurp(std::string(LBMF_LITMUS_DIR) + "/" + name));
  EXPECT_TRUE(parse.ok()) << name;
  return *parse.problem;
}

InferResult solve(const InferProblem& p, bool symmetry, bool incremental,
                  const PrefixGraph* graph = nullptr) {
  InferenceEngine::Options o;
  o.symmetry = symmetry;
  o.incremental = incremental;
  o.prefix_graph = graph;
  InferenceEngine engine(p, o);
  return engine.run();
}

// A temp path that is unique per test process; removed by each test.
std::string tmp_graph_path(const char* tag) {
  return ::testing::TempDir() + "lbmf_prefix_" + tag + ".bin";
}

// ----------------------------------------------------------- graph build

TEST(PrefixGraph, BuildsNonTrivialRegionForTwoThieves) {
  const InferProblem p = problem_from_file("the_deque_two_thieves.lit");
  const InferenceEngine::Options o;
  const PrefixGraph g =
      build_prefix_graph(p, InferenceEngine::explorer_options_for(p, o));
  ASSERT_TRUE(g.valid);
  EXPECT_TRUE(g.key == problem_graph_key(p));
  EXPECT_GT(g.base.states_explored, 0u);
  EXPECT_FALSE(g.seeds.empty());
  EXPECT_EQ(g.visited.size(), g.base.states_explored);
  // The region is hole-independent: no violation can be found there for a
  // protocol whose races all require executing through a hole.
  EXPECT_FALSE(g.base.violation.has_value());
}

TEST(PrefixGraph, KeyIgnoresFreqsAndCosts) {
  InferProblem p = problem_from_file("the_deque_two_thieves.lit");
  const Hash128 base_key = problem_graph_key(p);
  InferProblem hot = p;
  hot.cpu_freqs[0] *= 100;
  EXPECT_TRUE(problem_graph_key(hot) == base_key);
  InferProblem moved = p;
  moved.sites[0].instr_index += 1;
  EXPECT_FALSE(problem_graph_key(moved) == base_key);
}

TEST(PrefixGraph, SaveLoadRoundtripAndKeyMismatch) {
  const InferProblem p = problem_from_file("the_deque_two_thieves.lit");
  const InferenceEngine::Options o;
  const PrefixGraph g =
      build_prefix_graph(p, InferenceEngine::explorer_options_for(p, o));
  ASSERT_TRUE(g.valid);
  const std::string path = tmp_graph_path("roundtrip");
  ASSERT_TRUE(save_prefix_graph(g, path));

  PrefixGraph loaded;
  ASSERT_TRUE(load_prefix_graph(loaded, path, problem_graph_key(p)));
  EXPECT_TRUE(loaded.valid);
  EXPECT_EQ(loaded.seeds.size(), g.seeds.size());
  EXPECT_EQ(loaded.visited.size(), g.visited.size());
  EXPECT_EQ(loaded.base.states_explored, g.base.states_explored);
  for (std::size_t i = 0; i < g.seeds.size(); ++i) {
    EXPECT_EQ(loaded.seeds[i].arch, g.seeds[i].arch) << i;
    EXPECT_EQ(loaded.seeds[i].agenda.size(), g.seeds[i].agenda.size()) << i;
  }

  // A different problem's key must reject the file, leaving the graph
  // invalid (the caller then rebuilds cold).
  const InferProblem other = problem_from_file("chase_lev.lit");
  PrefixGraph rejected;
  EXPECT_FALSE(load_prefix_graph(rejected, path, problem_graph_key(other)));
  EXPECT_FALSE(rejected.valid);
  EXPECT_FALSE(load_prefix_graph(rejected, path + ".missing",
                                 problem_graph_key(p)));
  std::remove(path.c_str());
}

TEST(PrefixGraph, RefusesVersionOneFile) {
  // Version-1 files hold fingerprints of the serialized canonical state,
  // which no current fingerprint matches: preloading them would silently
  // re-explore the region. The same bytes under the old magic must be
  // refused.
  const InferProblem p = problem_from_file("dekker_holes.lit");
  const InferenceEngine::Options o;
  const PrefixGraph g =
      build_prefix_graph(p, InferenceEngine::explorer_options_for(p, o));
  ASSERT_TRUE(g.valid);
  const std::string path = tmp_graph_path("v1");
  ASSERT_TRUE(save_prefix_graph(g, path));
  PrefixGraph loaded;
  ASSERT_TRUE(load_prefix_graph(loaded, path, problem_graph_key(p)));

  std::string bytes = slurp(path);
  ASSERT_EQ(bytes.compare(0, 8, "LBMFPG2\n"), 0);
  bytes[6] = '1';
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  EXPECT_FALSE(load_prefix_graph(loaded, path, problem_graph_key(p)));
  EXPECT_FALSE(loaded.valid);
  std::remove(path.c_str());
}

// ----------------------------------------------------- cold/warm parity

// The core soundness pin: for each big protocol, the four combinations of
// {symmetry, incremental} must land on the same optimum at the same cost
// with a SAFE recheck; the reduced searches must do no more explorer runs
// than the exact one.
TEST(ColdWarmParity, VerdictsIdenticalAcrossAllEngineModes) {
  const char* files[] = {"the_deque_two_thieves.lit", "chase_lev.lit",
                         "biased_rwlock.lit"};
  for (const char* name : files) {
    const InferProblem p = problem_from_file(name);
    const InferResult exact = solve(p, false, false);
    ASSERT_EQ(exact.status, InferStatus::kSat) << name;
    for (const bool sym : {false, true}) {
      for (const bool inc : {false, true}) {
        if (!sym && !inc) continue;
        const InferResult r = solve(p, sym, inc);
        ASSERT_EQ(r.status, InferStatus::kSat) << name;
        EXPECT_EQ(r.best.kinds, exact.best.kinds) << name;
        EXPECT_EQ(r.best_cost, exact.best_cost) << name;
        EXPECT_TRUE(r.recheck_safe) << name;
        EXPECT_LE(r.candidates_verified, exact.candidates_verified) << name;
        if (inc) {
          EXPECT_GT(r.prefix_states, 0u) << name;
          EXPECT_GT(r.incremental_reuses, 0u) << name;
        } else {
          EXPECT_EQ(r.incremental_reuses, 0u) << name;
        }
      }
    }
  }
}

// The tentpole acceptance number: PR 5's engine needed 12 explorer runs for
// the two-thief lattice; symmetry + clause learning + incremental reuse
// must solve it in at most 4, at the same cost-3520 placement.
TEST(ColdWarmParity, TwoThievesSolvedInAtMostFourRuns) {
  const InferProblem p = problem_from_file("the_deque_two_thieves.lit");
  const InferResult r = solve(p, true, true);
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_LE(r.candidates_verified, 4u);
  EXPECT_EQ(r.best_cost, 3520.0);
  EXPECT_TRUE(r.recheck_safe);
  const std::vector<FenceKind> want = {
      FenceKind::kLmfence, FenceKind::kNone, FenceKind::kMfence,
      FenceKind::kNone,    FenceKind::kMfence, FenceKind::kNone};
  EXPECT_EQ(r.best.kinds, want);
}

// An externally supplied graph (the --graph-cache path) must be adopted:
// the engine reports the region it resumed from without rebuilding it.
TEST(ColdWarmParity, ExternalGraphIsAdopted) {
  const InferProblem p = problem_from_file("biased_rwlock.lit");
  InferenceEngine::Options o;
  const PrefixGraph g =
      build_prefix_graph(p, InferenceEngine::explorer_options_for(p, o));
  ASSERT_TRUE(g.valid);
  const InferResult r = solve(p, true, true, &g);
  ASSERT_EQ(r.status, InferStatus::kSat);
  EXPECT_EQ(r.prefix_states, g.base.states_explored);
  EXPECT_GT(r.incremental_reuses, 0u);
  EXPECT_TRUE(r.recheck_safe);
}

// ------------------------------------------------------------ sweep grid

// Across a sweep grid the warm engine reuses ONE region for every grid
// point (the graph key excludes freqs and costs); all optima must match
// the cold sweep bit-for-bit.
TEST(SweepIncremental, GridVerdictsBitIdenticalColdVsWarm) {
  const InferProblem p = problem_from_file("the_deque_two_thieves.lit");
  SweepOptions so;
  so.victim_freqs = {1, 1'000, 100'000};
  so.roundtrips = {150, 1'500};
  so.engine.incremental = false;
  const SweepResult cold = run_sweep(p, so);
  so.engine.incremental = true;
  const SweepResult warm = run_sweep(p, so);

  ASSERT_EQ(cold.points.size(), warm.points.size());
  for (std::size_t i = 0; i < cold.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].status, cold.points[i].status) << i;
    EXPECT_EQ(warm.points[i].best.kinds, cold.points[i].best.kinds) << i;
    EXPECT_EQ(warm.points[i].best_cost, cold.points[i].best_cost) << i;
    EXPECT_EQ(warm.points[i].recheck_safe, cold.points[i].recheck_safe) << i;
  }
  EXPECT_EQ(warm.crossovers.size(), cold.crossovers.size());
  EXPECT_GT(warm.prefix_states, 0u);
  EXPECT_GT(warm.incremental_reuses, 0u);
  EXPECT_EQ(cold.prefix_states, 0u);
  // The one-time region plus warm suffix work must not exceed cold work.
  EXPECT_LE(warm.states_total + warm.prefix_states, cold.states_total);
}

}  // namespace
}  // namespace lbmf::infer
