// Multi-word cache lines and false sharing on the guarded line — a design
// consideration the LE/ST mechanism inherits from operating at coherence
// granularity: a remote access to a *neighbouring word* of the guarded
// line fires the guard (costing the primary a flush) even though the
// guarded location itself was never touched.
#include <gtest/gtest.h>

#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/sim/machine.hpp"

namespace lbmf::sim {
namespace {

SimConfig wide_cfg(std::size_t line_words) {
  SimConfig cfg;
  cfg.num_cpus = 2;
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  cfg.line_words = line_words;
  return cfg;
}

TEST(SimFalseShare, WholeLineFillsOnMiss) {
  Machine m(wide_cfg(4));
  m.set_memory(0, 10);
  m.set_memory(1, 11);
  m.set_memory(2, 12);
  m.set_memory(3, 13);
  ProgramBuilder b("r");
  b.load(0, 2).load(1, 0).load(2, 3).halt();  // one miss, then line hits
  ProgramBuilder idle("i");
  idle.halt();
  m.load_program(0, b.build());
  m.load_program(1, idle.build());
  m.step(0, Action::Execute);  // miss fills words 0..3
  const auto miss_traffic = m.cpu(0).counters.bus_transactions;
  m.step(0, Action::Execute);
  m.step(0, Action::Execute);
  EXPECT_EQ(m.cpu(0).counters.bus_transactions, miss_traffic);  // line hits
  EXPECT_EQ(m.cpu(0).regs[0], 12);
  EXPECT_EQ(m.cpu(0).regs[1], 10);
  EXPECT_EQ(m.cpu(0).regs[2], 13);
}

TEST(SimFalseShare, StoreToOneWordPreservesNeighbours) {
  SimConfig cfg = wide_cfg(4);
  cfg.num_cpus = 1;
  Machine m(cfg);
  m.set_memory(0, 100);
  m.set_memory(1, 101);
  m.set_memory(3, 103);
  ProgramBuilder b("w");
  b.store(2, 42).mfence();
  b.load(0, 0).load(1, 1).load(2, 2).load(3, 3).halt();
  m.load_program(0, b.build());
  m.run_round_robin();
  EXPECT_EQ(m.cpu(0).regs[0], 100);
  EXPECT_EQ(m.cpu(0).regs[1], 101);
  EXPECT_EQ(m.cpu(0).regs[2], 42);
  EXPECT_EQ(m.cpu(0).regs[3], 103);
  EXPECT_FALSE(m.check_coherence().has_value());
}

TEST(SimFalseShare, NeighbourAccessFiresTheGuard) {
  // CPU0 arms l-mfence on word 0; CPU1 reads word 1 — same line. The
  // guard MUST fire (the controller watches the line) even though the
  // guarded word itself is untouched.
  Machine m(wide_cfg(4));
  ProgramBuilder p("primary");
  p.lmfence(0, 1).halt();
  ProgramBuilder q("neighbour");
  q.load(reg::kObs0, 1).halt();  // word 1 shares line [0..3]
  m.load_program(0, p.build());
  m.load_program(1, q.build());
  for (int i = 0; i < 4; ++i) m.step(0, Action::Execute);
  ASSERT_TRUE(m.cpu(0).le_bit);
  m.step(1, Action::Execute);
  EXPECT_EQ(m.cpu(0).counters.link_breaks_remote, 1u);  // false sharing!
  EXPECT_FALSE(m.cpu(0).le_bit);
  EXPECT_TRUE(m.cpu(0).sb.empty());  // flushed, as the mechanism requires
  // And the reader still sees coherent data for its word.
  EXPECT_EQ(m.cpu(1).regs[reg::kObs0], 0);
  EXPECT_FALSE(m.check_coherence().has_value());
}

TEST(SimFalseShare, GuardOnWordOffTheLineBaseSatisfiesDefinition3) {
  // l-mfence on word 1 of the 4-word line [0..3]: once the guarded ST has
  // committed, Def. 3 must find the E/M line by its base, not by the
  // guarded word's address.
  Machine m(wide_cfg(4));
  ProgramBuilder p("primary");
  p.lmfence(1, 1).halt();
  ProgramBuilder q("neighbour");
  q.load(reg::kObs0, 2).halt();  // same line as the guarded word
  m.load_program(0, p.build());
  m.load_program(1, q.build());
  const Machine initial = m;
  for (int i = 0; i < 3; ++i) m.step(0, Action::Execute);  // SetLink, LE, ST
  ASSERT_TRUE(m.cpu(0).le_bit);
  ASSERT_EQ(m.cpu(0).sb.size(), 1u);
  const auto v = m.check_coherence();
  EXPECT_FALSE(v.has_value()) << *v;

  const ExploreResult r = explore_all(initial);
  EXPECT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_FALSE(r.hit_limit);
  EXPECT_GT(r.states_explored, 5u);
}

TEST(SimFalseShare, SeparateLinesDoNotInterfere) {
  // Same program, but the neighbour reads word 4 — the next line. The
  // guard must NOT fire.
  Machine m(wide_cfg(4));
  ProgramBuilder p("primary");
  p.lmfence(0, 1).halt();
  ProgramBuilder q("faraway");
  q.load(reg::kObs0, 4).halt();
  m.load_program(0, p.build());
  m.load_program(1, q.build());
  for (int i = 0; i < 4; ++i) m.step(0, Action::Execute);
  m.step(1, Action::Execute);
  EXPECT_EQ(m.cpu(0).counters.link_breaks_remote, 0u);
  EXPECT_TRUE(m.cpu(0).le_bit);  // link intact
}

TEST(SimFalseShare, DekkerStaysSafeWithColocatedFlags) {
  // Both Dekker flags on ONE line (addresses 0 and 1, line_words = 4):
  // heavy false sharing, constant guard breaking — but still correct.
  for (std::size_t words : {2u, 4u, 8u}) {
    const ExploreResult r = explore_all(make_dekker_machine(
        FenceKind::kLmfence, FenceKind::kMfence, wide_cfg(words)));
    ASSERT_FALSE(r.hit_limit)
        << "line_words=" << words << ": state budget hit, not SAFE";
    EXPECT_FALSE(r.violation.has_value())
        << "line_words=" << words << ": " << *r.violation;
  }
}

TEST(SimFalseShare, FenceFreeDekkerStillViolatesOnWideLines) {
  Explorer::Options opts;
  Explorer ex(make_dekker_machine(FenceKind::kNone, FenceKind::kNone,
                                  wide_cfg(4)),
              opts);
  const ExploreResult r = ex.run();
  EXPECT_TRUE(r.violation.has_value());
}

TEST(SimFalseShare, RandomSchedulesKeepInvariantsOnWideLines) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Machine m = make_dekker_machine(FenceKind::kLmfence, FenceKind::kMfence,
                                    wide_cfg(4));
    m.run_random(seed);
    EXPECT_FALSE(m.check_coherence().has_value()) << "seed=" << seed;
  }
}

TEST(SimFalseShare, PaddingRestoresTheFastPath) {
  // Quantify the false-sharing penalty: primary runs a solo l-mfence loop
  // while a neighbour repeatedly reads either (a) a word in the same line
  // or (b) a padded-away word. The colocated case must break the link
  // far more often.
  auto run_case = [](Addr probe_addr) {
    Machine m(wide_cfg(4));
    ProgramBuilder p("loop");
    p.mov(2, 50);
    p.label("top");
    p.lmfence(0, 1);
    p.delay(5);
    p.store(0, 0);
    p.add(2, -1);
    p.branch_ne(2, 0, "top");
    p.halt();
    ProgramBuilder q("probe");
    q.mov(2, 25);
    q.label("top");
    q.load(1, probe_addr);
    q.mfence();
    q.add(2, -1);
    q.branch_ne(2, 0, "top");
    q.halt();
    m.load_program(0, p.build());
    m.load_program(1, q.build());
    m.run_round_robin();
    return m.cpu(0).counters.link_breaks_remote;
  };

  const auto colocated = run_case(1);  // same line as the guarded word 0
  const auto padded = run_case(4);     // next line
  EXPECT_EQ(padded, 0u);
  EXPECT_GT(colocated, 5u);
}

}  // namespace
}  // namespace lbmf::sim
