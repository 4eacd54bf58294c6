// Death tests: every LBMF_CHECK contract in the public surface must abort
// loudly (never corrupt silently) when violated.
#include <gtest/gtest.h>

#include <vector>

#include "lbmf/core/epoch.hpp"
#include "lbmf/core/lmfence.hpp"
#include "lbmf/core/safepoint.hpp"
#include "lbmf/dekker/biased_lock.hpp"
#include "lbmf/dekker/dekker.hpp"
#include "lbmf/dekker/peterson.hpp"
#include "lbmf/rwlock/rwlock.hpp"
#include "lbmf/sim/machine.hpp"
#include "lbmf/sim/program.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/ws/scheduler.hpp"
#include "lbmf/zoo/bakery.hpp"
#include "lbmf/zoo/futex_mutex.hpp"
#include "lbmf/zoo/spinlock.hpp"

namespace lbmf {
namespace {

TEST(ContractDeath, CheckMacroAborts) {
  EXPECT_DEATH(LBMF_CHECK(1 == 2), "LBMF_CHECK failed");
  EXPECT_DEATH(LBMF_CHECK_MSG(false, "custom detail"), "custom detail");
}

using IntGuardedLocation = GuardedLocation<int, SymmetricFence>;

TEST(ContractDeath, GuardedLocationDoubleBind) {
  EXPECT_DEATH(
      {
        IntGuardedLocation loc;
        loc.bind_primary();
        loc.bind_primary();
      },
      "already has a primary");
}

TEST(ContractDeath, GuardedLocationDestructionWhileBound) {
  EXPECT_DEATH(
      {
        IntGuardedLocation loc;
        loc.bind_primary();
      },
      "unbind_primary not called");
}

// Every single-primary lock registers through PrimaryBinding and must
// enforce its contract the same way.
template <typename Lock>
class SinglePrimaryDeath : public ::testing::Test {};

using SinglePrimaryLocks =
    ::testing::Types<AsymmetricDekker<SymmetricFence>,
                     AsymmetricPeterson<SymmetricFence>,
                     zoo::BiasedSpinlock<SymmetricFence>,
                     zoo::FutexMutex<SymmetricFence>,
                     zoo::BakeryLock<SymmetricFence, 3>>;
TYPED_TEST_SUITE(SinglePrimaryDeath, SinglePrimaryLocks);

TYPED_TEST(SinglePrimaryDeath, DoubleBind) {
  EXPECT_DEATH(
      {
        TypeParam lock;
        lock.bind_primary();
        lock.bind_primary();
      },
      "primary already bound");
}

TYPED_TEST(SinglePrimaryDeath, DestructionWhileBound) {
  EXPECT_DEATH(
      {
        TypeParam lock;
        lock.bind_primary();
        // destructor runs with the binding still live
      },
      "unbind_primary not called");
}

TEST(ContractDeath, BiasedLockDestructionWhileBiased) {
  EXPECT_DEATH(
      {
        BiasedLock<SymmetricFence> lock;
        lock.lock();  // claims the bias and registers the holder
        lock.unlock();
        // destroyed without release_bias()
      },
      "unbind_primary not called");
}

// Every slot pool aborts loudly on the registration past its capacity.
TEST(ContractDeath, EpochReaderSlotsExhausted) {
  using Domain = EpochDomain<SymmetricFence>;
  EXPECT_DEATH(
      {
        Domain d;
        std::vector<Domain::ReaderToken> tokens;
        for (std::size_t i = 0; i <= Domain::kMaxReaders; ++i) {
          tokens.push_back(d.register_reader());
        }
      },
      "slots exhausted");
}

TEST(ContractDeath, SafepointMutatorSlotsExhausted) {
  using Sp = Safepoint<SymmetricFence>;
  EXPECT_DEATH(
      {
        Sp sp;
        std::vector<Sp::MutatorToken> tokens;
        for (std::size_t i = 0; i <= Sp::kMaxMutators; ++i) {
          tokens.push_back(sp.register_mutator());
        }
      },
      "slots exhausted");
}

TEST(ContractDeath, RwLockReaderSlotsExhausted) {
  using Lock = BiasedRwLock<SymmetricFence>;
  EXPECT_DEATH(
      {
        Lock lock;
        std::vector<Lock::ReaderToken> tokens;
        for (std::size_t i = 0; i <= Lock::kMaxReaders; ++i) {
          tokens.push_back(lock.register_reader());
        }
      },
      "slots exhausted");
}

TEST(ContractDeath, SpawnOutsideScheduler) {
  EXPECT_DEATH(
      {
        ws::TaskGroupBase g;
        auto t = ws::ClosureTask(g, [] {});
        typename ws::Scheduler<SymmetricFence>::TaskGroup tg;
        tg.spawn(t);  // no worker thread context
      },
      "spawn outside a scheduler task");
}

TEST(ContractDeath, SimProgramWithoutHalt) {
  EXPECT_DEATH(
      {
        sim::ProgramBuilder b("nohalt");
        b.mov(0, 1);
        (void)b.build();
      },
      "halt");
}

TEST(ContractDeath, SimUndefinedLabel) {
  EXPECT_DEATH(
      {
        sim::ProgramBuilder b("badlabel");
        b.jump("nowhere").halt();
        (void)b.build();
      },
      "undefined label");
}

TEST(ContractDeath, SimNestedCriticalSection) {
  EXPECT_DEATH(
      {
        sim::SimConfig cfg;
        cfg.num_cpus = 1;
        sim::Machine m(cfg);
        sim::ProgramBuilder b("nested");
        b.cs_enter().cs_enter().cs_exit().cs_exit().halt();
        m.load_program(0, b.build());
        m.run_round_robin();
      },
      "nested critical section");
}

TEST(ContractDeath, SimStepWhenDisabled) {
  EXPECT_DEATH(
      {
        sim::SimConfig cfg;
        cfg.num_cpus = 1;
        sim::Machine m(cfg);
        sim::ProgramBuilder b("p");
        b.halt();
        m.load_program(0, b.build());
        m.step(0, sim::Action::Drain);  // empty store buffer
      },
      "action_enabled");
}

TEST(ContractDeath, SimInvalidConfig) {
  EXPECT_DEATH(
      {
        sim::SimConfig cfg;
        cfg.num_cpus = 0;
        sim::Machine m(cfg);
      },
      "LBMF_CHECK failed");
}

}  // namespace
}  // namespace lbmf
