// Mutex-zoo conformance: every lock in include/lbmf/zoo/ (plus Peterson,
// the zoo's fourth member, from lbmf/dekker/) runs a mutual-exclusion
// pound and a completion/fairness smoke against both drain mechanisms
// {signal, membarrier-pair} in the asymmetric regime — the regime the zoo
// locks implement (hot side announces with an l-mfence, cold side
// serializes the hot side remotely). Mechanisms the host cannot run skip
// loudly, never pass vacuously.
//
// Mutual exclusion: a plain (non-atomic) counter incremented only inside
// the critical section, plus an overlap detector — any lost increment or
// concurrent entry fails. Fairness smoke: the locks are blocking, so each
// role finishing its full quota within the test timeout is the liveness
// assertion; the counter equality is the proof that no round was dropped.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/zoo/zoo.hpp"

namespace lbmf {
namespace {

using adapt::AdaptiveFence;
using adapt::BackendId;
using adapt::PolicyMode;

constexpr std::uint64_t kRounds = 1'000;

// Shared counting harness: every lock exercises the same detector.
struct CsProbe {
  std::atomic<int> in_cs{0};
  std::atomic<int> violations{0};
  std::uint64_t guarded = 0;  // plain: only ever touched inside a CS

  void enter() {
    if (in_cs.exchange(1, std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    ++guarded;
    for (int spin = 0; spin < 16; ++spin) compiler_fence();
    in_cs.store(0, std::memory_order_relaxed);
  }
};

// Bind the calling (primary) thread's handle to `id` in the asymmetric
// regime; false (plus a loud skip by the caller) when the backend cannot.
void bind_asymmetric(const AdaptiveFence::Handle& h, BackendId id) {
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(AdaptiveFence::request_backend(h, id));
  EXPECT_TRUE(AdaptiveFence::request_mode(h, PolicyMode::kAsymmetric));
  AdaptiveFence::quiescent_point(h);  // no announce in flight yet
  EXPECT_EQ(AdaptiveFence::current_backend(h), id);
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kAsymmetric);
}

bool backend_usable(BackendId id) {
  return adapt::realize(PolicyMode::kAsymmetric, id, membarrier::available(),
                        /*signal_slot_valid=*/true) ==
         PolicyMode::kAsymmetric;
}

// ---------------------------------------------------------------- Peterson

void peterson_conformance(BackendId id) {
  if (!backend_usable(id)) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }
  AsymmetricPeterson<AdaptiveFence> mtx;
  CsProbe probe;
  std::atomic<bool> ready{false};
  std::atomic<bool> secondary_done{false};

  std::thread primary([&] {
    mtx.bind_primary();
    bind_asymmetric(mtx.primary_handle(), id);
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      mtx.lock_primary();
      probe.enter();
      mtx.unlock_primary();
    }
    while (!secondary_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    mtx.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread secondary([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      mtx.lock_secondary();
      probe.enter();
      mtx.unlock_secondary();
    }
    secondary_done.store(true, std::memory_order_release);
  });

  secondary.join();
  primary.join();
  EXPECT_EQ(probe.violations.load(), 0);
  EXPECT_EQ(probe.guarded, 2 * kRounds);
}

TEST(ZooPeterson, Signal) { peterson_conformance(BackendId::kSignal); }
TEST(ZooPeterson, MembarrierPair) {
  peterson_conformance(BackendId::kMembarrierPair);
}

// ---------------------------------------------------------------- spinlock

void spinlock_conformance(BackendId id) {
  if (!backend_usable(id)) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }
  constexpr int kContenders = 2;
  zoo::BiasedSpinlock<AdaptiveFence> mtx;
  CsProbe probe;
  std::atomic<bool> ready{false};
  std::atomic<int> contenders_done{0};

  std::thread owner([&] {
    mtx.bind_primary();
    bind_asymmetric(mtx.primary_handle(), id);
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      mtx.lock_primary();
      probe.enter();
      mtx.unlock_primary();
    }
    while (contenders_done.load(std::memory_order_acquire) < kContenders) {
      std::this_thread::yield();
    }
    mtx.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<std::thread> contenders;
  for (int c = 0; c < kContenders; ++c) {
    contenders.emplace_back([&] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        mtx.lock_secondary();
        probe.enter();
        mtx.unlock_secondary();
      }
      contenders_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : contenders) t.join();
  owner.join();
  EXPECT_EQ(probe.violations.load(), 0);
  EXPECT_EQ(probe.guarded, (1 + kContenders) * kRounds);
}

TEST(ZooSpinlock, Signal) { spinlock_conformance(BackendId::kSignal); }
TEST(ZooSpinlock, MembarrierPair) {
  spinlock_conformance(BackendId::kMembarrierPair);
}

// ------------------------------------------------------------------ bakery

void bakery_conformance(BackendId id) {
  if (!backend_usable(id)) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }
  constexpr std::size_t kThreads = 3;
  zoo::BakeryLock<AdaptiveFence, kThreads> mtx;
  CsProbe probe;
  std::atomic<bool> ready{false};
  std::atomic<std::size_t> secondaries_done{0};

  std::thread primary([&] {
    mtx.bind_primary();
    bind_asymmetric(mtx.primary_handle(), id);
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      mtx.lock(0);
      probe.enter();
      mtx.unlock(0);
    }
    while (secondaries_done.load(std::memory_order_acquire) < kThreads - 1) {
      std::this_thread::yield();
    }
    mtx.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<std::thread> secondaries;
  for (std::size_t i = 1; i < kThreads; ++i) {
    secondaries.emplace_back([&, i] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        mtx.lock(i);
        probe.enter();
        mtx.unlock(i);
      }
      secondaries_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : secondaries) t.join();
  primary.join();
  EXPECT_EQ(probe.violations.load(), 0);
  EXPECT_EQ(probe.guarded, kThreads * kRounds);
}

TEST(ZooBakery, Signal) { bakery_conformance(BackendId::kSignal); }
TEST(ZooBakery, MembarrierPair) {
  bakery_conformance(BackendId::kMembarrierPair);
}

// ------------------------------------------------------------- futex mutex

void futex_conformance(BackendId id) {
  if (!backend_usable(id)) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }
  constexpr int kWaiters = 2;
  zoo::FutexMutex<AdaptiveFence> mtx;
  CsProbe probe;
  std::atomic<bool> ready{false};
  std::atomic<int> waiters_done{0};

  std::thread owner([&] {
    mtx.bind_primary();
    bind_asymmetric(mtx.primary_handle(), id);
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      mtx.lock_primary();
      probe.enter();
      mtx.unlock_primary();  // the location-fenced release fast path
    }
    while (waiters_done.load(std::memory_order_acquire) < kWaiters) {
      std::this_thread::yield();
    }
    mtx.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        mtx.lock_secondary();
        probe.enter();
        mtx.unlock_secondary();
      }
      waiters_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::thread& t : waiters) t.join();
  owner.join();
  EXPECT_EQ(probe.violations.load(), 0);
  EXPECT_EQ(probe.guarded, (1 + kWaiters) * kRounds);
}

TEST(ZooFutexMutex, Signal) { futex_conformance(BackendId::kSignal); }
TEST(ZooFutexMutex, MembarrierPair) {
  futex_conformance(BackendId::kMembarrierPair);
}

// ------------------------------------------------- single-thread sanity

// Uncontended acquire/release through both roles of each zoo lock with the
// default (symmetric, always-available) policy — catches plumbing breaks
// without any backend or second thread.
TEST(ZooSmoke, UncontendedAllLocks) {
  {
    zoo::BiasedSpinlock<SymmetricFence> s;
    s.bind_primary();
    s.lock_primary();
    s.unlock_primary();
    s.lock_secondary();
    s.unlock_secondary();
    s.unbind_primary();
  }
  {
    zoo::BakeryLock<SymmetricFence, 4> b;
    b.bind_primary();
    for (std::size_t i = 0; i < 4; ++i) {
      b.lock(i);
      b.unlock(i);
    }
    b.unbind_primary();
  }
  {
    zoo::FutexMutex<SymmetricFence> f;
    f.bind_primary();
    f.lock_primary();
    f.unlock_primary();
    f.lock_secondary();
    f.unlock_secondary();
    f.unbind_primary();
  }
}

}  // namespace
}  // namespace lbmf
