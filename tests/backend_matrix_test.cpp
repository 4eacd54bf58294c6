// Serialization-backend conformance matrix: the same two protocol
// correctness checks — Dekker mutual exclusion and the biased rwlock's
// writer round — run against both drain mechanisms {signal,
// membarrier-pair} through AdaptiveFence's per-handle re-binding. The
// Dekker leg runs each mechanism at the strongest regime adapt::realize
// grants it (double-l-mfence on membarrier-pair, the asymmetric mix on
// signal), so the double regime's primary-side peer drain is exercised by
// a real protocol, not just the unit tests. Mechanisms the host cannot
// run skip loudly rather than pass vacuously.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/dekker/dekker.hpp"
#include "lbmf/rwlock/rwlock.hpp"

namespace lbmf {
namespace {

using adapt::AdaptiveFence;
using adapt::BackendId;
using adapt::PolicyMode;

// The strongest regime mechanism `id` can realize on this host for a
// primary with a valid signal slot: what the adaptive runtime's realize
// step clamps a double-l-mfence request to.
PolicyMode strongest_mode(BackendId id) {
  return adapt::realize(PolicyMode::kDoubleLmfence, id,
                        membarrier::available(), /*signal_slot_valid=*/true);
}

// ------------------------------------------------------------- Dekker leg

// Two threads race a blocking Dekker lock around a plain (non-atomic)
// counter; any lost increment or CS overlap is a mutual-exclusion
// violation. The primary re-binds to `id` at its first quiescent point and
// the test asserts the realized regime is the strongest the mechanism
// admits — a silent downgrade would make the leg vacuous.
void dekker_conformance(BackendId id) {
  const PolicyMode want = strongest_mode(id);
  if (want == PolicyMode::kSymmetric) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }

  constexpr std::uint64_t kRounds = 2'000;
  AsymmetricDekker<AdaptiveFence> dk;
  std::atomic<bool> ready{false};
  std::atomic<int> in_cs{0};
  std::atomic<int> violations{0};
  std::uint64_t guarded = 0;  // plain: only ever touched inside the CS

  const auto enter_cs = [&] {
    if (in_cs.exchange(1, std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    ++guarded;
    for (int spin = 0; spin < 16; ++spin) compiler_fence();
    in_cs.store(0, std::memory_order_relaxed);
  };

  std::atomic<bool> secondary_done{false};
  std::thread primary([&] {
    dk.bind_primary();
    const AdaptiveFence::Handle h = dk.primary_handle();
    ASSERT_TRUE(h.valid());
    EXPECT_TRUE(AdaptiveFence::request_backend(h, id));
    EXPECT_TRUE(AdaptiveFence::request_mode(h, want));
    AdaptiveFence::quiescent_point(h);  // no announce in flight yet
    EXPECT_EQ(AdaptiveFence::current_backend(h), id);
    EXPECT_EQ(AdaptiveFence::realized_mode(h), want);
    EXPECT_EQ(AdaptiveFence::degraded_count(h), 0u);
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      dk.lock_primary();
      enter_cs();
      dk.unlock_primary();
    }
    // Lifetime contract: the registered thread must stay alive (able to
    // answer drains) until the secondary stops serializing it, and must
    // unbind on its own thread.
    while (!secondary_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    dk.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread secondary([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      dk.lock_secondary();
      enter_cs();
      dk.unlock_secondary();
    }
    secondary_done.store(true, std::memory_order_release);
  });

  secondary.join();
  primary.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(guarded, 2 * kRounds);
  const DekkerStats s = dk.stats();
  EXPECT_GT(s.serializations, 0u);  // the secondary really drained remotely
  if (want == PolicyMode::kDoubleLmfence) {
    // Role inversion was live: the primary drained its peer per announce.
    EXPECT_GT(s.primary_serializations, 0u);
  } else {
    EXPECT_EQ(s.primary_serializations, 0u);
  }
}

TEST(BackendMatrixDekker, Signal) { dekker_conformance(BackendId::kSignal); }
TEST(BackendMatrixDekker, MembarrierPair) {
  dekker_conformance(BackendId::kMembarrierPair);
}

// ------------------------------------------------------------- rwlock leg

// Readers re-bound to `id` run the l-mfence fast path in the asymmetric
// regime while a writer repeatedly updates two plain variables that must
// never be observed torn. The writer's round trips go through the bound
// mechanism's serialize_many wave — the writer-side conformance the matrix
// is after.
void rwlock_conformance(BackendId id) {
  if (strongest_mode(id) == PolicyMode::kSymmetric) {
    GTEST_SKIP() << adapt::to_string(id) << " cannot serialize on this host";
  }

  constexpr int kReaders = 2;
  constexpr std::uint64_t kWrites = 400;
  BiasedRwLock<AdaptiveFence> lock;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};
  std::uint64_t a = 0, b = 0;  // writer keeps a == b under the write lock

  std::thread readers[kReaders];
  for (std::thread& t : readers) {
    t = std::thread([&] {
      auto token = lock.register_reader();
      const AdaptiveFence::Handle h = token.handle();
      ASSERT_TRUE(h.valid());
      EXPECT_TRUE(AdaptiveFence::request_backend(h, id));
      EXPECT_TRUE(AdaptiveFence::request_mode(h, PolicyMode::kAsymmetric));
      AdaptiveFence::quiescent_point(h);  // before any read-lock section
      EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kAsymmetric);
      ready.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        token.read_lock();
        if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
        token.read_unlock();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  for (std::uint64_t w = 0; w < kWrites; ++w) {
    lock.write_lock();
    ++a;
    for (int spin = 0; spin < 16; ++spin) compiler_fence();
    ++b;
    lock.write_unlock();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(a, kWrites);
  EXPECT_EQ(b, kWrites);
  EXPECT_GT(lock.stats().serializations, 0u);
}

TEST(BackendMatrixRwLock, Signal) { rwlock_conformance(BackendId::kSignal); }
TEST(BackendMatrixRwLock, MembarrierPair) {
  rwlock_conformance(BackendId::kMembarrierPair);
}

}  // namespace
}  // namespace lbmf
