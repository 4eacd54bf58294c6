#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lbmf/rwlock/rwlock.hpp"

namespace lbmf {
namespace {

// Exercise the three paper locks plus the membarrier variant through one
// typed suite.
template <typename L>
class RwLockTest : public ::testing::Test {};

using LockTypes = ::testing::Types<SrwLock, ArwLock, ArwPlusLock,
                                   BiasedRwLock<AsymmetricMembarrierFence>>;
TYPED_TEST_SUITE(RwLockTest, LockTypes);

TYPED_TEST(RwLockTest, UncontendedReadLockUnlock) {
  TypeParam lock;
  auto token = lock.register_reader();
  for (int i = 0; i < 1000; ++i) {
    token.read_lock();
    token.read_unlock();
  }
  EXPECT_EQ(lock.stats().read_acquires, 1000u);
  EXPECT_EQ(lock.stats().write_acquires, 0u);
}

TYPED_TEST(RwLockTest, UncontendedWriteLockUnlock) {
  TypeParam lock;
  for (int i = 0; i < 100; ++i) {
    lock.write_lock();
    lock.write_unlock();
  }
  EXPECT_EQ(lock.stats().write_acquires, 100u);
}

TYPED_TEST(RwLockTest, WriterExcludesReaderCounterExact) {
  TypeParam lock;
  // Shared data protected by the lock; non-atomic so a mutual-exclusion
  // bug corrupts it.
  volatile long data[4] = {0, 0, 0, 0};
  constexpr int kReaders = 3;
  constexpr long kReadsPerThread = 4000;
  constexpr long kWrites = 200;
  std::atomic<bool> mismatch{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto token = lock.register_reader();
      for (long i = 0; i < kReadsPerThread; ++i) {
        token.read_lock();
        // Writers keep all four cells equal; readers must never observe a
        // torn update.
        const long a = data[0], b = data[1], c = data[2], d = data[3];
        if (!(a == b && b == c && c == d)) {
          mismatch.store(true, std::memory_order_relaxed);
        }
        token.read_unlock();
      }
    });
  }

  std::thread writer([&] {
    for (long w = 0; w < kWrites; ++w) {
      lock.write_lock();
      for (int j = 0; j < 4; ++j) data[j] = data[j] + 1;
      lock.write_unlock();
    }
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(data[0], kWrites);
  EXPECT_EQ(data[3], kWrites);
  EXPECT_EQ(lock.stats().read_acquires,
            static_cast<std::uint64_t>(kReaders) * kReadsPerThread);
  EXPECT_EQ(lock.stats().write_acquires, static_cast<std::uint64_t>(kWrites));
}

TYPED_TEST(RwLockTest, MultipleWritersAreMutuallyExclusive) {
  TypeParam lock;
  volatile long counter = 0;
  constexpr int kWriters = 4;
  constexpr long kEach = 500;
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&] {
      for (long w = 0; w < kEach; ++w) {
        lock.write_lock();
        counter = counter + 1;
        lock.write_unlock();
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(counter, kWriters * kEach);
}

TYPED_TEST(RwLockTest, ReaderSlotsAreRecycled) {
  TypeParam lock;
  for (int round = 0; round < 8; ++round) {
    std::thread t([&] {
      auto token = lock.register_reader();
      token.read_lock();
      token.read_unlock();
    });
    t.join();
  }
  EXPECT_EQ(lock.stats().read_acquires, 8u);
}

TYPED_TEST(RwLockTest, ConcurrentReadersOverlapFreely) {
  // Two readers must be able to hold the lock at once: park one inside the
  // critical section and verify the other still gets in.
  TypeParam lock;
  std::atomic<bool> first_in{false};
  std::atomic<bool> second_done{false};
  std::thread r1([&] {
    auto tok = lock.register_reader();
    tok.read_lock();
    first_in.store(true, std::memory_order_release);
    while (!second_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    tok.read_unlock();
  });
  std::thread r2([&] {
    auto tok = lock.register_reader();
    while (!first_in.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    tok.read_lock();  // must not block on r1
    tok.read_unlock();
    second_done.store(true, std::memory_order_release);
  });
  r1.join();
  r2.join();
  SUCCEED();
}

TEST(RwLockAsymmetry, ArwReadersPayNoSerializationWithoutWriters) {
  ArwLock lock;
  auto token = lock.register_reader();
  for (int i = 0; i < 100; ++i) {
    token.read_lock();
    token.read_unlock();
  }
  EXPECT_EQ(lock.stats().serializations, 0u);
}

TEST(RwLockAsymmetry, WriterSerializesEachLiveReaderUnderArw) {
  ArwLock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> registered{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      auto token = lock.register_reader();
      registered.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        token.read_lock();
        token.read_unlock();
      }
    });
  }
  while (registered.load() < kReaders) std::this_thread::yield();

  lock.write_lock();
  lock.write_unlock();
  // Without the waiting heuristic every live reader slot is signaled.
  EXPECT_EQ(lock.stats().signal_clears, static_cast<std::uint64_t>(kReaders));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

TEST(RwLockAsymmetry, ArwPlusAcksAvoidSignalsForActiveReaders) {
  ArwPlusLock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> registered{0};
  constexpr int kReaders = 2;
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      auto token = lock.register_reader();
      registered.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        token.read_lock();
        token.read_unlock();
      }
    });
  }
  while (registered.load() < kReaders) std::this_thread::yield();

  std::uint64_t acks = 0;
  for (int w = 0; w < 50; ++w) {
    lock.write_lock();
    lock.write_unlock();
  }
  acks = lock.stats().ack_clears;
  // Busy readers pass through lock/unlock constantly, so at least some
  // writer rounds must have been satisfied by acknowledgments instead of
  // signals (on a 1-core host the exact split is scheduling-dependent).
  EXPECT_GT(acks, 0u);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

TEST(RwLockBatched, MixedWaveKeepsMutualExclusionUnderHeuristic) {
  // The batched ARW+ writer round classifies slots (ack-cleared vs.
  // must-signal) and fans the signals out as one wave. Mix idle registered
  // readers (which never ack — always the signal path) with active readers
  // (which ack at lock/unlock — usually the ack path) so a single writer
  // round exercises both classes, then check data integrity.
  ArwPlusLock lock;
  volatile long data[4] = {0, 0, 0, 0};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> mismatch{false};

  constexpr int kIdleReaders = 2;
  constexpr int kActiveReaders = 2;
  constexpr int kWriters = 2;
  // Idle readers never ack, so every acquire burns the full ARW+ grace
  // budget before signaling — keep the count modest.
  constexpr long kWritesEach = 50;

  std::vector<std::thread> threads;
  for (int i = 0; i < kIdleReaders; ++i) {
    threads.emplace_back([&] {
      auto token = lock.register_reader();
      ready.fetch_add(1);
      // Registered but never locking: the writer must signal this slot.
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kActiveReaders; ++i) {
    threads.emplace_back([&] {
      auto token = lock.register_reader();
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        token.read_lock();
        const long a = data[0], b = data[1], c = data[2], d = data[3];
        if (!(a == b && b == c && c == d)) {
          mismatch.store(true, std::memory_order_relaxed);
        }
        token.read_unlock();
      }
    });
  }
  while (ready.load() < kIdleReaders + kActiveReaders) {
    std::this_thread::yield();
  }

  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&] {
      for (long w = 0; w < kWritesEach; ++w) {
        lock.write_lock();
        for (int j = 0; j < 4; ++j) data[j] = data[j] + 1;
        lock.write_unlock();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(data[0], kWriters * kWritesEach);
  EXPECT_EQ(data[3], kWriters * kWritesEach);
  // Idle readers never ack, so every writer round signaled at least them.
  EXPECT_GE(lock.stats().signal_clears,
            static_cast<std::uint64_t>(kWriters * kWritesEach));
}

TEST(RwLockBatched, WaveSignalsEachSilentReaderOnce) {
  // 3 idle registered readers, one write: the writer's wave must signal
  // exactly the 3 silent slots.
  ArwLock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      auto token = lock.register_reader();
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (ready.load() < 3) std::this_thread::yield();
  lock.write_lock();
  lock.write_unlock();
  const RwLockStats st = lock.stats();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(st.signal_clears, 3u);
  EXPECT_EQ(st.serializations, 3u);
  EXPECT_EQ(st.ack_clears, 0u);
}

TEST(RwLockStats, ReadableWhileWriterIsMidAcquire) {
  // stats() may race a writer mid-write_lock; with atomic counters this is
  // well-defined, and observed totals must be monotonic.
  ArwLock lock;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      lock.write_lock();
      lock.write_unlock();
    }
  });
  std::uint64_t last = 0;
  bool monotonic = true;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t now = lock.stats().write_acquires;
    if (now < last) monotonic = false;
    last = now;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_TRUE(monotonic);
  EXPECT_GE(lock.stats().write_acquires, last);
}

}  // namespace
}  // namespace lbmf
