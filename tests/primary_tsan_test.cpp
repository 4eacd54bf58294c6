// ThreadSanitizer harness for primary registration churn: threads become
// and stop being l-mfence primaries while the secondaries that serialize
// them are running.
//
//  * BiasedLock: a bias holder plus a revoker that keeps locking after the
//    revocation; the holder relocks at the end to observe the revocation
//    and drop its registration, while the revoker's lock() calls look at
//    the same lock from the other side.
//  * EpochDomain, Safepoint, BiasedRwLock: reader/mutator tokens are
//    claimed and released in a loop while synchronize(), stop_the_world()
//    and write_lock() run their serialization waves over the live slots.
//  * AsymmetricPeterson under contention: each side may leave its wait on
//    reading the peer's `turn` store, so that store must carry the
//    happens-before edge from the peer's previous critical section.
//
// The pools run under SymmetricFence, AsymmetricMembarrierFence (whose
// handle carries data the wave reads) and AsymmetricSignalFence, whose
// waves signal the churning threads: a release that blocked in the gate's
// mutex would never run the handler the round holding the gate waits for
// (TSan defers signals in blocking calls), so the pair would hang until
// ctest's timeout. TSan makes any report fatal via halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "lbmf/core/epoch.hpp"
#include "lbmf/core/policies.hpp"
#include "lbmf/core/safepoint.hpp"
#include "lbmf/dekker/biased_lock.hpp"
#include "lbmf/dekker/peterson.hpp"
#include "lbmf/rwlock/rwlock.hpp"

namespace {

using namespace lbmf;

constexpr int kChurners = 3;
constexpr long kRounds = 200;  // secondary rounds per pool

int drive_biased_lock() {
  BiasedLock<SymmetricFence> lock;
  long counter = 0;  // plain: the lock is the only thing ordering it
  std::atomic<bool> claimed{false};
  std::atomic<bool> holder_done{false};
  long holder_iters = 0, revoker_iters = 0;

  std::thread holder([&] {
    lock.lock();  // claim the bias
    ++counter;
    lock.unlock();
    ++holder_iters;
    claimed.store(true, std::memory_order_release);
    while (lock.revocations() == 0) {
      lock.lock();
      ++counter;
      lock.unlock();
      ++holder_iters;
    }
    // Relock to observe the revocation (dropping the registration) while
    // the revoker is still taking the lock.
    for (int i = 0; i < 100; ++i) {
      lock.lock();
      ++counter;
      lock.unlock();
      ++holder_iters;
    }
    holder_done.store(true, std::memory_order_release);
  });
  std::thread revoker([&] {
    while (!claimed.load(std::memory_order_acquire)) std::this_thread::yield();
    while (revoker_iters < 100 ||
           !holder_done.load(std::memory_order_acquire)) {
      lock.lock();  // the first call revokes the bias
      ++counter;
      lock.unlock();
      ++revoker_iters;
      std::this_thread::yield();  // let the holder at the fallback mutex
    }
  });
  holder.join();
  revoker.join();

  if (counter != holder_iters + revoker_iters || lock.revocations() != 1) {
    std::printf("FAIL biased lock: counter %ld, want %ld; %llu revocations\n",
                counter, holder_iters + revoker_iters,
                static_cast<unsigned long long>(lock.revocations()));
    return 1;
  }
  std::printf("ok biased lock: %ld holder + %ld revoker acquires\n",
              holder_iters, revoker_iters);
  return 0;
}

int drive_peterson() {
  AsymmetricPeterson<SymmetricFence> lock;
  long counter = 0;  // plain: the lock is the only thing ordering it
  constexpr long kPerSide = 20'000;
  lock.bind_primary();  // before the secondary starts
  std::thread secondary([&] {
    for (long i = 0; i < kPerSide; ++i) {
      lock.lock_secondary();
      ++counter;
      lock.unlock_secondary();
    }
  });
  for (long i = 0; i < kPerSide; ++i) {
    lock.lock_primary();
    ++counter;
    lock.unlock_primary();
  }
  secondary.join();
  lock.unbind_primary();

  if (counter != 2 * kPerSide) {
    std::printf("FAIL peterson: counter %ld, want %ld\n", counter,
                2 * kPerSide);
    return 1;
  }
  std::printf("ok peterson: %ld acquires per side\n", kPerSide);
  return 0;
}

// kChurners threads register, run body(token) and release in a loop while
// this thread runs kRounds secondary rounds. A release polls the gate the
// secondary holds, so the rounds pause in between to let it through.
// Returns the number of registrations.
template <typename Register, typename Body, typename Secondary>
long churn(Register&& reg, Body&& body, Secondary&& secondary) {
  std::atomic<bool> stop{false};
  std::atomic<long> registrations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto token = reg();
        body(token);
        registrations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (long r = 0; r < kRounds; ++r) {
    secondary();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return registrations.load();
}

template <typename P>
int drive_epoch(const char* policy) {
  EpochDomain<P> domain;
  const long regs = churn(
      [&] { return domain.register_reader(); },
      [](auto& token) {
        for (int i = 0; i < 4; ++i) auto guard = token.read_lock();
      },
      [&] {
        domain.retire(new int(1));
        domain.synchronize();
      });
  if (domain.grace_periods() != kRounds || domain.retired_pending() != 0 ||
      regs == 0) {
    std::printf("FAIL epoch<%s>: %llu grace periods, %ld registrations\n",
                policy,
                static_cast<unsigned long long>(domain.grace_periods()), regs);
    return 1;
  }
  std::printf("ok epoch<%s>: %ld grace periods, %ld reader registrations\n",
              policy, kRounds, regs);
  return 0;
}

template <typename P>
int drive_safepoint(const char* policy) {
  Safepoint<P> sp;
  long actions = 0;  // coordinator-only
  const long regs = churn(
      [&] { return sp.register_mutator(); },
      [](auto& token) {
        for (int i = 0; i < 4; ++i) token.poll();
        // The coordinator waits for running mutators, and a token's
        // release waits for the coordinator: leave from a safe region.
        token.enter_safe_region();
      },
      [&] { sp.stop_the_world([&] { ++actions; }); });
  if (actions != kRounds || sp.stops() != kRounds || regs == 0) {
    std::printf("FAIL safepoint<%s>: %ld actions, %ld registrations\n",
                policy, actions, regs);
    return 1;
  }
  std::printf("ok safepoint<%s>: %ld stops, %ld mutator registrations\n",
              policy, kRounds, regs);
  return 0;
}

template <typename P, bool kWaitingHeuristic>
int drive_rwlock(const char* policy) {
  BiasedRwLock<P, kWaitingHeuristic> lock;
  long version = 0;  // plain: bumped by the writer, read by readers
  std::atomic<bool> went_back{false};
  const long regs = churn(
      [&] { return lock.register_reader(); },
      [&](auto& token) {
        long last = 0;
        for (int i = 0; i < 4; ++i) {
          token.read_lock();
          if (version < last) went_back.store(true, std::memory_order_relaxed);
          last = version;
          token.read_unlock();
        }
      },
      [&] {
        lock.write_lock();
        ++version;
        lock.write_unlock();
      });
  const RwLockStats s = lock.stats();
  if (went_back.load() || version != kRounds || s.write_acquires != kRounds ||
      regs == 0) {
    std::printf("FAIL rwlock<%s%s>: went back %d, %ld writes, %ld "
                "registrations\n",
                policy, kWaitingHeuristic ? ", ack" : "",
                went_back.load() ? 1 : 0, version, regs);
    return 1;
  }
  std::printf("ok rwlock<%s%s>: %ld writes, %ld reader registrations\n",
              policy, kWaitingHeuristic ? ", ack" : "", kRounds, regs);
  return 0;
}

template <typename P>
int drive_pools(const char* policy) {
  int rc = 0;
  rc |= drive_epoch<P>(policy);
  rc |= drive_safepoint<P>(policy);
  rc |= drive_rwlock<P, false>(policy);
  rc |= drive_rwlock<P, true>(policy);
  return rc;
}

}  // namespace

int main() {
  int rc = 0;
  rc |= drive_biased_lock();
  rc |= drive_peterson();
  rc |= drive_pools<SymmetricFence>("symmetric");
  rc |= drive_pools<AsymmetricMembarrierFence>("membarrier");
  rc |= drive_pools<AsymmetricSignalFence>("signal");
  std::printf("%s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}
