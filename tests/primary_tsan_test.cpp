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
//    and write_lock() run their serialization waves over the live slots,
//    first paced, then back to back.
//  * AsymmetricPeterson under contention: each side may leave its wait on
//    reading the peer's `turn` store, so that store must carry the
//    happens-before edge from the peer's previous critical section.
//
// The pools run under SymmetricFence, AsymmetricMembarrierFence (whose
// handle carries data the wave reads) and AsymmetricSignalFence, whose
// waves signal the churning threads: a release that blocked in the gate's
// mutex would never run the handler the round holding the gate waits for
// (TSan defers signals in blocking calls), so the pair would hang until
// ctest's timeout. Rounds run back to back must still let each pending
// release through at the next turn: glibc's mutex does not hand off, and a
// polling release that keeps losing the gate to the next round is checked
// by counting the rounds it spans. TSan makes any report fatal via
// halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <chrono>
#include <cstdint>
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
constexpr long kRounds = 200;    // paced secondary rounds per pool
constexpr long kReleases = 200;  // releases per churner, back to back
// Rounds that may finish while one release runs back to back: the round
// holding the gate, one that passed its check just before, and slack for
// a churner descheduled around its release.
constexpr long kMaxRoundsPerRelease = 4;

// Each secondary round holds its gate this long, as a round of signal
// round trips would, so a release gets in only between rounds.
void hold_the_gate() {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(20);
  while (std::chrono::steady_clock::now() < end) {
  }
}

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

struct Churned {
  bool back_to_back = false;
  long rounds = 0;
  long registrations = 0;
  long max_rounds_per_release = 0;

  const char* mode() const { return back_to_back ? ", back to back" : ""; }
  // Every churner registered; back to back, each finished its releases and
  // no release waited out more than kMaxRoundsPerRelease rounds.
  bool complete() const {
    return back_to_back ? registrations == kChurners * kReleases &&
                              max_rounds_per_release <= kMaxRoundsPerRelease
                        : registrations > 0;
  }
  // Ends a driver's "ok"/"FAIL" line.
  void print() const {
    std::printf("%ld registrations, at most %ld rounds per release\n",
                registrations, max_rounds_per_release);
  }
};

// kChurners threads register, run body(token) and release in a loop while
// this thread runs secondary rounds. Paced: kRounds rounds, 100 us apart,
// while the churners loop. Back to back: rounds with no pause until every
// churner has released kReleases times, counting the rounds that finish
// while each release runs.
template <typename Register, typename Body, typename Secondary>
Churned churn(bool back_to_back, Register&& reg, Body&& body,
              Secondary&& secondary) {
  std::atomic<bool> stop{false};
  std::atomic<long> registrations{0};
  std::atomic<int> finished{0};
  std::atomic<long> rounds_done{0};
  std::atomic<long> max_span{0};  // rounds finished during one release
  std::vector<std::thread> threads;
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&] {
      for (long i = 0; back_to_back ? i < kReleases
                                    : !stop.load(std::memory_order_acquire);
           ++i) {
        long before = 0;
        {
          auto token = reg();
          body(token);
          before = rounds_done.load(std::memory_order_acquire);
        }  // the release
        const long span = rounds_done.load(std::memory_order_acquire) - before;
        for (long m = max_span.load(std::memory_order_relaxed);
             span > m && !max_span.compare_exchange_weak(m, span);) {
        }
        registrations.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  Churned c;
  c.back_to_back = back_to_back;
  while (back_to_back ? finished.load(std::memory_order_acquire) < kChurners
                      : c.rounds < kRounds) {
    secondary();
    ++c.rounds;
    rounds_done.store(c.rounds, std::memory_order_release);
    if (!back_to_back) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  c.registrations = registrations.load();
  c.max_rounds_per_release = max_span.load();
  return c;
}

template <typename P>
int drive_epoch(const char* policy, bool back_to_back) {
  EpochDomain<P> domain;
  const Churned c = churn(
      back_to_back, [&] { return domain.register_reader(); },
      [](auto& token) {
        for (int i = 0; i < 4; ++i) auto guard = token.read_lock();
      },
      [&] {
        domain.retire(new int(1));
        // synchronize() runs the deleters under its gate.
        domain.retire(nullptr, [](void*) { hold_the_gate(); });
        domain.synchronize();
      });
  const bool ok =
      domain.grace_periods() == static_cast<std::uint64_t>(c.rounds) &&
      domain.retired_pending() == 0 && c.complete();
  std::printf("%s epoch<%s%s>: %llu grace periods, ", ok ? "ok" : "FAIL",
              policy, c.mode(),
              static_cast<unsigned long long>(domain.grace_periods()));
  c.print();
  return ok ? 0 : 1;
}

template <typename P>
int drive_safepoint(const char* policy, bool back_to_back) {
  Safepoint<P> sp;
  long actions = 0;  // coordinator-only
  const Churned c = churn(
      back_to_back, [&] { return sp.register_mutator(); },
      [](auto& token) {
        for (int i = 0; i < 4; ++i) token.poll();
        // The coordinator waits for running mutators, and a token's
        // release waits for the coordinator: leave from a safe region.
        token.enter_safe_region();
      },
      [&] {
        sp.stop_the_world([&] {
          ++actions;
          hold_the_gate();
        });
      });
  const bool ok = actions == c.rounds &&
                  sp.stops() == static_cast<std::uint64_t>(c.rounds) &&
                  c.complete();
  std::printf("%s safepoint<%s%s>: %ld stops, ", ok ? "ok" : "FAIL", policy,
              c.mode(), actions);
  c.print();
  return ok ? 0 : 1;
}

template <typename P, bool kWaitingHeuristic>
int drive_rwlock(const char* policy, bool back_to_back) {
  BiasedRwLock<P, kWaitingHeuristic> lock;
  long version = 0;  // plain: bumped by the writer, read by readers
  std::atomic<bool> went_back{false};
  const Churned c = churn(
      back_to_back, [&] { return lock.register_reader(); },
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
        hold_the_gate();
        lock.write_unlock();
      });
  const RwLockStats s = lock.stats();
  const bool ok = !went_back.load() && version == c.rounds &&
                  s.write_acquires == static_cast<std::uint64_t>(c.rounds) &&
                  c.complete();
  std::printf("%s rwlock<%s%s%s>: went back %d, %ld writes, ",
              ok ? "ok" : "FAIL", policy, kWaitingHeuristic ? ", ack" : "",
              c.mode(), went_back.load() ? 1 : 0, version);
  c.print();
  return ok ? 0 : 1;
}

template <typename P>
int drive_pools(const char* policy) {
  int rc = 0;
  for (const bool back_to_back : {false, true}) {
    rc |= drive_epoch<P>(policy, back_to_back);
    rc |= drive_safepoint<P>(policy, back_to_back);
    rc |= drive_rwlock<P, false>(policy, back_to_back);
    rc |= drive_rwlock<P, true>(policy, back_to_back);
  }
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
