// ThreadSanitizer harness for the scheduler and rwlock paths the deque
// harness does not reach: the run() inbox handoff and quiesce barrier, the
// join that carries stolen children's plain writes back to their owner,
// the stats() aggregation racing live workers, the BiasedRwLock writer
// fan-out racing stats() readers, and the adaptation hook (monitor →
// selector → quiescent-point switch) ticking inside worker loops. The
// counters only grow, so each stats() reader also fails the run if a field
// of a snapshot is smaller than in its previous one. All policies are symmetric so the binary has no signal/membarrier
// dependency and runs anywhere TSan does; the adaptive leg still exercises
// every adaptation code path because mode switching is policy-internal
// bookkeeping. TSan makes any report fatal via halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/adapt/policy_table.hpp"
#include "lbmf/core/policies.hpp"
#include "lbmf/rwlock/rwlock.hpp"
#include "lbmf/ws/scheduler.hpp"

namespace {

using namespace lbmf;

// Spawn-recursive fib: the standard work-stealing smoke workload.
template <typename P>
void fib(long n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  typename ws::Scheduler<P>::TaskGroup tg;
  auto t = tg.capture([n, &a] { fib<P>(n - 1, &a); });
  tg.spawn(t);
  fib<P>(n - 2, &b);
  tg.sync();
  *out = a + b;
}

// Repeated run() cycles (inbox post, worker wake, quiesce barrier) with
// stats() hammered from outside while workers run.
template <typename P>
int drive_scheduler(const char* label, bool adaptive) {
  ws::Scheduler<P> sched(2);
  if constexpr (adapt::AdaptiveFencePolicy<P>) {
    if (adaptive) {
      adapt::SelectorConfig opts;
      // Single-cell all-symmetric table: the monitor, selector, and
      // quiescent-point plumbing all run every window, but no switch ever
      // needs a serialization backend.
      opts.table = adapt::PolicyTable({1.0}, {100.0},
                                      {adapt::PolicyMode::kSymmetric});
      opts.confirm_windows = 1;
      opts.sample_every = 16;
      sched.enable_adaptation(opts);
    }
  }

  using S = ws::SchedulerStats;
  constexpr std::uint64_t S::*kFields[] = {
      &S::spawns,          &S::pops_fast,         &S::pops_conflict,
      &S::pops_empty,      &S::victim_fences,     &S::victim_serializations,
      &S::steal_attempts,  &S::steals_success,    &S::serializations,
      &S::policy_switches, &S::policy_switches_booked};
  std::atomic<bool> stop{false};
  bool shrank = false;
  std::thread reader([&] {
    S prev;
    while (!stop.load(std::memory_order_acquire)) {
      const S s = sched.stats();
      for (auto f : kFields) shrank |= s.*f < prev.*f;
      prev = s;
      std::this_thread::yield();
    }
  });

  int rc = 0;
  for (int round = 0; round < 3; ++round) {
    long result = 0;
    sched.run([&] { fib<P>(14, &result); });
    if (result != 377) {
      std::printf("FAIL %s: fib(14) = %ld, want 377\n", label, result);
      rc = 1;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  if (shrank) {
    std::printf("FAIL %s: a stats() field went backwards\n", label);
    rc = 1;
  }
  if (rc == 0) std::printf("ok %s: 3 runs, stats hammered\n", label);
  return rc;
}

// Fan-out whose children write plain (non-atomic) slots that the parent
// reads after sync(): for a stolen child only the join orders that write
// before the read. Every child first waits (bounded) until some child has
// run on the other worker, so each round has at least one steal.
int drive_fanout() {
  using Sched = ws::Scheduler<SymmetricFence>;
  constexpr int kChildren = 32;
  constexpr int kRounds = 20;
  Sched sched(2);
  int bad = 0;
  for (int round = 0; round < kRounds; ++round) {
    sched.run([&] {
      const std::thread::id parent = std::this_thread::get_id();
      std::atomic<bool> stolen{false};
      long slots[kChildren] = {};
      auto body = [&](int i) {
        return [&, i] {
          if (std::this_thread::get_id() != parent) {
            stolen.store(true, std::memory_order_relaxed);
          }
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!stolen.load(std::memory_order_relaxed) &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          slots[i] = 1000L * round + i;
        };
      };
      Sched::TaskGroup tg;
      std::vector<ws::ClosureTask<decltype(body(0))>> tasks;
      tasks.reserve(kChildren);
      for (int i = 0; i < kChildren; ++i) {
        tasks.emplace_back(tg, body(i));
        tg.spawn(tasks.back());
      }
      tg.sync();
      for (int i = 0; i < kChildren; ++i) bad += slots[i] != 1000L * round + i;
    });
  }
  const std::uint64_t steals = sched.stats().steals_success;
  if (bad != 0 || steals == 0) {
    std::printf("FAIL fan-out join: %d wrong slots, %llu steals\n", bad,
                static_cast<unsigned long long>(steals));
    return 1;
  }
  std::printf("ok fan-out join: %d fan-outs, %llu steals\n", kRounds,
              static_cast<unsigned long long>(steals));
  return 0;
}

// BiasedRwLock writer fan-out (batched serialize_many wave over every
// registered reader) racing reader fast paths and stats() aggregation.
int drive_rwlock() {
  BiasedRwLock<SymmetricFence> lock;
  std::atomic<bool> stop{false};
  std::atomic<long> shared{0};
  std::atomic<long> observed{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto token = lock.register_reader();
      while (!stop.load(std::memory_order_acquire)) {
        token.read_lock();
        observed.fetch_add(shared.load(std::memory_order_relaxed) >= 0,
                           std::memory_order_relaxed);
        token.read_unlock();
      }
    });
  }
  constexpr std::uint64_t RwLockStats::*kFields[] = {
      &RwLockStats::read_acquires,  &RwLockStats::reader_retreats,
      &RwLockStats::write_acquires, &RwLockStats::serializations,
      &RwLockStats::ack_clears,     &RwLockStats::signal_clears};
  bool shrank = false;
  std::thread stats_reader([&] {
    RwLockStats prev;
    while (!stop.load(std::memory_order_acquire)) {
      const RwLockStats s = lock.stats();
      for (auto f : kFields) shrank |= s.*f < prev.*f;
      prev = s;
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < 200; ++i) {
    lock.write_lock();
    shared.fetch_add(1, std::memory_order_relaxed);
    lock.write_unlock();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  stats_reader.join();

  if (shrank) {
    std::printf("FAIL rwlock: a stats() field went backwards\n");
    return 1;
  }
  const RwLockStats s = lock.stats();
  if (s.write_acquires != 200) {
    std::printf("FAIL rwlock: %llu write acquires, want 200\n",
                static_cast<unsigned long long>(s.write_acquires));
    return 1;
  }
  std::printf("ok rwlock: 200 writes, %llu reads, stats hammered\n",
              static_cast<unsigned long long>(s.read_acquires));
  return 0;
}

}  // namespace

int main() {
  int rc = 0;
  rc |= drive_scheduler<SymmetricFence>("Scheduler<SymmetricFence>", false);
  rc |= drive_scheduler<adapt::AdaptiveFence>("Scheduler<AdaptiveFence>",
                                              true);
  rc |= drive_fanout();
  rc |= drive_rwlock();
  std::printf("%s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}
