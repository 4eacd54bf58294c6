// Stress and failure-injection tests: signal storms against the serializer,
// registry slot exhaustion, deque contention with a dedicated victim, and a
// cross-module integration run where the work-stealing runtime, the ARW
// lock and a biased lock all multiplex primaries through the one global
// SerializerRegistry at the same time.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lbmf/core/lmfence.hpp"
#include "lbmf/core/serializer.hpp"
#include "lbmf/dekker/biased_lock.hpp"
#include "lbmf/rwlock/rwlock.hpp"
#include "lbmf/ws/scheduler.hpp"

namespace lbmf {
namespace {

// ------------------------------------------------------------- serializer

TEST(SerializerStress, SignalStormAgainstBusyPrimary) {
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  std::atomic<long> progress{0};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    ready.store(true, std::memory_order_release);
    // Hot loop with stores: every signal interrupts real work.
    while (!stop.load(std::memory_order_relaxed)) {
      progress.fetch_add(1, std::memory_order_relaxed);
    }
    reg.unregister_self(handle);
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr int kStorms = 3;
  constexpr int kPerStorm = 300;
  std::vector<std::thread> storm;
  std::atomic<int> ok{0};
  for (int t = 0; t < kStorms; ++t) {
    storm.emplace_back([&] {
      for (int i = 0; i < kPerStorm; ++i) {
        if (reg.serialize(handle)) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : storm) th.join();
  EXPECT_EQ(ok.load(), kStorms * kPerStorm);
  EXPECT_GT(progress.load(), 0);  // the primary kept making progress

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(SerializerStress, ManyConcurrentPrimariesAndCrossSerialization) {
  auto& reg = SerializerRegistry::instance();
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<SerializerRegistry::Handle> handles(kThreads);
  std::atomic<int> registered{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      handles[t] = reg.register_self();
      registered.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Everybody serializes everybody (including themselves).
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int r = 0; r < kRounds; ++r) {
        const int victim = static_cast<int>(rng.next_below(kThreads));
        if (!reg.serialize(handles[victim])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Rendezvous before anyone unregisters.
      registered.fetch_add(1, std::memory_order_acq_rel);
      while (registered.load(std::memory_order_acquire) < 2 * kThreads) {
        std::this_thread::yield();
      }
      reg.unregister_self(handles[t]);
    });
  }
  while (registered.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SerializerStress, RegistryExhaustionYieldsInvalidHandleNotCrash) {
  auto& reg = SerializerRegistry::instance();
  // Grab every slot from this single thread (registration is per-call, not
  // per-thread-unique), then verify the next one fails cleanly.
  std::vector<SerializerRegistry::Handle> all;
  all.reserve(SerializerRegistry::kMaxPrimaries);
  std::size_t got = 0;
  for (std::size_t i = 0; i < SerializerRegistry::kMaxPrimaries + 8; ++i) {
    auto h = reg.register_self();
    if (!h.valid()) break;
    all.push_back(h);
    ++got;
  }
  EXPECT_LE(got, SerializerRegistry::kMaxPrimaries);
  auto extra = reg.register_self();
  EXPECT_FALSE(extra.valid());
  EXPECT_FALSE(reg.serialize(extra));
  for (auto& h : all) reg.unregister_self(h);
  // And the registry is usable again.
  auto again = reg.register_self();
  EXPECT_TRUE(again.valid());
  reg.unregister_self(again);
}

// -------------------------------------------------------- guarded location

TEST(GuardedLocationStress, RebindAcrossThreads) {
  GuardedLocation<int, AsymmetricSignalFence> loc(0);
  for (int round = 0; round < 16; ++round) {
    std::thread t([&] {
      loc.bind_primary();
      loc.lmfence_store(round);
      loc.unbind_primary();
    });
    t.join();
    EXPECT_EQ(loc.remote_read(), round);
  }
}

// ------------------------------------------------------------- deque/thieves

TEST(DequeStress, DedicatedVictimAgainstManyThieves) {
  ws::TheDeque<AsymmetricSignalFence> deque;
  ws::TaskGroupBase group;
  std::atomic<long> executed{0};
  auto body = [&executed] { executed.fetch_add(1, std::memory_order_relaxed); };
  using Task = ws::ClosureTask<decltype(body)>;

  constexpr long kTasks = 20000;
  std::vector<Task> tasks;
  tasks.reserve(kTasks);
  for (long i = 0; i < kTasks; ++i) tasks.emplace_back(group, body);

  std::atomic<bool> victim_ready{false};
  std::atomic<bool> thieves_done{false};
  std::atomic<long> victim_got{0};
  std::atomic<long> thieves_got{0};

  std::thread victim([&] {
    auto handle = AsymmetricSignalFence::register_primary();
    deque.set_owner_handle(handle);
    victim_ready.store(true, std::memory_order_release);
    // Push in batches and pop aggressively — the paper's victim role.
    long pushed = 0;
    long got = 0;
    while (pushed < kTasks) {
      const long batch = std::min<long>(64, kTasks - pushed);
      for (long i = 0; i < batch; ++i) {
        group.add_pending();
        deque.push(&tasks[static_cast<std::size_t>(pushed + i)]);
      }
      pushed += batch;
      for (long i = 0; i < batch / 2; ++i) {
        if (ws::TaskBase* t = deque.pop()) {
          t->run();
          ++got;
        }
      }
    }
    while (ws::TaskBase* t = deque.pop()) {
      t->run();
      ++got;
    }
    victim_got.store(got, std::memory_order_release);
    while (!thieves_done.load(std::memory_order_acquire)) {
      // Help drain stragglers the thieves may have left behind.
      if (ws::TaskBase* t = deque.pop()) {
        t->run();
        victim_got.fetch_add(1, std::memory_order_acq_rel);
      }
      std::this_thread::yield();
    }
    AsymmetricSignalFence::unregister_primary(handle);
  });
  while (!victim_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  constexpr int kThieves = 3;
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      long got = 0;
      while (executed.load(std::memory_order_acquire) < kTasks) {
        if (ws::TaskBase* task = deque.steal()) {
          task->run();
          ++got;
        } else {
          std::this_thread::yield();
        }
      }
      thieves_got.fetch_add(got, std::memory_order_acq_rel);
    });
  }
  for (auto& th : thieves) th.join();
  thieves_done.store(true, std::memory_order_release);
  victim.join();

  // Every task ran exactly once.
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_TRUE(group.done());
  EXPECT_EQ(victim_got.load() + thieves_got.load(), kTasks);
}

// -------------------------------------------------------------- ws nesting

TEST(SchedulerStress, DeeplyNestedTaskGroups) {
  ws::Scheduler<AsymmetricSignalFence> sched(3);
  std::function<long(int)> nest = [&](int depth) -> long {
    if (depth == 0) return 1;
    long a = 0;
    typename ws::Scheduler<AsymmetricSignalFence>::TaskGroup tg;
    auto t = tg.capture([&, depth] { a = nest(depth - 1); });
    tg.spawn(t);
    const long b = nest(depth - 1);
    tg.sync();
    return a + b;
  };
  long result = 0;
  sched.run([&] { result = nest(12); });
  EXPECT_EQ(result, 1L << 12);
}

TEST(SchedulerStress, RepeatedConstructionTearsDownCleanly) {
  for (int round = 0; round < 6; ++round) {
    ws::Scheduler<AsymmetricSignalFence> sched(2 + round % 3);
    long result = 0;
    sched.run([&] {
      typename ws::Scheduler<AsymmetricSignalFence>::TaskGroup tg;
      auto t = tg.capture([&] { result = 41; });
      tg.spawn(t);
      tg.sync();
      ++result;
    });
    EXPECT_EQ(result, 42);
  }
}

// ------------------------------------------------------------- integration

TEST(Integration, AllSubsystemsShareTheRegistrySimultaneously) {
  // Work-stealing workers, ARW readers and a biased-lock holder all
  // register as l-mfence primaries at once; everything must stay correct.
  ws::Scheduler<AsymmetricSignalFence> sched(2);
  ArwLock rwlock;
  BiasedLock<AsymmetricSignalFence> biased;
  std::atomic<bool> stop{false};
  volatile long biased_counter = 0;
  alignas(64) volatile long shared[4] = {0, 0, 0, 0};
  std::atomic<bool> mismatch{false};

  std::thread bias_holder([&] {
    biased.lock();
    biased_counter = biased_counter + 1;
    biased.unlock();
    while (!stop.load(std::memory_order_acquire)) {
      biased.lock();
      biased_counter = biased_counter + 1;
      biased.unlock();
    }
    biased.lock();  // observe a possible revocation before exit
    biased.unlock();
  });

  std::thread reader([&] {
    auto token = rwlock.register_reader();
    while (!stop.load(std::memory_order_acquire)) {
      token.read_lock();
      const long a = shared[0], b = shared[3];
      if (a != b) mismatch.store(true);
      token.read_unlock();
    }
  });

  // Main thread: run a parallel workload, occasionally write the shared
  // array and poke the biased lock (revoking the bias).
  long fibres = 0;
  for (int round = 0; round < 3; ++round) {
    sched.run([&] {
      std::function<long(long)> fib = [&](long n) -> long {
        if (n < 2) return n;
        long a = 0;
        typename ws::Scheduler<AsymmetricSignalFence>::TaskGroup tg;
        auto t = tg.capture([&, n] { a = fib(n - 1); });
        tg.spawn(t);
        const long b = fib(n - 2);
        tg.sync();
        return a + b;
      };
      fibres = fib(15);
    });
    rwlock.write_lock();
    for (int j = 0; j < 4; ++j) shared[j] = shared[j] + 1;
    rwlock.write_unlock();
    biased.lock();  // revokes the holder's bias on the first round
    biased_counter = biased_counter + 1;
    biased.unlock();
  }

  stop.store(true, std::memory_order_release);
  bias_holder.join();
  reader.join();
  // If this thread won the bias instead, the holder thread revoked it:
  // observe the revocation so the registration is dropped before the lock
  // is destroyed.
  biased.lock();
  biased.unlock();

  EXPECT_EQ(fibres, 610);
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(shared[0], 3);
  EXPECT_GE(biased.revocations(), 1u);
}

}  // namespace
}  // namespace lbmf
