#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "lbmf/ws/scheduler.hpp"

namespace lbmf::ws {
namespace {

// ------------------------------------------------------------- deque alone

TEST(TheDeque, LifoForVictimFifoForThief) {
  TheDeque<SymmetricFence> d;
  TaskGroupBase g;
  auto mk = [&g] { return ClosureTask(g, [] {}); };
  auto t1 = mk();
  auto t2 = mk();
  auto t3 = mk();
  d.push(&t1);
  d.push(&t2);
  d.push(&t3);
  EXPECT_EQ(d.pop(), &t3);          // victim pops youngest
  EXPECT_EQ(d.steal(), &t1);        // thief steals oldest
  EXPECT_EQ(d.pop(), &t2);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(TheDeque, PopOnEmptyTakesConflictPath) {
  TheDeque<SymmetricFence> d;
  EXPECT_EQ(d.pop(), nullptr);
  const DequeStats s = d.stats();
  EXPECT_EQ(s.pops_empty, 1u);
  EXPECT_EQ(s.pops_fast, 0u);
}

TEST(TheDeque, StatsCountFences) {
  TheDeque<SymmetricFence> d;
  TaskGroupBase g;
  auto t1 = ClosureTask(g, [] {});
  d.push(&t1);
  (void)d.pop();
  (void)d.steal();
  const DequeStats s = d.stats();
  EXPECT_EQ(s.pushes, 1u);
  EXPECT_EQ(s.victim_fences, 1u);
  EXPECT_EQ(s.thief_fences, 1u);
  EXPECT_EQ(s.steals_empty, 1u);
}

TEST(TheDeque, StatsAreReadableWhileVictimAndThiefRun) {
  // Regression for the stats() data race: the live counters must be
  // atomics, so a concurrent reader sees well-defined (if slightly stale)
  // values. Run under TSan (deque_tsan_test drives the same shape) this
  // used to report plain uint64_t read/write races.
  TheDeque<SymmetricFence> d;
  TaskGroupBase g;
  constexpr int kTasks = 20000;
  std::vector<ClosureTask<void (*)()>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) tasks.emplace_back(g, +[] {});

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> removed{0};
  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (d.steal() != nullptr) {
        removed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const DequeStats s = d.stats();
      // Monotone counters: a snapshot can lag but never exceeds what the
      // victim/thief have actually done.
      EXPECT_LE(s.pushes, static_cast<std::uint64_t>(kTasks));
      EXPECT_LE(s.steals_success + s.pops_fast,
                static_cast<std::uint64_t>(kTasks));
    }
  });
  for (auto& t : tasks) {
    d.push(&t);
    if (d.pop() != nullptr) removed.fetch_add(1, std::memory_order_relaxed);
  }
  while (d.steal() != nullptr) removed.fetch_add(1, std::memory_order_relaxed);
  stop.store(true, std::memory_order_release);
  thief.join();
  reader.join();

  EXPECT_EQ(removed.load(), static_cast<std::uint64_t>(kTasks));
  const DequeStats s = d.stats();
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.pops_fast + s.pops_conflict - s.pops_empty + s.steals_success,
            static_cast<std::uint64_t>(kTasks));
}

TEST(TheDeque, InterleavedPushPopKeepsOrder) {
  TheDeque<SymmetricFence> d;
  TaskGroupBase g;
  std::vector<ClosureTask<void (*)()>> tasks;
  tasks.reserve(8);
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back(g, +[] {});
  }
  d.push(&tasks[0]);
  d.push(&tasks[1]);
  EXPECT_EQ(d.pop(), &tasks[1]);
  d.push(&tasks[2]);
  EXPECT_EQ(d.steal(), &tasks[0]);
  EXPECT_EQ(d.steal(), &tasks[2]);
  EXPECT_EQ(d.steal(), nullptr);
}

// ---------------------------------------------------------- join counts

// Each child writes a plain slot; its owner reads every slot once done()
// holds, so a completion that did not publish its writes shows as a wrong
// value here (and as a race under TSan).
struct JoinFixture {
  static constexpr int kTasks = 16;
  struct WriteSlot {
    std::vector<int>* slots;
    int i;
    void operator()() const { (*slots)[static_cast<std::size_t>(i)] = i + 1; }
  };

  TaskGroupBase g;
  std::vector<int> slots = std::vector<int>(kTasks, 0);
  std::vector<ClosureTask<WriteSlot>> tasks;

  // Registers every task from the calling (owning) thread.
  JoinFixture() {
    tasks.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      tasks.emplace_back(g, WriteSlot{&slots, i});
      g.add_pending();
    }
  }
  void expect_all_written() const {
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(slots[static_cast<std::size_t>(i)], i + 1) << "slot " << i;
    }
  }
};

TEST(TaskGroupBase, OwnerCompletionsBalanceTheJoin) {
  JoinFixture f;
  for (auto& t : f.tasks) {
    EXPECT_FALSE(f.g.done());
    t.run_owned();
  }
  EXPECT_TRUE(f.g.done());
  f.expect_all_written();
}

TEST(TaskGroupBase, RemoteCompletionsPublishTheChildrensWrites) {
  JoinFixture f;
  EXPECT_FALSE(f.g.done());
  std::thread other([&f] {
    for (auto& t : f.tasks) t.run();
  });
  while (!f.g.done()) std::this_thread::yield();
  f.expect_all_written();  // before the join: done() alone orders them
  other.join();
}

TEST(TaskGroupBase, MixedCompletionsBalanceOnlyWhenBothSidesFinish) {
  JoinFixture f;
  for (std::size_t i = 0; i < f.tasks.size(); i += 2) f.tasks[i].run_owned();
  EXPECT_FALSE(f.g.done());  // the odd tasks have not run anywhere yet
  std::thread other([&f] {
    for (std::size_t i = 1; i < f.tasks.size(); i += 2) f.tasks[i].run();
  });
  while (!f.g.done()) std::this_thread::yield();
  f.expect_all_written();
  other.join();

  // A synced group takes new spawns: the counts keep running.
  int late = 0;
  auto t = ClosureTask(f.g, [&late] { late = 1; });
  f.g.add_pending();
  EXPECT_FALSE(f.g.done());
  t.run_owned();
  EXPECT_TRUE(f.g.done());
  EXPECT_EQ(late, 1);
}

// ------------------------------------------------------------ scheduler

template <typename P>
class SchedulerTest : public ::testing::Test {};

using Policies = ::testing::Types<SymmetricFence, AsymmetricSignalFence,
                                  AsymmetricMembarrierFence>;
TYPED_TEST_SUITE(SchedulerTest, Policies);

TYPED_TEST(SchedulerTest, RunsRootTask) {
  Scheduler<TypeParam> sched(2);
  std::atomic<int> x{0};
  sched.run([&] { x.store(42); });
  EXPECT_EQ(x.load(), 42);
}

TYPED_TEST(SchedulerTest, SpawnAndSyncSingleChild) {
  Scheduler<TypeParam> sched(2);
  int child = 0;
  sched.run([&] {
    typename Scheduler<TypeParam>::TaskGroup tg;
    auto t = tg.capture([&] { child = 7; });
    tg.spawn(t);
    tg.sync();
  });
  EXPECT_EQ(child, 7);
}

template <typename P>
void ws_fib(long n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  typename Scheduler<P>::TaskGroup tg;
  auto t = tg.capture([n, &a] { ws_fib<P>(n - 1, &a); });
  tg.spawn(t);
  ws_fib<P>(n - 2, &b);
  tg.sync();
  *out = a + b;
}

TYPED_TEST(SchedulerTest, RecursiveFibIsCorrect) {
  Scheduler<TypeParam> sched(3);
  long result = 0;
  sched.run([&] { ws_fib<TypeParam>(18, &result); });
  EXPECT_EQ(result, 2584);  // fib(18)
}

TYPED_TEST(SchedulerTest, ParallelSumMatchesSerial) {
  constexpr int kN = 1 << 12;
  std::vector<long> data(kN);
  std::iota(data.begin(), data.end(), 1);

  std::function<long(int, int)> psum = [&](int lo, int hi) -> long {
    if (hi - lo <= 64) {
      long s = 0;
      for (int i = lo; i < hi; ++i) s += data[i];
      return s;
    }
    const int mid = lo + (hi - lo) / 2;
    long left = 0;
    typename Scheduler<TypeParam>::TaskGroup tg;
    auto t = tg.capture([&, lo, mid] { left = psum(lo, mid); });
    tg.spawn(t);
    const long right = psum(mid, hi);
    tg.sync();
    return left + right;
  };

  Scheduler<TypeParam> sched(4);
  long total = 0;
  sched.run([&] { total = psum(0, kN); });
  EXPECT_EQ(total, static_cast<long>(kN) * (kN + 1) / 2);
}

TYPED_TEST(SchedulerTest, StatsAccountSpawnsAndFences) {
  Scheduler<TypeParam> sched(2);
  long result = 0;
  sched.run([&] { ws_fib<TypeParam>(15, &result); });
  const SchedulerStats s = sched.stats();
  // fib(15) spawns one task per internal call.
  EXPECT_GT(s.spawns, 100u);
  // Conservation law: every spawned task is removed exactly once — by a
  // fast pop, a conflict-path pop that won, or a successful steal.
  EXPECT_EQ(s.spawns,
            s.pops_fast + (s.pops_conflict - s.pops_empty) + s.steals_success);
  // The victim path executed exactly one fence per pop attempt.
  EXPECT_GE(s.victim_fences, s.pops_fast);
}

TYPED_TEST(SchedulerTest, SequentialRunsBackToBack) {
  Scheduler<TypeParam> sched(2);
  for (int round = 0; round < 5; ++round) {
    long result = 0;
    sched.run([&] { ws_fib<TypeParam>(10, &result); });
    EXPECT_EQ(result, 55);
  }
}

TYPED_TEST(SchedulerTest, SingleWorkerNeverSteals) {
  Scheduler<TypeParam> sched(1);
  long result = 0;
  sched.run([&] { ws_fib<TypeParam>(12, &result); });
  EXPECT_EQ(result, 144);
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.steal_attempts, 0u);
  EXPECT_EQ(s.steals_success, 0u);
  EXPECT_EQ(s.serializations, 0u);
}

TYPED_TEST(SchedulerTest, ManyWorkersOversubscribedStillCorrect) {
  // More workers than this host has cores: exercises the yield paths.
  Scheduler<TypeParam> sched(8);
  long result = 0;
  sched.run([&] { ws_fib<TypeParam>(16, &result); });
  EXPECT_EQ(result, 987);
}

TEST(SchedulerAsymmetry, SignalPolicySerializesOnlyOnSteals) {
  Scheduler<AsymmetricSignalFence> sched(2);
  long result = 0;
  sched.run([&] { ws_fib<AsymmetricSignalFence>(18, &result); });
  const SchedulerStats s = sched.stats();
  // Serializations happen once per steal() call, never on the pop path:
  EXPECT_EQ(s.serializations, s.steal_attempts);
  EXPECT_LT(s.steal_attempts, s.spawns);  // asymmetric workload
}

}  // namespace
}  // namespace lbmf::ws
