#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lbmf/ws/chase_lev.hpp"
#include "lbmf/ws/task.hpp"

namespace lbmf::ws {
namespace {

template <typename P>
class ChaseLevTest : public ::testing::Test {};

using Policies = ::testing::Types<SymmetricFence, AsymmetricSignalFence,
                                  AsymmetricMembarrierFence>;
TYPED_TEST_SUITE(ChaseLevTest, Policies);

TYPED_TEST(ChaseLevTest, LifoOwnerFifoThief) {
  ChaseLevDeque<TypeParam> d;
  TaskGroupBase g;
  auto mk = [&g] { return ClosureTask(g, [] {}); };
  auto t1 = mk();
  auto t2 = mk();
  auto t3 = mk();
  d.push(&t1);
  d.push(&t2);
  d.push(&t3);
  EXPECT_EQ(d.size_estimate(), 3);
  EXPECT_EQ(d.take(), &t3);
  EXPECT_EQ(d.steal(), &t1);
  EXPECT_EQ(d.take(), &t2);
  EXPECT_EQ(d.take(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_TRUE(d.looks_empty());
}

TYPED_TEST(ChaseLevTest, SingleElementRaceResolvesToOneWinner) {
  // Repeatedly race the owner's take against one thief's steal over a
  // 1-element deque; each element must be won exactly once.
  ChaseLevDeque<TypeParam> d;
  TaskGroupBase g;
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  std::atomic<long> owner_wins{0}, thief_wins{0};
  constexpr long kRounds = 5000;

  auto noop = [] {};
  std::vector<ClosureTask<decltype(noop)>> tasks;
  tasks.reserve(kRounds);
  for (long i = 0; i < kRounds; ++i) tasks.emplace_back(g, noop);

  std::atomic<long> round{-1};

  std::thread owner([&] {
    auto handle = TypeParam::register_primary();
    d.set_owner_handle(handle);
    ready.store(true, std::memory_order_release);
    for (long i = 0; i < kRounds; ++i) {
      d.push(&tasks[static_cast<std::size_t>(i)]);
      round.store(i, std::memory_order_release);
      if (d.take() != nullptr) owner_wins.fetch_add(1);
      // Wait until the element is definitely consumed by someone.
      while (owner_wins.load() + thief_wins.load() < i + 1) {
        std::this_thread::yield();
      }
    }
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    TypeParam::unregister_primary(handle);
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread thief([&] {
    long seen = -1;
    while (owner_wins.load() + thief_wins.load() < kRounds) {
      const long r = round.load(std::memory_order_acquire);
      if (r > seen) {
        if (d.steal() != nullptr) thief_wins.fetch_add(1);
        seen = r;
      } else {
        std::this_thread::yield();
      }
    }
  });
  thief.join();
  done.store(true, std::memory_order_release);
  owner.join();

  EXPECT_EQ(owner_wins.load() + thief_wins.load(), kRounds);
  EXPECT_TRUE(d.looks_empty());
}

TYPED_TEST(ChaseLevTest, EveryTaskConsumedExactlyOnceUnderContention) {
  ChaseLevDeque<TypeParam> d;
  TaskGroupBase g;
  std::atomic<long> executed{0};
  auto body = [&executed] { executed.fetch_add(1, std::memory_order_relaxed); };
  using Task = ClosureTask<decltype(body)>;
  constexpr long kTasks = 20000;
  std::vector<Task> tasks;
  tasks.reserve(kTasks);
  for (long i = 0; i < kTasks; ++i) tasks.emplace_back(g, body);

  std::atomic<bool> ready{false};
  std::atomic<bool> thieves_done{false};

  std::thread owner([&] {
    auto handle = TypeParam::register_primary();
    d.set_owner_handle(handle);
    ready.store(true, std::memory_order_release);
    long pushed = 0;
    while (pushed < kTasks) {
      const long batch = std::min<long>(64, kTasks - pushed);
      for (long i = 0; i < batch; ++i) {
        g.add_pending();
        d.push(&tasks[static_cast<std::size_t>(pushed + i)]);
      }
      pushed += batch;
      for (long i = 0; i < batch / 2; ++i) {
        if (TaskBase* t = d.take()) t->run();
      }
    }
    while (TaskBase* t = d.take()) t->run();
    while (!thieves_done.load(std::memory_order_acquire)) {
      if (TaskBase* t = d.take()) t->run();
      std::this_thread::yield();
    }
    TypeParam::unregister_primary(handle);
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr int kThieves = 3;
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (executed.load(std::memory_order_acquire) < kTasks) {
        if (TaskBase* task = d.steal()) {
          task->run();
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : thieves) th.join();
  thieves_done.store(true, std::memory_order_release);
  owner.join();

  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_TRUE(g.done());  // run() decremented once per task — no double runs
}

}  // namespace
}  // namespace lbmf::ws
