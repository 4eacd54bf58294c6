#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <span>
#include <thread>
#include <vector>

#include "lbmf/core/serializer.hpp"

namespace lbmf {
namespace {

TEST(Serializer, RegisterAndUnregisterRoundTrip) {
  auto& reg = SerializerRegistry::instance();
  auto h = reg.register_self();
  ASSERT_TRUE(h.valid());
  reg.unregister_self(h);
  EXPECT_FALSE(h.valid());
}

TEST(Serializer, UnregisterInvalidHandleIsNoop) {
  auto& reg = SerializerRegistry::instance();
  SerializerRegistry::Handle h;  // default, invalid
  reg.unregister_self(h);        // must not crash
  EXPECT_FALSE(h.valid());
}

TEST(Serializer, SerializeInvalidHandleReturnsFalse) {
  auto& reg = SerializerRegistry::instance();
  SerializerRegistry::Handle h;
  EXPECT_FALSE(reg.serialize(h));
}

TEST(Serializer, SelfSerializeDegradesToLocalFence) {
  auto& reg = SerializerRegistry::instance();
  auto h = reg.register_self();
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(reg.serialize(h));  // same thread: local fence, returns fast
  reg.unregister_self(h);
}

TEST(Serializer, SecondaryForcesPrimaryToAcknowledge) {
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> registered{false};
  std::atomic<bool> stop{false};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    registered.store(true, std::memory_order_release);
    // Busy loop standing in for the primary's fast-path work.
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    reg.unregister_self(handle);
  });

  while (!registered.load(std::memory_order_acquire)) std::this_thread::yield();

  const auto before = SerializerRegistry::signals_received(handle);
  EXPECT_TRUE(reg.serialize(handle));
  EXPECT_TRUE(reg.serialize(handle));
  const auto after = SerializerRegistry::signals_received(handle);
  EXPECT_GE(after - before, 1u);  // signals may coalesce but not vanish

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(Serializer, PublishedStoreIsVisibleAfterSerialize) {
  // The core guarantee: a value stored by the primary (without any hardware
  // fence) must be visible to the secondary after serialize() returns.
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> registered{false};
  std::atomic<bool> stop{false};
  std::atomic<int> data{0};
  std::atomic<int> published{0};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    registered.store(true, std::memory_order_release);
    int v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      data.store(v, std::memory_order_relaxed);
      published.store(v, std::memory_order_relaxed);
    }
    reg.unregister_self(handle);
  });

  while (!registered.load(std::memory_order_acquire)) std::this_thread::yield();

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(reg.serialize(handle));
    // After the handshake, everything the primary stored before the ack is
    // visible: data must be at least as fresh as published was then.
    const int p = published.load(std::memory_order_relaxed);
    const int d = data.load(std::memory_order_relaxed);
    EXPECT_GE(d, p - 1);  // data is stored before published each round
  }

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(Serializer, ManySecondariesSerializeOnePrimary) {
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> registered{false};
  std::atomic<bool> stop{false};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    registered.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) std::this_thread::yield();
    reg.unregister_self(handle);
  });
  while (!registered.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr int kSecondaries = 4;
  constexpr int kRounds = 50;
  std::atomic<int> successes{0};
  std::vector<std::thread> secondaries;
  secondaries.reserve(kSecondaries);
  for (int t = 0; t < kSecondaries; ++t) {
    secondaries.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (reg.serialize(handle)) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : secondaries) th.join();
  EXPECT_EQ(successes.load(), kSecondaries * kRounds);

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(Serializer, SlotIsReusableAfterUnregister) {
  auto& reg = SerializerRegistry::instance();
  for (int round = 0; round < 8; ++round) {
    std::thread t([&] {
      auto h = reg.register_self();
      ASSERT_TRUE(h.valid());
      reg.unregister_self(h);
    });
    t.join();
  }
  // Registry must not have leaked all its slots to dead threads.
  auto h = reg.register_self();
  EXPECT_TRUE(h.valid());
  reg.unregister_self(h);
}

TEST(Serializer, CoalescedAckCoversEachRequestUnderStress) {
  // Many secondaries hammer ONE primary. Each serialize() must return only
  // once the shared ack covers that caller's own request — verified through
  // the visibility guarantee: the primary's unfenced stores must be ordered
  // for every caller individually, no matter whose signal did the work.
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> registered{false};
  std::atomic<bool> stop{false};
  std::atomic<int> data{0};
  std::atomic<int> published{0};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    registered.store(true, std::memory_order_release);
    int v = 0;
    // Acquire pairs with the release store of `stop` below, so the main
    // thread's reads of `handle` happen before unregister_self rewrites it.
    while (!stop.load(std::memory_order_acquire)) {
      ++v;
      data.store(v, std::memory_order_relaxed);
      published.store(v, std::memory_order_relaxed);
    }
    reg.unregister_self(handle);
  });
  while (!registered.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr int kSecondaries = 8;
  constexpr int kRounds = 300;
  const std::uint64_t posted_before =
      SerializerRegistry::signals_posted(handle);
  const std::uint64_t received_before =
      SerializerRegistry::signals_received(handle);

  std::atomic<int> violations{0};
  std::vector<std::thread> secondaries;
  secondaries.reserve(kSecondaries);
  for (int t = 0; t < kSecondaries; ++t) {
    secondaries.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(reg.serialize(handle));
        // data is stored before published each round, so a covering ack
        // implies data >= the published value sampled afterwards, minus the
        // one store that may be mid-round.
        const int p = published.load(std::memory_order_relaxed);
        const int d = data.load(std::memory_order_relaxed);
        if (d < p - 1) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : secondaries) th.join();
  EXPECT_EQ(violations.load(), 0);

  // Coalescing must actually engage: with 8 secondaries sharing round
  // trips, both the signals posted (pthread_kill calls) and the handler
  // runs grow sublinearly in the number of requests.
  const std::uint64_t requests = kSecondaries * kRounds;
  const std::uint64_t posted =
      SerializerRegistry::signals_posted(handle) - posted_before;
  const std::uint64_t received =
      SerializerRegistry::signals_received(handle) - received_before;
  EXPECT_LE(posted, requests * 3 / 4) << "coalescing did not engage";
  EXPECT_LE(received, requests * 3 / 4);

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(Serializer, SerializeManyEmptySpanIsNoop) {
  auto& reg = SerializerRegistry::instance();
  EXPECT_EQ(reg.serialize_many({}), 0u);
}

TEST(Serializer, SerializeManySkipsInvalidAndCountsSelf) {
  auto& reg = SerializerRegistry::instance();
  auto self = reg.register_self();
  ASSERT_TRUE(self.valid());
  std::array<SerializerRegistry::Handle, 2> hs = {
      SerializerRegistry::Handle{},  // invalid: skipped
      self,                          // self: local fence, still counted
  };
  EXPECT_EQ(reg.serialize_many(hs), 1u);
  reg.unregister_self(self);
}

TEST(Serializer, SerializeManyCoversEveryPrimaryInTheWave) {
  // The batched wave gives the same per-primary visibility guarantee as N
  // individual round trips: after serialize_many returns, every primary's
  // unfenced stores are visible.
  auto& reg = SerializerRegistry::instance();
  constexpr int kPrimaries = 4;
  std::atomic<int> registered{0};
  std::atomic<bool> stop{false};
  std::array<SerializerRegistry::Handle, kPrimaries> handles;
  std::array<std::atomic<int>, kPrimaries> data;
  std::array<std::atomic<int>, kPrimaries> published;
  for (int i = 0; i < kPrimaries; ++i) {
    data[i].store(0);
    published[i].store(0);
  }

  std::vector<std::thread> primaries;
  for (int t = 0; t < kPrimaries; ++t) {
    primaries.emplace_back([&, t] {
      handles[t] = reg.register_self();
      registered.fetch_add(1, std::memory_order_acq_rel);
      int v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++v;
        data[t].store(v, std::memory_order_relaxed);
        published[t].store(v, std::memory_order_relaxed);
      }
      reg.unregister_self(handles[t]);
    });
  }
  while (registered.load(std::memory_order_acquire) < kPrimaries) {
    std::this_thread::yield();
  }

  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(reg.serialize_many(handles),
              static_cast<std::size_t>(kPrimaries));
    for (int t = 0; t < kPrimaries; ++t) {
      const int p = published[t].load(std::memory_order_relaxed);
      const int d = data[t].load(std::memory_order_relaxed);
      EXPECT_GE(d, p - 1) << "primary " << t << " round " << round;
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& th : primaries) th.join();
}

TEST(Serializer, ResignalRecoversFromStalledDelivery) {
  // A primary that briefly blocks the serialization signal stands in for a
  // lost/late delivery: the secondary's bounded ack wait must re-post
  // instead of spinning forever, and count the re-posts for observability.
  auto& reg = SerializerRegistry::instance();
  std::atomic<bool> registered{false};
  std::atomic<bool> stop{false};
  SerializerRegistry::Handle handle;

  std::thread primary([&] {
    handle = reg.register_self();
    sigset_t block, old;
    sigemptyset(&block);
    sigaddset(&block, SerializerRegistry::signal_number());
    ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old), 0);
    registered.store(true, std::memory_order_release);
    // Window during which every posted signal stays pending, undelivered.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old, nullptr), 0);
    while (!stop.load(std::memory_order_acquire)) std::this_thread::yield();
    reg.unregister_self(handle);
  });
  while (!registered.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::uint64_t resignals_before = SerializerRegistry::resignals(handle);
  EXPECT_TRUE(reg.serialize(handle));  // stalls ~50ms, then recovers
  EXPECT_GE(SerializerRegistry::resignals(handle), resignals_before + 1);

  stop.store(true, std::memory_order_release);
  primary.join();
}

TEST(Serializer, SerializeAfterUnregisterReturnsFalse) {
  auto& reg = SerializerRegistry::instance();
  SerializerRegistry::Handle stale;
  std::thread t([&] {
    auto h = reg.register_self();
    stale = h;  // leak a copy of the handle
    reg.unregister_self(h);
  });
  t.join();
  EXPECT_FALSE(reg.serialize(stale));
}

}  // namespace
}  // namespace lbmf
