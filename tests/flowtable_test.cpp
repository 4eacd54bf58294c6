#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "lbmf/flowtable/flow_table.hpp"
#include "lbmf/flowtable/pipeline.hpp"
#include "lbmf/serve/server.hpp"

namespace lbmf::flowtable {
namespace {

template <typename P>
class FlowTableTest : public ::testing::Test {};

using Policies = ::testing::Types<SymmetricFence, AsymmetricSignalFence,
                                  AsymmetricMembarrierFence>;
TYPED_TEST_SUITE(FlowTableTest, Policies);

TYPED_TEST(FlowTableTest, RecordsAndAccumulatesPerFlow) {
  FlowTable<TypeParam> t(1u << 6);
  t.bind_owner();
  t.record_packet(7, 100);
  t.record_packet(7, 50);
  t.record_packet(9, 10);
  auto s7 = t.owner_peek(7);
  ASSERT_TRUE(s7.has_value());
  EXPECT_EQ(s7->packets, 2u);
  EXPECT_EQ(s7->bytes, 150u);
  auto s9 = t.owner_peek(9);
  ASSERT_TRUE(s9.has_value());
  EXPECT_EQ(s9->packets, 1u);
  EXPECT_FALSE(t.owner_peek(8).has_value());
  EXPECT_EQ(t.flow_count(), 2u);
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, HashCollisionsProbeLinearly) {
  // Tiny table forces collisions; every key must stay distinct.
  FlowTable<TypeParam> t(1u << 3);
  t.bind_owner();
  for (FlowKey k = 1; k <= 6; ++k) t.record_packet(k, 1);
  EXPECT_EQ(t.flow_count(), 6u);
  for (FlowKey k = 1; k <= 6; ++k) {
    auto s = t.owner_peek(k);
    ASSERT_TRUE(s.has_value()) << k;
    EXPECT_EQ(s->packets, 1u) << k;
  }
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, RemoteRuleUpdateIsSeenByOwner) {
  FlowTable<TypeParam> t;
  std::atomic<bool> bound{false};
  std::atomic<bool> updated{false};
  std::atomic<std::uint32_t> observed_rule{0};
  std::atomic<bool> updater_done{false};

  std::thread owner([&] {
    t.bind_owner();
    bound.store(true, std::memory_order_release);
    // Process packets for the flow until the remotely-installed rule shows
    // up in the owner's fast path.
    while (observed_rule.load(std::memory_order_relaxed) != 5) {
      const std::uint32_t rule = t.record_packet(42, 64);
      if (rule != 0) observed_rule.store(rule, std::memory_order_relaxed);
    }
    while (!updater_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    t.unbind_owner();
  });
  while (!bound.load(std::memory_order_acquire)) std::this_thread::yield();

  t.update_rule(42, 5);
  updated.store(true, std::memory_order_release);
  updater_done.store(true, std::memory_order_release);
  owner.join();
  EXPECT_EQ(observed_rule.load(), 5u);
  EXPECT_GE(t.sync_stats().secondary_acquires, 1u);
}

TYPED_TEST(FlowTableTest, RemoteReaderSeesConsistentTotals) {
  FlowTable<TypeParam> t;
  std::atomic<bool> bound{false};
  std::atomic<bool> reader_done{false};
  constexpr std::uint64_t kPackets = 5000;

  std::thread owner([&] {
    t.bind_owner();
    bound.store(true, std::memory_order_release);
    PacketGenerator gen(1, 64);
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      const auto p = gen.next();
      t.record_packet(p.key, p.bytes);
    }
    while (!reader_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    t.unbind_owner();
  });
  while (!bound.load(std::memory_order_acquire)) std::this_thread::yield();

  // Concurrent totals are momentary snapshots and must never exceed the
  // final count; the final snapshot must be exact.
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t total = t.remote_total_packets();
    EXPECT_GE(total, last);
    EXPECT_LE(total, kPackets);
    last = total;
  }
  // Spin until the owner finished producing.
  while (t.remote_total_packets() < kPackets) std::this_thread::yield();
  EXPECT_EQ(t.remote_total_packets(), kPackets);
  reader_done.store(true, std::memory_order_release);
  owner.join();
}

TYPED_TEST(FlowTableTest, UpdateRuleReportsInsertVsUpdate) {
  FlowTable<TypeParam> t(1u << 6);
  t.bind_owner();
  t.record_packet(7, 100);
  // Existing flow: update, no new entry, stats preserved.
  EXPECT_TRUE(t.update_rule(7, 3));
  EXPECT_EQ(t.flow_count(), 1u);
  auto s7 = t.owner_peek(7);
  ASSERT_TRUE(s7.has_value());
  EXPECT_EQ(s7->rule, 3u);
  EXPECT_EQ(s7->packets, 1u);
  // Missing flow: explicit insert of a zero-packet flow, reported as such.
  EXPECT_FALSE(t.update_rule(8, 4));
  EXPECT_EQ(t.flow_count(), 2u);
  auto s8 = t.owner_peek(8);
  ASSERT_TRUE(s8.has_value());
  EXPECT_EQ(s8->rule, 4u);
  EXPECT_EQ(s8->packets, 0u);
  // Traffic arriving after the pre-installed rule sees it immediately.
  EXPECT_EQ(t.record_packet(8, 64), 4u);
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, GrowableTableRehashesIncrementally) {
  // Start tiny and push three orders of magnitude more flows through:
  // every doubling runs the incremental old->new migration under live
  // mutation, and nothing may be lost or double-counted.
  FlowTable<TypeParam> t(1u << 4, Growth::kGrowable);
  t.bind_owner();
  constexpr FlowKey kFlows = 20000;
  for (int round = 0; round < 2; ++round) {
    for (FlowKey k = 1; k <= kFlows; ++k) t.record_packet(k, 10);
  }
  EXPECT_EQ(t.flow_count(), kFlows);
  EXPECT_GE(t.grow_count(), 10u);  // 16 -> 32768 is 11 doublings
  EXPECT_GE(t.capacity(), kFlows * 4 / 3);
  for (FlowKey k = 1; k <= kFlows; ++k) {
    auto s = t.owner_peek(k);
    ASSERT_TRUE(s.has_value()) << k;
    EXPECT_EQ(s->packets, 2u) << k;
    EXPECT_EQ(s->bytes, 20u) << k;
  }
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, RulesSurviveMigration) {
  FlowTable<TypeParam> t(1u << 4, Growth::kGrowable);
  t.bind_owner();
  // Install rules early, then force several growths; rules must follow the
  // entries across the rehash.
  for (FlowKey k = 1; k <= 10; ++k) {
    t.record_packet(k, 1);
    t.update_rule(k, static_cast<std::uint32_t>(k * 7));
  }
  for (FlowKey k = 11; k <= 4000; ++k) t.record_packet(k, 1);
  for (FlowKey k = 1; k <= 10; ++k) {
    EXPECT_EQ(t.record_packet(k, 1), k * 7) << k;
  }
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, EvictBelowDropsColdFlows) {
  FlowTable<TypeParam> t(1u << 4, Growth::kGrowable);
  t.bind_owner();
  for (FlowKey k = 1; k <= 100; ++k) {
    const int reps = (k % 10 == 0) ? 5 : 1;  // every 10th flow is hot
    for (int r = 0; r < reps; ++r) t.record_packet(k, 8);
  }
  EXPECT_EQ(t.flow_count(), 100u);
  EXPECT_EQ(t.remote_evict_below(5), 90u);
  EXPECT_EQ(t.flow_count(), 10u);
  for (FlowKey k = 1; k <= 100; ++k) {
    auto s = t.owner_peek(k);
    if (k % 10 == 0) {
      ASSERT_TRUE(s.has_value()) << k;
      EXPECT_EQ(s->packets, 5u) << k;
    } else {
      EXPECT_FALSE(s.has_value()) << k;
    }
  }
  // The table remains fully usable after the rebuild.
  t.record_packet(3, 8);
  EXPECT_EQ(t.flow_count(), 11u);
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, TotalCountsOnlyOccupiedSlots) {
  // Two kinds of slot keep counters of no live flow: the kMoved tombstones
  // of an array still draining, and the slots an eviction emptied.
  FlowTable<TypeParam> t(1u << 4, Growth::kGrowable);
  t.bind_owner();
  auto migrating = [&] {
    return t.capacity() > (std::size_t{16} << t.grow_count());
  };
  FlowKey k = 0;
  std::uint64_t packets = 0;
  while (t.grow_count() < 4 || !migrating()) {
    t.record_packet(++k, 64);
    ++packets;
  }
  // Two more mutations move 16 entries and leave 16 tombstones behind.
  t.record_packet(2, 64);
  t.record_packet(4, 64);
  packets += 2;
  ASSERT_TRUE(migrating());
  EXPECT_EQ(t.remote_total_packets(), packets);

  // Every even flow gets a second packet; the odd ones are evicted.
  for (FlowKey f = 6; f <= k; f += 2) t.record_packet(f, 64);
  EXPECT_EQ(t.remote_evict_below(2), k - k / 2);
  EXPECT_EQ(t.flow_count(), k / 2);
  EXPECT_EQ(t.remote_total_packets(), 2 * (k / 2));
  t.unbind_owner();
}

TYPED_TEST(FlowTableTest, MappedArraysHoldTwoHundredThousandFlows) {
  // 16 slots to 2^19: the last arrays are 8 and 16 MiB mappings. Rules
  // ride along through every migration.
  FlowTable<TypeParam> t(1u << 4, Growth::kGrowable);
  t.bind_owner();
  constexpr FlowKey kFlows = 200000;
  auto bytes_of = [](FlowKey f) {
    return static_cast<std::uint32_t>(f % 1400);
  };
  auto rule_of = [](FlowKey f) {
    return static_cast<std::uint32_t>(f * 2654435761u);
  };
  for (FlowKey f = 1; f <= kFlows; ++f) {
    t.record_packet(f, bytes_of(f));
    t.sync_mutex().lock_primary();
    EXPECT_TRUE(t.upsert_rule_locked(f, rule_of(f)));
    t.sync_mutex().unlock_primary();
  }
  // A second packet for every flow and a third for every fourth one; the
  // mutations also drain the last migration.
  for (FlowKey f = 1; f <= kFlows; ++f) {
    const int reps = f % 4 == 0 ? 2 : 1;
    for (int r = 0; r < reps; ++r) t.record_packet(f, bytes_of(f));
  }
  ASSERT_EQ(t.capacity(), std::size_t{16} << t.grow_count());
  EXPECT_EQ(t.grow_count(), 15u);
  EXPECT_EQ(t.flow_count(), kFlows);
  for (FlowKey f = 1; f <= kFlows; ++f) {
    const std::uint64_t n = f % 4 == 0 ? 3 : 2;
    const auto s = t.owner_peek(f);
    ASSERT_TRUE(s.has_value()) << f;
    ASSERT_EQ(s->packets, n) << f;
    ASSERT_EQ(s->bytes, n * bytes_of(f)) << f;
    ASSERT_EQ(s->rule, rule_of(f)) << f;
  }
  EXPECT_EQ(t.remote_total_packets(), 2 * kFlows + kFlows / 4);

  EXPECT_EQ(t.remote_evict_below(3), kFlows - kFlows / 4);
  EXPECT_EQ(t.flow_count(), kFlows / 4);
  EXPECT_EQ(t.remote_total_packets(), 3 * (kFlows / 4));
  for (FlowKey f = 1; f <= kFlows; ++f) {
    const auto s = t.owner_peek(f);
    ASSERT_EQ(s.has_value(), f % 4 == 0) << f;
    if (s) {
      ASSERT_EQ(s->packets, 3u) << f;
      ASSERT_EQ(s->bytes, 3u * bytes_of(f)) << f;
      ASSERT_EQ(s->rule, rule_of(f)) << f;
    }
  }
  t.unbind_owner();
}

TEST(FlowTableDeath, FixedCapacityTableDiesWhenFull) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FlowTable<SymmetricFence> t(1u << 3, Growth::kFixed);
        t.bind_owner();
        for (FlowKey k = 1; k <= 8; ++k) t.record_packet(k, 1);
        t.unbind_owner();
      },
      "flow table full");
}

// 0 passes a bare `n & (n - 1)` power-of-two test; without the check the
// first packet probes a table with no slots.
TEST(FlowTableDeath, ZeroCapacityIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FlowTable<SymmetricFence> t(0, Growth::kGrowable);
        t.bind_owner();
        t.record_packet(1, 1);
        t.unbind_owner();
      },
      "flow table capacity must be a power of two");
}

TEST(FlowTableDeath, ServerWithZeroShardCapacityIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  serve::ServeConfig cfg;
  cfg.shards = 1;
  cfg.initial_shard_capacity = 0;
  EXPECT_DEATH(
      {
        serve::Server<SymmetricFence> srv(cfg);
        srv.start();
        auto client = srv.make_client();
        client.try_submit(/*key=*/1, /*bytes=*/64, /*burst=*/1, /*now_tsc=*/0);
        srv.stop();
      },
      "flow table capacity must be a power of two");
}

TEST(PacketGenerator, DeterministicAndBounded) {
  PacketGenerator a(7, 100), b(7, 100);
  std::set<FlowKey> keys;
  for (int i = 0; i < 1000; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    EXPECT_EQ(pa.key, pb.key);
    EXPECT_EQ(pa.bytes, pb.bytes);
    EXPECT_GE(pa.key, 1u);
    EXPECT_LE(pa.key, 100u);
    EXPECT_GE(pa.bytes, 64u);
    EXPECT_LT(pa.bytes, 1500u);
    keys.insert(pa.key);
  }
  EXPECT_GT(keys.size(), 10u);  // draws from a real population
}

TEST(PacketGenerator, HotSetDominates) {
  PacketGenerator gen(3, 1000, /*hot_fraction=*/0.1, /*hot_probability=*/0.9);
  int hot = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.next().key <= 100) ++hot;  // the hot 10% of the population
  }
  EXPECT_GT(hot, kDraws / 2);  // well over half the traffic
}

TEST(Pipeline, EndToEndRunProcessesPacketsAndUpdates) {
  const PipelineResult r = run_pipeline<AsymmetricSignalFence>(
      /*duration_s=*/0.1, /*updaters=*/1, /*update_interval_us=*/500);
  EXPECT_GT(r.packets_processed, 1000u);
  EXPECT_GT(r.remote_updates, 0u);
  EXPECT_GT(r.packets_per_second(), 0.0);
  // Every remote update went through the secondary (serializing) path.
  EXPECT_EQ(r.sync.secondary_acquires, r.remote_updates);
  // The owner paid one primary announce per packet.
  EXPECT_GE(r.sync.primary_acquires, r.packets_processed);
}

TEST(Pipeline, GrowableTableAbsorbsUndersizedCapacity) {
  // A 64-slot growable table under a 20k-flow population: the owner grows
  // the table live (with updaters poking the secondary side) instead of
  // dying with "flow table full" as the fixed path would.
  const PipelineResult r = run_pipeline<AsymmetricSignalFence>(
      /*duration_s=*/0.1, /*updaters=*/1, /*update_interval_us=*/500,
      /*flows=*/20000, /*seed=*/0xf10u, /*capacity_pow2=*/1u << 6,
      Growth::kGrowable);
  EXPECT_GT(r.packets_processed, 1000u);
  EXPECT_GT(r.flows_seen, 1000u);
  EXPECT_GE(r.table_grows, 5u);
  EXPECT_EQ(r.sync.secondary_acquires, r.remote_updates);
}

TEST(Pipeline, NoUpdatersMeansNoSerializations) {
  const PipelineResult r = run_pipeline<AsymmetricSignalFence>(
      /*duration_s=*/0.05, /*updaters=*/0, /*update_interval_us=*/0);
  EXPECT_GT(r.packets_processed, 1000u);
  EXPECT_EQ(r.remote_updates, 0u);
  EXPECT_EQ(r.sync.serializations, 0u);
}

}  // namespace
}  // namespace lbmf::flowtable
