#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/serve/serve.hpp"
#include "lbmf/util/histogram.hpp"
#include "lbmf/util/rng.hpp"
#include "lbmf/util/timing.hpp"

namespace lbmf::serve {
namespace {

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, FifoOrderAcrossWraparound) {
  SpscRing<int> r(8);
  int out[8];
  int next_push = 0, next_pop = 0;
  // Push/pop in a 5/3 pattern so the indices wrap several times.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      if (r.try_push(next_push)) ++next_push;
    }
    const std::size_t n = r.pop_some(out, 3);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_pop++);
  }
  while (r.pop_some(out, 8) > 0) {
  }
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> r(4);
  EXPECT_EQ(r.capacity(), 4u);
  int v;
  EXPECT_FALSE(r.try_pop(&v));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(99));  // full
  EXPECT_EQ(r.size(), 4u);
  EXPECT_TRUE(r.try_pop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(r.try_push(4));  // slot freed
  EXPECT_FALSE(r.try_push(5));
}

TEST(SpscRing, TwoThreadStream) {
  SpscRing<std::uint64_t> r(64);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (r.try_push(i)) ++i;
    }
  });
  std::uint64_t expect = 0;
  std::uint64_t buf[32];
  while (expect < kN) {
    const std::size_t n = r.pop_some(buf, 32);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expect);
      ++expect;
    }
  }
  producer.join();
}

// ------------------------------------------------------------------ Server

template <typename P>
class ServerTest : public ::testing::Test {};

using Policies = ::testing::Types<SymmetricFence, AsymmetricSignalFence,
                                  AsymmetricMembarrierFence>;
TYPED_TEST_SUITE(ServerTest, Policies);

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.max_clients = 2;
  cfg.ring_capacity = 256;
  cfg.batch_limit = 64;
  cfg.initial_shard_capacity = 1u << 6;  // force growth under serving
  return cfg;
}

/// Submit kReqs requests (burst packets each) over `keys`, reap everything,
/// and return the per-key last-seen rule.
template <typename P>
std::uint64_t pump(Server<P>&, typename Server<P>::Client& client,
                   const std::vector<FlowKey>& keys, std::uint32_t burst,
                   LogHistogram* hist = nullptr) {
  std::uint64_t submitted = 0, reaped = 0;
  std::size_t next = 0;
  while (reaped < keys.size()) {
    if (submitted < keys.size()) {
      const std::uint64_t now = rdtsc();
      if (client.try_submit(keys[next], 64, burst, now)) {
        ++submitted;
        ++next;
      }
    }
    reaped += client.poll(hist);
  }
  return reaped;
}

TYPED_TEST(ServerTest, EndToEndAccountsEveryPacket) {
  Server<TypeParam> srv(small_config());
  srv.start();
  auto client = srv.make_client();

  constexpr std::size_t kReqs = 5000;
  std::vector<FlowKey> keys;
  keys.reserve(kReqs);
  for (std::size_t i = 0; i < kReqs; ++i) {
    keys.push_back(static_cast<FlowKey>(i % 1000 + 1));  // 1000 distinct
  }
  LogHistogram hist;
  EXPECT_EQ(pump(srv, client, keys, /*burst=*/2, &hist), kReqs);

  // Consistent wave export while owners are still live.
  EXPECT_EQ(srv.total_packets(), kReqs * 2u);
  EXPECT_EQ(hist.count(), kReqs);
  EXPECT_GT(hist.percentile(99), 0u);

  srv.stop();
  const ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, kReqs);
  EXPECT_EQ(s.packets, kReqs * 2u);
  EXPECT_EQ(s.flows, 1000u);
  EXPECT_GE(s.grows, 2u);  // 64-slot shards grew to hold ~500 flows each
  // Both shards saw traffic (the router spreads 1..1000 over 2 shards).
  ASSERT_EQ(s.shards.size(), 2u);
  EXPECT_GT(s.shards[0].requests, 0u);
  EXPECT_GT(s.shards[1].requests, 0u);
}

TYPED_TEST(ServerTest, WavePushInstallsRulesAcrossShards) {
  Server<TypeParam> srv(small_config());
  srv.start();
  auto client = srv.make_client();

  // Rules pushed ahead of traffic: every update is an insert.
  std::vector<RuleUpdate> updates;
  for (FlowKey k = 1; k <= 64; ++k) {
    updates.push_back({k, static_cast<std::uint32_t>(k + 100)});
  }
  EXPECT_EQ(srv.push_rules_wave(updates), 0u);

  // Traffic for those keys must observe the pushed rules.
  std::vector<FlowKey> keys;
  for (FlowKey k = 1; k <= 64; ++k) keys.push_back(k);
  std::uint64_t reaped = 0;
  std::size_t next = 0;
  std::vector<std::uint32_t> rule_seen(65, 0);
  while (reaped < keys.size()) {
    if (next < keys.size() &&
        client.try_submit(keys[next], 64, 1, rdtsc())) {
      ++next;
    }
    // Reap through the shard rings directly to check rules per key.
    for (std::size_t s = 0; s < srv.num_shards(); ++s) {
      Response rs;
      while (srv.shard(s).egress(client.lane()).try_pop(&rs)) {
        rule_seen[rs.key] = rs.rule;
        ++reaped;
      }
    }
  }
  for (FlowKey k = 1; k <= 64; ++k) {
    EXPECT_EQ(rule_seen[k], k + 100) << k;
  }

  // A second wave over now-existing flows reports them all as updates.
  EXPECT_EQ(srv.push_rules_wave(updates), updates.size());
  // One secondary acquisition per update applies the same way.
  for (const RuleUpdate& u : updates) {
    EXPECT_TRUE(srv.update_rule(u.key, u.rule)) << u.key;
  }
  srv.stop();
}

TYPED_TEST(ServerTest, EvictSweepDropsColdFlowsUnderLoad) {
  Server<TypeParam> srv(small_config());
  srv.start();
  auto client = srv.make_client();

  // 200 hot keys x 5 requests, 800 cold keys x 1.
  std::vector<FlowKey> keys;
  for (FlowKey k = 1; k <= 200; ++k) {
    for (int r = 0; r < 5; ++r) keys.push_back(k);
  }
  for (FlowKey k = 201; k <= 1000; ++k) keys.push_back(k);
  pump(srv, client, keys, /*burst=*/1);

  EXPECT_EQ(srv.evict_sweep(5), 800u);
  const ServerStats s = srv.stats();
  EXPECT_EQ(s.flows, 200u);
  // Survivors keep serving and their stats live on.
  std::vector<FlowKey> again(10, 7);
  pump(srv, client, again, /*burst=*/1);
  srv.stop();
  auto st = srv.shard(srv.shard_of(7)).table().owner_peek(7);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->packets, 15u);
}

TYPED_TEST(ServerTest, PrefillWavesInstallEveryFlowOnce) {
  // lbmfbench's set-up at a quarter of its size: waves of 4096 new flows
  // into two shards that start at 4096 slots each, so every shard grows
  // six times onto mapped arrays while the waves arrive.
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.ring_capacity = 1024;
  Server<TypeParam> srv(cfg);
  srv.start();
  constexpr std::size_t kWave = 4096;
  constexpr std::size_t kFlows = std::size_t{1} << 18;
  SplitMix64 keys(0x5eed);
  std::vector<RuleUpdate> wave(kWave);
  for (std::size_t done = 0; done < kFlows; done += kWave) {
    for (RuleUpdate& u : wave) {
      u = {keys.next(), static_cast<std::uint32_t>(done)};
    }
    ASSERT_EQ(srv.push_rules_wave(wave), 0u) << "wave at " << done;
    ASSERT_EQ(srv.live_flows(), done + kWave);
  }
  // The control plane's steady-state wave: 8 updates to installed flows.
  const std::vector<RuleUpdate> eight(wave.begin(), wave.begin() + 8);
  EXPECT_EQ(srv.push_rules_wave(eight), 8u);
  srv.stop();
  EXPECT_EQ(srv.stats().flows, kFlows);
  EXPECT_EQ(srv.stats().grows, 12u);
}

TYPED_TEST(ServerTest, RequestAfterAnIdleGapIsServed) {
  // An idle owner yields after about 41 us of pauses, so each request
  // below reaches an owner that is on its yield path.
  Server<TypeParam> srv(small_config());
  srv.start();
  auto client = srv.make_client();
  constexpr FlowKey kKeys = 8;  // keys 1..8 land on both shards
  for (FlowKey k = 1; k <= kKeys; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(client.try_submit(k, 64, /*burst=*/3, rdtsc()));
    Stopwatch waited;
    while (client.poll(nullptr) == 0) {
      ASSERT_LT(waited.seconds(), 10.0) << "request " << k << " not served";
    }
  }
  srv.stop();
  const ServerStats s = srv.stats();
  EXPECT_EQ(s.requests, kKeys);
  EXPECT_EQ(s.packets, 3 * kKeys);
  EXPECT_GT(s.shards[0].requests, 0u);
  EXPECT_GT(s.shards[1].requests, 0u);
}

TEST(ServerClients, TwoClientLanesAreIndependent) {
  ServeConfig cfg = small_config();
  Server<AsymmetricSignalFence> srv(cfg);
  srv.start();
  auto c1 = srv.make_client();
  auto c2 = srv.make_client();
  EXPECT_NE(c1.lane(), c2.lane());

  constexpr std::size_t kReqs = 3000;
  std::atomic<std::uint64_t> total{0};
  std::thread t2([&] {
    auto keys = std::vector<FlowKey>(kReqs, 0);
    for (std::size_t i = 0; i < kReqs; ++i) {
      keys[i] = static_cast<FlowKey>(2000 + i % 500);
    }
    total.fetch_add(pump(srv, c2, keys, 1));
  });
  std::vector<FlowKey> keys(kReqs, 0);
  for (std::size_t i = 0; i < kReqs; ++i) {
    keys[i] = static_cast<FlowKey>(1 + i % 500);
  }
  total.fetch_add(pump(srv, c1, keys, 1));
  t2.join();
  EXPECT_EQ(total.load(), 2 * kReqs);
  srv.stop();
  EXPECT_EQ(srv.stats().packets, 2 * kReqs);
  EXPECT_EQ(srv.stats().flows, 1000u);
}

TEST(ServerAdaptive, AdaptiveShardsServeCorrectlyAndRecordModes) {
  // Correctness smoke for P = AdaptiveFence: accounting must be exact
  // regardless of any live per-shard regime switches. (The deterministic
  // phase-change switching assertion lives in bench_serve's E19 leg, where
  // the phases are long enough to be reliable.)
  ServeConfig cfg = small_config();
  cfg.adapt.emplace();
  cfg.adapt->sample_every = 64;
  cfg.adapt->confirm_windows = 2;
  cfg.adapt->fixed_roundtrip_cycles = 10000;
  Server<adapt::AdaptiveFence> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  constexpr std::size_t kReqs = 20000;
  std::vector<FlowKey> keys;
  keys.reserve(kReqs);
  for (std::size_t i = 0; i < kReqs; ++i) {
    keys.push_back(static_cast<FlowKey>(i % 256 + 1));
  }
  pump(srv, client, keys, /*burst=*/2);
  // A burst of remote updates against both shards.
  for (int round = 0; round < 200; ++round) {
    for (FlowKey k = 1; k <= 8; ++k) {
      srv.update_rule(k, static_cast<std::uint32_t>(round));
    }
  }
  pump(srv, client, keys, /*burst=*/1);
  srv.stop();

  const ServerStats s = srv.stats();
  EXPECT_EQ(s.packets, kReqs * 3u);
  EXPECT_EQ(s.flows, 256u);
  ASSERT_EQ(s.shards.size(), 2u);
  // Every one of the 1600 updates went through some shard's secondary side.
  std::uint64_t secondary = 0;
  for (const ShardStats& sh : s.shards) secondary += sh.sync.secondary_acquires;
  EXPECT_EQ(secondary, 1600u);
}

TEST(ServerAdaptive, MembarrierPairShardsBindThatMechanism) {
  // The configured drain mechanism reaches every shard owner: its selector
  // binds the owner's primary to it at the loop boundary, as the
  // work-stealing scheduler's workers do.
  if (!membarrier::available()) {
    GTEST_SKIP() << "EXPEDITED membarrier unavailable on this host: shards "
                    "cannot drain through membarrier-pair, case not run";
  }
  ServeConfig cfg = small_config();
  cfg.adapt.emplace();
  cfg.adapt->sample_every = 64;
  cfg.adapt->backend = adapt::BackendId::kMembarrierPair;
  Server<adapt::AdaptiveFence> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  constexpr std::size_t kReqs = 5000;
  std::vector<FlowKey> keys;
  keys.reserve(kReqs);
  for (std::size_t i = 0; i < kReqs; ++i) {
    keys.push_back(static_cast<FlowKey>(i % 256 + 1));
  }
  pump(srv, client, keys, /*burst=*/1);
  for (FlowKey k = 1; k <= 64; ++k) srv.update_rule(k, 7);

  // Owners tick idle or busy, so each binds within a few windows; the
  // deadline only bounds a hang.
  for (std::size_t i = 0; i < srv.num_shards(); ++i) {
    const adapt::AdaptiveFence::Handle& h =
        srv.shard(i).table().sync_mutex().primary_handle();
    Stopwatch sw;
    while (adapt::AdaptiveFence::current_backend(h) !=
               adapt::BackendId::kMembarrierPair &&
           sw.seconds() < 10.0) {
      std::this_thread::yield();
    }
    EXPECT_EQ(adapt::AdaptiveFence::current_backend(h),
              adapt::BackendId::kMembarrierPair)
        << "shard " << i;
  }
  srv.stop();
  EXPECT_EQ(srv.stats().packets, kReqs);
}

TEST(ServerRouting, ShardOfIsStableAndInRange) {
  Server<SymmetricFence> srv([] {
    ServeConfig cfg;
    cfg.shards = 8;
    cfg.ring_capacity = 64;
    return cfg;
  }());
  std::set<std::size_t> hit;
  for (FlowKey k = 1; k <= 4096; ++k) {
    const std::size_t s = srv.shard_of(k);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, srv.shard_of(k));
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 8u);  // router actually spreads keys
}

}  // namespace
}  // namespace lbmf::serve
