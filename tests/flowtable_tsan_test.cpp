// ThreadSanitizer harness for the flow-table stack: the Dekker-guarded
// table itself (owner fast path vs remote rule updates/reads), the
// owner-side incremental rehash under concurrent secondary traffic, the
// lock-free flow_count()/grow_count() snapshots, and the serving tier's
// SPSC lanes + cross-shard secondary waves, with idle gaps that put the
// shard owners on their yield path between bursts. Everything racy is
// instantiated (and instrumented) in this TU; see deque_tsan_test.cpp for
// the probe/linking rationale.
//
// Not a gtest binary: TSAN_OPTIONS=halt_on_error=1 turns any report into a
// non-zero exit, which is the assertion.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "lbmf/flowtable/flow_table.hpp"
#include "lbmf/flowtable/pipeline.hpp"
#include "lbmf/serve/serve.hpp"
#include "lbmf/util/check.hpp"

namespace {

using namespace lbmf;
using namespace lbmf::flowtable;
using namespace lbmf::serve;

// Owner records traffic into an undersized growable table (continuous
// incremental rehash) while one thread updates rules, one reads flows and
// totals, and one polls the lock-free counters.
void table_growth_race() {
  const PipelineResult r = run_pipeline<AsymmetricSignalFence>(
      /*duration_s=*/0.2, /*updaters=*/2, /*update_interval_us=*/200,
      /*flows=*/20000, /*seed=*/0xf10u, /*capacity_pow2=*/1u << 6,
      Growth::kGrowable);
  LBMF_CHECK(r.packets_processed > 0);
  LBMF_CHECK(r.table_grows > 0);
}

void table_remote_readers() {
  FlowTable<AsymmetricSignalFence> t(1u << 5, Growth::kGrowable);
  std::atomic<bool> bound{false};
  std::atomic<bool> stop{false};

  std::thread owner([&] {
    t.bind_owner();
    bound.store(true, std::memory_order_release);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      t.record_packet(i % 5000 + 1, 64);
      ++i;
    }
    t.unbind_owner();
  });
  while (!bound.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      (void)t.remote_read(static_cast<FlowKey>(i % 100 + 1));
      (void)t.remote_total_packets();
    }
  });
  std::thread counter([&] {
    for (int i = 0; i < 20000; ++i) {
      (void)t.flow_count();
      (void)t.grow_count();
    }
  });
  std::thread evictor([&] {
    for (int i = 0; i < 5; ++i) (void)t.remote_evict_below(2);
  });
  reader.join();
  counter.join();
  evictor.join();
  stop.store(true, std::memory_order_release);
  owner.join();
}

// Serving tier: a client thread streams requests through the SPSC lanes
// while a control thread alternates single-shard updates with cross-shard
// waves (rule pushes, stats export, eviction) and a stats thread reads the
// lock-free snapshots.
void serve_race() {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.max_clients = 1;
  cfg.ring_capacity = 128;
  cfg.batch_limit = 32;
  cfg.initial_shard_capacity = 1u << 6;
  Server<AsymmetricSignalFence> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  std::atomic<bool> stop{false};
  std::thread control([&] {
    std::vector<RuleUpdate> updates;
    for (FlowKey k = 1; k <= 16; ++k) {
      updates.push_back({k, static_cast<std::uint32_t>(k)});
    }
    while (!stop.load(std::memory_order_relaxed)) {
      (void)srv.push_rules_wave(updates);
      (void)srv.update_rule(3, 7);
      (void)srv.total_packets();
      (void)srv.evict_sweep(1);
    }
  });
  std::thread stats([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)srv.stats();
      (void)srv.live_flows();
    }
  });

  // Bursts, each after an idle gap long enough for the owners to reach the
  // yield path of their idle wait (about 41 us of pauses, more under TSan).
  constexpr std::size_t kReqs = 30000;
  constexpr std::size_t kBurst = 3000;
  std::uint64_t reaped = 0, submitted = 0;
  while (reaped < kReqs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t end = reaped + kBurst;
    while (reaped < end) {
      if (submitted < end &&
          client.try_submit(submitted % 2000 + 1, 64, 2, submitted)) {
        ++submitted;
      }
      reaped += client.poll(nullptr);
    }
  }
  stop.store(true, std::memory_order_release);
  control.join();
  stats.join();
  srv.stop();
  LBMF_CHECK(srv.stats().packets == kReqs * 2);
}

}  // namespace

int main() {
  table_growth_race();
  table_remote_readers();
  serve_race();
  std::puts("flowtable_tsan_test: OK");
  return 0;
}
