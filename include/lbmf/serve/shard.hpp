#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lbmf/adapt/selector.hpp"
#include "lbmf/flowtable/flow_table.hpp"
#include "lbmf/serve/spsc_ring.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf::serve {

using flowtable::FlowKey;

/// One unit of client traffic: `burst` coalesced packets for one flow (the
/// GRO/receive-batching shape real NIC stacks hand a worker), stamped at
/// submission so the serving tier can histogram the full queue + service
/// sojourn per request.
struct Request {
  FlowKey key = 0;
  std::uint32_t bytes = 0;
  std::uint32_t burst = 1;
  std::uint64_t submit_tsc = 0;
};

/// What the owner hands back: the forwarding rule in force after the
/// request's packets were accounted (what a real pipeline would act on).
struct Response {
  FlowKey key = 0;
  std::uint32_t rule = 0;
  std::uint64_t submit_tsc = 0;
};

/// A control-plane rule installation (see Server::push_rules_wave).
struct RuleUpdate {
  FlowKey key = 0;
  std::uint32_t rule = 0;
};

struct ServeConfig {
  /// Power-of-two shard count; one owner thread per shard.
  std::size_t shards = 8;
  /// Client lanes: each client gets a private SPSC ingress/egress ring
  /// pair per shard.
  std::size_t max_clients = 2;
  /// Per-lane ring capacity (power of two). Also the per-lane in-flight
  /// bound Client enforces, which is what lets the owner treat its egress
  /// push as infallible.
  std::size_t ring_capacity = 1024;
  /// Max requests drained from one lane per owner visit (latency/fairness
  /// bound between lanes, and the size of the owner's scratch batch).
  std::size_t batch_limit = 256;
  /// Starting capacity of each shard's flow table.
  std::size_t initial_shard_capacity = 1u << 12;
  flowtable::Growth growth = flowtable::Growth::kGrowable;

  /// Set to turn adaptation on (meaningful only when P is an
  /// AdaptiveFencePolicy): each shard owner runs its own
  /// adapt::PolicySelector at its loop boundary — the same loop the
  /// work-stealing scheduler's workers run, keyed on packet-vs-rule-update
  /// frequency instead of pop-vs-steal.
  std::optional<adapt::SelectorConfig> adapt;
};

/// Point-in-time counters for one shard (momentary snapshots; exact once
/// the server is stopped).
struct ShardStats {
  std::uint64_t requests = 0;
  std::uint64_t packets = 0;
  std::size_t flows = 0;
  std::size_t grows = 0;
  std::uint64_t policy_switches = 0;
  DekkerStats sync;
};

/// The owner's wait between two empty polls of its lanes. Rounds stop
/// doubling at 8 pauses (~90 ns on a 4-vCPU Xeon KVM guest), so a lone
/// request is picked up within one short round; at SpinWait's default of
/// 64 (~690 ns) that pickup wait was the largest stage of a serve_rare
/// request's sojourn. 474 rounds (1 + 2 + 4 + 471 x 8 = 3,775 pauses, about
/// 41 us) precede the first yield, the default's budget. Other waiters keep
/// the default: a thief that polls sooner costs its victim more signal
/// round trips.
inline SpinWait owner_idle_wait() noexcept {
  return SpinWait(/*spin_limit=*/474, /*max_pauses=*/8);
}

/// One shard: a FlowTable owned by the thread running owner_loop(), plus
/// per-client SPSC lanes. The owner is the table's Dekker *primary* — every
/// packet it accounts costs an l-mfence announce only — while the control
/// plane reaches the table through the secondary side (directly or via
/// Server's cross-shard waves).
template <FencePolicy P>
class Shard {
 public:
  Shard(std::size_t index, const ServeConfig& cfg)
      : index_(index), table_(cfg.initial_shard_capacity, cfg.growth) {
    ingress_.reserve(cfg.max_clients);
    egress_.reserve(cfg.max_clients);
    for (std::size_t c = 0; c < cfg.max_clients; ++c) {
      ingress_.push_back(std::make_unique<SpscRing<Request>>(cfg.ring_capacity));
      egress_.push_back(std::make_unique<SpscRing<Response>>(cfg.ring_capacity));
    }
  }

  std::size_t index() const noexcept { return index_; }
  SpscRing<Request>& ingress(std::size_t lane) { return *ingress_[lane]; }
  SpscRing<Response>& egress(std::size_t lane) { return *egress_[lane]; }
  flowtable::FlowTable<P>& table() noexcept { return table_; }

  /// The shard's serving loop; runs on the shard's owner thread until
  /// `stop`. Registers the calling thread as the table's primary, bumps
  /// `ready`, then drains lanes in bounded batches.
  void owner_loop(const ServeConfig& cfg, const std::atomic<bool>& stop,
                  std::atomic<std::size_t>& ready) {
    table_.bind_owner();
    ready.fetch_add(1, std::memory_order_acq_rel);

    std::vector<Request> batch(cfg.batch_limit);
    std::unique_ptr<adapt::PolicySelector> selector;
    if constexpr (adapt::AdaptiveFencePolicy<P>) {
      if (cfg.adapt) {
        selector = std::make_unique<adapt::PolicySelector>(*cfg.adapt);
      }
    }
    SpinWait idle = owner_idle_wait();
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t drained = 0;
      for (std::size_t lane = 0; lane < ingress_.size(); ++lane) {
        const std::size_t n =
            ingress_[lane]->pop_some(batch.data(), batch.size());
        for (std::size_t i = 0; i < n; ++i) {
          const Request& rq = batch[i];
          std::uint32_t rule = 0;
          for (std::uint32_t b = 0; b < rq.burst; ++b) {
            rule = table_.record_packet(rq.key, rq.bytes);
          }
          packets_.store(
              packets_.load(std::memory_order_relaxed) + rq.burst,
              std::memory_order_relaxed);
          // Cannot fail: the client caps in-flight per lane at the ring
          // capacity, so egress occupancy never exceeds it.
          LBMF_CHECK(egress_[lane]->try_push(
              Response{rq.key, rule, rq.submit_tsc}));
        }
        drained += n;
      }
      requests_.store(requests_.load(std::memory_order_relaxed) + drained,
                      std::memory_order_relaxed);
      if constexpr (adapt::AdaptiveFencePolicy<P>) {
        if (selector) adapt_tick(*selector);
      }
      if (drained == 0) {
        idle.wait();
      } else {
        idle.reset();
      }
    }
    table_.unbind_owner();
  }

  ShardStats stats() const {
    ShardStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.packets = packets_.load(std::memory_order_relaxed);
    s.flows = table_.flow_count();
    s.grows = table_.grow_count();
    s.policy_switches = switches_.load(std::memory_order_relaxed);
    s.sync = table_.sync_stats();
    return s;
  }

 private:
  /// The drain-loop boundary is a quiescent point: no announce is in
  /// flight between batches. A window is the shard's own packet announces
  /// (primary acquires) against control-plane intrusions (secondary
  /// acquires).
  void adapt_tick(adapt::PolicySelector& selector)
    requires adapt::AdaptiveFencePolicy<P>
  {
    const DekkerStats d = table_.sync_stats();
    const typename P::Handle& h = table_.sync_mutex().primary_handle();
    if (selector.tick<P>(h, d.primary_acquires, d.secondary_acquires)) {
      switches_.store(P::switch_count(h), std::memory_order_relaxed);
    }
  }

  std::size_t index_;
  flowtable::FlowTable<P> table_;
  std::vector<std::unique_ptr<SpscRing<Request>>> ingress_;
  std::vector<std::unique_ptr<SpscRing<Response>>> egress_;
  // Single writer (the owner); read lock-free by stats exporters.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> packets_{0};
  std::atomic<std::uint64_t> switches_{0};
};

}  // namespace lbmf::serve
