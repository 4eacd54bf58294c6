#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "lbmf/serve/shard.hpp"
#include "lbmf/util/histogram.hpp"
#include "lbmf/util/timing.hpp"

namespace lbmf::serve {

/// Aggregated serving-tier counters (Server::stats()).
struct ServerStats {
  std::vector<ShardStats> shards;
  std::uint64_t requests = 0;
  std::uint64_t packets = 0;
  std::size_t flows = 0;
  std::size_t grows = 0;
  std::uint64_t policy_switches = 0;
};

/// The serving tier: the paper's packet-processing application (Sec. 1)
/// grown to server shape. The flow table is sharded per core by key hash;
/// each shard's owner runs on its own thread and is the Dekker *primary* of
/// its own table (data path = l-mfence announces only, scaled by sharding
/// and kept live at millions of flows by owner-side incremental rehash).
/// The control plane is the *secondary*: single-shard ops pay one gate +
/// fence + remote serialization, and multi-shard ops (rule pushes spanning
/// shards, table-wide stats export, eviction sweeps) acquire all their
/// shards through ONE lock_secondary_wave — one fence, one overlapped
/// serialize_many — instead of N sequential round trips.
template <FencePolicy P>
class Server {
 public:
  using Policy = P;

  explicit Server(ServeConfig cfg = {}) : cfg_(cfg) {
    LBMF_CHECK(cfg_.shards >= 1 && (cfg_.shards & (cfg_.shards - 1)) == 0);
    LBMF_CHECK(cfg_.max_clients >= 1);
    shards_.reserve(cfg_.shards);
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard<P>>(i, cfg_));
    }
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::size_t num_shards() const noexcept { return shards_.size(); }
  const ServeConfig& config() const noexcept { return cfg_; }

  /// Key-hash shard routing. Deliberately a different mix than FlowTable's
  /// in-table hash so shard choice and probe position are uncorrelated.
  std::size_t shard_of(FlowKey key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 40) &
           (shards_.size() - 1);
  }

  /// Launch one owner thread per shard; returns once every owner has
  /// registered as its table's primary.
  void start() {
    LBMF_CHECK_MSG(owners_.empty(), "Server already started");
    stop_.store(false, std::memory_order_relaxed);
    ready_.store(0, std::memory_order_relaxed);
    owners_.reserve(shards_.size());
    for (auto& sh : shards_) {
      owners_.emplace_back(
          [this, s = sh.get()] { s->owner_loop(cfg_, stop_, ready_); });
    }
    SpinWait sw;
    while (ready_.load(std::memory_order_acquire) < shards_.size()) sw.wait();
  }

  /// Stop and join the owner threads. Callers must have quiesced clients
  /// and control-plane threads first (owners unregister their primaries on
  /// the way out).
  void stop() {
    if (owners_.empty()) return;
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : owners_) t.join();
    owners_.clear();
  }

  // ------------------------------------------------------------ clients

  /// A client lane: submits requests to any shard and reaps responses,
  /// enforcing the per-lane in-flight bound that keeps the owner's egress
  /// push infallible. One thread per Client; distinct Clients are fully
  /// independent (private SPSC lanes).
  class Client {
   public:
    /// Route and enqueue one request. `now_tsc` is the submission stamp
    /// (pass rdtsc() — taking it as a parameter lets callers amortize one
    /// timestamp over a submission batch). Returns false when the lane is
    /// saturated (in-flight bound or ingress full): poll() and retry.
    bool try_submit(FlowKey key, std::uint32_t bytes, std::uint32_t burst,
                    std::uint64_t now_tsc) {
      const std::size_t s = srv_->shard_of(key);
      if (outstanding_[s] >= srv_->cfg_.ring_capacity) return false;
      if (!srv_->shards_[s]->ingress(lane_).try_push(
              Request{key, bytes, burst, now_tsc})) {
        return false;
      }
      ++outstanding_[s];
      ++in_flight_;
      return true;
    }

    /// Reap completed responses from every shard. Each response's sojourn
    /// (reap tsc − submit tsc) is recorded into `hist` when non-null; one
    /// timestamp per non-empty shard batch. Returns responses reaped.
    std::size_t poll(LogHistogram* hist = nullptr) {
      std::size_t reaped = 0;
      for (std::size_t s = 0; s < srv_->shards_.size(); ++s) {
        if (outstanding_[s] == 0) continue;
        const std::size_t n =
            srv_->shards_[s]->egress(lane_).pop_some(buf_.data(), buf_.size());
        if (n == 0) continue;
        if (hist != nullptr) {
          const std::uint64_t now = rdtsc();
          for (std::size_t i = 0; i < n; ++i) {
            hist->record(now - buf_[i].submit_tsc);
          }
        }
        outstanding_[s] -= static_cast<std::uint32_t>(n);
        in_flight_ -= n;
        reaped += n;
      }
      return reaped;
    }

    std::size_t in_flight() const noexcept { return in_flight_; }
    std::size_t lane() const noexcept { return lane_; }

   private:
    friend class Server;
    Client(Server* srv, std::size_t lane)
        : srv_(srv),
          lane_(lane),
          outstanding_(srv->shards_.size(), 0),
          buf_(srv->cfg_.batch_limit) {}

    Server* srv_;
    std::size_t lane_;
    std::vector<std::uint32_t> outstanding_;  // per shard
    std::size_t in_flight_ = 0;
    std::vector<Response> buf_;
  };

  /// Claim the next client lane. At most cfg.max_clients lanes exist.
  Client make_client() {
    const std::size_t lane =
        next_lane_.fetch_add(1, std::memory_order_relaxed);
    LBMF_CHECK_MSG(lane < cfg_.max_clients, "client lanes exhausted");
    return Client(this, lane);
  }

  // ------------------------------------------------------ control plane
  //
  // Secondary-side operations; any non-owner thread. Do not call once
  // stop() has begun.

  /// Install or change one flow's rule. Returns whether the flow existed.
  bool update_rule(FlowKey key, std::uint32_t rule) {
    return shards_[shard_of(key)]->table().update_rule(key, rule);
  }

  /// Push a batch of rule updates spanning any number of shards through
  /// ONE secondary wave: all touched shards' gates + intents first, one
  /// fence, one overlapped serialize_many, then the per-shard applies.
  /// Returns how many updates hit an existing flow.
  std::size_t push_rules_wave(std::span<const RuleUpdate> updates) {
    std::vector<std::vector<RuleUpdate>> per(shards_.size());
    for (const RuleUpdate& u : updates) per[shard_of(u.key)].push_back(u);
    std::vector<std::size_t> touched;
    for (std::size_t s = 0; s < per.size(); ++s) {
      if (!per[s].empty()) touched.push_back(s);
    }
    std::vector<AsymmetricMutex<P>*> ms;  // ascending shard order
    ms.reserve(touched.size());
    for (std::size_t s : touched) {
      ms.push_back(&shards_[s]->table().sync_mutex());
    }
    std::size_t existed = 0;
    lock_secondary_wave<P>(ms);
    for (std::size_t s : touched) {
      for (const RuleUpdate& u : per[s]) {
        existed += shards_[s]->table().upsert_rule_locked(u.key, u.rule) ? 1 : 0;
      }
    }
    unlock_secondary_wave<P>(ms);
    return existed;
  }

  /// Consistent table-wide packet total: every shard is held (via one
  /// wave) while the totals are read, so concurrent owner updates cannot
  /// tear the sum across shards.
  std::uint64_t total_packets() {
    std::vector<AsymmetricMutex<P>*> ms = all_mutexes();
    lock_secondary_wave<P>(ms);
    std::uint64_t total = 0;
    for (auto& sh : shards_) total += sh->table().total_packets_locked();
    unlock_secondary_wave<P>(ms);
    return total;
  }

  /// Evict every flow with fewer than `min_packets` packets, across all
  /// shards, under one wave. Returns flows evicted.
  std::size_t evict_sweep(std::uint64_t min_packets) {
    std::vector<AsymmetricMutex<P>*> ms = all_mutexes();
    lock_secondary_wave<P>(ms);
    std::size_t evicted = 0;
    for (auto& sh : shards_) {
      evicted += sh->table().evict_below_locked(min_packets);
    }
    unlock_secondary_wave<P>(ms);
    return evicted;
  }

  // -------------------------------------------------------------- stats

  Shard<P>& shard(std::size_t i) { return *shards_[i]; }

  /// Lock-free momentary snapshot (exact after stop()).
  ServerStats stats() const {
    ServerStats out;
    out.shards.reserve(shards_.size());
    for (const auto& sh : shards_) {
      ShardStats s = sh->stats();
      out.requests += s.requests;
      out.packets += s.packets;
      out.flows += s.flows;
      out.grows += s.grows;
      out.policy_switches += s.policy_switches;
      out.shards.push_back(std::move(s));
    }
    return out;
  }

  /// Sum of live flows only (the cheap poll the fill bench spins on).
  std::size_t live_flows() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->stats().flows;
    return n;
  }

 private:
  std::vector<AsymmetricMutex<P>*> all_mutexes() {
    std::vector<AsymmetricMutex<P>*> ms;
    ms.reserve(shards_.size());
    for (auto& sh : shards_) ms.push_back(&sh->table().sync_mutex());
    return ms;
  }

  ServeConfig cfg_;
  std::vector<std::unique_ptr<Shard<P>>> shards_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> ready_{0};
  std::vector<std::thread> owners_;  // after every member the owners read
  std::atomic<std::size_t> next_lane_{0};
};

}  // namespace lbmf::serve
