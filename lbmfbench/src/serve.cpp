// serve_rare / serve_storm: the sharded serving tier under open-loop data
// traffic beside a scheduled control plane.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "lbmf/serve/serve.hpp"
#include "lbmf/util/affinity.hpp"
#include "lbmf/util/timing.hpp"
#include "workloads.hpp"

namespace lbmfbench {

namespace {

using Policy = lbmf::AsymmetricSignalFence;
using Server = lbmf::serve::Server<Policy>;
using Client = Server::Client;

constexpr std::size_t kShards = 2;
constexpr std::size_t kFlows = 1u << 20;
constexpr std::size_t kZipfDraws = 1u << 21;
constexpr std::size_t kRing = 1024;
constexpr double kRate = 200'000.0;  // offered data requests per second
constexpr std::uint32_t kBurst = 16;
constexpr std::uint32_t kBytes = 64;
constexpr std::size_t kPrefillWave = 4096;
// One set-up varies by ±15% within a run; the median needs several.
constexpr int kSetups = 7;
// Beyond this sojourn a request counts as failed. The host's descheduling
// stalls reach 80 ms and p99 reached 231 ms in prototype runs; a request
// a full second late means something other than host noise.
constexpr double kLatencyLimitNs = 1e9;
constexpr double kOpenLoopShare = 0.6;  // of a pass; the rest saturates
constexpr double kRoundS = 2.5;         // one open-loop + saturation round
constexpr std::int64_t kWindowNs = 100'000'000;
// A request not back this long after the last send is reported lost.
constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr std::int64_t kYieldNs = 2'000;

/// Thread layout: the server's threads (owners and the runner inherit the
/// mask of the thread that starts the server) get CPUs 1..n-1, and the
/// client and the control plane share CPU 0. Unpinned, the scheduler's
/// placement differed from run to run and serve_storm's wave latency
/// moved between 11 and 18 us with it.
void pin_to_cpus(std::size_t first, std::size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = first; c <= last; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}
void pin_server_side() {
  const std::size_t n = lbmf::online_cpus();
  if (n >= 2) pin_to_cpus(1, n - 1);
}
void pin_client_side() {
  if (lbmf::online_cpus() >= 2) pin_to_cpus(0, 0);
}


lbmf::serve::ServeConfig config() {
  lbmf::serve::ServeConfig cfg;
  cfg.shards = kShards;
  // One lane per shard: each lane's responses then return in submission
  // order, so every request's sojourn is matched exactly to its intended
  // send time (Client::poll's own histogram quantizes to 6.25%).
  cfg.max_clients = kShards;
  cfg.ring_capacity = kRing;
  cfg.growth = lbmf::flowtable::Growth::kGrowable;
  return cfg;
}

/// The client side: one Client per shard plus a FIFO of (request id,
/// intended send time) per lane.
class Lanes {
 public:
  explicit Lanes(Server& srv) : srv_(srv) {
    for (std::size_t s = 0; s < kShards; ++s) {
      clients_.push_back(srv.make_client());
      fifo_.emplace_back(kRing);
    }
  }

  std::size_t lane_of(std::uint64_t key) const { return srv_.shard_of(key); }
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Client& c : clients_) n += c.in_flight();
    return n;
  }

  bool submit(std::size_t lane, std::uint64_t key, std::uint64_t id,
              std::int64_t intended, Tracer* tr) {
    bool ok;
    {
      Scope s(tr, SpanName::kTrySubmit, id);
      ok = clients_[lane].try_submit(key, kBytes, kBurst,
                                     static_cast<std::uint64_t>(intended));
    }
    if (ok) {
      Fifo& f = fifo_[lane];
      f.slots[f.tail++ % kRing] = {id, intended};
    }
    return ok;
  }

  /// Reap every lane; `on_reap(intended_ns, reap_ns)` per response.
  template <typename F>
  std::size_t poll(Tracer* tr, F&& on_reap) {
    std::size_t total = 0;
    for (std::size_t lane = 0; lane < kShards; ++lane) {
      Client& c = clients_[lane];
      if (c.in_flight() == 0) continue;
      Fifo& f = fifo_[lane];
      std::size_t n;
      {
        Scope s(tr, SpanName::kPoll, f.slots[f.head % kRing].id);
        n = c.poll(nullptr);
      }
      ++polls;
      if (n == 0) continue;
      ++poll_hits;
      const std::int64_t t = now_ns();
      for (std::size_t k = 0; k < n; ++k) {
        on_reap(f.slots[f.head++ % kRing].intended, t);
      }
      total += n;
    }
    completed += total;
    return total;
  }

  std::uint64_t completed = 0;
  std::uint64_t polls = 0;
  std::uint64_t poll_hits = 0;

 private:
  struct Slot {
    std::uint64_t id;
    std::int64_t intended;
  };
  struct Fifo {
    explicit Fifo(std::size_t n) : slots(n) {}
    std::vector<Slot> slots;
    std::uint64_t head = 0, tail = 0;
  };
  Server& srv_;
  std::vector<Client> clients_;
  std::vector<Fifo> fifo_;
};

/// The control plane: rule waves on a fixed period (and, for the storm,
/// a consistent table-wide export), sleeping between operations. Samples
/// are filed under the pass the main thread announces in `pass`, and read
/// only after the control thread is joined.
struct Control {
  static constexpr int kPasses = 3;  // warm-up, then one or two passes
  std::int64_t wave_period_ns = 0;
  std::int64_t export_period_ns = 0;  // 0 = no exports
  std::atomic<bool> stop{false};
  std::atomic<int> pass{0};
  std::atomic<bool> open_loop{false};
  std::atomic<bool> traced{false};
  std::vector<double> wave_ns[kPasses];  // waves issued in open-loop phases
  std::vector<double> export_ns[kPasses];
  std::uint64_t waves = 0, exports = 0, bad_waves = 0;
  Tracer tracer{1};

  void run(Server& srv, const ServeInputs& in) {
    std::int64_t next_wave = now_ns() + wave_period_ns;
    std::int64_t next_export =
        export_period_ns > 0 ? now_ns() + export_period_ns : INT64_MAX;
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t due = std::min(next_wave, next_export);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      if (stop.load(std::memory_order_acquire)) break;
      const int p = pass.load(std::memory_order_acquire);
      Tracer* tr = traced.load(std::memory_order_acquire) ? &tracer : nullptr;
      if (now_ns() >= next_wave) {
        const auto& w = in.waves[waves % in.waves.size()];
        lbmf::serve::RuleUpdate ups[8];
        for (std::size_t i = 0; i < 8; ++i) ups[i] = {w[i].key, w[i].rule};
        const bool measured = open_loop.load(std::memory_order_acquire);
        const std::int64_t t0 = now_ns();
        std::size_t existed;
        {
          Scope s(tr, SpanName::kPushRulesWave, waves);
          existed = srv.push_rules_wave(ups);
        }
        const std::int64_t t1 = now_ns();
        if (measured) wave_ns[p].push_back(static_cast<double>(t1 - t0));
        if (existed != 8) ++bad_waves;
        ++waves;
        next_wave += wave_period_ns;
      }
      if (now_ns() >= next_export) {
        const std::int64_t t0 = now_ns();
        {
          Scope s(tr, SpanName::kTotalPackets, exports);
          (void)srv.total_packets();
        }
        export_ns[p].push_back(static_cast<double>(now_ns() - t0));
        ++exports;
        next_export += export_period_ns;
      }
    }
  }
};

struct PassResult {
  std::vector<double> sojourn_ns;
  std::vector<double> lag_ns;
  std::vector<double> window_rps;
  std::uint64_t refused = 0;  // requests refused at least once
  std::uint64_t polls = 0, poll_hits = 0;
  std::uint64_t late = 0;
};

/// Open loop: send the requests due at `due` offsets (from now) at their
/// times, stamped with the intended send time, and reap them all.
void open_loop(Lanes& lanes, const ServeInputs& in,
               const std::vector<std::int64_t>& due, std::size_t& key_cursor,
               PassResult& r, Tracer* tr) {
  auto record = [&](std::int64_t intended, std::int64_t reaped) {
    const double d = static_cast<double>(reaped - intended);
    r.sojourn_ns.push_back(d);
    if (d > kLatencyLimitNs) ++r.late;
  };
  Scope phase(tr, SpanName::kPhase, 0);
  Pacer pacer(due, now_ns() + 1000);
  bool refused_now = false;
  while (!pacer.done()) {
    std::int64_t now = now_ns();
    while (pacer.due(now)) {
      const std::size_t i = pacer.next();
      const std::uint64_t key = in.flows[in.zipf[(key_cursor + i) % kZipfDraws]];
      if (!lanes.submit(lanes.lane_of(key), key, key_cursor + i,
                        pacer.intended(i), tr)) {
        // The lane is full: reap and retry; a request is never dropped.
        refused_now = true;
        lanes.poll(tr, record);
        now = now_ns();
        continue;
      }
      r.refused += refused_now ? 1 : 0;
      refused_now = false;
      now = now_ns();
      pacer.sent(now);
    }
    lanes.poll(tr, record);
    // Nothing due for a while: let the control thread, which shares this
    // CPU, run now rather than at the next preemption.
    if (!pacer.done() && pacer.intended(pacer.next()) - now_ns() > kYieldNs) {
      std::this_thread::yield();
    }
  }
  const std::int64_t drain_end = now_ns() + kDrainNs;
  while (lanes.in_flight() > 0 && now_ns() < drain_end) lanes.poll(tr, record);
  r.lag_ns.insert(r.lag_ns.end(), pacer.lag_ns().begin(), pacer.lag_ns().end());
  key_cursor += due.size();
}

/// Closed loop: keep every lane full for `seconds`; completions per
/// kWindowNs window go to r.window_rps.
void saturate(Lanes& lanes, const ServeInputs& in, double seconds,
              std::size_t& key_cursor, PassResult& r, Tracer* tr) {
  Scope phase(tr, SpanName::kPhase, 1);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_start = start;
  std::uint64_t window_done = lanes.completed;
  auto ignore = [](std::int64_t, std::int64_t) {};
  for (std::int64_t now = start; now < end;) {
    const std::uint64_t key = in.flows[in.zipf[key_cursor % kZipfDraws]];
    if (lanes.submit(lanes.lane_of(key), key, key_cursor, now, tr)) {
      ++key_cursor;
      continue;
    }
    lanes.poll(tr, ignore);
    now = now_ns();
    if (now - window_start >= kWindowNs) {
      r.window_rps.push_back(
          static_cast<double>(lanes.completed - window_done) * 1e9 /
          static_cast<double>(now - window_start));
      window_start = now;
      window_done = lanes.completed;
    }
  }
  const std::int64_t drain_end = now_ns() + kDrainNs;
  while (lanes.in_flight() > 0 && now_ns() < drain_end) lanes.poll(tr, ignore);
}

/// One measured pass: rounds of an open-loop phase at the fixed offered
/// rate followed by a closed-loop saturation phase, with the control plane
/// running throughout. Alternating in short rounds spreads both metrics
/// over the whole pass, so a stretch of host noise hits both alike.
PassResult run_pass(Lanes& lanes, const ServeInputs& in, Control& ctl,
                    double seconds, std::size_t& key_cursor, Tracer* tr) {
  PassResult r;
  const std::uint64_t polls0 = lanes.polls, hits0 = lanes.poll_hits;
  const int rounds = std::max(1, static_cast<int>(seconds / kRoundS + 0.5));
  const auto open_ns =
      static_cast<std::int64_t>(seconds * kOpenLoopShare / rounds * 1e9);
  // Sized up front, so the harness's own memory is fixed before the pass.
  const auto requests = static_cast<std::size_t>(
      std::lower_bound(in.arrivals_ns.begin(), in.arrivals_ns.end(),
                       rounds * open_ns) -
      in.arrivals_ns.begin());
  r.sojourn_ns.reserve(requests);
  r.lag_ns.reserve(requests);
  ctl.traced.store(tr != nullptr, std::memory_order_release);
  for (int k = 0; k < rounds; ++k) {
    // Round k replays the k-th slice of the Poisson schedule.
    const auto lo = std::lower_bound(in.arrivals_ns.begin(),
                                     in.arrivals_ns.end(), k * open_ns);
    const auto hi = std::lower_bound(lo, in.arrivals_ns.end(), (k + 1) * open_ns);
    std::vector<std::int64_t> due(lo, hi);
    for (std::int64_t& d : due) d -= k * open_ns;
    ctl.open_loop.store(true, std::memory_order_release);
    open_loop(lanes, in, due, key_cursor, r, tr);
    ctl.open_loop.store(false, std::memory_order_release);
    saturate(lanes, in, seconds * (1 - kOpenLoopShare) / rounds, key_cursor,
             r, tr);
  }
  ctl.traced.store(false, std::memory_order_release);
  r.polls = lanes.polls - polls0;
  r.poll_hits = lanes.poll_hits - hits0;
  return r;
}

struct SetupTimes {
  std::vector<double> total_s, start_ms, prefill_s;
};

std::unique_ptr<Server> set_up(const ServeInputs& in, Tracer* tr,
                               SetupTimes& times, Outcome& o) {
  const std::int64_t t0 = now_ns();
  auto srv = std::make_unique<Server>(config());
  pin_server_side();
  {
    Scope s(tr, SpanName::kServerStart, 0);
    srv->start();
  }
  pin_client_side();
  const std::int64_t t1 = now_ns();
  std::vector<lbmf::serve::RuleUpdate> batch;
  std::size_t existed = 0;
  for (std::size_t w = 0; w * kPrefillWave < kFlows; ++w) {
    batch.clear();
    for (std::size_t i = w * kPrefillWave; i < (w + 1) * kPrefillWave; ++i) {
      batch.push_back({in.flows[i], in.rules[i]});
    }
    Scope s(tr, SpanName::kPushRulesWave, w);
    existed += srv->push_rules_wave(batch);
  }
  const std::int64_t t2 = now_ns();
  times.total_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  times.start_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  times.prefill_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  o.check(existed == 0 && srv->live_flows() == kFlows,
          "prefill installed " + std::to_string(srv->live_flows()) +
              " flows, expected " + std::to_string(kFlows),
          kFlows / kPrefillWave);
  o.attempted += kFlows / kPrefillWave;
  return srv;
}

struct Counters {
  lbmf::serve::ServerStats stats;
  lbmf::DekkerStats sync;  // summed over shards
  std::uint64_t posted = 0, received = 0, resignals = 0;
};

Counters read_counters(Server& srv) {
  Counters c;
  c.stats = srv.stats();
  for (const lbmf::serve::ShardStats& s : c.stats.shards) {
    c.sync.primary_acquires += s.sync.primary_acquires;
    c.sync.primary_retreats += s.sync.primary_retreats;
    c.sync.secondary_acquires += s.sync.secondary_acquires;
    c.sync.secondary_retreats += s.sync.secondary_retreats;
    c.sync.serializations += s.sync.serializations;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto h = srv.shard(s).table().sync_mutex().primary_handle();
    c.posted += lbmf::SerializerRegistry::signals_posted(h);
    c.received += lbmf::SerializerRegistry::signals_received(h);
    c.resignals += lbmf::SerializerRegistry::resignals(h);
  }
  return c;
}

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Outcome run_serve(const RunArgs& a, bool storm) {
  Outcome o;
  Tracer main_tr(0);
  Tracer* tr = a.trace ? &main_tr : nullptr;

  const std::int64_t g0 = now_ns();
  // Trace runs measure two passes of half the time each, so the schedule
  // covering one full-length open-loop phase serves either mode.
  const Server router(config());
  const ServeInputs in = make_serve_inputs(
      a.seed, kFlows, kZipfDraws, kRate, a.seconds * kOpenLoopShare,
      [&](std::uint64_t k) { return router.shard_of(k); });
  const double inputs_s = static_cast<double>(now_ns() - g0) * 1e-9;

  SetupTimes times;
  std::unique_ptr<Server> srv;
  for (int i = 0; i < kSetups; ++i) {
    if (srv) {
      {
        Scope s(tr, SpanName::kServerStop, 0);
        srv->stop();
      }
      srv.reset();  // one flow table resident at a time
    }
    srv = set_up(in, tr, times, o);
  }

  Control ctl;
  ctl.wave_period_ns = storm ? 200'000 : 10'000'000;
  ctl.export_period_ns = storm ? 1'000'000'000 : 0;
  Lanes lanes(*srv);
  std::size_t key_cursor = 0;
  std::vector<PassResult> passes;  // [untraced reference,] measured pass
  Counters before, after;
  {
    std::jthread control([&] {
      pin_client_side();
      ctl.run(*srv, in);
    });
    // Warm-up: a short pass so the hot flows are cached and lazy set-up is
    // done before anything is timed.
    run_pass(lanes, in, ctl, 0.2, key_cursor, nullptr);
    if (a.trace) {
      ctl.pass.store(1, std::memory_order_release);
      passes.push_back(
          run_pass(lanes, in, ctl, a.seconds / 2, key_cursor, nullptr));
      before = read_counters(*srv);
    }
    ctl.pass.store(2, std::memory_order_release);
    passes.push_back(run_pass(lanes, in, ctl,
                              a.trace ? a.seconds / 2 : a.seconds, key_cursor,
                              tr));
    after = read_counters(*srv);
    ctl.stop.store(true, std::memory_order_release);
  }
  std::vector<double>& wave_ns = ctl.wave_ns[2];
  std::vector<double>& export_ns = ctl.export_ns[2];

  // Output checks on the quiesced server: nothing lost, and every packet
  // of every completed request accounted exactly once.
  const std::uint64_t lost = lanes.in_flight();
  o.check(lost == 0, std::to_string(lost) + " requests never completed", lost);
  const std::uint64_t expected = lanes.completed * kBurst;
  const lbmf::serve::ServerStats st = srv->stats();
  std::uint64_t total = 0;
  {
    Scope s(tr, SpanName::kTotalPackets, ctl.exports);
    total = srv->total_packets();
  }
  o.check(st.packets == expected && total == expected,
          "packets: stats " + std::to_string(st.packets) + ", total_packets " +
              std::to_string(total) + ", expected " + std::to_string(expected),
          lanes.completed);
  o.check(ctl.bad_waves == 0,
          std::to_string(ctl.bad_waves) + " control waves missed a flow",
          ctl.bad_waves);
  {
    Scope s(tr, SpanName::kServerStop, 0);
    srv->stop();
  }

  std::uint64_t late = 0;
  for (const PassResult& p : passes) late += p.late;
  o.attempted += lanes.completed + lost + ctl.waves + ctl.exports + 1;
  o.failed += late;

  PassResult& last = passes.back();
  const double req_p50_us = median(last.sojourn_ns) / 1e3;
  const double sat = median(last.window_rps);
  o.set_e2e("setup_s", median(times.total_s));
  o.set_e2e("req_p50_us", req_p50_us);
  o.set_e2e("sat_rps", sat);
  if (!a.trace) return o;

  // Per-layer metrics from the traced pass.
  PassResult& ref = passes.front();
  main_tr.merge(ctl.tracer);
  o.set_span_layers(main_tr);
  o.set_layer("trace.overhead_frac", req_p50_us / (median(ref.sojourn_ns) / 1e3) - 1.0);
  o.set_layer("trace.sat_overhead_frac", frac(median(ref.window_rps), sat) - 1.0);
  o.set_layer("bench.inputs_s", inputs_s);

  const auto n = static_cast<std::uint64_t>(last.sojourn_ns.size());
  o.set_layer("serve.poll_hit_frac", frac(static_cast<double>(last.poll_hits),
                                          static_cast<double>(last.polls)));
  o.set_layer("serve.refused_frac", frac(static_cast<double>(last.refused),
                                         static_cast<double>(n)));
  o.set_layer("serve.gen_lag_p50_us", percentile(last.lag_ns, 50) / 1e3);
  o.set_layer("serve.gen_lag_p99_us", percentile(last.lag_ns, 99) / 1e3);
  // Tails only at percentiles with at least 10 samples beyond them.
  const double tail = highest_supported_percentile(n);
  o.set_layer("serve.req_p99_us",
              tail >= 99.0 ? percentile(last.sojourn_ns, 99.0) / 1e3 : 0.0);
  o.set_layer("serve.req_p999_us",
              tail >= 99.9 ? percentile(last.sojourn_ns, 99.9) / 1e3 : 0.0);
  o.set_layer("serve.req_samples", static_cast<double>(n));
  o.set_layer("serve.late_requests", static_cast<double>(last.late));
  o.set_layer("serve.requests",
              static_cast<double>(after.stats.requests - before.stats.requests));
  o.set_layer("serve.packets",
              static_cast<double>(after.stats.packets - before.stats.packets));
  o.set_layer("serve.grows", static_cast<double>(after.stats.grows));

  const lbmf::DekkerStats& d0 = before.sync;
  const lbmf::DekkerStats& d1 = after.sync;
  const double pa = static_cast<double>(d1.primary_acquires - d0.primary_acquires);
  o.set_layer("dekker.primary_acquires", pa);
  o.set_layer("dekker.primary_retreat_frac",
              frac(static_cast<double>(d1.primary_retreats - d0.primary_retreats), pa));
  o.set_layer("dekker.secondary_acquires",
              static_cast<double>(d1.secondary_acquires - d0.secondary_acquires));
  o.set_layer("dekker.secondary_retreats",
              static_cast<double>(d1.secondary_retreats - d0.secondary_retreats));
  const auto ctl_n = static_cast<std::uint64_t>(wave_ns.size());
  const double ctl_tail = highest_supported_percentile(ctl_n);
  o.set_layer("serve.ctl_tail_us",
              ctl_tail > 0 ? percentile(wave_ns, ctl_tail) / 1e3 : 0.0);
  o.set_layer("serve.ctl_tail_pct", ctl_tail);
  o.set_layer("serve.ctl_samples", static_cast<double>(ctl_n));
  o.set_layer("serve.ctl_p50_us", median(wave_ns) / 1e3);
  o.set_layer("serve.export_p50_us", median(export_ns) / 1e3);
  o.set_layer("serve.exports", static_cast<double>(export_ns.size()));

  const double posted = static_cast<double>(after.posted - before.posted);
  o.set_layer("core.signals_posted", posted);
  o.set_layer("core.signals_received",
              static_cast<double>(after.received - before.received));
  o.set_layer("core.resignals",
              static_cast<double>(after.resignals - before.resignals));
  const double requested = static_cast<double>(d1.serializations - d0.serializations);
  o.set_layer("core.coalesce_frac",
              requested > 0 ? std::max(0.0, 1.0 - posted / requested) : 0.0);
  o.set_layer("core.rtt_us",
              lbmf::SerializerRegistry::measured_roundtrip_cycles() /
                  lbmf::tsc_hz() * 1e6);

  o.set_layer("serve.start_ms", median(times.start_ms));
  o.set_layer("serve.prefill_s", median(times.prefill_s));
  write_spans(a, {&main_tr, &ctl.tracer});
  return o;
}

}  // namespace lbmfbench
