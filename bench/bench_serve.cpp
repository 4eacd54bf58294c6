// E19 — the serving tier end to end (lbmf::serve): the paper's
// packet-processing application (Sec. 1) grown to server shape — per-core
// flow-table shards whose owners are l-mfence primaries, SPSC client lanes,
// a wave-batched secondary control plane, and optional per-shard adaptive
// fence selection. Four legs, each an acceptance gate:
//
//   A  capacity   owner-side incremental rehash sustains >= 1M live flows
//                 across >= 8 shards with live growth (no pause, no
//                 pre-sizing), fed purely through the data path.
//   B  ablation   asymmetric vs symmetric fence policy at the rare-update
//                 serving point: asym must win >= 1.3x on BOTH p99 request
//                 sojourn and flows/sec (the tier-level form of E10).
//   C  wave       one cross-shard rule-push wave (one fence + one
//                 overlapped serialize_many) vs sequential per-shard
//                 secondary acquisition: wave must win >= 2x.
//   D  adaptive   a data-heavy phase then a rule-update storm: every
//                 shard's selector must re-bind its fence regime at least
//                 once (>= 1 recorded policy switch per shard).
//
//   bench_serve [--quick]    # --quick shortens windows for CI
//
// Emits BENCH_serve.json; exit 0 iff all four gates pass. Latencies are
// client-side sojourns (reap tsc - submit tsc) from the log-bucketed
// histogram, reported in ns via the calibrated TSC frequency.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/serve/serve.hpp"
#include "lbmf/util/histogram.hpp"
#include "lbmf/util/json.hpp"
#include "lbmf/util/timing.hpp"

using namespace lbmf;
using namespace lbmf::serve;

namespace {

// ------------------------------------------------------------------ leg A

struct FillResult {
  double seconds = 0;
  double flows_per_second = 0;
  std::size_t flows = 0;
  std::size_t shards = 0;
  std::size_t grows = 0;
  bool ok = false;
};

/// Fill the tier with `target` distinct flows through the data path only:
/// every shard starts at a small table and must reach ~target/shards live
/// entries via its own incremental rehash, while serving.
FillResult run_fill(std::size_t target, double timeout_s) {
  ServeConfig cfg;
  cfg.shards = 8;
  cfg.max_clients = 1;
  cfg.ring_capacity = 1024;
  cfg.batch_limit = 256;
  cfg.initial_shard_capacity = 1u << 12;  // 1M flows = ~5 doublings/shard
  cfg.growth = flowtable::Growth::kGrowable;
  Server<AsymmetricSignalFence> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  FillResult r;
  r.shards = cfg.shards;
  Stopwatch sw;
  std::uint64_t submitted = 0, reaped = 0;
  FlowKey next = 1;  // distinct keys: one new flow per request
  bool timed_out = false;
  while (submitted < target) {
    const std::uint64_t now = rdtsc();
    for (int i = 0; i < 16 && submitted < target; ++i) {
      if (client.try_submit(next, 64, /*burst=*/1, now)) {
        ++next;
        ++submitted;
      } else {
        break;
      }
    }
    reaped += client.poll();
    if ((submitted & 0xFFFF) == 0 && sw.seconds() > timeout_s) {
      timed_out = true;
      break;
    }
  }
  while (reaped < submitted) reaped += client.poll();
  r.seconds = sw.seconds();
  r.flows = srv.live_flows();
  srv.stop();
  const ServerStats s = srv.stats();
  r.grows = s.grows;
  r.flows_per_second = r.seconds > 0 ? static_cast<double>(r.flows) / r.seconds
                                     : 0.0;
  r.ok = !timed_out && r.flows >= target;
  return r;
}

// ------------------------------------------------------------------ leg B

struct TrafficResult {
  double packets_per_second = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t requests = 0;
};

/// Closed-loop serving window over a hot key population with a rare-update
/// control plane (one rule push per `update_interval` — E10's "paper
/// regime" point, at tier level). The client keeps the lanes saturated up
/// to the in-flight bound; sojourns land in a client-side histogram.
template <typename P>
TrafficResult run_traffic(double window_s, std::uint32_t burst,
                          std::size_t hot_keys,
                          std::chrono::microseconds update_interval) {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.max_clients = 1;
  // Deep rings: an owner that loses its CPU (to the client, the updater or
  // another process on the host) must find a full scheduling slice worth
  // of queued requests when it runs again — otherwise throughput is set by
  // the context-switch rotation and the per-packet fence cost (the thing
  // this leg measures) disappears into it. The in-flight bound (== ring size)
  // also fixes the closed-loop population, so by Little's law the p99
  // sojourn tracks 1/throughput and both gates move together.
  cfg.ring_capacity = 8192;
  cfg.batch_limit = 256;
  cfg.initial_shard_capacity = 1u << 12;  // no growth noise in the ablation
  Server<P> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    std::uint32_t rule = 1;
    FlowKey k = 1;
    while (!stop.load(std::memory_order_acquire)) {
      srv.update_rule(k % hot_keys + 1, rule++);
      ++k;
      std::this_thread::sleep_for(update_interval);
    }
  });

  LogHistogram hist;
  Stopwatch sw;
  std::uint64_t submitted = 0, reaped = 0;
  FlowKey next = 0;
  while (sw.seconds() < window_s) {
    const std::uint64_t now = rdtsc();
    for (int i = 0; i < 64; ++i) {
      if (client.try_submit(next % hot_keys + 1, 64, burst, now)) {
        ++next;
        ++submitted;
      } else {
        break;
      }
    }
    reaped += client.poll(&hist);
  }
  while (reaped < submitted) reaped += client.poll(&hist);
  const double secs = sw.seconds();
  stop.store(true, std::memory_order_release);
  updater.join();
  srv.stop();

  TrafficResult r;
  r.requests = submitted;
  r.packets_per_second =
      secs > 0 ? static_cast<double>(submitted) * burst / secs : 0.0;
  r.p50_ns = tsc_to_ns(hist.percentile(50));
  r.p99_ns = tsc_to_ns(hist.percentile(99));
  return r;
}

// ------------------------------------------------------------------ leg C

struct WaveResult {
  double wave_cycles = 0;  // median
  double seq_cycles = 0;   // median
  double ratio = 0;        // seq / wave
};

double median(std::vector<std::uint64_t>& v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return static_cast<double>(v[v.size() / 2]);
}

/// One rule push per shard, applied as one cross-shard wave vs as eight
/// sequential secondary acquisitions, owners idle (pure control-plane
/// cost). The wave pays one fence and overlaps the eight remote
/// serializations; sequential pays eight full round trips.
WaveResult run_wave(std::size_t rounds) {
  ServeConfig cfg;
  cfg.shards = 8;
  cfg.max_clients = 1;
  cfg.ring_capacity = 64;
  Server<AsymmetricSignalFence> srv(cfg);
  srv.start();

  // One key per shard so both paths touch all eight tables.
  std::vector<RuleUpdate> updates;
  {
    std::vector<bool> have(cfg.shards, false);
    for (FlowKey k = 1; updates.size() < cfg.shards; ++k) {
      const std::size_t s = srv.shard_of(k);
      if (!have[s]) {
        have[s] = true;
        updates.push_back({k, 1});
      }
    }
  }

  std::vector<std::uint64_t> wave, seq;
  wave.reserve(rounds);
  seq.reserve(rounds);
  for (std::size_t round = 0; round < rounds + 5; ++round) {
    for (RuleUpdate& u : updates) u.rule = static_cast<std::uint32_t>(round);
    std::uint64_t t0 = rdtscp();
    srv.push_rules_wave(updates);
    std::uint64_t t1 = rdtscp();
    for (const RuleUpdate& u : updates) srv.update_rule(u.key, u.rule);
    std::uint64_t t2 = rdtscp();
    if (round >= 5) {  // warmup discarded
      wave.push_back(t1 - t0);
      seq.push_back(t2 - t1);
    }
  }
  srv.stop();

  WaveResult r;
  r.wave_cycles = median(wave);
  r.seq_cycles = median(seq);
  r.ratio = r.wave_cycles > 0 ? r.seq_cycles / r.wave_cycles : 0.0;
  return r;
}

// ------------------------------------------------------------------ leg D

struct AdaptResult {
  std::uint64_t min_switches = 0;  // across shards
  std::uint64_t total_switches = 0;
  bool ok = false;
};

/// Phase change under the adaptive policy: a data-heavy serving phase
/// (announce-dominated => the table says asymmetric) followed by a
/// rule-update storm with the client silent (serialization-dominated =>
/// symmetric). Every shard's selector must re-bind at least once.
AdaptResult run_adaptive(double phase_s) {
  ServeConfig cfg;
  cfg.shards = 2;
  cfg.max_clients = 1;
  cfg.ring_capacity = 256;
  cfg.batch_limit = 64;
  cfg.adapt.emplace();
  cfg.adapt->sample_every = 256;
  cfg.adapt->confirm_windows = 2;
  // Price remote serialization at its signal-path cost so the table's
  // regime boundary sits between the two phases (see E18).
  cfg.adapt->fixed_roundtrip_cycles = 10000;
  Server<adapt::AdaptiveFence> srv(cfg);
  srv.start();
  auto client = srv.make_client();

  // Phase 1: pure data traffic over a hot set.
  Stopwatch sw;
  std::uint64_t submitted = 0, reaped = 0;
  FlowKey next = 0;
  while (sw.seconds() < phase_s) {
    const std::uint64_t now = rdtsc();
    for (int i = 0; i < 8; ++i) {
      if (client.try_submit(next % 256 + 1, 64, /*burst=*/4, now)) {
        ++next;
        ++submitted;
      } else {
        break;
      }
    }
    reaped += client.poll();
  }
  while (reaped < submitted) reaped += client.poll();

  // Phase 2: client silent, control plane storms both shards.
  sw.reset();
  std::uint32_t rule = 0;
  FlowKey k = 0;
  while (sw.seconds() < phase_s) {
    srv.update_rule(k % 1024 + 1, rule++);
    ++k;
  }
  srv.stop();

  AdaptResult r;
  const ServerStats s = srv.stats();
  r.min_switches = ~std::uint64_t{0};
  for (const ShardStats& sh : s.shards) {
    r.min_switches = std::min(r.min_switches, sh.policy_switches);
    r.total_switches += sh.policy_switches;
  }
  r.ok = r.min_switches >= 1;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const double window = quick ? 0.3 : 1.0;
  const std::size_t wave_rounds = quick ? 40 : 200;
  constexpr std::size_t kTargetFlows = 1'000'000;

  std::printf("E19 — serving tier (lbmf::serve), %s mode\n\n",
              quick ? "quick" : "full");

  std::printf("[A] capacity: filling %zu flows through 8 growable shards...\n",
              kTargetFlows);
  const FillResult fill = run_fill(kTargetFlows, /*timeout_s=*/120.0);
  std::printf("    %zu live flows across %zu shards in %.2fs "
              "(%.0f flows/s, %zu table grows) %s\n",
              fill.flows, fill.shards, fill.seconds, fill.flows_per_second,
              fill.grows, fill.ok ? "ok" : "FAILED");

  std::printf("[B] ablation: rare-update serving, sym vs asym (%.1fs/window)\n",
              window);
  const TrafficResult sym = run_traffic<SymmetricFence>(
      window, /*burst=*/32, /*hot_keys=*/4096,
      std::chrono::microseconds(10000));
  const TrafficResult asym = run_traffic<AsymmetricSignalFence>(
      window, /*burst=*/32, /*hot_keys=*/4096,
      std::chrono::microseconds(10000));
  const double tput_ratio =
      sym.packets_per_second > 0
          ? asym.packets_per_second / sym.packets_per_second
          : 0.0;
  const double p99_ratio = asym.p99_ns > 0 ? sym.p99_ns / asym.p99_ns : 0.0;
  std::printf("    sym : %12.0f pkt/s  p50 %8.0f ns  p99 %8.0f ns\n",
              sym.packets_per_second, sym.p50_ns, sym.p99_ns);
  std::printf("    asym: %12.0f pkt/s  p50 %8.0f ns  p99 %8.0f ns\n",
              asym.packets_per_second, asym.p50_ns, asym.p99_ns);
  std::printf("    asym/sym throughput %.2fx, sym/asym p99 %.2fx\n",
              tput_ratio, p99_ratio);

  std::printf("[C] wave: 8-shard rule push, batched vs sequential "
              "(%zu rounds)\n", wave_rounds);
  const WaveResult wavr = run_wave(wave_rounds);
  std::printf("    wave %8.0f cycles, sequential %8.0f cycles => %.2fx\n",
              wavr.wave_cycles, wavr.seq_cycles, wavr.ratio);

  std::printf("[D] adaptive: data phase then update storm (%.1fs each)\n",
              window);
  const AdaptResult ad = run_adaptive(window);
  std::printf("    policy switches: min/shard %llu, total %llu %s\n",
              static_cast<unsigned long long>(ad.min_switches),
              static_cast<unsigned long long>(ad.total_switches),
              ad.ok ? "ok" : "FAILED");

  const bool pass_a = fill.ok && fill.shards >= 8 && fill.grows > 0;
  const bool pass_b = tput_ratio >= 1.3 && p99_ratio >= 1.3;
  const bool pass_c = wavr.ratio >= 2.0;
  const bool pass_d = ad.ok;
  const bool pass = pass_a && pass_b && pass_c && pass_d;

  JsonWriter json;
  json.begin_object();
  json.key("bench").string("serve");
  json.key("quick").boolean(quick);
  json.key("capacity").begin_object();
  json.key("flows").integer(fill.flows);
  json.key("shards").integer(fill.shards);
  json.key("grows").integer(fill.grows);
  json.key("seconds").fixed(fill.seconds, 3);
  json.key("flows_per_second").fixed(fill.flows_per_second, 3);
  json.end_object();
  json.key("ablation").begin_object();
  json.key("sym_pps").fixed(sym.packets_per_second, 3);
  json.key("asym_pps").fixed(asym.packets_per_second, 3);
  json.key("sym_p50_ns").fixed(sym.p50_ns, 3);
  json.key("asym_p50_ns").fixed(asym.p50_ns, 3);
  json.key("sym_p99_ns").fixed(sym.p99_ns, 3);
  json.key("asym_p99_ns").fixed(asym.p99_ns, 3);
  json.key("throughput_ratio").fixed(tput_ratio, 3);
  json.key("p99_ratio").fixed(p99_ratio, 3);
  json.end_object();
  json.key("wave").begin_object();
  json.key("wave_cycles").fixed(wavr.wave_cycles, 3);
  json.key("seq_cycles").fixed(wavr.seq_cycles, 3);
  json.key("ratio").fixed(wavr.ratio, 3);
  json.end_object();
  json.key("adaptive").begin_object();
  json.key("min_switches").integer(ad.min_switches);
  json.key("total_switches").integer(ad.total_switches);
  json.end_object();
  json.key("pass").begin_object();
  json.key("capacity").boolean(pass_a);
  json.key("ablation").boolean(pass_b);
  json.key("wave").boolean(pass_c);
  json.key("adaptive").boolean(pass_d);
  json.end_object();
  json.end_object();

  if (std::FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_serve.json\n");
  }

  std::printf("%s  (A:%s >=1M flows/8 shards/grown;  B:%s >=1.3x tput+p99;"
              "  C:%s >=2x wave;  D:%s >=1 switch/shard)\n",
              pass ? "PASS" : "FAIL", pass_a ? "ok" : "FAIL",
              pass_b ? "ok" : "FAIL", pass_c ? "ok" : "FAIL",
              pass_d ? "ok" : "FAIL");
  return pass ? 0 : 1;
}
