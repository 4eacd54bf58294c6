// E2 / E15 — Sec. 5 cost comparison plus the batching/coalescing win.
//
// E2 (Sec. 5): "The estimated cost of a single round trip communication is
// in the order of 10,000 cycles ... the round trip time in the LE/ST
// mechanism ... costs about 150 cycles on our system."
//
// E15: the round trip is expensive, so the serializer makes it pay once,
// not N times. Measured here:
//   * pre-PR sequential fan-out over 8 primaries (one spin-awaited round
//     trip each, the old writer shape) vs. one batched serialize_many wave
//     (post all, then collect all) — claim: the wave costs the slowest
//     round trip, not the sum (>= 3x, on the p50s: a few descheduled
//     samples can move either mean by more than the whole gap);
//   * 8 secondaries hammering ONE primary with coalescing disabled
//     (every request posts its own signal) vs. enabled (requests share the
//     in-flight signal's ack) — claim: >= 2x aggregate throughput.
//
// Usage: bench_roundtrip [--quick]
// Emits BENCH_roundtrip.json; exit code gates the two E15 ratios.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "lbmf/core/fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/core/serializer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/util/json.hpp"
#include "lbmf/util/stats.hpp"
#include "lbmf/util/timing.hpp"

using namespace lbmf;

namespace {

Summary measure_cycles(int reps, int inner, const std::function<void()>& op) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t c0 = rdtscp();
    for (int i = 0; i < inner; ++i) op();
    const std::uint64_t c1 = rdtscp();
    samples.push_back(static_cast<double>(c1 - c0) /
                      static_cast<double>(inner));
  }
  return summarize(std::move(samples));
}

/// A pool of registered-primary threads that idle (yield) until told to
/// stop — the "readers parked elsewhere" a fan-out writer signals.
class PrimaryPool {
 public:
  explicit PrimaryPool(std::size_t n) : handles_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] {
        auto& reg = SerializerRegistry::instance();
        handles_[i] = reg.register_self();
        registered_.fetch_add(1, std::memory_order_acq_rel);
        while (!stop_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        reg.unregister_self(handles_[i]);
      });
    }
    while (registered_.load(std::memory_order_acquire) <
           static_cast<int>(n)) {
      std::this_thread::yield();
    }
  }

  ~PrimaryPool() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
  }

  const std::vector<SerializerRegistry::Handle>& handles() const {
    return handles_;
  }

 private:
  std::vector<SerializerRegistry::Handle> handles_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> registered_{0};
};

/// Aggregate serialize() completions/sec of `secondaries` threads hammering
/// one primary for `window_s` seconds, with or without request coalescing.
double coalescing_throughput(int secondaries, double window_s,
                             bool coalesced) {
  auto& reg = SerializerRegistry::instance();
  PrimaryPool pool(1);
  const auto handle = pool.handles()[0];

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < secondaries; ++t) {
    workers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool ok = coalesced ? reg.serialize(handle)
                                  : reg.serialize_uncoalesced(handle);
        if (ok) ++local;
      }
      completed.fetch_add(local, std::memory_order_relaxed);
    });
  }
  Stopwatch sw;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(window_s * 1e3)));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  return static_cast<double>(completed.load()) / sw.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  auto& reg = SerializerRegistry::instance();

  std::printf("E2/E15: remote-serialization round-trip costs (cycles)\n\n");

  // --- local mfence, for scale ------------------------------------------
  const Summary fence = measure_cycles(50, 1000, [] { full_fence(); });
  std::printf("%-26s p50=%8.0f  mean=%8.0f\n", "local mfence", fence.p50,
              fence.mean);

  // --- real signal round trip -------------------------------------------
  Summary sig;
  {
    PrimaryPool pool(1);
    const auto handle = pool.handles()[0];
    sig = measure_cycles(quick ? 15 : 30, 20,
                         [&] { reg.serialize(handle); });
    std::printf("%-26s p50=%8.0f  mean=%8.0f   (paper: ~10,000)\n",
                "signal serialize (sw)", sig.p50, sig.mean);
  }

  // --- E15a: sequential fan-out vs. one batched wave, 8 primaries --------
  constexpr std::size_t kPrimaries = 8;
  Summary seq_wave, batch_wave;
  {
    PrimaryPool pool(kPrimaries);
    const auto& handles = pool.handles();
    const int reps = quick ? 15 : 40;
    // Pre-PR writer shape: one fully awaited (spin-waited) round trip per
    // primary, in a loop. serialize_uncoalesced preserves that path.
    seq_wave = measure_cycles(reps, 4, [&] {
      for (const auto& h : handles) reg.serialize_uncoalesced(h);
    });
    batch_wave = measure_cycles(reps, 4, [&] {
      reg.serialize_many(handles);
    });
  }
  const double batch_speedup = seq_wave.p50 / batch_wave.p50;
  std::printf("%-26s p50=%8.0f  mean=%8.0f   (pre-PR: 8 awaited trips)\n",
              "sequential fan-out x8", seq_wave.p50, seq_wave.mean);
  std::printf("%-26s p50=%8.0f  mean=%8.0f   (one overlapped wave)\n",
              "serialize_many x8", batch_wave.p50, batch_wave.mean);
  std::printf("%-26s %8.1fx              (p50s; target >= 3x)\n",
              "batched fan-out speedup", batch_speedup);

  // --- E15b: coalescing, 8 secondaries on one primary --------------------
  constexpr int kSecondaries = 8;
  const double window = quick ? 0.15 : 0.5;
  const double uncoalesced =
      coalescing_throughput(kSecondaries, window, /*coalesced=*/false);
  const double coalesced =
      coalescing_throughput(kSecondaries, window, /*coalesced=*/true);
  const double coalesce_ratio = uncoalesced > 0 ? coalesced / uncoalesced : 0;
  std::printf("\ncoalescing, %d secondaries hammering one primary:\n",
              kSecondaries);
  std::printf("%-26s %12.0f ops/sec (every request posts a signal)\n",
              "uncoalesced serialize", uncoalesced);
  std::printf("%-26s %12.0f ops/sec (requests share the in-flight ack)\n",
              "coalesced serialize", coalesced);
  std::printf("%-26s %8.1fx              (target >= 2x)\n",
              "coalescing throughput", coalesce_ratio);

  // --- membarrier round trip --------------------------------------------
  if (membarrier::available()) {
    std::atomic<bool> stop{false};
    std::thread peer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
    const Summary mb = measure_cycles(quick ? 15 : 30, 20,
                                      [] { membarrier::barrier(); });
    std::printf("\n%-26s p50=%8.0f  mean=%8.0f  (one syscall serializes "
                "every thread: a full wave for the price of one trip)\n",
                "membarrier (kernel)", mb.p50, mb.mean);
    stop.store(true, std::memory_order_relaxed);
    peer.join();
  } else {
    std::printf("\n%-26s (not supported on this kernel)\n", "membarrier");
  }

  // --- simulated LE/ST and signal round trips ----------------------------
  {
    using namespace lbmf::sim;
    Machine hw = make_roundtrip_machine(/*use_interrupt=*/false);
    for (int i = 0; i < 4; ++i) hw.step(0, Action::Execute);
    hw.step(1, Action::Execute);
    std::printf("%-26s      %8llu              (paper: ~150)\n",
                "LE/ST round trip (sim)",
                static_cast<unsigned long long>(hw.cpu(1).counters.cycles));

    Machine sw = make_roundtrip_machine(/*use_interrupt=*/true);
    sw.step(0, Action::Execute);
    sw.deliver_interrupt(0);
    sw.step(1, Action::Execute);
    std::printf("%-26s      %8llu              (paper: ~10,000)\n",
                "signal round trip (sim)",
                static_cast<unsigned long long>(sw.cpu(0).counters.cycles +
                                                sw.cpu(1).counters.cycles));
  }

  std::printf(
      "\nShape check: signal-serialize sits orders of magnitude above a\n"
      "local mfence — which is why the fan-out sites batch and coalesce so\n"
      "the round trip is paid once (max), not once per participant (sum).\n");

  JsonWriter json;
  json.begin_object();
  json.key("bench").string("roundtrip");
  json.key("primaries").integer(kPrimaries);
  json.key("secondaries").integer(kSecondaries);
  json.key("signal_p50_cycles").fixed(sig.p50, 0);
  json.key("seq_wave_mean_cycles").fixed(seq_wave.mean, 0);
  json.key("batch_wave_mean_cycles").fixed(batch_wave.mean, 0);
  json.key("seq_wave_p50_cycles").fixed(seq_wave.p50, 0);
  json.key("batch_wave_p50_cycles").fixed(batch_wave.p50, 0);
  json.key("batch_speedup").fixed(batch_speedup, 2);
  json.key("uncoalesced_ops_per_sec").fixed(uncoalesced, 0);
  json.key("coalesced_ops_per_sec").fixed(coalesced, 0);
  json.key("coalesce_ratio").fixed(coalesce_ratio, 2);
  json.key("quick").boolean(quick);
  json.end_object();
  if (std::FILE* f = std::fopen("BENCH_roundtrip.json", "w")) {
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_roundtrip.json\n");
  }

  const bool pass = batch_speedup >= 3.0 && coalesce_ratio >= 2.0;
  std::printf("%s\n", pass ? "PASS" : "FAIL: below target ratios");
  return pass ? 0 : 1;
}
