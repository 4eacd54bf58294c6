// E6 / E7 — Fig. 6(a) and 6(b): normalized read throughput of the ARW lock
// (6a) and ARW+ lock (6b) against the SRW control, sweeping thread counts
// {1,2,4,8,16} and read:write ratios {300,500,1000,10000,100000}:1.
//
// Expected shape (paper): ARW loses at low ratios / high thread counts
// (the writer's serialized signal storm) and wins at high ratios; ARW+ is
// >= 1 essentially everywhere except the 300:1 row, with an outlier spike
// at (300:1, 2 threads) where the writer's ack usually arrives in time.
//
// This host is single-core: the measured sweep is oversubscribed, so the
// cost-model columns (signal / signal+ack / LE/ST at each P) regenerate
// the figure's shape; measured numbers are reported alongside.
//
// E15 rider: writer-acquire latency with 8 registered idle readers, for
// both ARW and ARW+ (EXPERIMENTS.md E15 records it against the paper's
// sequential signal-one-wait-one writer). Emits BENCH_arw.json.
//
// Usage: bench_arw [--quick] [window_seconds]

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "lbmf/model/cost_model.hpp"
#include "lbmf/rwlock/rwlock.hpp"
#include "lbmf/util/json.hpp"
#include "lbmf/util/stats.hpp"
#include "lbmf/util/timing.hpp"

using namespace lbmf;

namespace {

/// The paper's microbenchmark: every thread reads a 4-element array under
/// the read lock and performs one write per N/P reads. Returns reads/sec.
template <typename Lock>
double measure(std::size_t threads, double ratio, double window_s) {
  Lock lock;
  alignas(64) volatile long data[4] = {0, 0, 0, 0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_reads{0};

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      auto token = lock.register_reader();
      const std::uint64_t writes_every = static_cast<std::uint64_t>(
          std::max(1.0, ratio / static_cast<double>(threads)));
      std::uint64_t reads = 0, since = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        token.read_lock();
        long sum = 0;
        for (int j = 0; j < 4; ++j) sum += data[j];
        token.read_unlock();
        ++reads;
        if (++since >= writes_every) {
          since = 0;
          lock.write_lock();
          for (int j = 0; j < 4; ++j) data[j] = data[j] + 1;
          lock.write_unlock();
        }
        (void)sum;
      }
      total_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }
  Stopwatch sw;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(window_s * 1e3)));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return static_cast<double>(total_reads.load()) / sw.seconds();
}

/// E15 fixture: a lock with `readers` registered but idle readers — the
/// writer pays the full fan-out every acquire while the readers never
/// contend, isolating the serialization cost.
template <typename Lock>
class IdleReaderHarness {
 public:
  explicit IdleReaderHarness(std::size_t readers) {
    for (std::size_t t = 0; t < readers; ++t) {
      pool_.emplace_back([this] {
        auto token = lock_.register_reader();
        ready_.fetch_add(1, std::memory_order_acq_rel);
        while (!stop_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    }
    while (ready_.load(std::memory_order_acquire) <
           static_cast<int>(readers)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 3; ++i) sample();  // warm the slot paths
  }

  ~IdleReaderHarness() {
    stop_.store(true, std::memory_order_release);
    for (auto& th : pool_) th.join();
  }

  /// Cycles for one write_lock/write_unlock pair.
  double sample() {
    const std::uint64_t c0 = rdtscp();
    lock_.write_lock();
    lock_.write_unlock();
    const std::uint64_t c1 = rdtscp();
    return static_cast<double>(c1 - c0);
  }

 private:
  Lock lock_;
  std::vector<std::thread> pool_;
  std::atomic<bool> stop_{false};
  std::atomic<int> ready_{0};
};

/// write_lock/write_unlock latency of `Lock` over `reps` acquires.
template <typename Lock>
Summary writer_latency(std::size_t readers, int reps) {
  IdleReaderHarness<Lock> harness(readers);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) samples.push_back(harness.sample());
  return summarize(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  double window = 0.25;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      window = 0.05;
      quick = true;
    } else {
      window = std::atof(argv[i]);
    }
  }

  const std::size_t thread_counts[] = {1, 2, 4, 8, 16};
  const double ratios[] = {300, 500, 1000, 10'000, 100'000};
  const model::CostTable table;

  for (int fig = 0; fig < 2; ++fig) {
    const bool plus = fig == 1;
    std::printf("Fig. 6(%c) — normalized read throughput %s/SRW "
                "(> 1: asymmetric lock wins)\n\n",
                plus ? 'b' : 'a', plus ? "ARW+" : "ARW");
    std::printf("%-12s", "ratio\\thr");
    for (std::size_t t : thread_counts) std::printf("   %6zu", t);
    std::printf("      (measured | model)\n");

    for (double ratio : ratios) {
      std::printf("%9.0f:1 ", ratio);
      std::vector<double> modeled;
      for (std::size_t t : thread_counts) {
        const double srw = measure<SrwLock>(t, ratio, window);
        const double asym = plus
                                ? measure<ArwPlusLock>(t, ratio, window)
                                : measure<ArwLock>(t, ratio, window);
        std::printf("   %6.2f", srw > 0 ? asym / srw : 0.0);

        model::RwParams p;
        p.threads = t;
        p.read_write_ratio = ratio;
        modeled.push_back(model::rw_relative_throughput(
            p, plus ? model::FenceImpl::kSignalAck : model::FenceImpl::kSignal,
            table));
      }
      std::printf("   |");
      for (double m : modeled) std::printf("   %6.2f", m);
      std::printf("\n");
    }
    std::printf("\n");
  }

  // The paper's forward-looking column: the same lock under LE/ST hardware.
  std::printf("model only — ARW under the proposed LE/ST hardware "
              "(150-cycle round trips):\n\n%-12s", "ratio\\thr");
  for (std::size_t t : thread_counts) std::printf("   %6zu", t);
  std::printf("\n");
  for (double ratio : ratios) {
    std::printf("%9.0f:1 ", ratio);
    for (std::size_t t : thread_counts) {
      model::RwParams p;
      p.threads = t;
      p.read_write_ratio = ratio;
      std::printf("   %6.2f", model::rw_relative_throughput(
                                  p, model::FenceImpl::kLest, table));
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape: ARW dips below 1 at low ratios/high threads (signal storm),\n"
      "ARW+ holds >= 1 except near 300:1, and LE/ST wins everywhere — the\n"
      "progression Fig. 6 uses to argue for the hardware mechanism.\n");

  // --- E15: writer-acquire latency ---------------------------------------
  constexpr std::size_t kIdleReaders = 8;
  const int reps = quick ? 20 : 60;
  std::printf("\nE15 — write_lock latency (cycles), %zu registered idle "
              "readers:\n\n", kIdleReaders);
  const Summary arw = writer_latency<ArwLock>(kIdleReaders, reps);
  const Summary plus = writer_latency<ArwPlusLock>(kIdleReaders, reps);
  std::printf("%-26s p50=%9.0f  mean=%9.0f\n", "ARW  writer", arw.p50,
              arw.mean);
  std::printf("%-26s p50=%9.0f  mean=%9.0f\n", "ARW+ writer", plus.p50,
              plus.mean);

  JsonWriter json;
  json.begin_object();
  json.key("bench").string("arw");
  json.key("idle_readers").integer(kIdleReaders);
  json.key("arw_writer_p50_cycles").fixed(arw.p50, 0);
  json.key("arwplus_writer_p50_cycles").fixed(plus.p50, 0);
  json.key("quick").boolean(quick);
  json.end_object();
  if (std::FILE* f = std::fopen("BENCH_arw.json", "w")) {
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_arw.json\n");
  }
  return 0;
}
