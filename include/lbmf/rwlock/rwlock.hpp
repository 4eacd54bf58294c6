#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include <pthread.h>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// Aggregate event counters for the biased readers-writer lock.
struct RwLockStats {
  std::uint64_t read_acquires = 0;
  std::uint64_t reader_retreats = 0;   // reader backed off for a writer
  std::uint64_t write_acquires = 0;
  std::uint64_t serializations = 0;    // writer remotely serialized a reader
  std::uint64_t ack_clears = 0;        // ARW+: slot cleared by a reader ack
  std::uint64_t signal_clears = 0;     // slot cleared by forced serialization
};

/// The paper's asymmetric multiple-readers single-writer lock (Sec. 5),
/// biased toward readers: each *registered reader* is an l-mfence primary
/// whose read-lock fast path is
///
///     flag = 1;  <primary fence: compiler-only for ARW>;  check intent
///
/// and the writer is the secondary, engaging in an augmented Dekker protocol
/// with *each* registered reader: publish intent, mfence, then for every
/// reader either remotely serialize it (ARW), or — with the waiting
/// heuristic (ARW+) — first give readers a grace window to acknowledge the
/// intent voluntarily and signal only the silent ones.
///
/// Flavors (matching the paper's three locks):
///   BiasedRwLock<SymmetricFence>                    — the SRW control
///   BiasedRwLock<AsymmetricSignalFence>             — ARW
///   BiasedRwLock<AsymmetricSignalFence, true>       — ARW+
///
/// The writer posts one serialize_many() wave to every reader it must
/// signal and only then spin-waits on their flags, so it pays the slowest
/// round trip instead of the sum (EXPERIMENTS.md E15 records the saving
/// over the paper's sequential signal-one-wait-one writer).
template <FencePolicy P, bool kWaitingHeuristic = false>
class BiasedRwLock {
 private:
  struct Reader {
    std::atomic<int> flag{0};          // reader's Dekker flag (L1)
    std::atomic<std::uint64_t> ack{0}; // last intent epoch acknowledged
    pthread_t owner{};                 // registered reader's thread
    std::atomic<std::uint64_t> reads{0};  // owning reader only; relaxed
    std::atomic<std::uint64_t> retreats{0};
  };

 public:
  static constexpr std::size_t kMaxReaders = 64;
  /// ARW+ grace window (spin iterations) before the writer falls back to
  /// signaling the non-acknowledging readers.
  static constexpr int kAckSpinBudget = 512;

  BiasedRwLock() = default;
  BiasedRwLock(const BiasedRwLock&) = delete;
  BiasedRwLock& operator=(const BiasedRwLock&) = delete;

  /// RAII registration of the calling thread as a reader. Must be created
  /// and destroyed on the reader's own thread; must not outlive the lock.
  class ReaderToken : public PoolToken<BiasedRwLock> {
   public:
    /// Reader fast path — the l-mfence announce of Fig. 3(a).
    void read_lock() {
      BiasedRwLock& lock = *this->owner_;
      Reader& s = lock.readers_[this->slot_];
      SpinWait waiter;
      for (;;) {
        compiler_fence();
        s.flag.store(1, std::memory_order_relaxed);
        P::primary_fence();  // compiler-only under ARW/ARW+
        const std::uint64_t intent =
            lock.intent_->load(std::memory_order_acquire);
        if (intent == 0) break;  // no writer pending: we are in
        // A writer is pending: retreat, acknowledge its epoch (ARW+ fast
        // clear; harmless otherwise), and wait it out.
        s.flag.store(0, std::memory_order_release);
        s.ack.store(intent, std::memory_order_release);
        s.retreats.fetch_add(1, std::memory_order_relaxed);
        waiter.reset();
        while (lock.intent_->load(std::memory_order_acquire) != 0) {
          waiter.wait();
        }
      }
      s.reads.fetch_add(1, std::memory_order_relaxed);
    }

    void read_unlock() {
      BiasedRwLock& lock = *this->owner_;
      Reader& s = lock.readers_[this->slot_];
      s.flag.store(0, std::memory_order_release);
      // Waiting heuristic: tell a pending writer it no longer needs to
      // signal us. The TSO store buffer completes flag=0 before ack, so an
      // observed ack implies our flag is down.
      const std::uint64_t intent =
          lock.intent_->load(std::memory_order_acquire);
      if (intent != 0) s.ack.store(intent, std::memory_order_release);
    }

    /// This reader's policy registration, for callers that re-bind the
    /// policy's strength or serialization backend live (AdaptiveFence
    /// request_mode/request_backend; the reader thread itself must run the
    /// quiescent_point, between read-lock sections).
    typename P::Handle handle() const noexcept {
      return this->owner_->readers_.handle(this->slot_);
    }

   private:
    friend class BiasedRwLock;
    ReaderToken(BiasedRwLock* lock, std::size_t slot)
        : PoolToken<BiasedRwLock>(lock, slot) {}
  };

  /// Register the calling thread as a reader (binds its l-mfence primary
  /// registration). Aborts if more than kMaxReaders register concurrently.
  ReaderToken register_reader() {
    const std::size_t i =
        readers_.claim("BiasedRwLock reader slots exhausted", [](Reader& s) {
          s.owner = pthread_self();
          s.flag.store(0, std::memory_order_relaxed);
          s.ack.store(0, std::memory_order_relaxed);
        });
    return ReaderToken(this, i);
  }

  /// Writer slow path: the augmented Dekker round against every reader.
  void write_lock() {
    writer_gate_.lock();
    const std::uint64_t epoch = ++epoch_counter_;
    intent_->store(epoch, std::memory_order_relaxed);
    P::secondary_fence();  // always a real fence

    if constexpr (kWaitingHeuristic) {
      // Grace window: wait for readers to acknowledge the epoch on their
      // own (they do so at lock/unlock) before resorting to signals. The
      // waiter yields, so the heuristic works even on an oversubscribed
      // host where the readers need this core to run.
      SpinWait grace(/*spin_limit=*/8);
      bool all_acked = false;
      for (int spin = 0; spin < kAckSpinBudget && !all_acked; ++spin) {
        all_acked = true;
        readers_.for_each_live([&](Reader& s, const typename P::Handle&) {
          if (!cleared_by_ack(s, epoch)) all_acked = false;
        });
        if (!all_acked) grace.wait();
      }
    }

    // Classify every live reader (ack-cleared vs. must-signal), fan the
    // signals out as ONE serialize_many wave, and only then spin-wait on
    // the flags. The wave overlaps the round trips, so the writer's
    // serialization cost is max, not sum.
    const std::size_t serialized = readers_.serialize_wave(
        [&](Reader& s) {
          if (kWaitingHeuristic && cleared_by_ack(s, epoch)) {
            wstats_->ack_clears.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
          // Force the reader to serialize so a flag=1 parked in its store
          // buffer (committed before our intent became visible) is exposed.
          wstats_->signal_clears.fetch_add(1, std::memory_order_relaxed);
          return true;
        },
        await_flag_down);
    wstats_->serializations.fetch_add(serialized, std::memory_order_relaxed);
    wstats_->write_acquires.fetch_add(1, std::memory_order_relaxed);
  }

  void write_unlock() {
    intent_->store(0, std::memory_order_release);
    writer_gate_.unlock();
  }

  /// Merged counters (exact while quiescent; safely readable — relaxed
  /// atomic loads — while writers are mid-acquire).
  RwLockStats stats() const {
    RwLockStats out;
    out.write_acquires =
        wstats_->write_acquires.load(std::memory_order_relaxed);
    out.serializations =
        wstats_->serializations.load(std::memory_order_relaxed);
    out.ack_clears = wstats_->ack_clears.load(std::memory_order_relaxed);
    out.signal_clears =
        wstats_->signal_clears.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxReaders; ++i) {
      out.read_acquires += readers_[i].reads.load(std::memory_order_relaxed);
      out.reader_retreats +=
          readers_[i].retreats.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  friend class PoolToken<BiasedRwLock>;
  // Under the writer gate: a concurrent writer may be about to serialize us.
  void release_slot(std::size_t i) { readers_.release(i, writer_gate_); }

  /// Only ARW+ trusts reader acknowledgments; the plain ARW writer signals
  /// every reader unconditionally (Sec. 5: "the writer ends up signaling a
  /// list of readers ... one by one"). An acknowledged reader's flag=0
  /// completed before its ack (TSO FIFO), and it cannot re-enter while
  /// intent is set. A writer's own reader slot needs neither ack nor
  /// signal: its flag stores are ordered by the intent fence it executed.
  static bool cleared_by_ack(const Reader& s, std::uint64_t epoch) {
    return s.ack.load(std::memory_order_acquire) == epoch ||
           pthread_equal(s.owner, pthread_self());
  }

  static void await_flag_down(Reader& s) {
    SpinWait waiter;
    while (s.flag.load(std::memory_order_acquire) != 0) waiter.wait();
  }

  /// Writer-side counters. Incremented only under the writer gate, but read
  /// by stats() from any thread at any time — hence atomics with relaxed
  /// ordering (the values are monotonic event counts, not synchronization).
  struct WriterCounters {
    std::atomic<std::uint64_t> write_acquires{0};
    std::atomic<std::uint64_t> serializations{0};
    std::atomic<std::uint64_t> ack_clears{0};
    std::atomic<std::uint64_t> signal_clears{0};
  };

  PrimaryPool<P, Reader, kMaxReaders> readers_;
  CacheAligned<std::atomic<std::uint64_t>> intent_{0};  // 0 = no writer (L2)
  CacheAligned<WriterCounters> wstats_;
  std::mutex writer_gate_;
  std::atomic<std::uint64_t> epoch_counter_{0};
};

/// The paper's three locks.
using SrwLock = BiasedRwLock<SymmetricFence, false>;
using ArwLock = BiasedRwLock<AsymmetricSignalFence, false>;
using ArwPlusLock = BiasedRwLock<AsymmetricSignalFence, true>;

}  // namespace lbmf

#if defined(LBMF_EXTRACT) && LBMF_EXTRACT
#include "lbmf/extract/annotate.hpp"

namespace lbmf {

/// The biased read/write Dekker protocol above, annotated for
/// lbmf::extract: one hot reader against two gate-serialized writers.
/// Locations: [R] the reader's slot flag, [I] write intent, [WG] the
/// writer gate. Each side's announce (and the writer's back-off retreat)
/// is a `?fence` hole; mutual exclusion is the built-in critical-section
/// check, so no final property is recorded. `lbmf_extract biased-rwlock`
/// regenerates examples/litmus/biased_rwlock.lit from this function.
inline extract::Spec record_biased_rwlock_protocol() {
  using namespace extract;
  Recorder rec("biased-rwlock");

  // read_lock() fast path: announce the slot flag (hole A — the paper
  // makes this a compiler fence), check intent, enter or back off.
  auto reader = LBMF_ROLE(rec, "reader", 1000);
  LBMF_FENCE_HOLE(reader, "R", 1);   // announce read intent
  LBMF_LOAD(reader, r0, "I");        // any writer announced?
  LBMF_BNE(reader, r0, 0, "yield");
  LBMF_CRITICAL(reader);             // read-side critical section
  LBMF_LABEL(reader, "yield");
  LBMF_STORE(reader, "R", 0);        // read_unlock / back off
  LBMF_HALT(reader);

  // write_lock(): the gate serializes writers, then the same Dekker
  // against the reader from the other side.
  auto write = [&rec](const char* name) {
    auto writer = LBMF_ROLE(rec, name, 1);
    LBMF_RMW_ACQUIRE(writer, "WG");
    LBMF_FENCE_HOLE(writer, "I", 1);  // announce write intent
    LBMF_LOAD(writer, r0, "R");       // reader inside?
    LBMF_BNE(writer, r0, 0, "backoff");
    LBMF_CRITICAL(writer);            // write-side critical section
    LBMF_STORE(writer, "I", 0);       // write_unlock
    LBMF_RMW_RELEASE(writer, "WG");
    LBMF_HALT(writer);
    LBMF_LABEL(writer, "backoff");
    LBMF_FENCE_HOLE(writer, "I", 0);  // retreat the announce
    LBMF_RMW_RELEASE(writer, "WG");
    LBMF_HALT(writer);
  };
  write("writer1");
  write("writer2");
  LBMF_SYMMETRIC(rec, "writer1", "writer2");
  return std::move(rec).take();
}

}  // namespace lbmf
#endif  // LBMF_EXTRACT
