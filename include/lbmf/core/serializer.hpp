#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include <pthread.h>

#include "lbmf/util/cacheline.hpp"

namespace lbmf {

/// Signal-based remote serialization — the paper's software prototype of
/// l-mfence (Sec. 5, "Software Prototype of l-mfence").
///
/// A thread that wants to act as a *primary* (the thread whose fences we
/// optimize away) registers itself and receives a slot. A *secondary* thread
/// that is about to read a location guarded by the primary's l-mfence calls
/// serialize(slot): it posts a POSIX signal to the primary and spins until
/// the primary's handler acknowledges. Delivering the signal forces the
/// primary's core through a kernel entry/exit, which drains its store buffer
/// — exactly the serialization a remote mfence would provide — and the
/// acknowledgment tells the secondary the drain has happened, so its
/// subsequent load observes every store the primary had committed.
///
/// The round trip costs ~10,000 cycles (paper, Sec. 5), so the registry is
/// built to make it pay once, not N times:
///
///  * **Request coalescing** — serialize() bumps `req_seq` but posts a
///    signal only when no request is already in flight (`in_flight`, cleared
///    by the handler before it publishes `ack_seq`). K concurrent
///    secondaries targeting one primary share one kernel round trip; each
///    still waits until `ack_seq` covers its own request, so the guarantee
///    per caller is unchanged.
///
///  * **Batched fan-out** — serialize_many() posts the signals for a whole
///    set of primaries first and only then collects the acks, so N round
///    trips overlap into one wave whose latency is the max, not the sum.
///
/// The handler is async-signal-safe: it touches only lock-free std::atomic
/// fields of the registered slot.
class SerializerRegistry {
 public:
  /// One registered primary thread. The groups below are cache-line
  /// separated so the secondaries' request traffic (req_seq/in_flight) does
  /// not false-share with the ack word the primary's handler writes.
  struct Slot {
    // -- written by secondaries --------------------------------------------
    alignas(kCacheLineSize) std::atomic<std::uint64_t> req_seq{0};
    std::atomic<bool> in_flight{false};  // a posted signal is not yet acked
    std::atomic<std::uint64_t> signals_posted{0};  // pthread_kill calls
    std::atomic<std::uint64_t> resignals{0};       // re-posts after a stall
    // -- written by the primary's handler ----------------------------------
    alignas(kCacheLineSize) std::atomic<std::uint64_t> ack_seq{0};
    std::atomic<std::uint32_t> ack_event{0};  // eventcount for parked waiters
    std::atomic<std::uint64_t> signals_received{0};  // handler invocations
    // -- registration metadata (rarely written) ----------------------------
    alignas(kCacheLineSize) std::atomic<bool> used{false};  // slot claimed
    std::atomic<bool> live{false};  // registration published (store-release)
    pthread_t thread{};
  };

  /// Opaque handle a secondary uses to target a primary.
  class Handle {
   public:
    Handle() = default;
    bool valid() const noexcept { return slot_ != nullptr; }

   private:
    friend class SerializerRegistry;
    explicit Handle(Slot* s) noexcept : slot_(s) {}
    Slot* slot_ = nullptr;
  };

  static constexpr std::size_t kMaxPrimaries = 256;

  /// Ack-wait shape: a secondary first spins kAckSpinRounds single-pause
  /// rounds (a few µs — covers an ack arriving at cross-core latency), then
  /// parks on the slot's ack eventcount — a futex the handler wakes — so K
  /// coalesced waiters stop competing with the primary for the CPU while
  /// their shared round trip is in flight. The spin phase is deliberately
  /// short and yield-free: on an oversubscribed host a spinning waiter
  /// actively delays the very handler it is waiting for.
  static constexpr int kAckSpinRounds = 64;
  /// Nanoseconds per bounded park before the waiter rechecks the ack.
  static constexpr long kAckParkNanos = 1'000'000;  // 1 ms
  /// Parks tolerated before re-posting the signal (defense against a lost
  /// or indefinitely delayed delivery — e.g. the primary briefly blocking
  /// the signal). A re-post is always sound (the handler is idempotent);
  /// the budget only bounds how long a stall can go unnoticed. Re-posts are
  /// counted in Slot::resignals.
  static constexpr int kResignalParkBudget = 4;

  /// Process-wide registry (installs the signal handler on first use).
  static SerializerRegistry& instance();

  /// Register the calling thread as a primary. Must be paired with
  /// unregister_self() on the same thread before it exits. Returns an
  /// invalid handle if the registry is full.
  Handle register_self();

  /// Remove the calling thread's registration.
  void unregister_self(Handle& h);

  /// Force the primary identified by `h` to serialize its instruction
  /// stream, and return only after it has done so. Safe to call from any
  /// thread except the primary itself; calling it on a dead/unregistered
  /// handle is a no-op. Returns false if the slot was not live. Coalesces:
  /// if another secondary's signal is already in flight, no new signal is
  /// posted — the shared handler run acknowledges both requests.
  bool serialize(const Handle& h);

  /// serialize() without request coalescing: every call posts its own
  /// signal and spin-waits for the covering ack. This is the pre-batching
  /// serialize path, kept verbatim as the measured baseline for the
  /// coalescing win (bench_roundtrip E15).
  bool serialize_uncoalesced(const Handle& h);

  /// Batched fan-out: serialize every primary in `hs` with one overlapped
  /// wave — all signals are posted first, then all acks are collected, so
  /// the wall-clock cost is the slowest round trip instead of the sum.
  /// Invalid and dead handles are skipped; a handle naming the calling
  /// thread degenerates to one local fence. Returns the number of handles
  /// successfully serialized (== hs.size() when all were live).
  std::size_t serialize_many(std::span<const Handle> hs);

  /// Number of signals a primary's handler has run (for event accounting).
  static std::uint64_t signals_received(const Handle& h) noexcept {
    return h.slot_ ? h.slot_->signals_received.load(std::memory_order_relaxed)
                   : 0;
  }

  /// Number of pthread_kill calls posted at this primary. With coalescing
  /// engaged this grows sublinearly in the number of serialize() calls.
  static std::uint64_t signals_posted(const Handle& h) noexcept {
    return h.slot_ ? h.slot_->signals_posted.load(std::memory_order_relaxed)
                   : 0;
  }

  /// Number of re-posts after an ack-wait exhausted kResignalWaitBudget
  /// (observability for lost/stalled deliveries; 0 in healthy runs).
  static std::uint64_t resignals(const Handle& h) noexcept {
    return h.slot_ ? h.slot_->resignals.load(std::memory_order_relaxed) : 0;
  }

  /// The signal number used for serialization requests (SIGURG by default:
  /// rarely used by applications and ignored by default, so a stray late
  /// delivery after unregistration cannot kill the process).
  static int signal_number() noexcept;

  /// Decayed (EWMA, α = 1/8) estimate of the wall-clock serialize() round
  /// trip in TSC cycles, measured across request-to-ack on every coalesced
  /// serialize() call. 0.0 until the first measurement. The adaptation
  /// layer feeds this to its workload monitor so the policy frontier is
  /// priced with *this machine's* trip, not the paper's constant.
  static double measured_roundtrip_cycles() noexcept;

 private:
  SerializerRegistry();
  SerializerRegistry(const SerializerRegistry&) = delete;
  SerializerRegistry& operator=(const SerializerRegistry&) = delete;

  static void handler(int);

  // Bump req_seq and post a signal unless one is already in flight.
  // Returns the caller's request number, or 0 if the primary is gone.
  static std::uint64_t post_request(Slot& slot);
  // Spin until ack_seq covers `my_req`, re-posting on a stalled wait.
  static void await_ack(Slot& slot, std::uint64_t my_req);

  // Record one measured round trip into the process-wide EWMA. Racy
  // read-modify-store on purpose: a dropped sample under contention only
  // slows convergence of an estimate that is advisory to begin with.
  static void record_roundtrip(std::uint64_t cycles) noexcept;

  CacheAligned<Slot> slots_[kMaxPrimaries];
  std::atomic<std::size_t> high_water_{0};
  static std::atomic<std::uint64_t> rtt_ewma_cycles_;
  static std::atomic<std::uint64_t> rtt_samples_;
};

}  // namespace lbmf
