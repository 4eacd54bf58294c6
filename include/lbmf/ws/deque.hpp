#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "lbmf/core/policies.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/counters.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf::ws {

class TaskBase;

/// Per-deque event counters — a plain value snapshot, as returned by
/// stats(). The live counters inside the deques are relaxed atomics
/// (VictimCounters / ThiefCounters below): splitting writers per side
/// stops counter *updates* from racing each other, but stats() reads both
/// sides from arbitrary threads while they run, so the storage itself must
/// be atomic or the snapshot is a data race (TSan flags it; the compiler
/// may tear or invent reads). The counters only grow: a reader that wants
/// the events of an interval takes a snapshot at each end and subtracts.
struct DequeStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops_fast = 0;      // pop won without touching the lock
  std::uint64_t pops_conflict = 0;  // pop had to take the THE lock
  std::uint64_t pops_empty = 0;
  std::uint64_t victim_fences = 0;  // primary_fence() on the pop path
  std::uint64_t victim_serializations = 0;  // peer drains (double-l-mfence)
  std::uint64_t steals_success = 0;
  std::uint64_t steals_empty = 0;
  std::uint64_t thief_fences = 0;
  std::uint64_t serializations = 0;  // remote serialize() by thieves
};

/// Victim-written counters: single writer (the owning worker, so the
/// lock-prefix-free bump_relaxed applies — see util/counters.hpp), read by
/// stats() from any thread.
struct VictimCounters {
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<std::uint64_t> pops_fast{0};
  std::atomic<std::uint64_t> pops_conflict{0};
  std::atomic<std::uint64_t> pops_empty{0};
  std::atomic<std::uint64_t> victim_fences{0};
  std::atomic<std::uint64_t> victim_serializations{0};
};

/// Thief-written counters. In TheDeque every update happens under the THE
/// gate (one writer at a time → bump_relaxed); Chase-Lev thieves race
/// without a gate and must use fetch_add on these same fields.
struct ThiefCounters {
  std::atomic<std::uint64_t> steals_success{0};
  std::atomic<std::uint64_t> steals_empty{0};
  std::atomic<std::uint64_t> thief_fences{0};
  std::atomic<std::uint64_t> serializations{0};
};

/// A Cilk-5-style THE (Tail / Head / Exception-free variant) work-stealing
/// deque, parameterized on the fence policy. The victim owns the tail; the
/// thieves share the head behind a mutex (one thief at a time — the paper's
/// "secondaries first compete for the right to synchronize", Sec. 1).
///
/// The Dekker duality lives in pop vs steal:
///   pop   (victim, primary):  T = T-1;  <primary fence>;   read H
///   steal (thief,  secondary): H = H+1; <mfence+serialize>; read T
/// With an asymmetric policy the victim's fence is a compiler fence only —
/// exactly the l-mfence application the paper evaluates on Cilk-5.
template <FencePolicy P>
class TheDeque {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 15;

  TheDeque() : buffer_(kCapacity) {}
  TheDeque(const TheDeque&) = delete;
  TheDeque& operator=(const TheDeque&) = delete;

  /// The owning worker's serializer registration (set by the worker thread
  /// itself before any thief may target this deque).
  void set_owner_handle(const typename P::Handle& h) noexcept {
    owner_handle_ = h;
  }

  /// Victim-only: push a task at the tail. No fence needed — publication to
  /// thieves is via the release store of tail, and the Dekker race only
  /// exists on the pop side.
  void push(TaskBase* task) {
    const std::int64_t t = tail_->load(std::memory_order_relaxed);
    LBMF_CHECK_MSG(t - head_->load(std::memory_order_relaxed) <
                       static_cast<std::int64_t>(kCapacity),
                   "work-stealing deque overflow");
    buffer_[static_cast<std::size_t>(t) & (kCapacity - 1)].store(
        task, std::memory_order_relaxed);
    tail_->store(t + 1, std::memory_order_release);
    bump_relaxed(vstats_->pushes);
  }

  /// Victim-only: pop from the tail. Returns nullptr when empty. This is
  /// the hot path whose fence the paper removes.
  TaskBase* pop() {
    // All tail/head stores are release and cross-side loads acquire: plain
    // MOVs on x86, so the *only* StoreLoad ordering in play is the policy
    // fence below — the variable the paper's experiment isolates.
    const std::int64_t t = tail_->load(std::memory_order_relaxed) - 1;
    tail_->store(t, std::memory_order_release);  // announce intent (L1 = 1)
    P::primary_fence();                          // l-mfence / mfence / ...
    bump_relaxed(vstats_->victim_fences);
    // Double-l-mfence regime only (false otherwise): drain the thieves
    // before the conflict-deciding head read, mirroring the serialize()
    // thieves aim at us. The membarrier broadcast is also this side's
    // StoreLoad, completing the announce that primary_fence left light.
    if (P::serialize_peers(owner_handle_)) {
      bump_relaxed(vstats_->victim_serializations);
    }
    const std::int64_t h = head_->load(std::memory_order_acquire);
    if (h <= t) {
      // No conflict: the deque had at least one task beyond every thief.
      bump_relaxed(vstats_->pops_fast);
      return buffer_[static_cast<std::size_t>(t) & (kCapacity - 1)].load(
          std::memory_order_relaxed);
    }
    // Possible conflict with a thief racing for the last task: retreat and
    // resolve under the thief gate (the augmented-Dekker slow path). The
    // gate is polled, not waited on: the thief holding it may be parked
    // until this thread's signal handler acknowledges its serialize(), and
    // a thread blocked in a contended mutex lock need not run that handler
    // (ThreadSanitizer defers it), which would deadlock the pair.
    tail_->store(t + 1, std::memory_order_release);
    for (SpinWait w; !gate_.try_lock();) w.wait();
    std::lock_guard<std::mutex> g(gate_, std::adopt_lock);
    bump_relaxed(vstats_->pops_conflict);
    const std::int64_t h2 = head_->load(std::memory_order_acquire);
    if (h2 <= t) {
      tail_->store(t, std::memory_order_release);
      return buffer_[static_cast<std::size_t>(t) & (kCapacity - 1)].load(
          std::memory_order_relaxed);
    }
    bump_relaxed(vstats_->pops_empty);
    return nullptr;
  }

  /// Thief-only: steal from the head. Returns nullptr when empty.
  TaskBase* steal() {
    std::lock_guard<std::mutex> g(gate_);
    const std::int64_t h = head_->load(std::memory_order_relaxed);
    head_->store(h + 1, std::memory_order_release);  // announce (L2 = 1)
    P::secondary_fence(owner_handle_);  // real fence; light in double mode
    if (P::serialize(owner_handle_)) {
      // Force the victim's tail store visible.
      bump_relaxed(tstats_->serializations);
    }
    bump_relaxed(tstats_->thief_fences);
    const std::int64_t t = tail_->load(std::memory_order_acquire);
    if (h + 1 > t) {
      head_->store(h, std::memory_order_release);  // retreat (L2 = 0)
      bump_relaxed(tstats_->steals_empty);
      return nullptr;
    }
    bump_relaxed(tstats_->steals_success);
    return buffer_[static_cast<std::size_t>(h) & (kCapacity - 1)].load(
        std::memory_order_relaxed);
  }

  /// Advisory only: a racy occupancy hint for steal-target selection. The
  /// answer can be invalidated before this function even returns — a thief
  /// may drain the last task, the victim may push. Callers must treat a
  /// non-empty answer as "worth trying" and re-check the pop()/steal()
  /// result for nullptr (the scheduler does exactly this); never branch on
  /// it as a guarantee.
  bool looks_empty() const noexcept {
    return head_->load(std::memory_order_acquire) >=
           tail_->load(std::memory_order_acquire);
  }

  /// Merged snapshot; exact when victim and thieves are quiescent, and a
  /// well-defined (relaxed, per-field-consistent) approximation while they
  /// run.
  DequeStats stats() const noexcept {
    DequeStats s;
    s.pushes = vstats_->pushes.load(std::memory_order_relaxed);
    s.pops_fast = vstats_->pops_fast.load(std::memory_order_relaxed);
    s.pops_conflict = vstats_->pops_conflict.load(std::memory_order_relaxed);
    s.pops_empty = vstats_->pops_empty.load(std::memory_order_relaxed);
    s.victim_fences = vstats_->victim_fences.load(std::memory_order_relaxed);
    s.victim_serializations =
        vstats_->victim_serializations.load(std::memory_order_relaxed);
    s.steals_success = tstats_->steals_success.load(std::memory_order_relaxed);
    s.steals_empty = tstats_->steals_empty.load(std::memory_order_relaxed);
    s.thief_fences = tstats_->thief_fences.load(std::memory_order_relaxed);
    s.serializations = tstats_->serializations.load(std::memory_order_relaxed);
    return s;
  }

 private:
  CacheAligned<std::atomic<std::int64_t>> head_{0};
  CacheAligned<std::atomic<std::int64_t>> tail_{0};
  CacheAligned<VictimCounters> vstats_;  // victim-written fields only
  CacheAligned<ThiefCounters> tstats_;   // thief-written (gate-serialized)
  std::mutex gate_;
  typename P::Handle owner_handle_{};
  // Relaxed-atomic cells: a thief reads buffer_[h] only after bumping head
  // (so the slot is already consumed from the protocol's point of view),
  // and once indices wrap the victim may push into that same cell while
  // the thief's read is still in flight. The protocol keeps the *values*
  // straight, but the cell access itself must be atomic to be defined —
  // same fix as ChaseLevDeque's buffer (which TSan flagged outright).
  std::vector<std::atomic<TaskBase*>> buffer_;
};

}  // namespace lbmf::ws

#if defined(LBMF_EXTRACT) && LBMF_EXTRACT
#include "lbmf/extract/annotate.hpp"

namespace lbmf::ws {

/// The pop()/steal() Dekker protocol above, annotated for lbmf::extract.
/// Locations: [T] tail (init 1: one task left), [H] head, [G] the thief
/// gate, [TK0]/[TK1] per-side "I executed the last task" tokens. The
/// recording mirrors pop() and steal() line for line — announce, check,
/// retreat-into-the-gate — with the two fence decisions per side left as
/// `?fence` holes for lbmf::infer; `lbmf_extract the-deque` regenerates
/// examples/litmus/the_deque_holes.lit from exactly this function.
inline extract::Spec record_the_deque_protocol() {
  using namespace extract;
  Recorder rec("the-deque");
  LBMF_INIT(rec, "T", 1);

  // pop(): tail_->store(t) announces the decrement, P::primary_fence()
  // is hole A, then the head check decides fast path vs the gate.
  auto victim = LBMF_ROLE(rec, "victim", 1000);
  LBMF_FENCE_HOLE(victim, "T", 0);   // announce the tail decrement
  LBMF_LOAD(victim, r0, "H");        // read the thieves' head
  LBMF_BEQ(victim, r0, 0, "claim");  // no conflict: keep the task
  LBMF_FENCE_HOLE(victim, "T", 1);   // retreat before taking the gate
  LBMF_RMW_ACQUIRE(victim, "G");     // poll gate_.try_lock()
  LBMF_LOAD(victim, r1, "H");        // re-check under the gate
  LBMF_BNE(victim, r1, 0, "empty");
  LBMF_STORE(victim, "T", 0);        // win the conflict: re-take the tail
  LBMF_STORE(victim, "TK0", 1);
  LBMF_LABEL(victim, "empty");
  LBMF_RMW_RELEASE(victim, "G");
  LBMF_HALT(victim);
  LBMF_LABEL(victim, "claim");
  LBMF_STORE(victim, "TK0", 1);
  LBMF_HALT(victim);

  // steal(): always under the gate; head_->store(h+1) announces, the
  // secondary fence is hole C, the empty case retreats (hole D).
  auto thief = LBMF_ROLE(rec, "thief", 1);
  LBMF_RMW_ACQUIRE(thief, "G");
  LBMF_FENCE_HOLE(thief, "H", 1);    // announce the head increment
  LBMF_LOAD(thief, r0, "T");         // read the victim's tail
  LBMF_BEQ(thief, r0, 0, "miss");
  LBMF_STORE(thief, "TK1", 1);
  LBMF_RMW_RELEASE(thief, "G");
  LBMF_HALT(thief);
  LBMF_LABEL(thief, "miss");
  LBMF_FENCE_HOLE(thief, "H", 0);    // retreat the announce
  LBMF_RMW_RELEASE(thief, "G");
  LBMF_HALT(thief);

  // The last task is executed exactly once: victim xor thief.
  LBMF_FINAL_PROPERTY(rec, "TK0", 1, "TK1", 0);
  LBMF_FINAL_PROPERTY(rec, "TK0", 0, "TK1", 1);
  return std::move(rec).take();
}

}  // namespace lbmf::ws
#endif  // LBMF_EXTRACT
