#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "lbmf/core/policies.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/ws/deque.hpp"

namespace lbmf::ws {

class TaskBase;

/// The Chase-Lev lock-free work-stealing deque, parameterized on the fence
/// policy — demonstrating that the paper's l-mfence applies beyond the
/// Cilk-5 THE protocol: Chase-Lev's take() contains the *same* Dekker
/// duality (publish `bottom`, then read `top`), and its required StoreLoad
/// fence is exactly what the asymmetric policies replace with a
/// compiler fence plus thief-side remote serialization.
///
///   take  (owner):  bottom = b-1; <primary fence>;  t = top; ...
///   steal (thief):  t = top; <secondary fence + serialize>; b = bottom; CAS
///
/// Thieves race each other with a CAS on `top` instead of a gate lock —
/// otherwise the synchronization shape matches TheDeque, so the two can be
/// benchmarked one against the other with everything else constant.
template <FencePolicy P>
class ChaseLevDeque {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 15;

  ChaseLevDeque() : buffer_(kCapacity) {}
  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  void set_owner_handle(const typename P::Handle& h) noexcept {
    owner_handle_ = h;
  }

  /// Owner-only: push at the bottom.
  void push(TaskBase* task) {
    const std::int64_t b = bottom_->load(std::memory_order_relaxed);
    const std::int64_t t = top_->load(std::memory_order_acquire);
    LBMF_CHECK_MSG(b - t < static_cast<std::int64_t>(kCapacity),
                   "Chase-Lev deque overflow");
    buffer_[static_cast<std::size_t>(b) & (kCapacity - 1)].store(
        task, std::memory_order_relaxed);
    bottom_->store(b + 1, std::memory_order_release);
    bump_relaxed(vstats_->pushes);
  }

  /// Owner-only: take from the bottom; nullptr when empty.
  TaskBase* take() {
    const std::int64_t b = bottom_->load(std::memory_order_relaxed) - 1;
    bottom_->store(b, std::memory_order_release);  // announce (L1 = 1)
    P::primary_fence();                            // the l-mfence slot
    bump_relaxed(vstats_->victim_fences);
    std::int64_t t = top_->load(std::memory_order_relaxed);
    if (t < b) {
      // More than one task: no race possible on this element.
      bump_relaxed(vstats_->pops_fast);
      return buffer_[static_cast<std::size_t>(b) & (kCapacity - 1)].load(
          std::memory_order_relaxed);
    }
    TaskBase* result = nullptr;
    bump_relaxed(vstats_->pops_conflict);
    if (t == b) {
      // Last element: race the thieves via CAS on top.
      if (top_->compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        result = buffer_[static_cast<std::size_t>(b) & (kCapacity - 1)].load(
            std::memory_order_relaxed);
      }
    }
    bottom_->store(b + 1, std::memory_order_relaxed);  // restore
    if (result == nullptr) bump_relaxed(vstats_->pops_empty);
    return result;
  }

  /// Any thief: steal from the top; nullptr when empty or lost the race.
  TaskBase* steal() {
    std::int64_t t = top_->load(std::memory_order_acquire);
    P::secondary_fence();
    if (P::serialize(owner_handle_)) {
      tstats_->serializations.fetch_add(1, std::memory_order_relaxed);
    }
    tstats_->thief_fences.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t b = bottom_->load(std::memory_order_acquire);
    if (t >= b) {
      tstats_->steals_empty.fetch_add(1, std::memory_order_relaxed);
      return nullptr;  // empty
    }
    TaskBase* task = buffer_[static_cast<std::size_t>(t) & (kCapacity - 1)]
                         .load(std::memory_order_relaxed);
    if (!top_->compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
      tstats_->steals_empty.fetch_add(1, std::memory_order_relaxed);
      return nullptr;  // lost to another thief or to the owner's take
    }
    tstats_->steals_success.fetch_add(1, std::memory_order_relaxed);
    return task;
  }

  /// Merged snapshot; exact when quiescent, well-defined (relaxed atomic
  /// loads) at any time. Thieves race each other without a gate, hence
  /// their fetch_add above; the owner's counters are single-writer and use
  /// the lock-prefix-free bump_relaxed.
  DequeStats stats() const noexcept {
    DequeStats s;
    s.pushes = vstats_->pushes.load(std::memory_order_relaxed);
    s.pops_fast = vstats_->pops_fast.load(std::memory_order_relaxed);
    s.pops_conflict = vstats_->pops_conflict.load(std::memory_order_relaxed);
    s.pops_empty = vstats_->pops_empty.load(std::memory_order_relaxed);
    s.victim_fences = vstats_->victim_fences.load(std::memory_order_relaxed);
    s.steals_success = tstats_->steals_success.load(std::memory_order_relaxed);
    s.steals_empty = tstats_->steals_empty.load(std::memory_order_relaxed);
    s.thief_fences = tstats_->thief_fences.load(std::memory_order_relaxed);
    s.serializations = tstats_->serializations.load(std::memory_order_relaxed);
    return s;
  }

  void reset_stats() noexcept {
    vstats_->reset();
    tstats_->reset();
  }

  /// take() under TheDeque's name, so one harness drives both deques
  /// (deque_tsan_test); Chase-Lev literature calls the operation take().
  TaskBase* pop() { return take(); }

  /// Advisory only — same contract (and same debug tripwire) as
  /// TheDeque::looks_empty(): the hint may be stale before it returns, so
  /// a non-empty answer only ever means "worth trying".
  bool looks_empty() const noexcept {
    return top_->load(std::memory_order_acquire) >=
           bottom_->load(std::memory_order_acquire);
  }

  /// See TheDeque::pop_expecting_nonempty().
  TaskBase* pop_expecting_nonempty() {
    TaskBase* t = take();
#ifndef NDEBUG
    LBMF_CHECK_MSG(t != nullptr,
                   "looks_empty() is advisory, not authoritative: the deque "
                   "that looked non-empty was drained before take()");
#endif
    return t;
  }

  std::int64_t size_estimate() const noexcept {
    return bottom_->load(std::memory_order_acquire) -
           top_->load(std::memory_order_acquire);
  }

 private:
  CacheAligned<std::atomic<std::int64_t>> top_{0};
  CacheAligned<std::atomic<std::int64_t>> bottom_{0};
  CacheAligned<VictimCounters> vstats_;  // owner-written fields only
  CacheAligned<ThiefCounters> tstats_;   // thief-written (racing: fetch_add)
  typename P::Handle owner_handle_{};
  // Relaxed-atomic cells (plain MOVs on x86): a thief's speculative read
  // of buffer_[t] before its CAS can overlap the owner's push into the
  // same cell once indices wrap — the classic Chase-Lev buffer race. The
  // stale value is discarded (the CAS fails), but the access itself must
  // be atomic or it is UB; this mirrors the C11 formalization (Lê et al.,
  // PPoPP'13). TSan caught the plain-pointer version via deque_tsan_test.
  std::vector<std::atomic<TaskBase*>> buffer_;
};

}  // namespace lbmf::ws

#if defined(LBMF_EXTRACT) && LBMF_EXTRACT
#include "lbmf/extract/annotate.hpp"

namespace lbmf::ws {

/// take()/steal() reduced to the classic TSO double-take (Lê et al.,
/// CGO'13), annotated for lbmf::extract. Locations: [B] bottom (init 2:
/// elements at 0 and 1), [S] top, [C] the CAS gate, [TK1]/[TS0]/[TS1]
/// who-got-which-element tokens. The two byte-identical thieves are
/// recorded by replaying one annotation lambda twice and declared
/// symmetric; `lbmf_extract chase-lev` regenerates
/// examples/litmus/chase_lev.lit from exactly this function.
inline extract::Spec record_chase_lev_protocol() {
  using namespace extract;
  Recorder rec("chase-lev");
  LBMF_INIT(rec, "B", 2);

  // take(): publish the bottom decrement (hole A — the famous fence),
  // read top, and branch: fast take, CAS race for the last element, or
  // empty-and-restore.
  auto owner = LBMF_ROLE(rec, "owner", 1000);
  LBMF_FENCE_HOLE(owner, "B", 1);    // publish bottom 2 -> 1
  LBMF_LOAD(owner, r0, "S");         // read top
  LBMF_BEQ(owner, r0, 0, "fast");    // two left: take elem1 CAS-free
  LBMF_BEQ(owner, r0, 1, "race");    // last element: CAS vs the thieves
  LBMF_STORE(owner, "B", 2);         // empty: restore bottom
  LBMF_HALT(owner);
  LBMF_LABEL(owner, "fast");
  LBMF_STORE(owner, "TK1", 1);       // owner takes elem1 fence-free
  LBMF_HALT(owner);
  LBMF_LABEL(owner, "race");
  LBMF_RMW_ACQUIRE(owner, "C");
  LBMF_LOAD(owner, r1, "S");         // re-read top under the CAS
  LBMF_BNE(owner, r1, 1, "lost");    // a thief won
  LBMF_STORE(owner, "S", 2);         // CAS success: advance top
  LBMF_STORE(owner, "TK1", 1);
  LBMF_LABEL(owner, "lost");
  LBMF_RMW_RELEASE(owner, "C");
  LBMF_HALT(owner);

  // steal(): optimistic top read, then the CAS gate with the in-gate
  // re-check; the top-advance publication is the thief-side hole.
  auto steal = [&rec](const char* name) {
    auto thief = LBMF_ROLE(rec, name, 1);
    LBMF_LOAD(thief, r0, "S");       // optimistic top read
    LBMF_BEQ(thief, r0, 2, "gone");  // everything already taken
    LBMF_RMW_ACQUIRE(thief, "C");    // CAS(top): locked RMW
    LBMF_LOAD(thief, r1, "S");       // re-read top under the CAS
    LBMF_BEQ(thief, r1, 2, "out");
    LBMF_BEQ(thief, r1, 0, "take0");
    LBMF_LOAD(thief, r2, "B");       // elem1 only if bottom is still 2
    LBMF_BNE(thief, r2, 2, "out");   // owner owns elem1: empty for us
    LBMF_FENCE_HOLE(thief, "S", 2);  // publish the CAS top 1 -> 2
    LBMF_STORE(thief, "TS1", 1);     // stole elem1
    LBMF_RMW_RELEASE(thief, "C");
    LBMF_HALT(thief);
    LBMF_LABEL(thief, "take0");
    LBMF_FENCE_HOLE(thief, "S", 1);  // publish the CAS top 0 -> 1
    LBMF_STORE(thief, "TS0", 1);     // stole elem0
    LBMF_RMW_RELEASE(thief, "C");
    LBMF_HALT(thief);
    LBMF_LABEL(thief, "out");
    LBMF_RMW_RELEASE(thief, "C");
    LBMF_LABEL(thief, "gone");
    LBMF_HALT(thief);
  };
  steal("thief1");
  steal("thief2");
  LBMF_SYMMETRIC(rec, "thief1", "thief2");

  // elem0 goes to exactly one thief; elem1 to the owner xor a thief.
  LBMF_FINAL_PROPERTY(rec, "TK1", 1, "TS0", 1, "TS1", 0);
  LBMF_FINAL_PROPERTY(rec, "TK1", 0, "TS0", 1, "TS1", 1);
  return std::move(rec).take();
}

}  // namespace lbmf::ws
#endif  // LBMF_EXTRACT
