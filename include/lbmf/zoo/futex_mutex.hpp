#pragma once

#include <atomic>

#include "lbmf/core/fence.hpp"
#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf::zoo {

/// A futex-style sleeping mutex whose *unlock* fast path is location-fenced
/// (the runtime counterpart of `examples/litmus/futex_mutex.lit`). The
/// classic futex protocol orders unlock's release store against the
/// waiter-count check with a full barrier — on every release, contended or
/// not. Here the designated owner thread releases with only
/// `P::primary_fence()` (an l-mfence linked to the mutex word): a waiter's
/// re-check of the word is what drains the owner's store buffer, so the
/// uncontended release pays no serializing instruction at all.
///
/// Acquisition is symmetric — the announce is a locked RMW (full barrier
/// on x86) either way, so there is nothing for an l-mfence to save on the
/// lock side. A waiter registers in waiters_, serializes the owner
/// (`P::serialize`), and re-checks before sleeping on the C++20 atomic
/// wait/notify facility, which stands in for FUTEX_WAIT/FUTEX_WAKE.
///
/// The contended release re-fences *before* notifying: once a waiter is
/// registered, the release store must be globally visible before the wake
/// is issued, or a waiter could pass the kernel's compare against the
/// stale locked value after the only wake has already fired. That full
/// fence rides the slow path only — the hot path's entire win is keeping
/// the uncontended release fence-free.
///
/// The owner (the thread whose unlocks go through the location-fenced fast
/// path) binds through PrimaryBinding, with the same lifetime contract as
/// AsymmetricDekker.
template <FencePolicy P>
class FutexMutex : public PrimaryBinding<P> {
 public:
  using Policy = P;

  FutexMutex() : PrimaryBinding<P>("FutexMutex primary already bound") {}

  void lock_primary() noexcept { acquire(); }
  void lock_secondary() { acquire(); }

  // The release store orders the critical section before the next
  // acquirer's exchange (a plain `mov` on x86, as relaxed is).
  void unlock_primary() noexcept {
    word_->store(0, std::memory_order_release);
    P::primary_fence();
    if (waiters_->load(std::memory_order_acquire) != 0) wake();
  }

  void unlock_secondary() noexcept {
    word_->store(0, std::memory_order_release);
    P::secondary_fence();
    if (waiters_->load(std::memory_order_acquire) != 0) wake();
  }

 private:
  void acquire() noexcept {
    // Fast path: uncontended exchange (a locked RMW, so no extra fence).
    if (word_->exchange(1, std::memory_order_acquire) == 0) return;
    waiters_->fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      if (word_->exchange(1, std::memory_order_acquire) == 0) break;
      // Serialize the owner before committing to sleep: its buffered
      // release must be in memory, or we would sleep on a stale 1 after
      // the owner's (only) wake has come and gone.
      P::serialize(this->primary_handle());
      if (word_->load(std::memory_order_acquire) != 0) {
        word_->wait(1, std::memory_order_acquire);
      }
    }
    waiters_->fetch_sub(1, std::memory_order_relaxed);
  }

  void wake() noexcept {
    // The release store must be visible before the wake (see class
    // comment); contention is the rare path, so the full fence is cheap.
    store_load_fence();
    word_->notify_one();
  }

  CacheAligned<std::atomic<int>> word_;     // 0 = free, 1 = held
  CacheAligned<std::atomic<int>> waiters_;  // registered sleepers
};

}  // namespace lbmf::zoo
