#pragma once

#include <atomic>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf::zoo {

/// An unfair, owner-biased spinlock (the runtime counterpart of
/// `examples/litmus/spinlock.lit`). One distinguished owner thread barges
/// on its fast path with a Dekker-style announce-then-check on [owner_] /
/// [contender_]; everyone else serializes on an internal gate and claims
/// from the other side. Unfairness is structural: the owner announces and
/// *never retreats* — on a collision it simply spins until the contender
/// backs off, so the owner wins every race it joins. Contenders do the
/// announce-retreat loop, which is what makes the pair deadlock-free.
///
/// The fence placement is the inferred minimum from `spinlock_holes.lit`:
/// l-mfence on the owner's announce (the location link rides [owner_]; a
/// contender's read of it is what drains the owner's store buffer) and a
/// full fence on each contender's announce.
///
/// The owner binds through PrimaryBinding, with the same lifetime contract
/// as AsymmetricDekker.
template <FencePolicy P>
class BiasedSpinlock : public PrimaryBinding<P> {
 public:
  using Policy = P;

  BiasedSpinlock()
      : PrimaryBinding<P>("BiasedSpinlock primary already bound") {}

  void lock_primary() noexcept {
    compiler_fence();
    owner_->store(1, std::memory_order_relaxed);
    P::primary_fence();
    SpinWait w;
    while (contender_->load(std::memory_order_acquire) != 0) w.wait();
  }

  void unlock_primary() noexcept {
    owner_->store(0, std::memory_order_release);
  }

  void lock_secondary() {
    // Contenders compete with each other on the gate first, so at most one
    // of them races the owner on the announce words.
    SpinWait g;
    while (gate_->exchange(1, std::memory_order_acquire) != 0) g.wait();
    for (;;) {
      contender_->store(1, std::memory_order_relaxed);
      P::secondary_fence();
      // Expose the owner's buffered announce.
      P::serialize(this->primary_handle());
      if (owner_->load(std::memory_order_acquire) == 0) return;
      // Collision: retreat so the (never-retreating) owner can proceed,
      // then wait out the owner's critical section before re-announcing.
      contender_->store(0, std::memory_order_release);
      SpinWait w;
      while (owner_->load(std::memory_order_acquire) != 0) w.wait();
    }
  }

  void unlock_secondary() noexcept {
    contender_->store(0, std::memory_order_release);
    gate_->store(0, std::memory_order_release);
  }

 private:
  CacheAligned<std::atomic<int>> owner_;
  CacheAligned<std::atomic<int>> contender_;
  CacheAligned<std::atomic<int>> gate_;
};

}  // namespace lbmf::zoo
