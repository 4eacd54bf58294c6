#pragma once

#include <atomic>
#include <cstdint>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// Peterson's two-thread mutual exclusion with a location-based fence on
/// the primary's announce — the paper's Sec. 7 future-work question ("what
/// other algorithms can benefit") realized on real hardware. The simulator
/// proves the scheme exhaustively (PetersonExhaustive tests); this is the
/// same protocol over std::atomic and the FencePolicy machinery.
///
/// Peterson's announce is TWO stores (flag[i] = 1; turn = peer), yet one
/// l-mfence on the *last* store suffices on TSO: the store buffer drains in
/// FIFO order, so any serialization that completes `turn` has already
/// completed `flag[i]`. The secondary therefore serializes the primary once
/// per announce and then reads both variables.
///
/// Unlike Dekker, Peterson needs no extra tie-breaking: the turn word makes
/// the last announcer defer, giving deadlock- and livelock-freedom for two
/// threads out of the box.
///
/// Either side may leave its wait on reading the peer's `turn` store, so
/// both `turn` stores are release: that read is then the happens-before
/// edge from the peer's previous critical section (its unlock is sequenced
/// before its next announce). On x86 a release store is a plain MOV, so
/// the primary's path gains no fence.
///
/// The primary binds through PrimaryBinding, with the same lifetime
/// contract as AsymmetricDekker.
template <FencePolicy P>
class AsymmetricPeterson : public PrimaryBinding<P> {
 public:
  using Policy = P;

  AsymmetricPeterson()
      : PrimaryBinding<P>("AsymmetricPeterson primary already bound") {}

  void lock_primary() noexcept {
    // Announce: flag, then turn — the l-mfence conceptually guards `turn`,
    // and FIFO store-buffer order covers `flag` (see class comment).
    compiler_fence();
    flag_[0]->store(1, std::memory_order_relaxed);
    turn_->store(kPrimaryToken, std::memory_order_release);
    P::primary_fence();
    SpinWait w;
    while (flag_[1]->load(std::memory_order_acquire) != 0 &&
           turn_->load(std::memory_order_acquire) == kPrimaryToken) {
      w.wait();
    }
  }

  void unlock_primary() noexcept {
    flag_[0]->store(0, std::memory_order_release);
  }

  void lock_secondary() {
    flag_[1]->store(1, std::memory_order_relaxed);
    turn_->store(kSecondaryToken, std::memory_order_release);
    P::secondary_fence();
    // Expose the primary's buffered announce.
    P::serialize(this->primary_handle());
    SpinWait w;
    while (flag_[0]->load(std::memory_order_acquire) != 0 &&
           turn_->load(std::memory_order_acquire) == kSecondaryToken) {
      w.wait();
    }
  }

  void unlock_secondary() noexcept {
    flag_[1]->store(0, std::memory_order_release);
  }

 private:
  static constexpr int kPrimaryToken = 1;
  static constexpr int kSecondaryToken = 2;

  CacheAligned<std::atomic<int>> flag_[2];
  CacheAligned<std::atomic<int>> turn_;
};

}  // namespace lbmf
