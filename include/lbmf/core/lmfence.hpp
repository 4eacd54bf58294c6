#pragma once

#include <atomic>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"

namespace lbmf {

/// High-level, per-location form of the paper's l-mfence(l, v).
///
/// A GuardedLocation has exactly one *primary* thread (the single writer the
/// paper's usage rules require, Sec. 3) and any number of *secondary*
/// readers. The primary calls lmfence_store(v): the store is ordered against
/// the primary's subsequent loads *on demand* — the primary itself pays only
/// a compiler fence. A secondary calls remote_read(): it first forces the
/// primary to serialize (the location-based trigger) and then loads, so it
/// is guaranteed to observe every store the primary issued before its most
/// recent lmfence_store.
///
/// With P = SymmetricFence the same object degrades to the classic
/// program-based discipline (primary pays mfence, remote_read is a plain
/// load), which is how the benchmarks hold everything but the fence constant.
///
/// The primary binds through PrimaryBinding: bind_primary() must precede
/// any lmfence_store, and unbind_primary() follows the last concurrent
/// remote_read.
template <typename T, FencePolicy P = AsymmetricSignalFence>
class GuardedLocation : public PrimaryBinding<P> {
 public:
  using Policy = P;

  explicit GuardedLocation(T initial = T{})
      : PrimaryBinding<P>("GuardedLocation already has a primary"),
        value_(initial) {}

  /// The l-mfence itself: store v to the guarded location with on-demand
  /// StoreLoad ordering against the primary's later loads.
  void lmfence_store(T v) noexcept {
    compiler_fence();
    value_->store(v, std::memory_order_relaxed);
    P::primary_fence();  // compiler-only for asymmetric policies
  }

  /// Plain store by the primary that needs no ordering (e.g. clearing a
  /// Dekker flag on critical-section exit).
  void plain_store(T v) noexcept { value_->store(v, std::memory_order_release); }

  /// Primary-side read of its own location (store-buffer forwarded).
  T local_read() const noexcept {
    return value_->load(std::memory_order_relaxed);
  }

  /// Secondary-side read: remotely serialize the primary, then load. After
  /// this returns, every store the primary committed before its latest
  /// lmfence_store is visible to the caller.
  T remote_read() const {
    if (this->bound()) P::serialize(this->primary_handle());
    return value_->load(std::memory_order_acquire);
  }

  /// Secondary-side read *without* the serialization step — for polling
  /// loops that only need an eventually-fresh value.
  T weak_read() const noexcept {
    return value_->load(std::memory_order_acquire);
  }

 private:
  CacheAligned<std::atomic<T>> value_;
};

}  // namespace lbmf
