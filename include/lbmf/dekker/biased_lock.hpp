#pragma once

#include <atomic>
#include <mutex>

#include <pthread.h>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// A biased lock in the style of the paper's first motivating application
/// (Sec. 1: Java monitors with biased locking [7, 16, 21]): the first
/// thread to acquire becomes the *bias holder* and from then on acquires
/// and releases with neither an atomic RMW nor a hardware fence — just the
/// l-mfence announce. Any other thread must first *revoke* the bias: it
/// publishes a revoke request, remotely serializes the holder (the
/// location-based trigger), waits for the holder to leave its critical
/// section, and permanently downgrades the lock to a plain mutex.
///
/// The related-work biased locks either rely on the unsafe "collocation
/// trick" ([7, 21], see Sec. 6) or can deadlock when nested ([23]); the
/// l-mfence construction needs neither, because the revoker forces the
/// holder's store buffer out from the outside.
///
/// The holder's registration is a PrimaryBinding, so the lock must not die
/// while the holder is still registered: the holder calls release_bias(),
/// or locks once more after a revocation to observe it.
template <FencePolicy P>
class BiasedLock {
 public:
  BiasedLock() = default;

  void lock() {
    if (state_->load(std::memory_order_acquire) == State::kRevoked) {
      holder_maybe_unregister();
      fallback_.lock();
      return;
    }
    const pthread_t self = pthread_self();
    State expected = State::kUnbiased;
    if (state_->compare_exchange_strong(expected, State::kBiasing,
                                        std::memory_order_acq_rel)) {
      // First locker: claim the bias for this thread.
      holder_thread_ = self;
      holder_.bind_primary();
      state_->store(State::kBiased, std::memory_order_release);
      lock_biased_fast();
      return;
    }
    // Wait out a concurrent claim.
    SpinWait w;
    while (state_->load(std::memory_order_acquire) == State::kBiasing) {
      w.wait();
    }
    if (state_->load(std::memory_order_acquire) == State::kBiased &&
        pthread_equal(holder_thread_, self)) {
      lock_biased_fast();
      return;
    }
    // Someone else owns the bias (or it is being revoked): revoke, then
    // fall back to the mutex forever.
    revoke();
    fallback_.lock();
  }

  void unlock() {
    if (state_->load(std::memory_order_acquire) == State::kBiased &&
        pthread_equal(holder_thread_, pthread_self()) &&
        holder_flag_->load(std::memory_order_relaxed) != 0) {
      holder_flag_->store(0, std::memory_order_release);
      ++fast_releases_;
      return;
    }
    fallback_.unlock();
  }

  /// The bias holder relinquishes its bias voluntarily (e.g. before thread
  /// exit). Must be called by the holder, outside the critical section,
  /// with no concurrent lock attempts by other threads (they could be
  /// mid-revocation against our registration).
  void release_bias() {
    if (state_->load(std::memory_order_acquire) != State::kBiased) return;
    if (!pthread_equal(holder_thread_, pthread_self())) return;
    state_->store(State::kRevoked, std::memory_order_release);
    holder_maybe_unregister();
  }

  bool is_biased() const noexcept {
    return state_->load(std::memory_order_acquire) == State::kBiased;
  }

  std::uint64_t fast_acquires() const noexcept { return fast_acquires_; }
  std::uint64_t fast_releases() const noexcept { return fast_releases_; }
  std::uint64_t revocations() const noexcept {
    return revocations_.load(std::memory_order_relaxed);
  }

 private:
  enum class State : int { kUnbiased, kBiasing, kBiased, kRevoked };

  void lock_biased_fast() {
    // The asymmetric Dekker announce: flag := 1 with l-mfence semantics,
    // then check for a pending revoker.
    SpinWait w;
    for (;;) {
      compiler_fence();
      holder_flag_->store(1, std::memory_order_relaxed);
      P::primary_fence();  // compiler-only under the asymmetric policies
      if (revoke_pending_->load(std::memory_order_acquire) == 0 &&
          state_->load(std::memory_order_acquire) == State::kBiased) {
        ++fast_acquires_;
        return;  // bias fast path: no RMW, no hardware fence
      }
      // A revoker is waiting (or won): retreat and take the slow path.
      holder_flag_->store(0, std::memory_order_release);
      while (revoke_pending_->load(std::memory_order_acquire) != 0) w.wait();
      if (state_->load(std::memory_order_acquire) == State::kRevoked) {
        holder_maybe_unregister();
        fallback_.lock();
        return;
      }
    }
  }

  /// Drop the holder's registration once the bias is revoked; a no-op on
  /// any other thread, which never touches the binding. Safe because after
  /// kRevoked is visible no revoker issues another serialize() (revoke()
  /// early-returns under its gate).
  void holder_maybe_unregister() {
    if (pthread_equal(holder_thread_, pthread_self()) &&
        state_->load(std::memory_order_acquire) == State::kRevoked) {
      holder_.unbind_primary();
    }
  }

  void revoke() {
    std::lock_guard<std::mutex> g(revoke_gate_);
    State st = state_->load(std::memory_order_acquire);
    if (st == State::kRevoked) return;  // somebody beat us to it
    // Dekker secondary side: announce the revoke, serialize the holder so
    // a flag=1 parked in its store buffer becomes visible, then wait for
    // the holder to leave.
    revoke_pending_->store(1, std::memory_order_relaxed);
    P::secondary_fence();
    P::serialize(holder_.primary_handle());
    SpinWait w;
    while (holder_flag_->load(std::memory_order_acquire) != 0) w.wait();
    // The holder is out and will observe revoke_pending before re-entering.
    state_->store(State::kRevoked, std::memory_order_release);
    revoke_pending_->store(0, std::memory_order_release);
    revocations_.fetch_add(1, std::memory_order_relaxed);
  }

  CacheAligned<std::atomic<State>> state_{State::kUnbiased};
  CacheAligned<std::atomic<int>> holder_flag_{0};
  CacheAligned<std::atomic<int>> revoke_pending_{0};
  pthread_t holder_thread_{};
  PrimaryBinding<P> holder_{"BiasedLock bias already claimed"};
  std::uint64_t fast_acquires_ = 0;  // holder-only
  std::uint64_t fast_releases_ = 0;  // holder-only
  std::atomic<std::uint64_t> revocations_{0};
  std::mutex fallback_;
  std::mutex revoke_gate_;
};

}  // namespace lbmf
