#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>

#include "lbmf/core/policies.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

// How a thread becomes an l-mfence primary. Every protocol object in the
// library registers its primaries through one of the two types below, so
// the lifetime contract (register on the primary's own thread, stay
// registered while a secondary may serialize it, unregister after they
// quiesce) lives in one place.

/// One primary per object: the Dekker and Peterson pairs, the zoo locks,
/// GuardedLocation and BiasedLock's bias holder. bind_primary() and
/// unbind_primary() run on the primary's thread; secondaries only read the
/// handle, and only while the binding is live. Binding twice fails an
/// LBMF_CHECK with the owner's `already_bound` message, and so does
/// destroying the binding while it is still bound.
template <FencePolicy P>
class PrimaryBinding {
 public:
  explicit PrimaryBinding(const char* already_bound) noexcept
      : already_bound_(already_bound) {}
  PrimaryBinding(const PrimaryBinding&) = delete;
  PrimaryBinding& operator=(const PrimaryBinding&) = delete;
  ~PrimaryBinding() { LBMF_CHECK_MSG(!bound(), "unbind_primary not called"); }

  /// Register the calling thread as the primary. Must happen-before any
  /// secondary operation on other threads (e.g. be sequenced before
  /// launching them).
  void bind_primary() {
    LBMF_CHECK_MSG(!bound(), already_bound_);
    handle_ = P::register_primary();
    bound_.store(true, std::memory_order_release);
  }

  /// Drop the registration; a no-op when not bound.
  void unbind_primary() {
    if (bound_.exchange(false, std::memory_order_acq_rel)) {
      P::unregister_primary(handle_);
    }
  }

  /// The registered primary's policy handle, for callers that batch
  /// serializations across objects (P::serialize_many). Valid only between
  /// bind_primary() and unbind_primary().
  const typename P::Handle& primary_handle() const noexcept { return handle_; }

 protected:
  bool bound() const noexcept { return bound_.load(std::memory_order_acquire); }

 private:
  typename P::Handle handle_{};
  std::atomic<bool> bound_{false};
  const char* already_bound_;
};

/// Up to N primaries at once, each owning one slot of per-thread `State`:
/// EpochDomain readers, Safepoint mutators and BiasedRwLock readers. A
/// thread claims a slot for itself; the owner's secondary round runs under
/// the owner's gate and reaches every live slot through serialize_wave(),
/// and a slot is released under that same gate, so no wave is mid-flight
/// against a handle while P unregisters it.
template <FencePolicy P, typename State, std::size_t N>
class PrimaryPool {
 public:
  using Handle = typename P::Handle;

  /// Claim a free slot for the calling thread: register it with P, run
  /// init(state), then publish it to the secondaries. Fails an LBMF_CHECK
  /// with `exhausted` when all N slots are taken.
  template <typename Init>
  std::size_t claim(const char* exhausted, Init&& init) {
    for (std::size_t i = 0; i < N; ++i) {
      Slot& s = *slots_[i];
      bool expected = false;
      if (!s.used.load(std::memory_order_relaxed) &&
          s.used.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
        s.handle = P::register_primary();
        init(static_cast<State&>(s));
        s.live.store(true, std::memory_order_release);
        // Secondaries scan [0, high water); it only ever grows.
        std::size_t hw = high_water_.load(std::memory_order_relaxed);
        while (hw < i + 1 && !high_water_.compare_exchange_weak(
                                 hw, i + 1, std::memory_order_acq_rel)) {
        }
        return i;
      }
    }
    LBMF_CHECK_MSG(false, exhausted);
    return N;  // unreachable
  }

  /// Unpublish and unregister slot `i` while holding `gate`, the lock
  /// every serialize_wave() caller holds. Call on the slot's own thread.
  /// The gate is polled, not waited on: until the slot is unpublished this
  /// thread is a live primary, the round holding the gate may be waiting
  /// for its signal handler, and a thread blocked in a contended mutex
  /// lock need not run that handler (ThreadSanitizer defers it).
  template <typename Gate>
  void release(std::size_t i, Gate& gate) {
    Slot& s = *slots_[i];
    // Releases take the gate in ticket order, so an owner's
    // await_releases() knows which ones were pending before its round.
    const std::uint64_t ticket =
        release_tickets_.fetch_add(1, std::memory_order_relaxed);
    for (SpinWait w; releases_served_.load(std::memory_order_acquire) !=
                     ticket;) {
      w.wait();
    }
    {
      for (SpinWait w; !gate.try_lock();) w.wait();
      std::lock_guard<Gate> g(gate, std::adopt_lock);
      s.live.store(false, std::memory_order_release);
      P::unregister_primary(s.handle);
      s.used.store(false, std::memory_order_release);
    }
    releases_served_.store(ticket + 1, std::memory_order_release);
  }

  /// Call before taking the gate for a round: waits until every release()
  /// that drew its ticket before the call has finished. glibc's mutex does
  /// not hand off, so an owner running rounds back to back would otherwise
  /// retake its gate ahead of a polling release, round after round. A
  /// release that draws its ticket later waits for at most this round, so
  /// a stream of releases cannot starve the owner either. One load of each
  /// count when nobody is releasing.
  void await_releases() const noexcept {
    const std::uint64_t drawn =
        release_tickets_.load(std::memory_order_acquire);
    for (SpinWait w;
         releases_served_.load(std::memory_order_acquire) < drawn;) {
      w.wait();
    }
  }

  State& operator[](std::size_t i) noexcept { return *slots_[i]; }
  const State& operator[](std::size_t i) const noexcept { return *slots_[i]; }
  const Handle& handle(std::size_t i) const noexcept {
    return slots_[i]->handle;
  }

  /// fn(state, handle) for every published slot, in slot order.
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    const std::size_t hw = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < hw; ++i) {
      Slot& s = *slots_[i];
      if (!s.live.load(std::memory_order_acquire)) continue;
      fn(static_cast<State&>(s), s.handle);
    }
  }

  /// One secondary round: serialize every live slot that pick(state)
  /// selects with a single P::serialize_many wave, then await(state) each
  /// live slot in turn. The wave overlaps the round trips, so the round
  /// costs the slowest one instead of the sum. Returns serialize_many's
  /// count.
  template <typename Pick, typename Await>
  std::size_t serialize_wave(Pick&& pick, Await&& await) {
    std::array<Handle, N> wave;
    std::array<State*, N> live;
    std::size_t nwave = 0, nlive = 0;
    for_each_live([&](State& s, const Handle& h) {
      if (pick(s)) wave[nwave++] = h;
      live[nlive++] = &s;
    });
    const std::size_t serialized =
        P::serialize_many(std::span<const Handle>(wave.data(), nwave));
    for (std::size_t i = 0; i < nlive; ++i) await(*live[i]);
    return serialized;
  }

 private:
  struct Slot : State {
    Handle handle{};
    std::atomic<bool> used{false};  // claimed
    std::atomic<bool> live{false};  // published (store-release)
  };

  CacheAligned<Slot> slots_[N];
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> release_tickets_{0};  // drawn by release()
  std::atomic<std::uint64_t> releases_served_{0};  // tickets finished
};

/// The RAII base of the pools' per-thread tokens: move-only, and its
/// destructor hands the slot back through Owner::release_slot(). Create
/// and destroy it on the registered thread; it must not outlive its owner.
template <typename Owner>
class PoolToken {
 public:
  PoolToken(PoolToken&& o) noexcept
      : owner_(std::exchange(o.owner_, nullptr)), slot_(o.slot_) {}
  PoolToken(const PoolToken&) = delete;
  PoolToken& operator=(const PoolToken&) = delete;
  PoolToken& operator=(PoolToken&&) = delete;
  ~PoolToken() {
    if (owner_ != nullptr) owner_->release_slot(slot_);
  }

 protected:
  PoolToken(Owner* owner, std::size_t slot) noexcept
      : owner_(owner), slot_(slot) {}

  Owner* owner_;
  std::size_t slot_;
};

}  // namespace lbmf
