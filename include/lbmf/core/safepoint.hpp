#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// A stop-the-world safepoint mechanism in the style of the paper's second
/// motivating application (Sec. 1: the JVM uses the Dekker duality to
/// coordinate mutator threads running outside the VM with the garbage
/// collector).
///
/// Mutator threads are the *primaries*: their safepoint poll — executed on
/// every loop iteration of real work — is a plain load plus, on region
/// transitions, an l-mfence-style announce (no hardware fence under the
/// asymmetric policies). The coordinator is the *secondary*: to stop the
/// world it publishes a request, fences, remotely serializes every
/// registered mutator (exposing any in-flight state transition parked in a
/// store buffer), and waits until each mutator is either parked at a poll
/// or inside a *safe region* (the JNI-outside-the-VM analogue, where its
/// state is guaranteed stable).
template <FencePolicy P>
class Safepoint {
 private:
  enum class State : int { kRunning, kParked, kSafe };

  struct Mutator {
    std::atomic<State> state{State::kRunning};
    std::atomic<std::uint64_t> parks{0};
  };

 public:
  static constexpr std::size_t kMaxMutators = 64;

  Safepoint() = default;
  Safepoint(const Safepoint&) = delete;
  Safepoint& operator=(const Safepoint&) = delete;

  /// Per-thread mutator registration (RAII). Create and destroy on the
  /// mutator's own thread; do not outlive the Safepoint.
  class MutatorToken : public PoolToken<Safepoint> {
   public:
    /// The hot-path poll: nearly free when no safepoint is pending. Parks
    /// (spins) while a stop-the-world is in progress.
    void poll() {
      if (request() == 0) return;
      park(mutator());
    }

    /// Enter a safe region (e.g. a blocking syscall): the coordinator will
    /// not wait for this thread while it is inside.
    void enter_safe_region() {
      mutator().state.store(State::kSafe, std::memory_order_release);
      // No fence needed: transitioning INTO safety can only help the
      // coordinator; at worst it serializes us once redundantly.
    }

    /// Leave the safe region. This is the Dekker announce: we must not
    /// resume mutating while a stop-the-world is in progress, and the
    /// coordinator must not miss our transition back to running.
    void leave_safe_region() {
      Mutator& s = mutator();
      for (;;) {
        compiler_fence();
        s.state.store(State::kRunning, std::memory_order_relaxed);
        P::primary_fence();  // compiler-only under asymmetric policies
        if (request() == 0) return;
        // A stop-the-world is pending: step back into safety and wait.
        s.state.store(State::kSafe, std::memory_order_release);
        SpinWait w;
        while (request() != 0) w.wait();
      }
    }

    std::uint64_t times_parked() const noexcept {
      return this->owner_->mutators_[this->slot_].parks.load(
          std::memory_order_relaxed);
    }

   private:
    friend class Safepoint;
    MutatorToken(Safepoint* sp, std::size_t slot)
        : PoolToken<Safepoint>(sp, slot) {}

    Mutator& mutator() { return this->owner_->mutators_[this->slot_]; }
    int request() const {
      return this->owner_->request_->load(std::memory_order_acquire);
    }

    void park(Mutator& s) {
      s.state.store(State::kParked, std::memory_order_release);
      s.parks.fetch_add(1, std::memory_order_relaxed);
      SpinWait w;
      while (request() != 0) w.wait();
      // Same announce discipline as leave_safe_region: resume visibly.
      compiler_fence();
      s.state.store(State::kRunning, std::memory_order_relaxed);
      P::primary_fence();
      if (request() != 0) park(s);
    }
  };

  /// Register the calling thread as a mutator (initially running).
  MutatorToken register_mutator() {
    const std::size_t i = mutators_.claim(
        "Safepoint mutator slots exhausted", [](Mutator& s) {
          s.state.store(State::kRunning, std::memory_order_relaxed);
        });
    return MutatorToken(this, i);
  }

  /// Stop the world, run `action` while every mutator is parked or safe,
  /// then release them. Callable from any non-mutator thread (or a mutator
  /// inside its own safe region).
  template <typename Action>
  void stop_the_world(Action&& action) {
    mutators_.await_releases();
    std::lock_guard<std::mutex> g(coordinator_gate_);
    request_->store(1, std::memory_order_relaxed);
    P::secondary_fence();
    // Remote-serialize every mutator with one batched wave so an in-flight
    // kRunning announce parked in a store buffer becomes visible before we
    // sample its state. The overlapped wave means stopping the world costs
    // the slowest mutator's round trip, not the sum over all mutators.
    mutators_.serialize_wave(
        [](Mutator&) { return true; },
        [](Mutator& s) {
          SpinWait w;
          while (s.state.load(std::memory_order_acquire) == State::kRunning) {
            w.wait();
          }
        });
    ++stops_;
    action();
    request_->store(0, std::memory_order_release);
  }

  std::uint64_t stops() const noexcept { return stops_; }

 private:
  friend class PoolToken<Safepoint>;
  // Under the coordinator gate: a coordinator may be about to serialize us.
  void release_slot(std::size_t i) { mutators_.release(i, coordinator_gate_); }

  PrimaryPool<P, Mutator, kMaxMutators> mutators_;
  CacheAligned<std::atomic<int>> request_{0};
  std::mutex coordinator_gate_;
  std::uint64_t stops_ = 0;  // coordinator-gate-protected
};

}  // namespace lbmf
