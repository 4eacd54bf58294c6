#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "lbmf/dekker/dekker.hpp"

namespace lbmf {

/// The *augmented* Dekker protocol the paper's motivating applications use
/// (Sec. 1): one primary thread enters often and cheaply; any number of
/// secondary threads first compete for the right to synchronize with the
/// primary (an internal gate lock) and the winner then runs the two-party
/// asymmetric Dekker protocol. Biased locks, JVM safepoints and
/// work-stealing deques all share this shape.
template <FencePolicy P>
class AsymmetricMutex {
 public:
  using Policy = P;

  /// Primary-thread registration; same contract as AsymmetricDekker.
  void bind_primary() { dekker_.bind_primary(); }
  void unbind_primary() { dekker_.unbind_primary(); }

  /// Fast path, primary only.
  void lock_primary() noexcept { dekker_.lock_primary(); }
  void unlock_primary() noexcept { dekker_.unlock_primary(); }
  bool try_lock_primary() noexcept { return dekker_.try_lock_primary(); }

  /// Slow path, any non-primary thread.
  void lock_secondary() {
    gate_.lock();
    dekker_.lock_secondary();
  }

  void unlock_secondary() {
    dekker_.unlock_secondary();
    gate_.unlock();
  }

  bool try_lock_secondary() {
    if (!gate_.try_lock()) return false;
    if (!dekker_.try_lock_secondary()) {
      gate_.unlock();
      return false;
    }
    return true;
  }

  // Wave phases (see lock_secondary_wave below): win the gate and post the
  // Dekker intent with no fence and no serialization, then — after the
  // caller has fenced once and serialized all primaries in one overlapped
  // wave — run the per-pair wait.
  void post_secondary_nofence() {
    gate_.lock();
    dekker_.post_secondary();
  }
  void finish_secondary_wave() {
    dekker_.note_wave_serialization();
    dekker_.await_secondary();
  }
  typename P::Handle primary_handle() const noexcept {
    return dekker_.primary_handle();
  }

  DekkerStats stats() const noexcept { return dekker_.stats(); }

 private:
  AsymmetricDekker<P> dekker_;
  std::mutex gate_;
};

/// Acquire the secondary side of MANY AsymmetricMutexes with one hardware
/// fence and one overlapped serialization wave (P::serialize_many) instead
/// of a fence plus a full remote round trip per mutex — the cross-shard
/// control-plane primitive of the serving tier (rule pushes, stats export,
/// eviction sweeps). Cost model: sequential acquisition of N mutexes pays
/// N × (mfence + round trip); the wave pays 1 × mfence + max(round trips),
/// which is where bench_serve's E19 batched-vs-sequential gate comes from.
///
/// Contract: each mutex appears at most once, and concurrent wavers (or
/// wavers racing plain lock_secondary loops over several of the same
/// mutexes) must acquire in one consistent global order — pass the span
/// pre-sorted (e.g. ascending shard index), exactly as with ordinary
/// ordered lock acquisition. Returns the number of primaries serialized.
template <FencePolicy P>
std::size_t lock_secondary_wave(std::span<AsymmetricMutex<P>* const> ms) {
  for (AsymmetricMutex<P>* m : ms) m->post_secondary_nofence();
  P::secondary_fence();  // orders every intent store before every flag read
  std::vector<typename P::Handle> handles;
  handles.reserve(ms.size());
  for (AsymmetricMutex<P>* m : ms) handles.push_back(m->primary_handle());
  const std::size_t serialized =
      P::serialize_many(std::span<const typename P::Handle>(handles));
  for (AsymmetricMutex<P>* m : ms) m->finish_secondary_wave();
  return serialized;
}

/// Release a wave in reverse acquisition order.
template <FencePolicy P>
void unlock_secondary_wave(std::span<AsymmetricMutex<P>* const> ms) {
  for (std::size_t i = ms.size(); i-- > 0;) ms[i]->unlock_secondary();
}

/// RAII guards binding a role to a scope.
template <typename Mutex>
class PrimaryLockGuard {
 public:
  explicit PrimaryLockGuard(Mutex& m) noexcept : m_(m) { m_.lock_primary(); }
  ~PrimaryLockGuard() { m_.unlock_primary(); }
  PrimaryLockGuard(const PrimaryLockGuard&) = delete;
  PrimaryLockGuard& operator=(const PrimaryLockGuard&) = delete;

 private:
  Mutex& m_;
};

template <typename Mutex>
class SecondaryLockGuard {
 public:
  explicit SecondaryLockGuard(Mutex& m) : m_(m) { m_.lock_secondary(); }
  ~SecondaryLockGuard() { m_.unlock_secondary(); }
  SecondaryLockGuard(const SecondaryLockGuard&) = delete;
  SecondaryLockGuard& operator=(const SecondaryLockGuard&) = delete;

 private:
  Mutex& m_;
};

}  // namespace lbmf
