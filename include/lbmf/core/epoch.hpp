#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// A user-space-RCU-style epoch domain with l-mfence readers — the pattern
/// the Linux membarrier(2) syscall (the shipped descendant of this paper's
/// mechanism) exists to serve.
///
/// Readers are the primaries: entering a read-side critical section is one
/// plain store plus a compiler fence — the Dekker announce. A writer's
/// synchronize() is the secondary: it advances the global epoch, fences,
/// remotely serializes every registered reader once (exposing any
/// in-flight announce parked in a store buffer), and waits until every
/// reader is either outside a critical section or has entered one that
/// began after the epoch advanced. After synchronize() returns, no reader
/// can still hold a reference obtained before it — the grace-period
/// guarantee deferred reclamation needs.
template <FencePolicy P>
class EpochDomain {
 private:
  struct Reader {
    /// 0 = quiescent; otherwise (epoch | 1) of the in-progress section.
    std::atomic<std::uint64_t> state{0};
  };

 public:
  static constexpr std::size_t kMaxReaders = 64;

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  ~EpochDomain() {
    // Run any still-deferred reclamations: no readers can remain
    // registered at this point (tokens must not outlive the domain).
    for (auto& [ptr, deleter] : retired_) deleter(ptr);
  }

  /// RAII read-side critical section (see ReaderToken::read_lock()).
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& o) noexcept : slot_(o.slot_) { o.slot_ = nullptr; }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ReadGuard& operator=(ReadGuard&&) = delete;
    ~ReadGuard() {
      if (slot_ != nullptr) {
        slot_->state.store(0, std::memory_order_release);
      }
    }

   private:
    friend class EpochDomain;
    explicit ReadGuard(Reader* s) noexcept : slot_(s) {}
    Reader* slot_;
  };

  /// Per-thread reader registration (RAII; same contract as the other
  /// primaries in this library: create/destroy on the reader's own thread,
  /// never outliving the domain).
  class ReaderToken : public PoolToken<EpochDomain> {
   public:
    /// Enter a read-side critical section. Fence-free under the
    /// asymmetric policies; non-reentrant (one guard at a time per token).
    ReadGuard read_lock() {
      EpochDomain& d = *this->owner_;
      Reader& s = d.readers_[this->slot_];
      LBMF_CHECK_MSG(s.state.load(std::memory_order_relaxed) == 0,
                     "EpochDomain read_lock is not reentrant");
      // Announce: active in the current epoch. The epoch value may be
      // stale by the time the store lands — that is fine: a stale epoch
      // only makes synchronize() wait for us, never miss us.
      compiler_fence();
      s.state.store(d.epoch_->load(std::memory_order_relaxed) | 1u,
                    std::memory_order_relaxed);
      P::primary_fence();
      return ReadGuard(&s);
    }

   private:
    friend class EpochDomain;
    ReaderToken(EpochDomain* d, std::size_t slot)
        : PoolToken<EpochDomain>(d, slot) {}
  };

  ReaderToken register_reader() {
    const std::size_t i = readers_.claim(
        "EpochDomain reader slots exhausted",
        [](Reader& s) { s.state.store(0, std::memory_order_relaxed); });
    return ReaderToken(this, i);
  }

  /// Wait for a full grace period: every read-side critical section that
  /// existed when synchronize() was called has ended by the time it
  /// returns. Also runs all reclamations retired before the call.
  void synchronize() {
    readers_.await_releases();
    std::lock_guard<std::mutex> g(writer_gate_);
    std::vector<std::pair<void*, void (*)(void*)>> to_free;
    to_free.swap(retired_);

    // Advance the epoch (low bit reserved for the reader-active flag).
    const std::uint64_t new_epoch =
        epoch_->fetch_add(2, std::memory_order_relaxed) + 2;
    P::secondary_fence();

    // One batched serialize_many wave exposes any announce still parked in
    // a reader's store buffer; afterwards, plain loads suffice. Batching
    // makes the grace period pay the slowest reader's round trip once
    // instead of summing round trips over all readers.
    readers_.serialize_wave(
        [](Reader&) { return true; },
        [new_epoch](Reader& s) {
          SpinWait w;
          for (;;) {
            const std::uint64_t st = s.state.load(std::memory_order_acquire);
            if ((st & 1u) == 0) break;                 // not in a section
            if ((st | 1u) >= (new_epoch | 1u)) break;  // entered after advance
            w.wait();
          }
        });
    ++grace_periods_;

    for (auto& [ptr, deleter] : to_free) deleter(ptr);
  }

  /// Defer reclamation of `ptr` until after the next grace period (the
  /// next synchronize() call runs the deleter).
  void retire(void* ptr, void (*deleter)(void*)) {
    std::lock_guard<std::mutex> g(writer_gate_);
    retired_.emplace_back(ptr, deleter);
  }

  /// Typed convenience: retire a heap object for deferred deletion.
  template <typename T>
  void retire(T* ptr) {
    retire(static_cast<void*>(ptr),
           [](void* p) { delete static_cast<T*>(p); });
  }

  std::uint64_t grace_periods() const noexcept { return grace_periods_; }
  std::size_t retired_pending() {
    std::lock_guard<std::mutex> g(writer_gate_);
    return retired_.size();
  }

 private:
  friend class PoolToken<EpochDomain>;
  void release_slot(std::size_t i) { readers_.release(i, writer_gate_); }

  PrimaryPool<P, Reader, kMaxReaders> readers_;
  CacheAligned<std::atomic<std::uint64_t>> epoch_{2};
  std::mutex writer_gate_;
  std::vector<std::pair<void*, void (*)(void*)>> retired_;
  std::uint64_t grace_periods_ = 0;  // gate-protected
};

}  // namespace lbmf
