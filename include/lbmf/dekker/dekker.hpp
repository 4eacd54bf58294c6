#pragma once

#include <atomic>
#include <cstdint>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/counters.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf {

/// Event counters for the Dekker protocol; these feed the analytic cost
/// model (how many fences were avoided, how many remote serializations were
/// paid — the quantities Sec. 5 of the paper reasons with). Internally each
/// side writes only its own cache-line-separated half, so counter updates
/// never race each other — but stats() reads both halves from arbitrary
/// threads, so the live halves are relaxed atomics (SideStats) and this
/// struct is the plain merged snapshot.
struct DekkerStats {
  std::uint64_t primary_acquires = 0;
  std::uint64_t primary_fences = 0;     // primary_fence() executions
  std::uint64_t secondary_acquires = 0;
  std::uint64_t secondary_fences = 0;   // secondary_fence() executions
  std::uint64_t serializations = 0;     // remote serialize() calls
  std::uint64_t primary_serializations = 0;  // peer drains (double-l-mfence)
  std::uint64_t primary_retreats = 0;   // tie-break backoffs (primary)
  std::uint64_t secondary_retreats = 0; // tie-break backoffs (secondary)
};

/// The asymmetric Dekker protocol of Fig. 3(a), augmented with the classic
/// turn variable so it is livelock-free (the paper presents the simplified
/// version and notes the full protocol adds exactly this tie-breaking).
///
/// Roles are fixed: the *primary* is the frequent entrant whose fence the
/// protocol optimizes away (its announce path runs P::primary_fence(), a
/// compiler fence under asymmetric policies); the *secondary* pays a real
/// fence plus a remote serialization of the primary before every
/// mutual-exclusion-deciding read of the primary's flag.
///
/// Why one serialization per announce suffices: the secondary's intent store
/// is globally visible before its first read of the primary flag (it issued
/// mfence), so from that point on any primary announce will observe the
/// secondary's flag and retreat. The only store the secondary can miss is a
/// primary flag-store still sitting in the primary's store buffer from
/// *before* the secondary's fence — and serialize() flushes exactly that
/// buffer. Spin re-reads between retreats therefore use plain loads.
///
/// bind_primary()/unbind_primary()/primary_handle() come from
/// PrimaryBinding: bind before any lock_secondary() on other threads, and
/// stay bound while secondaries run.
template <FencePolicy P>
class AsymmetricDekker : public PrimaryBinding<P> {
 public:
  using Policy = P;

  AsymmetricDekker()
      : PrimaryBinding<P>("AsymmetricDekker primary already bound") {}

  // ------------------------------------------------------------------
  // Primary side (single thread, the one that called bind_primary()).
  // ------------------------------------------------------------------

  void lock_primary() noexcept {
    announce_primary();
    bump_relaxed(pstats_->acquires);
    SpinWait waiter;
    while (flag_[1]->load(std::memory_order_acquire) != 0) {
      if (turn_->load(std::memory_order_acquire) != 0) {
        // Not our turn: retreat so the secondary can proceed, wait for the
        // turn to come back, then re-announce (which needs a fresh fence).
        flag_[0]->store(0, std::memory_order_release);
        bump_relaxed(pstats_->retreats);
        waiter.reset();
        while (turn_->load(std::memory_order_acquire) != 0) waiter.wait();
        announce_primary();
      } else {
        waiter.wait();
      }
    }
  }

  void unlock_primary() noexcept {
    turn_->store(1, std::memory_order_release);
    flag_[0]->store(0, std::memory_order_release);
  }

  /// Non-blocking primary entry: returns false instead of waiting out the
  /// secondary. This is the shape work-stealing victims use (Cilk-5 pops
  /// fall back to a slow path rather than spin).
  bool try_lock_primary() noexcept {
    announce_primary();
    bump_relaxed(pstats_->acquires);
    if (flag_[1]->load(std::memory_order_acquire) != 0) {
      flag_[0]->store(0, std::memory_order_release);
      bump_relaxed(pstats_->retreats);
      return false;
    }
    return true;
  }

  // ------------------------------------------------------------------
  // Secondary side. With more than one prospective secondary, callers must
  // first win an external gate (see AsymmetricMutex) — the Dekker pair is
  // strictly two-party.
  // ------------------------------------------------------------------

  void lock_secondary() {
    announce_secondary();
    bump_relaxed(sstats_->acquires);
    await_secondary();
  }

  // The three phases of lock_secondary() exposed separately so a caller
  // acquiring MANY Dekker pairs at once (lock_secondary_wave in
  // asymmetric_mutex.hpp) can post every intent store first, issue one
  // hardware fence for the whole set, serialize every primary in one
  // overlapped P::serialize_many wave, and only then run the per-pair
  // waits. Splitting is sound because announce_secondary() is just
  // {intent store; fence; serialize} and neither the fence nor the
  // serialization reads per-pair state: one fence after all the intent
  // stores orders each of them before every subsequent flag read, and the
  // wave gives each primary the same flush serialize() would have.

  /// Phase 1: publish the intent store only — no fence, no serialization.
  void post_secondary() noexcept {
    flag_[1]->store(1, std::memory_order_relaxed);
    bump_relaxed(sstats_->acquires);
  }

  /// Phase 2 bookkeeping: the caller issued the collective fence and the
  /// serialization wave; account them against this pair's counters so
  /// stats() stays comparable with the sequential path.
  void note_wave_serialization() noexcept {
    bump_relaxed(sstats_->fences);
    bump_relaxed(sstats_->serializations);
  }

  /// Phase 3: the mutual-exclusion wait. A retreat re-announces from
  /// scratch (fresh fence + serialization), exactly as in lock_secondary.
  void await_secondary() {
    SpinWait waiter;
    while (flag_[0]->load(std::memory_order_acquire) != 0) {
      if (turn_->load(std::memory_order_acquire) != 1) {
        flag_[1]->store(0, std::memory_order_release);
        bump_relaxed(sstats_->retreats);
        waiter.reset();
        while (turn_->load(std::memory_order_acquire) != 1) waiter.wait();
        announce_secondary();
      } else {
        waiter.wait();
      }
    }
  }

  void unlock_secondary() noexcept {
    turn_->store(0, std::memory_order_release);
    flag_[1]->store(0, std::memory_order_release);
  }

  bool try_lock_secondary() {
    announce_secondary();
    bump_relaxed(sstats_->acquires);
    if (flag_[0]->load(std::memory_order_acquire) != 0) {
      flag_[1]->store(0, std::memory_order_release);
      bump_relaxed(sstats_->retreats);
      return false;
    }
    return true;
  }

  /// Merged snapshot of both sides' counters. Exact once both threads have
  /// quiesced; approximate (but tear-free per field — relaxed atomic loads)
  /// while they run. The counters only grow; subtract two snapshots for
  /// the events in between.
  DekkerStats stats() const noexcept {
    DekkerStats s;
    s.primary_acquires = pstats_->acquires.load(std::memory_order_relaxed);
    s.primary_fences = pstats_->fences.load(std::memory_order_relaxed);
    s.primary_retreats = pstats_->retreats.load(std::memory_order_relaxed);
    s.primary_serializations =
        pstats_->serializations.load(std::memory_order_relaxed);
    s.secondary_acquires = sstats_->acquires.load(std::memory_order_relaxed);
    s.secondary_fences = sstats_->fences.load(std::memory_order_relaxed);
    s.secondary_retreats = sstats_->retreats.load(std::memory_order_relaxed);
    s.serializations = sstats_->serializations.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Lines K1 of Fig. 3(a): l-mfence(&L1, 1). Under a policy whose realized
  /// regime is double-l-mfence, serialize_peers drains the secondary before
  /// our conflict-deciding read of its flag (and is itself a full barrier on
  /// this side) — the primary-side mirror of the secondary's serialize().
  /// For every other policy/regime it returns false without remote work.
  void announce_primary() noexcept {
    compiler_fence();
    flag_[0]->store(1, std::memory_order_relaxed);
    P::primary_fence();
    bump_relaxed(pstats_->fences);
    if (P::serialize_peers(this->primary_handle())) {
      bump_relaxed(pstats_->serializations);
    }
  }

  /// Lines J1-J2 of Fig. 3(a) plus the remote trigger: L2 = 1; mfence (or,
  /// in the double-l-mfence regime, compiler fence — the handle-aware
  /// secondary_fence dispatches); force the primary to serialize before we
  /// read L1.
  void announce_secondary() {
    flag_[1]->store(1, std::memory_order_relaxed);
    P::secondary_fence(this->primary_handle());
    bump_relaxed(sstats_->fences);
    if (P::serialize(this->primary_handle())) {
      bump_relaxed(sstats_->serializations);
    }
  }

  // One side's counters: one writer at a time (the primary, or the one
  // secondary the two-party protocol admits — AsymmetricMutex's gate),
  // read by stats() from anywhere — relaxed atomics bumped without a lock
  // prefix (bump_relaxed), so instrumentation adds no hidden fence to the
  // announce paths.
  struct SideStats {
    std::atomic<std::uint64_t> acquires{0};
    std::atomic<std::uint64_t> fences{0};
    std::atomic<std::uint64_t> retreats{0};
    // Remote drains: serialize() on the secondary side, serialize_peers()
    // (double-l-mfence) on the primary side.
    std::atomic<std::uint64_t> serializations{0};
  };

  CacheAligned<std::atomic<int>> flag_[2];
  CacheAligned<std::atomic<int>> turn_;
  CacheAligned<SideStats> pstats_;  // written by the primary only
  CacheAligned<SideStats> sstats_;  // written by the secondary only
};

}  // namespace lbmf
