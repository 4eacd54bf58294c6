#include "lbmf/adapt/adaptive_fence.hpp"

#include <utility>
#include <vector>

#include "lbmf/core/membarrier.hpp"
#include "lbmf/model/cost_model.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::adapt {
namespace {

/// Hot-path dispatch target for primary_fence(): set at registration time on
/// the registering thread, so the primary never chases a handle to find its
/// own mode cell.
thread_local AdaptiveFence::Slot* tls_mode_slot = nullptr;

/// Set by secondary_fence(h) when it went light (read kDoubleLmfence),
/// consumed by the same thread's serialize(h): if the trip it performs is
/// not itself a full barrier on the caller (the mode switched away from
/// double in between, or the primary is bound to the signal drain), a local
/// full fence restores the secondary's serialization point. See the
/// switching proof sketch in the header.
thread_local bool tls_weak_announce = false;

AdaptiveFence::Slot& pool_slot(std::size_t i) {
  // Slot's first member carries the cache-line alignment; function-local
  // static sidesteps cross-TU initialization order.
  static AdaptiveFence::Slot pool[AdaptiveFence::kMaxPrimaries];
  return pool[i];
}

bool is_asymmetric(PolicyMode m) noexcept {
  return m != PolicyMode::kSymmetric;
}

/// AsymmetricMembarrierFence's handle carries only the kernel's EXPEDITED
/// verdict, which is process-wide: every primary shares it.
AsymmetricMembarrierFence::Handle broadcast_handle() noexcept {
  return {membarrier::available()};
}

}  // namespace

const char* to_string(BackendId b) noexcept {
  switch (b) {
    case BackendId::kSignal:
      return "signal";
    case BackendId::kMembarrierPair:
      return "membarrier-pair";
  }
  return "unknown";
}

double roundtrip_cycles(BackendId b) noexcept {
  // Documented price of one EXPEDITED broadcast before the first
  // measurement: an IPI fan-out plus syscall entry/exit, well under the
  // ~10k signal round trip but far above the paper's ~150-cycle LE/ST.
  constexpr double kMembarrierDefaultCycles = 2'500.0;
  if (b == BackendId::kSignal) {
    const double m = SerializerRegistry::measured_roundtrip_cycles();
    return m > 0.0 ? m : model::CostTable{}.signal_roundtrip_cycles;
  }
  const double m = membarrier::measured_roundtrip_cycles();
  return m > 0.0 ? m : kMembarrierDefaultCycles;
}

AdaptiveFence::Handle AdaptiveFence::register_primary() {
  LBMF_CHECK_MSG(tls_mode_slot == nullptr,
                 "one adaptive registration per thread");
  for (std::size_t i = 0; i < kMaxPrimaries; ++i) {
    Slot& slot = pool_slot(i);
    bool expected = false;
    if (!slot.used.load(std::memory_order_relaxed) &&
        slot.used.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      // Signal-path registration may fail (registry full); the slot is still
      // usable — quiescent_point() clamps any asymmetric request to what the
      // bound mechanism can serve without it.
      slot.sig = SerializerRegistry::instance().register_self();
      slot.mode.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
      slot.requested.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
      slot.booked.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
      slot.bound_backend.store(BackendId::kSignal, std::memory_order_relaxed);
      slot.requested_backend.store(BackendId::kSignal,
                                   std::memory_order_relaxed);
      // Counters are per registration, so a reused pool slot does not leak
      // a previous tenant's transitions into this one's accounting.
      slot.switches.store(0, std::memory_order_relaxed);
      slot.booked_switches.store(0, std::memory_order_relaxed);
      slot.degraded.store(0, std::memory_order_relaxed);
      tls_mode_slot = &slot;
      // Publication edge: a secondary that acquires `live == true` sees the
      // signal handle, the mechanism binding and the symmetric starting mode.
      slot.live.store(true, std::memory_order_release);
      return Handle(&slot);
    }
  }
  return Handle{};
}

void AdaptiveFence::unregister_primary(Handle& h) {
  if (!h.valid()) return;
  Slot& slot = *h.slot_;
  LBMF_CHECK_MSG(tls_mode_slot == &slot,
                 "unregister_primary must run on the registered thread");
  tls_mode_slot = nullptr;
  slot.live.store(false, std::memory_order_release);
  SerializerRegistry::instance().unregister_self(slot.sig);
  // Next tenant of the slot starts over in the self-sufficient regime.
  slot.mode.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
  slot.requested.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
  slot.booked.store(PolicyMode::kSymmetric, std::memory_order_relaxed);
  slot.used.store(false, std::memory_order_release);
  h.slot_ = nullptr;
}

void AdaptiveFence::primary_fence() noexcept {
  Slot* slot = tls_mode_slot;
  // The mode cell is written only by this thread, so a relaxed load reads
  // the current regime. Unregistered threads get the safe fence. Both
  // asymmetric regimes run light here; in kDoubleLmfence the primary's
  // serialization point is the serialize_peers(h) broadcast that protocol
  // code issues before its conflict-deciding read.
  if (slot == nullptr ||
      slot->mode.load(std::memory_order_relaxed) == PolicyMode::kSymmetric) {
    store_load_fence();
  } else {
    compiler_fence();
  }
}

void AdaptiveFence::secondary_fence(const Handle& h) noexcept {
  Slot* slot = h.slot_;
  if (slot != nullptr && slot->live.load(std::memory_order_acquire) &&
      slot->mode.load(std::memory_order_seq_cst) ==
          PolicyMode::kDoubleLmfence) {
    // Light path: the serialize(h) that protocol code issues next supplies
    // the StoreLoad (membarrier is a full barrier on the caller). The note
    // makes serialize(h) cover the race where the mode switches away from
    // double between these two reads.
    compiler_fence();
    tls_weak_announce = true;
  } else {
    store_load_fence();
  }
}

bool AdaptiveFence::serialize(const Handle& h) {
  const bool weak = std::exchange(tls_weak_announce, false);
  Slot* slot = h.slot_;
  if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
    if (weak) full_fence();
    return false;
  }
  // The caller's secondary fence (or the weak-announce cover below) ordered
  // its announce before this load; see the switching proof sketch in the
  // header for why acting on a stale mode here is safe.
  const PolicyMode m = slot->mode.load(std::memory_order_seq_cst);
  if (!is_asymmetric(m)) {
    // The primary fences for itself. A weak announce can still reach this
    // point by racing a double→symmetric switch: restore our StoreLoad.
    if (weak) full_fence();
    return true;
  }
  if (weak && m != PolicyMode::kDoubleLmfence) {
    // Raced a double→asymmetric switch: the signal trip below drains the
    // *primary*, not us.
    full_fence();
  }
  // The bound mechanism's drain is exactly its static policy's serialize().
  const bool drained =
      slot->bound_backend.load(std::memory_order_relaxed) == BackendId::kSignal
          ? AsymmetricSignalFence::serialize(slot->sig)
          : AsymmetricMembarrierFence::serialize(broadcast_handle());
  if (drained) return true;
  // In double mode the broadcast doubled as our own barrier; if it could
  // not run (primary unregistering under us, capability lost), cover
  // locally before the caller acts on its reads.
  if (weak && m == PolicyMode::kDoubleLmfence) full_fence();
  return false;
}

bool AdaptiveFence::serialize_peers(const Handle& h) {
  Slot* slot = h.slot_;
  if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
    return false;
  }
  // Only the registered primary calls this between its own protocol
  // operations, and only it writes the mode cell — relaxed is enough.
  if (slot->mode.load(std::memory_order_relaxed) !=
      PolicyMode::kDoubleLmfence) {
    return false;
  }
  return slot->bound_backend.load(std::memory_order_relaxed) ==
                 BackendId::kSignal
             ? AsymmetricSignalFence::serialize_peers(slot->sig)
             : AsymmetricMembarrierFence::serialize_peers(broadcast_handle());
}

std::size_t AdaptiveFence::serialize_many(std::span<const Handle> hs) {
  std::size_t serialized = 0;
  // Split the asymmetric primaries per bound mechanism: the signal-bound
  // ones share one overlapped wave, and a single broadcast drains every
  // thread, so it covers all the membarrier-bound ones at once.
  std::vector<SerializerRegistry::Handle> signal_wave;
  std::size_t broadcast_wave = 0;
  for (const Handle& h : hs) {
    Slot* slot = h.slot_;
    if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
      continue;
    }
    if (!is_asymmetric(slot->mode.load(std::memory_order_seq_cst))) {
      ++serialized;  // symmetric primaries need no remote trip
      continue;
    }
    if (slot->bound_backend.load(std::memory_order_relaxed) ==
        BackendId::kSignal) {
      signal_wave.push_back(slot->sig);
    } else {
      ++broadcast_wave;
    }
  }
  if (!signal_wave.empty()) {
    serialized += AsymmetricSignalFence::serialize_many(signal_wave);
  }
  if (broadcast_wave > 0 &&
      AsymmetricMembarrierFence::serialize(broadcast_handle())) {
    serialized += broadcast_wave;
  }
  return serialized;
}

bool AdaptiveFence::request_mode(const Handle& h, PolicyMode m) noexcept {
  if (!h.valid()) return false;
  h.slot_->requested.store(m, std::memory_order_release);
  return true;
}

bool AdaptiveFence::request_backend(const Handle& h, BackendId b) noexcept {
  if (!h.valid()) return false;
  h.slot_->requested_backend.store(b, std::memory_order_release);
  return true;
}

bool AdaptiveFence::quiescent_point(const Handle& h) {
  Slot* slot = h.slot_;
  if (slot == nullptr) return false;
  LBMF_CHECK_MSG(tls_mode_slot == slot,
                 "quiescent_point must run on the registered primary");
  const PolicyMode req = slot->requested.load(std::memory_order_acquire);
  const BackendId reqb =
      slot->requested_backend.load(std::memory_order_acquire);
  const PolicyMode cur = slot->mode.load(std::memory_order_relaxed);

  // Book the controller's request as asked, then clamp to what the
  // mechanism can realize. Booked vs realized is the misbooking fix:
  // switch_count() (and through it SchedulerStats::policy_switches /
  // BENCH_adapt.json) counts only transitions of the regime actually in
  // force.
  if (req != slot->booked.load(std::memory_order_relaxed)) {
    slot->booked.store(req, std::memory_order_relaxed);
    slot->booked_switches.fetch_add(1, std::memory_order_relaxed);
  }
  // Probe membarrier only for a primary that asks for it: the first probe
  // registers the whole process for EXPEDITED membarrier, a stall of
  // milliseconds, and realize() ignores the flag for the signal drain.
  const bool membarrier_ok =
      reqb == BackendId::kMembarrierPair && membarrier::available();
  const PolicyMode realized =
      realize(req, reqb, membarrier_ok, slot->sig.valid());
  if (realized != req) {
    slot->degraded.fetch_add(1, std::memory_order_relaxed);
    static std::atomic<bool> warned{false};
    detail::warn_once(warned,
                      "adaptive quiescent point: bound mechanism cannot "
                      "realize the booked regime; degrading (booked vs "
                      "realized modes diverge)");
  }
  // Publish the mechanism binding before the mode RMW: a secondary that
  // observes the new mode (seq_cst load after the RMW) also finds the
  // mechanism it should drain through. A stale binding read under the
  // *old* mode is safe — realize() vetted the pairing in force at every
  // switch, and both mechanisms drain the same registered primary.
  slot->bound_backend.store(reqb, std::memory_order_relaxed);
  if (realized == cur) return false;
  // The locked RMW is the Def. 2 serialization point between the regimes
  // (full proof sketch in the header): it drains every old-regime store
  // before the new mode becomes visible, and orders the publication before
  // any new-regime announce.
  slot->mode.exchange(realized, std::memory_order_seq_cst);
  slot->switches.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PolicyMode AdaptiveFence::realized_mode(const Handle& h) noexcept {
  return h.valid() ? h.slot_->mode.load(std::memory_order_acquire)
                   : PolicyMode::kSymmetric;
}

PolicyMode AdaptiveFence::booked_mode(const Handle& h) noexcept {
  return h.valid() ? h.slot_->booked.load(std::memory_order_relaxed)
                   : PolicyMode::kSymmetric;
}

PolicyMode AdaptiveFence::requested_mode(const Handle& h) noexcept {
  return h.valid() ? h.slot_->requested.load(std::memory_order_acquire)
                   : PolicyMode::kSymmetric;
}

std::uint64_t AdaptiveFence::switch_count(const Handle& h) noexcept {
  return h.valid() ? h.slot_->switches.load(std::memory_order_relaxed) : 0;
}

std::uint64_t AdaptiveFence::booked_switch_count(const Handle& h) noexcept {
  return h.valid() ? h.slot_->booked_switches.load(std::memory_order_relaxed)
                   : 0;
}

std::uint64_t AdaptiveFence::degraded_count(const Handle& h) noexcept {
  return h.valid() ? h.slot_->degraded.load(std::memory_order_relaxed) : 0;
}

BackendId AdaptiveFence::current_backend(const Handle& h) noexcept {
  return h.valid() ? h.slot_->bound_backend.load(std::memory_order_relaxed)
                   : BackendId::kSignal;
}

}  // namespace lbmf::adapt
