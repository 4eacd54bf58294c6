#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "lbmf/adapt/policy_table.hpp"
#include "lbmf/core/fence.hpp"
#include "lbmf/core/policies.hpp"
#include "lbmf/core/serializer.hpp"
#include "lbmf/util/cacheline.hpp"

namespace lbmf::adapt {

/// The remote-drain mechanism an AdaptiveFence primary is bound to: the
/// drain of one of the two asymmetric static policies. to_string() names
/// the PolicyTable plane a selector bound to the mechanism consults.
///
///  * kSignal — AsymmetricSignalFence's SerializerRegistry round trip
///    (the paper's Sec. 5 prototype). One-directional: only the
///    registered primary can be drained, so it never inverts roles.
///  * kMembarrierPair — AsymmetricMembarrierFence's EXPEDITED membarrier(2)
///    broadcast, which drains every thread in either direction: when the
///    kernel supports it, the primary can drain its peers as cheaply as
///    they drain it, which the double-l-mfence regime requires.
enum class BackendId : std::uint8_t {
  kSignal = 0,
  kMembarrierPair = 1,
};

const char* to_string(BackendId b) noexcept;

/// Clamp a requested regime to what mechanism `b` can realize for one
/// primary: kDoubleLmfence needs role inversion (membarrier-pair on a
/// kernel with EXPEDITED membarrier), kAsymmetric needs a working remote
/// drain (a valid signal slot, or EXPEDITED membarrier), and anything
/// unservable degrades toward kSymmetric — always safe, as the primary
/// fences for itself. Pure, so every clamp is testable on every host.
constexpr PolicyMode realize(PolicyMode requested, BackendId b,
                             bool membarrier_available,
                             bool signal_slot_valid) noexcept {
  const bool membarrier = b == BackendId::kMembarrierPair;
  const bool drains = membarrier ? membarrier_available : signal_slot_valid;
  const bool inverts = membarrier && membarrier_available;
  if (requested == PolicyMode::kDoubleLmfence && !inverts) {
    requested = PolicyMode::kAsymmetric;
  }
  if (requested != PolicyMode::kSymmetric && !drains) {
    requested = PolicyMode::kSymmetric;
  }
  return requested;
}

/// Advisory price of one remote trip through `b` in TSC cycles: the
/// measured EWMA once one exists (SerializerRegistry's for signal,
/// membarrier's for membarrier-pair), else the documented default
/// (~10k cycles for a signal round trip, ~2.5k for a broadcast).
/// PolicySelector::tick prices the policy frontier with it.
double roundtrip_cycles(BackendId b) noexcept;

/// A FencePolicy whose strength is chosen *per primary, at runtime*: each
/// registered primary carries a mode cell (PolicyMode) that secondaries
/// consult, and the primary re-binds at its own quiescent points from a
/// monitor-driven request (see PolicySelector::tick in selector.hpp, which
/// the scheduler's workers and the serving tier's shard owners call). This
/// is the runtime realization of the E17 sweep's frontier: the same
/// deployment runs {mfence, mfence} through a steal-storm and the paper's
/// asymmetric protocol through a pop-heavy phase, without recompiling or
/// even re-registering.
///
/// Each primary is additionally bound to a drain mechanism (BackendId,
/// re-bindable at quiescent points like the mode): the static policy whose
/// serialize() secondaries use to drain it remotely. Mechanisms differ in
/// what regimes they can realize (see realize()) — only membarrier-pair
/// lets the *primary* drain its peers too, which is what the
/// double-l-mfence regime requires.
///
/// Mode semantics on each side of the Dekker duality:
///
///   kSymmetric      primary_fence = mfence;          serialize = no-op
///   kAsymmetric     primary_fence = compiler fence;  serialize = remote trip
///   kDoubleLmfence  both sides run the light path: primary_fence *and*
///                   secondary_fence(h) are compiler fences, and each side
///                   pays a remote drain at conflict time instead —
///                   serialize(h) for the secondary, serialize_peers(h) for
///                   the primary. Requires a role-inverting mechanism; when
///                   the bound one cannot invert, quiescent_point() *books*
///                   the request but *realizes* kAsymmetric (visible via
///                   booked_mode() vs realized_mode(), counted in
///                   degraded_count()) — it never silently pretends.
///
/// ## Why switching mid-run is safe (proof sketch)
///
/// Def. 2 of the paper requires a *serialization point* between a primary's
/// guarded store and the moment a secondary may trust its read of the
/// primary's flag: either the primary's own fence (symmetric) or the remote
/// serialization the secondary performs (asymmetric, double). A mode switch
/// is the one place both obligations could be dropped at once — the primary
/// stops fencing while a secondary, still assuming the old mode, skips the
/// trip. quiescent_point() closes that window with a single locked RMW on
/// the mode cell, executed by the primary *between* protocol operations (no
/// announce in flight):
///
///   * The RMW is a full StoreLoad fence, so every store of the *old*
///     regime has drained before the new mode becomes visible — it is
///     itself the Def. 2 serialization point between the regimes.
///   * It is a store, so (TSO, FIFO store buffer) any announce issued under
///     the *new* regime becomes visible only after the new mode does.
///
/// A secondary orders its own announce before the mode read — with the
/// mfence of secondary_fence in the symmetric/asymmetric regimes, or, when
/// secondary_fence(h) read kDoubleLmfence and went light, with the full
/// barrier its serialize(h) performs before the conflict-deciding read (the
/// membarrier broadcast is a full barrier on the *caller* as well as a drain
/// of every peer). Then it acts on the mode it read:
///
///   * New mode read ⇒ by the first bullet every old-regime store is
///     already visible, and in-flight protocol state is per the new mode,
///     which the secondary now honours.
///   * Old mode read ⇒ the mode publication was not yet visible to it, so
///     by the second bullet *no new-regime announce is visible either* —
///     every store the secondary might miss by acting on the old mode
///     belongs to the new regime, and the primary issued those only after
///     the RMW completed, i.e. after the secondary's own announce (ordered
///     before its mode read as above) was globally visible. The primary's
///     next conflict check therefore observes the secondary and retreats to
///     the gated slow path; the task race resolves there, just as in the
///     steady-state protocol.
///
/// One wrinkle is specific to leaving double-l-mfence: a secondary may read
/// kDoubleLmfence in secondary_fence(h) (and go light), then find the mode
/// already switched when serialize(h) re-reads it — at which point no
/// membarrier trip would run and the secondary would be left with *no*
/// StoreLoad between its announce and its flag read. serialize(h) closes
/// this with a thread-local "weak announce" note: secondary_fence(h) sets it
/// when it goes light, and serialize(h) issues a local full fence whenever
/// the note is set but the trip it performs would not be a full barrier on
/// the caller. The straddling secondary thus always has its own
/// serialization point, and the switching argument above applies unchanged.
///
/// Switching is thus linearized at the RMW: before it the pair runs the old
/// protocol end-to-end, after it the new one, and the straddling case
/// degrades to the protocol's own conflict path rather than to a missed
/// serialization.
class AdaptiveFence {
 public:
  static constexpr std::size_t kMaxPrimaries = 256;

  struct Slot {
    /// Current *realized* regime; written only by the registered primary
    /// (inside quiescent_point), read by secondaries on every serialize.
    alignas(kCacheLineSize) std::atomic<PolicyMode> mode{
        PolicyMode::kSymmetric};
    /// Requested regime; written by any controller thread, adopted (after
    /// capability clamping) by the primary at its next quiescent point.
    std::atomic<PolicyMode> requested{PolicyMode::kSymmetric};
    /// Last regime the controller's request *booked* at a quiescent point,
    /// before capability clamping — realized_mode() == booked_mode() unless
    /// the bound mechanism could not serve the request.
    std::atomic<PolicyMode> booked{PolicyMode::kSymmetric};
    /// Drain mechanism secondaries use on this primary; written at
    /// quiescent points, advisory-read (relaxed) by secondaries after the
    /// seq_cst mode load.
    std::atomic<BackendId> bound_backend{BackendId::kSignal};
    std::atomic<BackendId> requested_backend{BackendId::kSignal};
    /// Realized transitions (mode cell actually changed).
    std::atomic<std::uint64_t> switches{0};
    /// Booked transitions (controller's request changed) — the pre-fix
    /// switch count, kept so misbooking is measurable.
    std::atomic<std::uint64_t> booked_switches{0};
    /// Quiescent points where the realized regime fell short of the booked
    /// one (mechanism could not invert roles / could not serialize).
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<bool> used{false};
    std::atomic<bool> live{false};
    SerializerRegistry::Handle sig;
  };

  class Handle {
   public:
    Handle() = default;
    bool valid() const noexcept { return slot_ != nullptr; }

   private:
    friend class AdaptiveFence;
    explicit Handle(Slot* s) noexcept : slot_(s) {}
    Slot* slot_ = nullptr;
  };

  static constexpr bool kAsymmetric = true;

  /// Registers the calling thread with the SerializerRegistry and claims a
  /// mode slot; starts in kSymmetric (the self-sufficient regime — safe
  /// before any monitor has spoken) bound to kSignal. One adaptive
  /// registration per thread. Returns an invalid handle when the
  /// pool is exhausted, in which case primary_fence() falls back to a real
  /// fence and serialize() to a no-op: the pair degenerates to
  /// SymmetricFence.
  static Handle register_primary();
  static void unregister_primary(Handle& h);

  /// Hot path: dispatch on the calling thread's own mode (thread-local;
  /// the mode cell is only ever written by this same thread).
  static void primary_fence() noexcept;

  static void secondary_fence() noexcept { store_load_fence(); }

  /// Handle-aware secondary fence: compiler-only when the primary's
  /// realized mode is kDoubleLmfence (the following serialize(h) supplies
  /// the secondary's serialization point), a real fence otherwise.
  static void secondary_fence(const Handle& h) noexcept;

  /// Dispatch on the primary's current mode: no remote work when the
  /// primary fences for itself, the bound mechanism's drain (a signal round
  /// trip or a membarrier broadcast) when it does not.
  static bool serialize(const Handle& h);

  /// Primary-side drain of every peer — called by the registered primary
  /// between its announce and its conflict-deciding read. A no-op (false)
  /// unless the realized mode is kDoubleLmfence, where the membarrier
  /// broadcast both serializes the caller and drains the peers.
  static bool serialize_peers(const Handle& h);

  /// Batched wave: symmetric primaries are skipped, and asymmetric
  /// primaries are split per bound mechanism — signal-bound primaries share
  /// one overlapped wave, membarrier-bound ones collapse into a single
  /// broadcast.
  static std::size_t serialize_many(std::span<const Handle> hs);

  static constexpr const char* name() noexcept { return "adaptive"; }

  // -------------------------------------------------------------------
  // Control surface (the FencePolicy concept stops above this line)
  // -------------------------------------------------------------------

  /// Ask the primary behind `h` to move to `m` at its next quiescent
  /// point. Callable from any thread. Returns false on an invalid handle.
  static bool request_mode(const Handle& h, PolicyMode m) noexcept;

  /// Ask the primary behind `h` to re-bind to mechanism `b` at its next
  /// quiescent point. Callable from any thread.
  static bool request_backend(const Handle& h, BackendId b) noexcept;

  /// Adopt the requested mode and mechanism. MUST be called by the
  /// registered primary itself, strictly between protocol operations (no
  /// announce in flight) — a worker's own scheduling-loop boundary, a
  /// safepoint, an epoch edge. The request is first *booked*, then clamped
  /// by realize() to what the requested mechanism can deliver, loudly when
  /// it degrades (warn-once + degraded_count()). Returns true iff the
  /// *realized* mode changed.
  static bool quiescent_point(const Handle& h);

  /// The regime actually in force — what primary_fence()/serialize()
  /// dispatch on.
  static PolicyMode realized_mode(const Handle& h) noexcept;
  /// The regime last booked from the controller's request, before
  /// capability clamping.
  static PolicyMode booked_mode(const Handle& h) noexcept;
  static PolicyMode requested_mode(const Handle& h) noexcept;

  /// Realized transitions — what policy_switches / BENCH_adapt.json count.
  static std::uint64_t switch_count(const Handle& h) noexcept;
  /// Booked transitions; booked_switch_count() - switch_count() > 0 means
  /// some requests could not be realized as asked.
  static std::uint64_t booked_switch_count(const Handle& h) noexcept;
  /// Quiescent points that clamped the booked regime down.
  static std::uint64_t degraded_count(const Handle& h) noexcept;

  static BackendId current_backend(const Handle& h) noexcept;
};

static_assert(FencePolicy<AdaptiveFence>);

/// FencePolicy extension PolicySelector::tick drives: policies whose
/// per-primary strength and drain mechanism can be re-bound live.
template <typename P>
concept AdaptiveFencePolicy =
    FencePolicy<P> &&
    requires(const typename P::Handle h, PolicyMode m, BackendId b) {
      { P::request_mode(h, m) } -> std::convertible_to<bool>;
      { P::request_backend(h, b) } -> std::convertible_to<bool>;
      { P::quiescent_point(h) } -> std::convertible_to<bool>;
      { P::realized_mode(h) } -> std::same_as<PolicyMode>;
      { P::switch_count(h) } -> std::convertible_to<std::uint64_t>;
      { P::booked_switch_count(h) } -> std::convertible_to<std::uint64_t>;
    };

static_assert(AdaptiveFencePolicy<AdaptiveFence>);
static_assert(!AdaptiveFencePolicy<SymmetricFence>);

}  // namespace lbmf::adapt
