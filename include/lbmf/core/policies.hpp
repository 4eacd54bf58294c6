#pragma once

#include <concepts>
#include <cstddef>
#include <span>

#include "lbmf/core/fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/core/serializer.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf {

/// A FencePolicy packages one answer to the question the paper poses: who
/// pays for the StoreLoad ordering in a Dekker-duality protocol?
///
///   * primary_fence()   — executed by the primary between its intent store
///                         and its read of the peer flag. The whole point of
///                         l-mfence is making this a compiler fence only.
///   * secondary_fence() — executed by the secondary in the same position;
///                         always a real fence (Sec. 4: the secondary uses
///                         mfence so the primary need not wait for it).
///   * serialize(h)      — executed by the secondary after secondary_fence()
///                         and before reading the primary's flag: remotely
///                         forces the primary's prior stores to become
///                         visible. A no-op for symmetric policies, where
///                         primary_fence() already did the work locally.
///   * serialize_many(hs)— fan-out form: serialize a whole set of primaries
///                         as one overlapped wave (post all requests, then
///                         collect all acks), so a writer facing N primaries
///                         pays the slowest round trip instead of the sum.
///                         Returns the number of handles serialized.
///   * secondary_fence(h)— handle-aware variant: a policy whose current
///                         serialization backend can invert roles (drain the
///                         secondaries from the primary side) may weaken the
///                         secondary's fence to compiler-only — the paper's
///                         double-l-mfence regime. Static policies forward
///                         to the zero-arg form.
///   * serialize_peers(h)— primary-side drain of every peer before the
///                         primary's conflict-deciding read: the
///                         role-inversion primitive double-l-mfence rests
///                         on. Returns whether peers were actually drained;
///                         false for policies/backends that cannot invert
///                         (the primary's local fence already ordered its
///                         own stores, so false is sound — just not double).
template <typename P>
concept FencePolicy =
    requires(typename P::Handle h, std::span<const typename P::Handle> hs) {
      { P::register_primary() } -> std::same_as<typename P::Handle>;
      { P::unregister_primary(h) };
      { P::primary_fence() };
      { P::secondary_fence() };
      { P::secondary_fence(h) };
      { P::serialize(h) } -> std::convertible_to<bool>;
      { P::serialize_peers(h) } -> std::convertible_to<bool>;
      { P::serialize_many(hs) } -> std::convertible_to<std::size_t>;
      { P::name() } -> std::convertible_to<const char*>;
      { P::kAsymmetric } -> std::convertible_to<bool>;
    };

/// Program-based fences on both sides — the baseline the paper compares
/// against (plain Dekker / Cilk-5 / SRW lock).
struct SymmetricFence {
  struct Handle {};
  static constexpr bool kAsymmetric = false;
  static Handle register_primary() noexcept { return {}; }
  static void unregister_primary(Handle&) noexcept {}
  static void primary_fence() noexcept { store_load_fence(); }
  static void secondary_fence() noexcept { store_load_fence(); }
  static void secondary_fence(const Handle&) noexcept { secondary_fence(); }
  static bool serialize(const Handle&) noexcept { return true; }
  static bool serialize_peers(const Handle&) noexcept { return false; }
  static std::size_t serialize_many(std::span<const Handle> hs) noexcept {
    return hs.size();  // primaries fence locally: nothing remote to do
  }
  static constexpr const char* name() noexcept { return "symmetric-mfence"; }
};

/// The paper's software prototype: primary pays a compiler fence; secondary
/// signals the primary and waits for the handler's acknowledgment.
struct AsymmetricSignalFence {
  using Handle = SerializerRegistry::Handle;
  static constexpr bool kAsymmetric = true;
  static Handle register_primary() {
    return SerializerRegistry::instance().register_self();
  }
  static void unregister_primary(Handle& h) {
    SerializerRegistry::instance().unregister_self(h);
  }
  static void primary_fence() noexcept { compiler_fence(); }
  static void secondary_fence() noexcept { store_load_fence(); }
  static void secondary_fence(const Handle&) noexcept { secondary_fence(); }
  static bool serialize(const Handle& h) {
    return SerializerRegistry::instance().serialize(h);
  }
  /// Signals target one registered primary; the primary cannot drain its
  /// peers, so this prototype never realizes double-l-mfence.
  static bool serialize_peers(const Handle&) noexcept { return false; }
  static std::size_t serialize_many(std::span<const Handle> hs) {
    return SerializerRegistry::instance().serialize_many(hs);
  }
  static constexpr const char* name() noexcept { return "asymmetric-signal"; }
};

/// Modern-kernel variant: one membarrier(2) syscall serializes every thread
/// of the process. No registration handshake beyond the kernel's, but the
/// handle carries the registration *outcome*: on kernels without EXPEDITED
/// support the policy degrades to symmetric fencing on both sides — loudly
/// (one stderr warning) and visibly (serialize() returns false, the handle
/// reports !asymmetric()), never by silently pretending the remote drain
/// happened.
struct AsymmetricMembarrierFence {
  struct Handle {
    bool expedited = false;  ///< kernel accepted EXPEDITED registration
    bool asymmetric() const noexcept { return expedited; }
  };
  static constexpr bool kAsymmetric = true;
  static Handle register_primary() noexcept {
    const bool ok = membarrier::available();  // probe + eager registration
    if (!ok) {
      static std::atomic<bool> warned{false};
      detail::warn_once(warned,
                        "membarrier(2) EXPEDITED unavailable; "
                        "asymmetric-membarrier degrades to symmetric fences");
    }
    return Handle{ok};
  }
  static void unregister_primary(Handle&) noexcept {}
  static void primary_fence() noexcept {
    // Without a working remote drain the secondary cannot serialize us, so
    // the light path is unsound: fall back to a local full fence.
    if (membarrier::available()) {
      compiler_fence();
    } else {
      store_load_fence();
    }
  }
  static void secondary_fence() noexcept { store_load_fence(); }
  static void secondary_fence(const Handle&) noexcept { secondary_fence(); }
  static bool serialize(const Handle& h) noexcept {
    if (!h.expedited) return false;  // primary fenced locally; nothing remote
    membarrier::barrier();
    return true;
  }
  /// The broadcast drains every thread of the process, so the primary can
  /// drain its peers exactly as cheaply as they drain it — this is the
  /// simplest backend that realizes the paper's double-l-mfence regime.
  static bool serialize_peers(const Handle& h) noexcept {
    if (!h.expedited) return false;
    membarrier::barrier();
    return true;
  }
  static std::size_t serialize_many(std::span<const Handle> hs) noexcept {
    // membarrier is a broadcast: one syscall serializes every thread of the
    // process, so a whole wave collapses into a single kernel round trip.
    std::size_t expedited = 0;
    for (const auto& h : hs) {
      if (h.expedited) ++expedited;
    }
    if (expedited > 0) membarrier::barrier();
    return expedited;
  }
  static constexpr const char* name() noexcept {
    return "asymmetric-membarrier";
  }
};

/// No hardware fence anywhere. UNSAFE under contention — exists only to
/// measure the no-fence upper bound the paper quotes ("4-7x slower with a
/// fence than without", Sec. 1) and as the negative control in simulator
/// tests.
struct UnsafeNoFence {
  struct Handle {};
  static constexpr bool kAsymmetric = false;
  static Handle register_primary() noexcept { return {}; }
  static void unregister_primary(Handle&) noexcept {}
  static void primary_fence() noexcept { compiler_fence(); }
  static void secondary_fence() noexcept { compiler_fence(); }
  static void secondary_fence(const Handle&) noexcept { secondary_fence(); }
  static bool serialize(const Handle&) noexcept { return true; }
  static bool serialize_peers(const Handle&) noexcept { return false; }
  static std::size_t serialize_many(std::span<const Handle> hs) noexcept {
    return hs.size();
  }
  static constexpr const char* name() noexcept { return "unsafe-no-fence"; }
};

static_assert(FencePolicy<SymmetricFence>);
static_assert(FencePolicy<AsymmetricSignalFence>);
static_assert(FencePolicy<AsymmetricMembarrierFence>);
static_assert(FencePolicy<UnsafeNoFence>);

}  // namespace lbmf
