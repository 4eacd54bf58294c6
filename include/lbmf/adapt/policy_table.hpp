#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lbmf::adapt {

/// The three regimes the E17 cost-frontier sweep distinguishes, collapsed
/// from concrete per-hole assignments to what the *runtime* can dispatch on:
///
///   kSymmetric     — {mfence, mfence}: the primary pays a real StoreLoad
///                    fence on every announce; secondaries never serialize
///                    remotely. Wins when the guarded location is contended
///                    (steal-heavy phases) or remote trips are expensive.
///   kAsymmetric    — the paper's mix: primary l-mfence (compiler fence +
///                    remote serialization on demand), secondary mfence +
///                    serialize. Wins when the primary:secondary frequency
///                    ratio is high enough to amortize the round trips.
///   kDoubleLmfence — both announces l-mfence. Only optimal when a remote
///                    round trip costs a few tens-to-hundreds of cycles.
///                    Realizing it needs a serialization backend that can
///                    invert roles (either side may run the light path):
///                    membarrier-pair. The signal backend cannot, so
///                    AdaptiveFence degrades the mode to kAsymmetric there
///                    (see adapt::realize).
enum class PolicyMode : std::uint8_t {
  kSymmetric = 0,
  kAsymmetric = 1,
  kDoubleLmfence = 2,
};

const char* to_string(PolicyMode m) noexcept;
std::optional<PolicyMode> mode_from_string(std::string_view s) noexcept;

/// One serialization backend's view of the frontier: the same grid geometry
/// as the base table, re-solved under that backend's capabilities (a
/// non-inverting backend forbids l-mfence on the secondary's sites, so its
/// plane never contains kDoubleLmfence). Produced by the E17 sweep's
/// backend dimension (infer::SweepOptions::backends, collapsed by
/// infer::policy_table).
struct BackendPlane {
  std::string backend;            // adapt::to_string(BackendId) spelling
  std::vector<PolicyMode> modes;  // row-major, same shape as the base grid
  bool operator==(const BackendPlane&) const = default;
};

/// The crossover frontier as a lookup grid: (primary:secondary frequency
/// ratio × remote round-trip cycles) → PolicyMode. Axes are ascending;
/// modes are row-major with the round-trip axis outer (matching the order
/// infer::run_sweep emits grid points). Lookup snaps to the nearest grid
/// point in log10 space and clamps outside the covered range, so a
/// deployment measuring a 10⁴-cycle signal round trip still lands on the
/// most-expensive-trip row of an LE/ST-era table.
///
/// Beyond the base grid the table may carry per-backend *planes*
/// (BackendPlane): the same axes, re-solved under one serialization
/// backend's capability caps. The three-argument lookup consults the named
/// plane and falls back to the base grid when no plane matches, so callers
/// that never configure a backend see unchanged behavior.
class PolicyTable {
 public:
  /// Aborts (LBMF_CHECK) unless modes.size() == ratios.size() *
  /// roundtrips.size() and both axes are non-empty and ascending.
  PolicyTable(std::vector<double> ratios, std::vector<double> roundtrips,
              std::vector<PolicyMode> modes);

  PolicyMode lookup(double freq_ratio, double roundtrip_cycles) const noexcept;

  /// Plane-aware lookup: consult the plane registered for `backend`, or
  /// the base grid when `backend` is empty / has no plane.
  PolicyMode lookup(double freq_ratio, double roundtrip_cycles,
                    std::string_view backend) const noexcept;

  /// Install (or replace, matching on name) the mode grid consulted for
  /// one backend. Aborts (LBMF_CHECK) unless the plane covers the full
  /// base grid.
  void add_plane(BackendPlane plane);

  /// The frontier distilled from the shipped E17 sweep of the THE-deque
  /// litmus (BENCH_sweep.json), extended past the LE/ST range with two
  /// signal-prototype rows derived from the same site-cost arithmetic
  /// (asymmetric wins once ratio · mfence_cycles outgrows the round trip).
  /// Carries one plane per built-in serialization backend: the signal
  /// plane clamps kDoubleLmfence cells to kAsymmetric (it cannot invert
  /// roles); the membarrier-pair plane additionally marks the
  /// symmetric-traffic column double-l-mfence up through the LE/ST-scale
  /// round-trip rows, where two light announces plus a cheap drain undercut
  /// two full fences.
  static PolicyTable builtin_default();

  /// Parse the compact form to_json() writes (and `fence_inferencer
  /// --sweep --policy-json` exports) —
  ///   {"policy_table":..., "ratios":[...], "roundtrips":[...],
  ///    "modes":["symmetric",...],
  ///    "backends":["signal",...], "plane:signal":["symmetric",...]}
  /// Returns nullopt on malformed input, a sweep report included (a
  /// malformed plane drops only the plane — the base grid still loads).
  static std::optional<PolicyTable> from_json(std::string_view json);

  /// Single-line compact-form JSON (round-trips with from_json).
  std::string to_json() const;

  const std::vector<double>& ratios() const noexcept { return ratios_; }
  const std::vector<double>& roundtrips() const noexcept {
    return roundtrips_;
  }
  const std::vector<PolicyMode>& modes() const noexcept { return modes_; }
  const std::vector<BackendPlane>& planes() const noexcept { return planes_; }

  bool operator==(const PolicyTable&) const = default;

 private:
  std::vector<double> ratios_;
  std::vector<double> roundtrips_;
  std::vector<PolicyMode> modes_;  // roundtrips_.size() x ratios_.size()
  std::vector<BackendPlane> planes_;
};

}  // namespace lbmf::adapt
