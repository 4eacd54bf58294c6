#pragma once

#include <cstdint>
#include <utility>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/adapt/monitor.hpp"
#include "lbmf/adapt/policy_table.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::adapt {

/// Everything one adaptive primary's selection loop is configured with.
/// The work-stealing scheduler (Scheduler::enable_adaptation) and the
/// serving tier (ServeConfig::adapt) both take it.
struct SelectorConfig {
  /// Crossover frontier; defaults to the one distilled from the shipped
  /// E17 sweep.
  PolicyTable table = PolicyTable::builtin_default();
  MonitorConfig monitor;
  /// Consecutive windows the table must propose the *same* non-current
  /// mode before the selector adopts it. This is the hysteresis: an input
  /// straddling a crossover boundary flip-flops the proposal and never
  /// builds a streak, so the current mode sticks.
  int confirm_windows = 3;
  /// > 0: ignore the measured round trip and price serialization at this
  /// many cycles (benchmarks and deployments that calibrated offline).
  double fixed_roundtrip_cycles = 0.0;
  /// tick() calls per sampling window. Each sample is one selector window,
  /// and the caller's quiescent point doubles as where a decided switch is
  /// adopted.
  std::uint64_t sample_every = 1024;
  /// Drain mechanism tick() binds the primary to. The same value names the
  /// table plane the selector reads (to_string(backend); the base grid
  /// when the table has no such plane) and picks the round-trip price
  /// (adapt::roundtrip_cycles), so the mechanism in force and the frontier
  /// consulted cannot disagree. A non-inverting mechanism's plane never
  /// proposes kDoubleLmfence.
  BackendId backend = BackendId::kSignal;
};

/// monitor → table → hysteresis → quiescent-point adoption. One per
/// primary; not thread-safe — feed it from the primary's own thread.
class PolicySelector {
 public:
  explicit PolicySelector(SelectorConfig cfg = {})
      : cfg_(std::move(cfg)), monitor_(cfg_.monitor) {
    LBMF_CHECK_MSG(cfg_.sample_every >= 1, "sample_every must be >= 1");
  }

  /// Feed one sampling window (cumulative counters, as WorkloadMonitor
  /// expects) and return the selected mode after hysteresis.
  PolicyMode update(std::uint64_t pops_total, std::uint64_t steals_total,
                    double measured_roundtrip_cycles = 0.0) {
    monitor_.sample(pops_total, steals_total, measured_roundtrip_cycles);
    const double rt = cfg_.fixed_roundtrip_cycles > 0.0
                          ? cfg_.fixed_roundtrip_cycles
                          : monitor_.roundtrip_cycles();
    const PolicyMode proposal =
        cfg_.table.lookup(monitor_.freq_ratio(), rt, to_string(cfg_.backend));
    ++windows_;
    if (proposal == current_) {
      streak_ = 0;
      return current_;
    }
    if (proposal == pending_) {
      ++streak_;
    } else {
      pending_ = proposal;
      streak_ = 1;
    }
    if (streak_ >= cfg_.confirm_windows) {
      current_ = proposal;
      streak_ = 0;
      ++switches_;
    }
    return current_;
  }

  /// The adaptation loop, called by the primary `h` at each of its
  /// quiescent points (no announce in flight) with its cumulative primary
  /// and secondary event counts. Every sample_every-th call samples: it
  /// updates the selector (priced with roundtrip_cycles(backend) unless a
  /// fixed price is configured), binds `h` to the configured mechanism,
  /// requests the selected mode, and adopts both right here. Returns true
  /// on the calls that sampled.
  template <AdaptiveFencePolicy P>
  bool tick(const typename P::Handle& h, std::uint64_t primary_total,
            std::uint64_t secondary_total) {
    if (++ticks_ % cfg_.sample_every != 0) return false;
    update(primary_total, secondary_total,
           cfg_.fixed_roundtrip_cycles > 0.0 ? 0.0
                                             : roundtrip_cycles(cfg_.backend));
    P::request_backend(h, cfg_.backend);
    P::request_mode(h, current_);
    P::quiescent_point(h);
    return true;
  }

  PolicyMode current() const noexcept { return current_; }
  std::uint64_t switches() const noexcept { return switches_; }
  std::uint64_t windows() const noexcept { return windows_; }
  const WorkloadMonitor& monitor() const noexcept { return monitor_; }
  const SelectorConfig& config() const noexcept { return cfg_; }

 private:
  SelectorConfig cfg_;
  WorkloadMonitor monitor_;
  PolicyMode current_ = PolicyMode::kSymmetric;
  PolicyMode pending_ = PolicyMode::kSymmetric;
  int streak_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace lbmf::adapt
