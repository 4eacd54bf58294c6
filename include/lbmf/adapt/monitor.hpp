#pragma once

#include <cstdint>

#include "lbmf/util/check.hpp"

namespace lbmf::adapt {

/// Exponentially-decayed window over a stream of per-sample values: the
/// estimate is the decay-weighted average
///
///     estimate = Σ α(1-α)^k · x_{n-k}  /  Σ α(1-α)^k
///
/// (bias-corrected, so the first samples are not diluted by the implicit
/// zero history). α is the weight of the newest sample: a single burst
/// moves the estimate by at most α of its magnitude, which is what keeps
/// one anomalous window from thrashing the policy choice; the selector's
/// confirmation streak (see selector.hpp) handles the rest.
class DecayedWindow {
 public:
  explicit DecayedWindow(double alpha = 0.2) noexcept : alpha_(alpha) {}

  void add(double x) noexcept {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
    weight_ = alpha_ + (1.0 - alpha_) * weight_;
    ++samples_;
  }

  /// 0 before the first sample.
  double estimate() const noexcept {
    return weight_ > 0.0 ? value_ / weight_ : 0.0;
  }

  std::uint64_t samples() const noexcept { return samples_; }

 private:
  double alpha_;
  double value_ = 0.0;
  double weight_ = 0.0;
  std::uint64_t samples_ = 0;
};

struct MonitorConfig {
  /// EWMA weight of the newest window for the pop/steal rates.
  double rate_alpha = 0.2;
};

/// Per-deque (per-primary) workload estimator. Feed it cumulative event
/// counters — the victim's announce count and the steal attempts against
/// its deque, straight from ws::DequeStats — once per sampling window; it
/// differences consecutive snapshots and keeps decayed windows of both
/// rates. The round trip that prices them is the drain's own average
/// (adapt::roundtrip_cycles).
class WorkloadMonitor {
 public:
  explicit WorkloadMonitor(MonitorConfig cfg = {}) noexcept
      : pops_(cfg.rate_alpha), steals_(cfg.rate_alpha) {}

  /// One sampling window. `pops_total` / `steals_total` are cumulative
  /// counts (see delta).
  void sample(std::uint64_t pops_total, std::uint64_t steals_total) noexcept {
    pops_.add(delta(pops_total, &last_pops_));
    steals_.add(delta(steals_total, &last_steals_));
  }

  /// Decayed pops-per-window : steals-per-window ratio — the runtime analogue
  /// of the sweep's victim-freq axis. A deque nobody steals from reports a
  /// very large ratio (the asymmetric corner); a steal-storm reports ~0.
  double freq_ratio() const noexcept {
    const double p = pops_.estimate();
    const double s = steals_.estimate();
    return (p + kFloor) / (s + kFloor);
  }

  double pops_per_window() const noexcept { return pops_.estimate(); }
  double steals_per_window() const noexcept { return steals_.estimate(); }
  std::uint64_t windows() const noexcept { return pops_.samples(); }

 private:
  /// Rate floor: keeps the ratio finite and maps (0 pops, 0 steals) — an
  /// idle deque — to ratio 1, the neutral middle of the table.
  static constexpr double kFloor = 1e-6;

  /// Events since the previous sample. Cumulative counts never decrease:
  /// each counter's writer is its owner or a side a gate serializes (the
  /// THE gate for thieves, the Dekker gate for secondaries), so its
  /// modification order only increases, and one thread's relaxed reads
  /// never go backwards in that order (read-read coherence). A smaller
  /// total is a broken caller, so it aborts.
  static double delta(std::uint64_t total, std::uint64_t* last) noexcept {
    LBMF_CHECK_MSG(total >= *last,
                   "WorkloadMonitor: a cumulative count decreased");
    const double d = static_cast<double>(total - *last);
    *last = total;
    return d;
  }

  DecayedWindow pops_;
  DecayedWindow steals_;
  std::uint64_t last_pops_ = 0;
  std::uint64_t last_steals_ = 0;
};

}  // namespace lbmf::adapt
