#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace lbmf {

/// Log-bucketed histogram for latency samples (HdrHistogram shape): values
/// below 2^kSubBits are recorded exactly; above that, each power-of-two
/// octave is split into 2^kSubBits linear sub-buckets, so the relative
/// quantization error is bounded by 2^-kSubBits (6.25%) across the whole
/// 64-bit range. Recording is two shifts and an increment — cheap enough
/// for a serving fast path — and the footprint is one fixed array, so a
/// per-thread histogram costs ~8 KiB and merge() is a vector add.
///
/// The unit is the caller's (the serving tier records TSC cycles and
/// converts to nanoseconds only when reporting). Not thread-safe: keep one
/// per thread and merge() after joining.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;
  // Values < kSubBuckets occupy buckets [0, kSubBuckets); each of the
  // remaining 64 - kSubBits octaves contributes kSubBuckets more.
  static constexpr std::size_t kBuckets =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;

  static std::uint32_t bucket_of(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::uint32_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    return ((shift + 1) << kSubBits) +
           static_cast<std::uint32_t>((v >> shift) & (kSubBuckets - 1));
  }

  /// Inclusive lower bound of a bucket (the smallest value mapping to it).
  static std::uint64_t bucket_floor(std::uint32_t b) noexcept {
    if (b < kSubBuckets) return b;
    const unsigned shift = (b >> kSubBits) - 1;
    const std::uint64_t sub = b & (kSubBuckets - 1);
    return ((static_cast<std::uint64_t>(kSubBuckets) + sub) << shift);
  }

  void record(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++total_;
    sum_ += v;
    min_ = v < min_ ? v : min_;
    max_ = v > max_ ? v : max_;
  }

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }

  /// Value at percentile `pct` in [0, 100]: the upper edge of the first
  /// bucket whose cumulative count covers pct% of the samples (so "p99"
  /// reads as "99% of samples were at or below this"), clamped to the
  /// exactly-tracked [min, max]. 0 on an empty histogram.
  std::uint64_t percentile(double pct) const noexcept {
    if (total_ == 0) return 0;
    const double want_d = pct / 100.0 * static_cast<double>(total_);
    std::uint64_t want = static_cast<std::uint64_t>(want_d);
    if (static_cast<double>(want) < want_d || want == 0) ++want;
    want = std::min(want, total_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= want) {
        const std::uint64_t ceil =
            bucket_floor(static_cast<std::uint32_t>(b) + 1) - 1;
        return std::clamp(ceil, min_, max_);
      }
    }
    return max_;
  }

  void merge(const LogHistogram& o) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
    sum_ += o.sum_;
    min_ = o.total_ && o.min_ < min_ ? o.min_ : min_;
    max_ = o.max_ > max_ ? o.max_ : max_;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace lbmf
