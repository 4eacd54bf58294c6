#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace lbmf {

/// Hint to the core that we are in a spin-wait loop. On x86 this is `pause`,
/// which reduces the penalty of leaving the loop and yields pipeline
/// resources to a hyper-sibling.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Portable fallback: a compiler barrier so the loop is not collapsed.
  asm volatile("" ::: "memory");
#endif
}

/// Adaptive spin-waiter: spins with `pause` for a bounded number of rounds,
/// then starts yielding the CPU. On an oversubscribed host (fewer cores than
/// threads) the yield path is essential — a pure spin would deadlock the very
/// thread we are waiting on off the only core.
class SpinWait {
 public:
  /// `spin_limit` = number of pause-only rounds before we begin yielding;
  /// `max_pauses` caps one round's pauses. The defaults spend 3,775 pauses
  /// (1, 2, 4, ..., 64, then 64 per round) before the first yield.
  explicit SpinWait(std::uint32_t spin_limit = 64,
                    std::uint32_t max_pauses = 64) noexcept
      : spin_limit_(spin_limit), max_pauses_(max_pauses) {}

  /// One round: returns the pauses it spent, or 0 when it yielded instead.
  std::uint32_t wait() noexcept {
    if (count_ < spin_limit_) {
      // Exponential backoff inside the pause phase: 1, 2, 4, ... pauses.
      const std::uint32_t reps = reps_;
      for (std::uint32_t i = 0; i < reps; ++i) cpu_relax();
      reps_ = std::min(2 * reps, max_pauses_);
      ++count_;
      return reps;
    }
    std::this_thread::yield();
    return 0;
  }

  void reset() noexcept {
    count_ = 0;
    reps_ = 1;
  }

  std::uint32_t rounds() const noexcept { return count_; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t max_pauses_;
  std::uint32_t count_ = 0;
  std::uint32_t reps_ = 1;
};

}  // namespace lbmf
