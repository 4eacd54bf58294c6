#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "lbmf/core/membarrier.hpp"

namespace lbmf {
namespace {

TEST(Membarrier, AvailabilityProbeIsStable) {
  const bool first = membarrier::available();
  const bool second = membarrier::available();
  EXPECT_EQ(first, second);
}

TEST(Membarrier, BarrierReturnsRegardlessOfSupport) {
  // barrier() must be callable whether or not the kernel supports it (it
  // degrades to a local fence); it must simply not hang or crash.
  for (int i = 0; i < 10; ++i) membarrier::barrier();
  SUCCEED();
}

TEST(Membarrier, BarrierOrdersAgainstRunningPeer) {
  if (!membarrier::available()) {
    GTEST_SKIP() << "membarrier PRIVATE_EXPEDITED not supported here";
  }
  std::atomic<bool> stop{false};
  std::atomic<int> data{0};
  std::atomic<int> seq{0};

  std::thread peer([&] {
    int v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      data.store(v, std::memory_order_relaxed);
      seq.store(v, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < 200; ++i) {
    membarrier::barrier();
    const int s = seq.load(std::memory_order_relaxed);
    const int d = data.load(std::memory_order_relaxed);
    EXPECT_GE(d, s - 1);
  }

  stop.store(true, std::memory_order_release);
  peer.join();
}

// The broadcast count and round-trip EWMA that price the membarrier-pair
// drain for the adaptation layer: every EXPEDITED barrier() is counted
// and timed.
TEST(Membarrier, BroadcastsAreCountedAndTimed) {
  if (!membarrier::available()) {
    GTEST_SKIP() << "membarrier PRIVATE_EXPEDITED not supported here";
  }
  constexpr std::uint64_t kBarriers = 16;
  const std::uint64_t before = membarrier::broadcasts();
  for (std::uint64_t i = 0; i < kBarriers; ++i) membarrier::barrier();
  EXPECT_EQ(membarrier::broadcasts(), before + kBarriers);
  EXPECT_GT(membarrier::measured_roundtrip_cycles(), 0.0);
}

}  // namespace
}  // namespace lbmf
