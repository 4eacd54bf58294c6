// ThreadSanitizer harness for the serialization-backend matrix: Dekker
// announce traffic and deque pop/steal traffic run against each drain
// mechanism {signal, membarrier-pair} while a controller thread re-binds
// the primary's mode and mechanism concurrently (request_mode /
// request_backend from outside, quiescent_point adoption inside the
// protocol loop). The cross-thread edges under test are AdaptiveFence's
// mode/backend/booking cells, the membarrier broadcast counter, and the
// degraded / switch counters — all of which are read by controllers and
// benches while the primary runs. TSan makes any report fatal via
// halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/dekker/dekker.hpp"
#include "lbmf/ws/deque.hpp"
#include "lbmf/ws/task.hpp"

namespace {

using lbmf::AsymmetricDekker;
using lbmf::adapt::AdaptiveFence;
using lbmf::adapt::BackendId;
using lbmf::adapt::PolicyMode;

constexpr BackendId kMatrix[] = {BackendId::kSignal,
                                 BackendId::kMembarrierPair};
constexpr std::size_t kMatrixSize = std::size(kMatrix);
constexpr PolicyMode kModes[] = {PolicyMode::kSymmetric,
                                 PolicyMode::kAsymmetric,
                                 PolicyMode::kDoubleLmfence};

// Dekker rounds with a controller flipping both the requested mode and the
// bound backend while the primary adopts at its quiescent points and the
// secondary serializes it per whatever (possibly one-switch-stale) regime
// it observes.
int drive_dekker() {
  constexpr std::uint64_t kRounds = 1'500;
  AsymmetricDekker<AdaptiveFence> dk;
  std::atomic<bool> ready{false};
  std::atomic<bool> stop_ctl{false};
  std::atomic<int> in_cs{0};
  std::atomic<int> violations{0};
  AdaptiveFence::Handle h;

  const auto enter_cs = [&] {
    if (in_cs.exchange(1, std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    for (int spin = 0; spin < 8; ++spin) lbmf::compiler_fence();
    in_cs.store(0, std::memory_order_relaxed);
  };

  std::atomic<bool> ctl_exited{false};
  std::atomic<bool> sec_exited{false};
  std::thread primary([&] {
    dk.bind_primary();
    h = dk.primary_handle();
    ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      dk.lock_primary();
      enter_cs();
      dk.unlock_primary();
      // Between attempts: no announce in flight — adopt whatever the
      // controller has booked since the last round.
      AdaptiveFence::quiescent_point(h);
    }
    // Unregistration must run on the registered thread, and only after the
    // controller and the secondary stop touching the handle.
    stop_ctl.store(true, std::memory_order_release);
    while (!ctl_exited.load(std::memory_order_acquire) ||
           !sec_exited.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    dk.unbind_primary();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread controller([&] {
    std::uint64_t i = 0;
    std::uint64_t sink = 0;
    while (!stop_ctl.load(std::memory_order_acquire)) {
      AdaptiveFence::request_backend(h, kMatrix[i % kMatrixSize]);
      AdaptiveFence::request_mode(h, kModes[(i / kMatrixSize) % 3]);
      // Concurrent reads of everything the benches and CI gates consume.
      sink += static_cast<std::uint64_t>(AdaptiveFence::realized_mode(h)) +
              static_cast<std::uint64_t>(AdaptiveFence::booked_mode(h)) +
              AdaptiveFence::switch_count(h) +
              AdaptiveFence::booked_switch_count(h) +
              AdaptiveFence::degraded_count(h) +
              lbmf::membarrier::broadcasts();
      ++i;
      std::this_thread::yield();
    }
    std::atomic_thread_fence(std::memory_order_relaxed);
    (void)sink;
    ctl_exited.store(true, std::memory_order_release);
  });

  std::thread secondary([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      dk.lock_secondary();
      enter_cs();
      dk.unlock_secondary();
    }
    sec_exited.store(true, std::memory_order_release);
  });

  secondary.join();
  controller.join();
  primary.join();

  if (violations.load() != 0) {
    std::printf("FAIL dekker: %d mutual-exclusion violations\n",
                violations.load());
    return 1;
  }
  std::printf("ok dekker: %llu rounds/side across the backend matrix\n",
              static_cast<unsigned long long>(kRounds));
  return 0;
}

// Deque pop/steal traffic under the same concurrent re-binding: the victim
// (this thread) owns the adaptive registration, a thief steals through
// serialize(h), and the controller walks the backend matrix. The victim
// drains the leftovers only after the thief has exited: a steal() from
// this thread while the thief holds the gate could otherwise block in the
// mutex while the thief waits for this thread's signal handler.
int drive_deque() {
  constexpr int kTasks = 12'000;
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  lbmf::ws::TheDeque<AdaptiveFence> d;
  d.set_owner_handle(h);
  lbmf::ws::TaskGroupBase g;
  std::vector<lbmf::ws::ClosureTask<void (*)()>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) tasks.emplace_back(g, +[] {});

  std::atomic<bool> stop{false};
  std::atomic<long> removed{0};

  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (d.steal() != nullptr) removed.fetch_add(1);
    }
  });
  std::thread controller([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      AdaptiveFence::request_backend(h, kMatrix[i % kMatrixSize]);
      AdaptiveFence::request_mode(h, kModes[(i / kMatrixSize) % 3]);
      ++i;
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < kTasks; ++i) {
    d.push(&tasks[i]);
    if (d.pop() != nullptr) removed.fetch_add(1);
    if (i % 64 == 0) AdaptiveFence::quiescent_point(h);
  }
  stop.store(true, std::memory_order_release);
  thief.join();
  controller.join();
  while (d.steal() != nullptr) removed.fetch_add(1);
  AdaptiveFence::unregister_primary(h);

  if (removed.load() != kTasks) {
    std::printf("FAIL deque: %ld of %d tasks accounted for\n", removed.load(),
                kTasks);
    return 1;
  }
  std::printf("ok deque: %d tasks, no lost or duplicated pops\n", kTasks);
  return 0;
}

}  // namespace

int main() {
  int rc = 0;
  rc |= drive_dekker();
  rc |= drive_deque();
  std::printf("%s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}
