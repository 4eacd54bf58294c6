// ThreadSanitizer harness for the work-stealing deques' stats machinery:
// a victim pushes/pops, a thief steals, and two extra threads hammer
// stats() / reset_stats() while both run. Before the counters became
// relaxed atomics TSan reported data races on every plain-uint64_t
// increment read by stats(); this binary (built with -fsanitize=thread by
// the lbmf_tsan_tests CMake option, see tests/CMakeLists.txt) must run
// clean — TSan makes any report fatal via halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "lbmf/ws/chase_lev.hpp"
#include "lbmf/ws/deque.hpp"
#include "lbmf/ws/task.hpp"

namespace {

using namespace lbmf::ws;

constexpr int kTasks = 50000;

// Every deque template is exercised the same way; Deque is TheDeque or
// ChaseLevDeque over the symmetric policy (no membarrier dependency, so
// the binary runs anywhere TSan does).
template <template <class> class Deque>
int drive(const char* label) {
  Deque<lbmf::SymmetricFence> d;
  TaskGroupBase g;
  std::vector<ClosureTask<void (*)()>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) tasks.emplace_back(g, +[] {});

  std::atomic<bool> stop{false};
  std::atomic<long> removed{0};

  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (d.steal() != nullptr) removed.fetch_add(1);
    }
  });
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const DequeStats s = d.stats();
      sink += s.pushes + s.pops_fast + s.steals_success + s.thief_fences;
      (void)d.looks_empty();
    }
    // Keep the loads observable so the loop is not optimized away.
    std::atomic_thread_fence(std::memory_order_relaxed);
    (void)sink;
  });
  std::thread resetter([&] {
    // reset_stats() concurrent with the workers: the counts become
    // meaningless, but every access must stay a race-free atomic op.
    for (int i = 0; i < 100; ++i) {
      d.reset_stats();
      std::this_thread::yield();
    }
  });

  for (auto& t : tasks) {
    d.push(&t);
    if (d.pop() != nullptr) removed.fetch_add(1);
  }
  while (d.steal() != nullptr) removed.fetch_add(1);
  stop.store(true, std::memory_order_release);
  thief.join();
  reader.join();
  resetter.join();

  if (removed.load() != kTasks) {
    std::printf("FAIL %s: %ld of %d tasks accounted for\n", label,
                removed.load(), kTasks);
    return 1;
  }
  std::printf("ok %s: %d tasks, no lost or duplicated pops\n", label, kTasks);
  return 0;
}

}  // namespace

int main() {
  int rc = 0;
  rc |= drive<TheDeque>("TheDeque");
  rc |= drive<ChaseLevDeque>("ChaseLevDeque");
  std::printf("%s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}
