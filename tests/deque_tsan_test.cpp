// ThreadSanitizer harness for the work-stealing deques' stats machinery:
// a victim pushes/pops, a thief steals, and a reader snapshots stats()
// while both run. Before the counters became relaxed atomics TSan reported
// data races on every plain-uint64_t increment read by stats(). The
// counters only grow, so the reader also fails the run if a field of a
// snapshot is smaller than in its previous one. This binary (built with
// -fsanitize=thread by the lbmf_tsan_tests CMake option, see
// tests/CMakeLists.txt) must run clean — TSan makes any report fatal via
// halt_on_error.
//
// Plain main, no gtest: gtest + TSan needs a separately instrumented gtest
// build, which the repo does not carry.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "lbmf/ws/chase_lev.hpp"
#include "lbmf/ws/deque.hpp"
#include "lbmf/ws/task.hpp"

namespace {

using namespace lbmf::ws;

constexpr int kTasks = 50000;

constexpr std::uint64_t DequeStats::*kFields[] = {
    &DequeStats::pushes,         &DequeStats::pops_fast,
    &DequeStats::pops_conflict,  &DequeStats::pops_empty,
    &DequeStats::victim_fences,  &DequeStats::victim_serializations,
    &DequeStats::steals_success, &DequeStats::steals_empty,
    &DequeStats::thief_fences,   &DequeStats::serializations};

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
  bool shrank = false;

  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (d.steal() != nullptr) removed.fetch_add(1);
    }
  });
  std::thread reader([&] {
    DequeStats prev;
    while (!stop.load(std::memory_order_acquire)) {
      const DequeStats s = d.stats();
      for (auto f : kFields) shrank |= s.*f < prev.*f;
      prev = s;
      (void)d.looks_empty();
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

  if (shrank) {
    std::printf("FAIL %s: a stats() field went backwards\n", label);
    return 1;
  }
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
