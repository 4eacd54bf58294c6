// E13 (ablation) — the victim's pop/take fast path across the two deque
// designs (Cilk-5 THE vs Chase-Lev) and fence policies: the Dekker fence
// the paper removes sits in both, so l-mfence accelerates both. Measures
// an uncontended push+pop pair, which is the spawn/return hot path of a
// work-stealing runtime. The scheduler/spawn_sync rows put the runtime
// layer's whole spawn beside it: TaskGroup spawn + sync of an empty child
// on a 1-worker pool, so the deque pair plus the join bookkeeping.

#include <benchmark/benchmark.h>

#include "lbmf/ws/chase_lev.hpp"
#include "lbmf/ws/deque.hpp"
#include "lbmf/ws/scheduler.hpp"
#include "lbmf/ws/task.hpp"

namespace lbmf::ws {
namespace {

template <FencePolicy P>
TaskBase* pop_one(TheDeque<P>& d) {
  return d.pop();
}
template <FencePolicy P>
TaskBase* pop_one(ChaseLevDeque<P>& d) {
  return d.take();
}

template <typename Deque, FencePolicy P>
void push_pop_loop(benchmark::State& state) {
  Deque d;
  auto handle = P::register_primary();
  d.set_owner_handle(handle);
  TaskGroupBase g;
  auto task = ClosureTask(g, [] {});
  for (auto _ : state) {
    d.push(&task);
    TaskBase* t = pop_one(d);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
  P::unregister_primary(handle);
}

template <FencePolicy P>
void BM_ThePushPop(benchmark::State& state) {
  push_pop_loop<TheDeque<P>, P>(state);
}
template <FencePolicy P>
void BM_ChaseLevPushPop(benchmark::State& state) {
  push_pop_loop<ChaseLevDeque<P>, P>(state);
}

// The timed loop runs on the pool's worker while this thread waits in
// run(), hence real time. With one worker every child is popped back.
template <FencePolicy P>
void BM_SpawnSync(benchmark::State& state) {
  Scheduler<P> sched(1);
  sched.run([&state] {
    for (auto _ : state) {
      bool ran = false;
      typename Scheduler<P>::TaskGroup tg;
      auto child = tg.capture([&ran] { ran = true; });
      tg.spawn(child);
      tg.sync();
      benchmark::DoNotOptimize(ran);
    }
  });
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ThePushPop<SymmetricFence>)->Name("the_deque/push_pop/mfence");
BENCHMARK(BM_ThePushPop<AsymmetricSignalFence>)
    ->Name("the_deque/push_pop/lmfence");
BENCHMARK(BM_ChaseLevPushPop<SymmetricFence>)
    ->Name("chase_lev/push_take/mfence");
BENCHMARK(BM_ChaseLevPushPop<AsymmetricSignalFence>)
    ->Name("chase_lev/push_take/lmfence");
BENCHMARK(BM_SpawnSync<SymmetricFence>)
    ->Name("scheduler/spawn_sync/mfence")
    ->UseRealTime();
BENCHMARK(BM_SpawnSync<AsymmetricSignalFence>)
    ->Name("scheduler/spawn_sync/lmfence")
    ->UseRealTime();

}  // namespace
}  // namespace lbmf::ws

BENCHMARK_MAIN();
