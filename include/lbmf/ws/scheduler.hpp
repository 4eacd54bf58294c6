#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/adapt/selector.hpp"
#include "lbmf/core/policies.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/rng.hpp"
#include "lbmf/util/spin.hpp"
#include "lbmf/ws/deque.hpp"
#include "lbmf/ws/task.hpp"

namespace lbmf::ws {

/// Aggregated runtime statistics across all workers — the event counts the
/// paper's Sec. 5 analysis is built on (fences on the victim path, signals
/// sent per steal, successful-steal ratio).
struct SchedulerStats {
  std::uint64_t spawns = 0;
  std::uint64_t pops_fast = 0;
  std::uint64_t pops_conflict = 0;
  std::uint64_t pops_empty = 0;
  std::uint64_t victim_fences = 0;
  std::uint64_t victim_serializations = 0;  // peer drains (double-l-mfence)
  std::uint64_t steal_attempts = 0;   // thief_fences
  std::uint64_t steals_success = 0;
  std::uint64_t serializations = 0;
  /// Adaptive policies only: total *realized* quiescent-point mode switches
  /// across the pool (0 for the static policies). A switch counts only when
  /// the regime actually in force changed — a booked request the mechanism
  /// could not realize (e.g. double-l-mfence on the signal drain)
  /// shows up in policy_switches_booked but not here.
  std::uint64_t policy_switches = 0;
  /// Adaptive policies only: switches as *booked* by the controller before
  /// capability clamping. booked - realized > 0 means some requests were
  /// degraded (the pre-fix counter overcounted by exactly that gap).
  std::uint64_t policy_switches_booked = 0;

  double steal_success_ratio() const noexcept {
    return steal_attempts == 0
               ? 0.0
               : static_cast<double>(steals_success) /
                     static_cast<double>(steal_attempts);
  }
};

/// A child-stealing work-stealing scheduler in the style of Cilk-5's
/// runtime, parameterized on the fence policy used by the THE deque
/// protocol:
///
///   * Scheduler<SymmetricFence>        — the "Cilk-5" baseline (victim pays
///                                        an mfence on every pop)
///   * Scheduler<AsymmetricSignalFence> — the paper's "ACilk-5" (victim pays
///                                        a compiler fence; thieves signal)
///
/// Usage (mirrors `spawn`/`sync`):
///
///   Scheduler<AsymmetricSignalFence> sched(n);
///   sched.run([&] {
///     typename Scheduler<AsymmetricSignalFence>::TaskGroup tg;
///     auto t = tg.capture([&] { fib(n - 1, &a); });
///     tg.spawn(t);             // like `spawn fib(n-1)`
///     fib(n - 2, &b);          // continue working
///     tg.sync();               // like `sync`
///   });
template <FencePolicy P>
class Scheduler {
 public:
  using Policy = P;

  explicit Scheduler(std::size_t num_workers);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run `root` to completion (including everything it spawns) on the
  /// worker pool; blocks the calling thread. Not reentrant.
  void run(std::function<void()> root);

  std::size_t num_workers() const noexcept { return workers_.size(); }

  /// Aggregate event counters; call while quiescent for exact numbers.
  /// They only grow: subtract two snapshots for the events in between.
  SchedulerStats stats() const;

  /// Turn on online policy selection (adaptive policies only): every worker
  /// runs its own adapt::PolicySelector over its deque counters and, at its
  /// scheduling-loop boundaries, binds the configured drain mechanism and
  /// re-binds its fence regime once the selector's hysteresis confirms.
  /// Call once, before or during a run; workers notice at their next tick.
  void enable_adaptation(adapt::SelectorConfig cfg = {})
    requires adapt::AdaptiveFencePolicy<P>
  {
    LBMF_CHECK_MSG(!adapt_enabled_.load(std::memory_order_acquire),
                   "enable_adaptation may be called once");
    adapt_config_.emplace(std::move(cfg));
    adapt_enabled_.store(true, std::memory_order_release);
  }

  // -------------------------------------------------------------------
  // Intra-task API
  // -------------------------------------------------------------------

  /// spawn/sync scope. Must live on the stack of a task body; every
  /// spawned task must be captured via capture() (also stack-allocated)
  /// and must not outlive the group. Only the thread that runs that body
  /// may spawn into or sync the group: the join counts are its own.
  class TaskGroup : public TaskGroupBase {
   public:
    /// Wrap a callable in a stack-allocatable task bound to this group.
    template <typename F>
    ClosureTask<F> capture(F f) {
      return ClosureTask<F>(*this, std::move(f));
    }

    /// Make the task stealable: push it on the current worker's deque.
    /// Must be called from inside a scheduler task.
    void spawn(TaskBase& t) {
      Worker* w = tls_worker_;
      LBMF_CHECK_MSG(w != nullptr, "spawn outside a scheduler task");
      add_pending();
      w->deque.push(&t);
    }

    /// Wait until every task spawned on this group has completed, helping
    /// with other work (own deque first, then stealing) meanwhile.
    void sync() {
      Worker* w = tls_worker_;
      LBMF_CHECK_MSG(w != nullptr, "sync outside a scheduler task");
      w->scheduler->sync_help(*w, *this);
    }
  };

  /// The worker currently executing the calling thread's task, or nullptr
  /// off the pool.
  struct Worker;
  static Worker* current() noexcept { return tls_worker_; }

  struct Worker {
    Scheduler* scheduler = nullptr;
    std::size_t index = 0;
    TheDeque<P> deque;
    Xoshiro256 rng{0};
    std::thread thread;
    /// This worker's primary registration (published before ready_, so
    /// stats() may read switch counts through it while the pool runs).
    typename P::Handle handle;
    /// Adaptation state; touched only by the owning worker.
    std::unique_ptr<adapt::PolicySelector> selector;
  };

 private:
  void worker_main(Worker& w);
  void sync_help(Worker& w, TaskGroupBase& group);
  TaskBase* try_steal(Worker& w);
  bool run_own_task(Worker& w);
  TaskBase* next_foreign_task(Worker& w);
  void maybe_adapt(Worker& w);

  static thread_local Worker* tls_worker_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> ready_{0};
  std::atomic<std::size_t> quiesced_{0};

  std::optional<adapt::SelectorConfig> adapt_config_;
  std::atomic<bool> adapt_enabled_{false};

  // Root-task injection (callers are not workers).
  std::mutex inbox_mutex_;
  TaskBase* inbox_ = nullptr;
  std::atomic<bool> inbox_full_{false};
};

template <FencePolicy P>
thread_local typename Scheduler<P>::Worker*
    Scheduler<P>::tls_worker_ = nullptr;

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <FencePolicy P>
Scheduler<P>::Scheduler(std::size_t num_workers) {
  LBMF_CHECK(num_workers >= 1 && num_workers <= 256);
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->scheduler = this;
    w->index = i;
    w->rng = Xoshiro256(0x9E3779B9u * (i + 1));
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
  }
  // Wait until every worker has registered itself as an l-mfence primary;
  // only then may thieves (or run()) target their deques.
  SpinWait sw;
  while (ready_.load(std::memory_order_acquire) < workers_.size()) sw.wait();
}

template <FencePolicy P>
Scheduler<P>::~Scheduler() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->thread.join();
}

template <FencePolicy P>
void Scheduler<P>::worker_main(Worker& w) {
  tls_worker_ = &w;
  // Register as a primary for the asymmetric policies; the deque hands the
  // handle to thieves.
  w.handle = P::register_primary();
  w.deque.set_owner_handle(w.handle);
  ready_.fetch_add(1, std::memory_order_acq_rel);

  SpinWait idle;
  while (!stop_.load(std::memory_order_acquire)) {
    maybe_adapt(w);
    if (run_own_task(w)) {
      idle.reset();
    } else if (TaskBase* t = next_foreign_task(w)) {
      t->run();
      idle.reset();
    } else {
      idle.wait();
    }
  }

  // Two-phase shutdown: no worker may unregister while another might still
  // issue a serialize() against it, so everyone first stops stealing and
  // meets at a barrier.
  quiesced_.fetch_add(1, std::memory_order_acq_rel);
  SpinWait sw;
  while (quiesced_.load(std::memory_order_acquire) < workers_.size()) {
    sw.wait();
  }
  P::unregister_primary(w.handle);
  tls_worker_ = nullptr;
}

template <FencePolicy P>
void Scheduler<P>::maybe_adapt(Worker& w) {
  if constexpr (adapt::AdaptiveFencePolicy<P>) {
    if (!adapt_enabled_.load(std::memory_order_acquire)) return;
    if (!w.selector) {
      w.selector = std::make_unique<adapt::PolicySelector>(*adapt_config_);
    }
    // The scheduling-loop boundary is a quiescent point: the previous pop
    // or steal has completed and the next announce has not been issued.
    // A window is this worker's own pop announces against the steal
    // attempts on its deque.
    const DequeStats d = w.deque.stats();
    w.selector->template tick<P>(w.handle, d.victim_fences, d.thief_fences);
  } else {
    (void)w;
  }
}

/// Pop the youngest task of this worker's own deque and run it. Only this
/// thread spawned into that deque, so it owns the task's group and counts
/// the join without a locked instruction. False when there was none.
template <FencePolicy P>
bool Scheduler<P>::run_own_task(Worker& w) {
  if (w.deque.looks_empty()) return false;
  TaskBase* t = w.deque.pop();
  if (t == nullptr) return false;
  t->run_owned();
  return true;
}

/// The root task from the inbox, else a stolen one: tasks whose groups
/// other threads own, so they complete through TaskBase::run().
template <FencePolicy P>
TaskBase* Scheduler<P>::next_foreign_task(Worker& w) {
  if (inbox_full_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> g(inbox_mutex_);
    if (inbox_ != nullptr) {
      TaskBase* t = inbox_;
      inbox_ = nullptr;
      inbox_full_.store(false, std::memory_order_release);
      return t;
    }
  }
  return try_steal(w);
}

template <FencePolicy P>
TaskBase* Scheduler<P>::try_steal(Worker& w) {
  const std::size_t n = workers_.size();
  if (n == 1) return nullptr;
  // One random probe per call (the caller loops); skip self and deques that
  // look empty to avoid useless serialization traffic.
  const std::size_t victim = w.rng.next_below(n);
  if (victim == w.index) return nullptr;
  TheDeque<P>& d = workers_[victim]->deque;
  if (d.looks_empty()) return nullptr;
  return d.steal();
}

template <FencePolicy P>
void Scheduler<P>::sync_help(Worker& w, TaskGroupBase& group) {
  SpinWait idle;
  while (!group.done()) {
    // Ticks here too: under a recursive workload a worker lives in nested
    // sync_help frames and would otherwise never reach a sampling point.
    maybe_adapt(w);
    if (run_own_task(w)) {
      idle.reset();
    } else if (TaskBase* t = try_steal(w)) {
      t->run();
      idle.reset();
    } else {
      idle.wait();
    }
  }
}

template <FencePolicy P>
void Scheduler<P>::run(std::function<void()> root) {
  TaskGroupBase root_group;
  auto body = [&root] { root(); };
  ClosureTask<decltype(body)> task(root_group, std::move(body));
  root_group.add_pending();
  {
    std::lock_guard<std::mutex> g(inbox_mutex_);
    LBMF_CHECK_MSG(inbox_ == nullptr, "Scheduler::run is not reentrant");
    inbox_ = &task;
    inbox_full_.store(true, std::memory_order_release);
  }
  SpinWait sw;
  while (!root_group.done()) sw.wait();
}

template <FencePolicy P>
SchedulerStats Scheduler<P>::stats() const {
  SchedulerStats s;
  for (const auto& w : workers_) {
    const DequeStats d = w->deque.stats();
    s.spawns += d.pushes;
    s.pops_fast += d.pops_fast;
    s.pops_conflict += d.pops_conflict;
    s.pops_empty += d.pops_empty;
    s.victim_fences += d.victim_fences;
    s.victim_serializations += d.victim_serializations;
    s.steal_attempts += d.thief_fences;
    s.steals_success += d.steals_success;
    s.serializations += d.serializations;
    if constexpr (adapt::AdaptiveFencePolicy<P>) {
      s.policy_switches += P::switch_count(w->handle);
      s.policy_switches_booked += P::booked_switch_count(w->handle);
    }
  }
  return s;
}

}  // namespace lbmf::ws
