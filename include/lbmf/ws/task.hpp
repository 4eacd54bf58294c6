#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace lbmf::ws {

class TaskGroupBase;

/// A unit of work in the runtime. Tasks are intrusive and typically live on
/// the *stack* of the spawning function (like Cilk-5 frames, and unlike
/// heap-allocating task systems) so that spawn overhead is dominated by the
/// deque protocol — the quantity the paper's experiment varies.
class TaskBase {
 public:
  virtual ~TaskBase() = default;

  /// Run the task and notify its group. Called exactly once (this or
  /// run_owned()), by the worker that popped or stole the task. Safe from
  /// any thread: the completion is one release fetch_add that the group's
  /// owner acquires in done().
  void run();

  /// run() for the thread that owns the task's group — a task popped back
  /// from the owner's own deque. The completion is a plain increment, so
  /// the owner's spawn → pop → run → sync path has no locked instruction.
  void run_owned();

 protected:
  explicit TaskBase(TaskGroupBase& group) : group_(&group) {}

 private:
  virtual void execute() = 0;

  TaskGroupBase* group_;
};

/// Join counts for the tasks a frame spawns, kept as Cilk-5 keeps them: the
/// thread that owns the group (the one that spawns into it and syncs it)
/// counts spawns and the completions it ran itself in plain fields; only a
/// task that ran on another thread touches the shared atomic. The scheduler
/// layer (Scheduler<P>::TaskGroup) wraps this with spawn/sync; this base
/// holds just the policy-independent bookkeeping.
class TaskGroupBase {
 public:
  TaskGroupBase() = default;
  TaskGroupBase(const TaskGroupBase&) = delete;
  TaskGroupBase& operator=(const TaskGroupBase&) = delete;

  /// True once every registered task has completed; the completing tasks'
  /// writes are then visible. Owning thread only.
  bool done() const noexcept {
    if (spawned_ == owned_done_) return true;
    return spawned_ - owned_done_ ==
           remote_done_.load(std::memory_order_acquire);
  }

  /// Register one task, to be balanced by exactly one run() or run_owned()
  /// of it — used by TaskGroup::spawn and for root injection. Owning thread
  /// only.
  void add_pending() noexcept { ++spawned_; }

 private:
  friend class TaskBase;

  std::uint64_t spawned_ = 0;
  std::uint64_t owned_done_ = 0;
  std::atomic<std::uint64_t> remote_done_{0};
};

inline void TaskBase::run() {
  execute();
  // The last access to the group or this task: once the counts balance,
  // the owner may return from sync() and destroy both.
  group_->remote_done_.fetch_add(1, std::memory_order_release);
}

inline void TaskBase::run_owned() {
  execute();
  ++group_->owned_done_;
}

/// Stack-allocatable task wrapping a callable.
template <typename F>
class ClosureTask final : public TaskBase {
 public:
  static_assert(std::is_invocable_v<F&>, "task callable must be invocable");

  ClosureTask(TaskGroupBase& group, F f)
      : TaskBase(group), f_(std::move(f)) {}

 private:
  void execute() override { f_(); }

  F f_;
};

}  // namespace lbmf::ws
