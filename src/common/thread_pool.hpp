// Nestable worker pool used by the Eq. 1 y-sweep (Algorithm 1 probes
// candidate y values "in parallel") and by the bench drivers' scheme and
// repetition sweeps.
//
// Completion is tracked per *task group*, not globally: every parallel_for
// (and every submit batch awaited by wait_idle) drains its own latch, and a
// caller that would block instead pulls its group's pending tasks off the
// queue and runs them itself. That makes the executor safe to re-enter —
// a pool worker running one repetition may open a nested parallel_for over
// y candidates without deadlocking on its own in-flight task, and two
// threads may run independent parallel_for calls concurrently without
// observing each other's completion state.
//
// Determinism note: all uses are pure reductions over precomputed inputs
// writing to fixed slots, so scheduling order never affects results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paldia {

/// CPUs the calling thread may run on: the size of its affinity mask, so
/// taskset and cpusets count; hardware_concurrency where the mask cannot be
/// read. Always at least 1.
std::size_t usable_cpus();

/// Run fn(i) for every i in [0, n) on min(n, usable_cpus()) workers: the
/// caller plus threads started for the call, each claiming the next i from
/// one atomic index, so a width of 1 runs them in order on the caller. Once
/// fn throws, no further i is claimed; after every thread has joined, the
/// lowest i's exception is rethrown. n == 0 returns at once. For a handful
/// of coarse, independent items (a fleet's endpoint partitions, their
/// exports); ThreadPool::parallel_for serves nested and fine-grained loops.
void for_each_concurrently(std::size_t n, const std::function<void(std::size_t)>& fn);

class ThreadPool {
 public:
  /// threads == 0 picks usable_cpus().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a detached task. Tasks must not throw; exceptions terminate
  /// (by design — a failed model evaluation is a programming error, not a
  /// runtime state).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished. Helps run
  /// pending tasks while waiting, so it is safe to call from a worker.
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the pool and wait. The caller
  /// participates (it drains its own batch's tasks while waiting), so
  /// nested calls from inside pool tasks are deadlock-free and concurrent
  /// top-level calls are isolated. Falls back to the calling thread when
  /// the pool has a single worker or n == 1.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t thread_count() const { return workers_.size(); }

 private:
  /// Per-batch completion latch. Tasks hold a shared_ptr so a group
  /// outlives its parallel_for frame even if the pool is torn down late.
  struct Group {
    std::size_t pending = 0;
    std::condition_variable done;
  };
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Group> group;  // null for detached submits
  };

  void worker_loop();
  /// Run one task and retire it against its group and the global count.
  /// Called without the lock held.
  void run_task(Task task);
  /// Wait for `group` to drain, executing its queued tasks in the
  /// meantime. Must be called without the lock held.
  void help_until_done(const std::shared_ptr<Group>& group);

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t total_pending_ = 0;  // queued + running, across all groups
  bool stopping_ = false;
};

}  // namespace paldia
