#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#ifdef __linux__
#include <sched.h>
#endif

namespace paldia {

std::size_t usable_cpus() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void for_each_concurrently(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        next = n;
      }
    }
  };
  const std::size_t width = std::min(n, usable_cpus());
  std::vector<std::thread> workers;
  workers.reserve(width - 1);
  try {
    while (workers.size() + 1 < width) workers.emplace_back(work);
  } catch (const std::exception&) {
    // No further thread could start: the ones running claim the rest.
  }
  work();
  for (auto& worker : workers) worker.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cpus();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(Task{std::move(task), nullptr});
    ++total_pending_;
  }
  task_available_.notify_one();
  all_done_.notify_all();  // a helping wait_idle may want this task
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (total_pending_ == 0) return;
    if (!tasks_.empty()) {
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      run_task(std::move(task));
      lock.lock();
      continue;
    }
    // Everything pending is running on workers; wake on completion, or on
    // a new task we could help with.
    all_done_.wait(lock, [this] { return total_pending_ == 0 || !tasks_.empty(); });
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunked dynamic scheduling: workers pull the next index from a shared
  // counter, which balances uneven per-index costs (e.g. repetitions of
  // different lengths). The +1 shard is the caller, which helps drain its
  // own group below instead of blocking.
  auto counter = std::make_shared<std::atomic<std::size_t>>(0);
  auto group = std::make_shared<Group>();
  const std::size_t shards = std::min(n, workers_.size() + 1);
  {
    std::lock_guard lock(mutex_);
    group->pending = shards;
    total_pending_ += shards;
    for (std::size_t s = 0; s < shards; ++s) {
      tasks_.push_back(Task{[counter, n, &fn] {
                              for (std::size_t i = counter->fetch_add(1); i < n;
                                   i = counter->fetch_add(1)) {
                                fn(i);
                              }
                            },
                            group});
    }
  }
  task_available_.notify_all();
  all_done_.notify_all();
  help_until_done(group);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    run_task(std::move(task));
  }
}

void ThreadPool::run_task(Task task) {
  task.fn();
  std::lock_guard lock(mutex_);
  if (task.group != nullptr && --task.group->pending == 0) {
    task.group->done.notify_all();
  }
  if (--total_pending_ == 0) all_done_.notify_all();
}

void ThreadPool::help_until_done(const std::shared_ptr<Group>& group) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (group->pending == 0) return;
    // Prefer running our own group's queued shards over blocking. Tasks of
    // other groups are left for the workers: stealing them here would only
    // delay this caller behind unrelated work.
    const auto it = std::find_if(tasks_.begin(), tasks_.end(),
                                 [&](const Task& t) { return t.group == group; });
    if (it != tasks_.end()) {
      Task task = std::move(*it);
      tasks_.erase(it);
      lock.unlock();
      run_task(std::move(task));
      lock.lock();
      continue;
    }
    // No queued shard of ours left: the remainder is running on workers
    // (each of which always retires, helping through any nested groups of
    // its own), so waiting on the group latch cannot deadlock.
    group->done.wait(lock, [&] { return group->pending == 0; });
  }
}

}  // namespace paldia
