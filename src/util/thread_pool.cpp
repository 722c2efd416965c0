#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/fault.hpp"

namespace netrec::util {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_threads(threads);
  workers_.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn (std::system_error under resource limits) must not
    // destroy joinable threads — that would call std::terminate.  Shut the
    // partial pool down and let the caller see the original exception.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = (n + grain - 1) / grain;
  // First exception wins; later ones are dropped (iterations still run).
  std::exception_ptr first_error = nullptr;
  std::mutex error_mutex;
  // Completion state lives under one mutex: the finishing worker must still
  // hold it when it observes zero, so the caller cannot wake, return and
  // destroy these locals while the worker is mid-notify.
  std::size_t remaining = chunks;
  std::mutex done_mutex;
  std::condition_variable done;
  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    try {
      // Inside the try so an injected failure behaves exactly like a kernel
      // exception: captured into first_error, completion counting intact,
      // rethrown at the caller — never a stuck parallel_for.
      if (FAULT_POINT("pool.task")) {
        throw fault::InjectedFault("pool.task");
      }
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done.notify_all();
    }
  };
  for (std::size_t c = 0; c < chunks; ++c) {
    submit([&run_chunk, c] { run_chunk(c); });
  }
  // Help drain the queue while waiting: nested parallel_for (a kernel
  // inside a task running on this very pool) would otherwise block a worker
  // forever; with help-draining the caller itself executes queued chunks —
  // possibly unrelated ones, which is harmless — until its own are done.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      if (remaining == 0) break;
    }
    if (!try_run_one()) {
      // Queue empty: every outstanding chunk of this call is running on
      // some thread already, so there is nothing left to help with.
      std::unique_lock<std::mutex> lock(done_mutex);
      done.wait(lock, [&] { return remaining == 0; });
      break;
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::for_each(ThreadPool* pool, std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    pool->parallel_for(n, 1, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  std::size_t resolved = requested;
  if (resolved == 0) {
    if (const char* env = std::getenv("NETREC_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) resolved = static_cast<std::size_t>(parsed);
    }
  }
  if (resolved == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    resolved = hw > 0 ? hw : 1;
  }
  if (resolved > kMaxThreads) {
    throw std::invalid_argument(
        "thread count " + std::to_string(resolved) + " exceeds the maximum " +
        std::to_string(kMaxThreads) + " (typo?)");
  }
  return resolved;
}

ThreadPool* ThreadPool::acquire(std::optional<ThreadPool>& storage,
                                std::size_t threads, ThreadPool* existing) {
  if (existing != nullptr) return existing;
  if (resolve_threads(threads) <= 1) return nullptr;
  storage.emplace(threads);
  return &*storage;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace netrec::util
