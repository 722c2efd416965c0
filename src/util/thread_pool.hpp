// Fixed-size worker pool behind the parallel scenario engine and the
// intra-solve kernels (centrality enumeration, LP seeding and pricing,
// per-demand max flows).
//
// The pool is a plain task queue (no work stealing: tasks are coarse — one
// (run, algorithm) solve, one demand's path enumeration, one pricing
// Dijkstra — so a single mutex-protected queue never becomes the
// bottleneck).  Callers reach it only through the blocking parallel_for
// and for_each, which return when their own tasks are done, so no caller
// submits a bare task or waits for the pool to go idle.  Determinism is the
// caller's job: tasks must write to pre-assigned slots and derive
// randomness from seeds fixed before submission, never from execution
// order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace netrec::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means resolve_threads(0).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n), submitted in chunks of `grain`
  /// consecutive iterations, so V-sized kernel loops pay one std::function
  /// dispatch per chunk instead of per element.  Grain 0 is treated as 1.
  /// Blocks until all chunks complete and rethrows the first exception any
  /// iteration produced: an exception skips the remainder of its own chunk,
  /// every other chunk still runs, and later exceptions are dropped.  The
  /// caller participates in draining the queue while it waits, so nesting —
  /// a parallel kernel inside a task that itself runs on this pool — cannot
  /// deadlock, and concurrent parallel_for calls from different threads are
  /// safe.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

  /// Runs fn(i) for i in [0, n): on `pool` via parallel_for (grain 1) when
  /// it has at least two workers and n >= 2, else serially on the calling
  /// thread in index order.  Every intra-solve fan-out goes through here, so
  /// the serial and pooled paths run the same `fn` (except mcf::greedy_route,
  /// which speculates first paths only on a pool); determinism still
  /// requires `fn` to write only to slot i.
  static void for_each(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

  /// Thread count resolution used across the project: the explicit request
  /// if positive, else the NETREC_THREADS environment variable if set and
  /// positive, else std::thread::hardware_concurrency() (minimum 1).
  /// Throws std::invalid_argument above kMaxThreads (typo guard).
  static std::size_t resolve_threads(std::size_t requested = 0);

  /// Upper bound on worker counts; requests beyond it are almost certainly
  /// flag typos and fail fast instead of exhausting the process.
  static constexpr std::size_t kMaxThreads = 512;

  /// Pool-selection policy shared by every pool user (scenario::run_matrix,
  /// SweepRunner, IspSolver, serve::PlanningEngine):
  /// returns `existing` when the caller already has a pool, spawns one in
  /// `storage` when the resolved count warrants parallelism, and returns
  /// nullptr for serial execution.
  static ThreadPool* acquire(std::optional<ThreadPool>& storage,
                             std::size_t threads, ThreadPool* existing);

 private:
  /// Enqueues a task; runs on some worker at an unspecified time.
  void submit(std::function<void()> task);
  void worker_loop();
  /// Pops and runs one queued task on the calling thread; false when the
  /// queue was empty.  Lets parallel_for callers help drain while waiting.
  bool try_run_one();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
};

}  // namespace netrec::util
