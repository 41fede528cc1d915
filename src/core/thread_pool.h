// Work-stealing thread pool.
//
// The analysis pipeline is embarrassingly parallel at several levels: one
// model has many top events, one Monte Carlo run has many independent
// shards, one bound-engine frontier has many independent products. All
// of them funnel through this pool so the process owns exactly one set of
// worker threads, sized once (the CLI's --jobs flag).
//
// Design: every worker owns a deque. Tasks submitted from outside the
// pool are dealt round-robin across the deques; a worker pops from the
// back of its own deque (LIFO, cache-warm) and, when empty, steals from
// the front of a sibling's deque (FIFO, oldest first -- the classic
// work-stealing discipline). Each deque is guarded by its own mutex: the
// queues are short and the tasks coarse (a whole fault-tree synthesis, a
// Monte Carlo shard), so lock-free deques would buy nothing here while
// costing a lot of subtle code.
//
// Scheduling is *not* deterministic -- determinism is the callers'
// responsibility and is achieved by indexing results into pre-sized slots
// (see core/parallel.h) rather than by ordering execution.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ftsynth {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers; <= 0 uses the hardware concurrency.
  explicit ThreadPool(int threads = 0);

  /// Joins all workers. Pending tasks are still executed (drain, then
  /// stop): a destructor that drops tasks would silently lose work.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `task` for execution on some worker.
  void submit(Task task);

  /// Hardware concurrency with a floor of 1 (std::thread reports 0 when
  /// it cannot tell).
  static unsigned hardware_threads() noexcept;

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;
  };

  void run_worker(std::size_t index);
  bool try_pop_local(std::size_t index, Task& task);
  bool try_steal(std::size_t thief, Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  /// Tasks submitted but not yet taken by a worker. Signed: may dip below
  /// zero transiently while a submit is between its queue push and its
  /// counter increment.
  std::ptrdiff_t pending_ = 0;
  bool stop_ = false;

  std::atomic<std::size_t> next_queue_{0};  ///< round-robin submission cursor
};

}  // namespace ftsynth
