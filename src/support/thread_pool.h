// A small work-stealing thread pool with two priority lanes.
//
// The OMOS server is a persistent process shared by many clients (paper
// §3); request execution, batched requests, and the idle-time image
// optimizer (§4.1: the server re-optimizes images "during idle time") all
// need worker threads. One pool serves all three:
//
//  * Foreground lane — per-worker deques with stealing. Submit() lands work
//    here; ParallelFor() fans a loop out across workers with the caller
//    participating (so nested parallelism can never deadlock: the caller
//    drains chunks itself while it waits).
//  * Background lane — a single FIFO of low-priority tasks. A worker takes
//    background work only when every foreground deque is empty, which is
//    the pool's definition of "idle time". Foreground work never waits
//    behind background work.
//
// A pool constructed with zero threads degrades to inline execution:
// Submit() and ParallelFor() run on the caller, background tasks run when
// DrainBackground() is called. This keeps single-threaded builds and the
// deterministic fault-sweep harness byte-for-byte reproducible.
#ifndef OMOS_SRC_SUPPORT_THREAD_POOL_H_
#define OMOS_SRC_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omos {

class ThreadPool {
 public:
  // `threads` worker threads; 0 = inline execution (no threads started).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Shared process-wide pool: hardware_concurrency capped at 8 workers
  // (the server's request fan-out saturates well before that; see
  // docs/perf.md). Created on first use, never destroyed.
  static ThreadPool& Global();

  size_t thread_count() const { return workers_.size(); }

  // Enqueue `fn` on the foreground lane. With zero threads, runs inline.
  void Submit(std::function<void()> fn);

  // Enqueue `fn` on the background lane: it runs only when no foreground
  // work is queued. With zero threads it is deferred until DrainBackground().
  void SubmitBackground(std::function<void()> fn);

  // Run `body(begin, end)` over disjoint chunks covering [0, n), blocking
  // until all chunks finish. Chunk boundaries depend only on (n, grain), so
  // any per-index output is deterministic regardless of which thread runs
  // which chunk. The caller participates, so ParallelFor may be called from
  // inside pool tasks (including other ParallelFor bodies). `body` must not
  // throw.
  void ParallelFor(size_t n, size_t grain, const std::function<void(size_t, size_t)>& body);

  // Block until both lanes are empty and every worker is parked (tests and
  // shutdown barriers). Foreground submissions racing WaitIdle defer it.
  void WaitIdle();

  // Run queued background tasks on the caller until the lane is empty;
  // returns how many ran. This is how zero-thread pools (and tests wanting
  // deterministic scheduling) execute idle-time work.
  size_t DrainBackground();

  // Foreground tasks currently queued (not yet running); the background
  // gate. Approximate under concurrency.
  size_t ForegroundPending() const;

  // Observability counters (authoritative here; mirrored into the metrics
  // registry as pool.* via a per-pool source).
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  uint64_t tasks_submitted() const { return submitted_.load(std::memory_order_relaxed); }

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;  // back = newest
    mutable std::mutex mu;
  };

  void WorkerLoop(size_t index);
  // Pop one runnable task, honouring lane priority. Returns false when both
  // lanes are empty.
  bool TakeTask(size_t worker_index, std::function<void()>& out);
  bool TakeForeground(size_t preferred, std::function<void()>& out);
  bool TakeBackground(std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> worker_state_;
  std::vector<std::thread> workers_;

  std::mutex background_mu_;
  std::deque<std::function<void()>> background_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> foreground_pending_{0};
  std::atomic<size_t> active_{0};  // tasks currently executing
  std::atomic<size_t> next_worker_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> steals_{0};     // foreground tasks taken from another worker's deque
  std::atomic<uint64_t> submitted_{0};  // foreground tasks ever submitted
  uint64_t metrics_token_ = 0;          // this pool's registry source
};

}  // namespace omos

#endif  // OMOS_SRC_SUPPORT_THREAD_POOL_H_
