// Persistent worker-thread pool. The harness's wave drive
// (harness/network_sim.hpp, threads >= 2) creates one per run and reuses it
// for every wave, so a wave costs one condition-variable wake instead of
// thread spawns.
//
// Determinism contract: run(n, fn) invokes fn(i) exactly once for every
// i < n and returns only after all calls finished (acquire/release on the
// internal counters orders all worker writes before the caller continues).
// Items are claimed from a shared atomic cursor, so WHICH thread runs an
// item — and in what wall-clock order — is scheduling-dependent; callers
// must keep fn(i)'s observable effects confined to item i's own slots
// (plus relaxed-atomic counters) for results to be thread-count invariant.
//
// threads <= 1 degrades to an inline sequential loop on the caller's thread
// (no threads are created), so a pool of one is byte-identical to no pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace accountnet::util {

class WorkerPool {
 public:
  /// Creates `threads` persistent workers (0 and 1 both mean "inline").
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Thread count the pool was built with (>= 1; 0 is normalized to 1).
  std::size_t threads() const { return threads_; }

  /// Runs fn(0..n-1) across the workers and the calling thread; blocks until
  /// every item completed. Not reentrant: fn must never call back into run()
  /// on the same pool (workers would deadlock waiting for themselves).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::uint64_t job_id_ = 0;  ///< bumps per run(); wakes workers exactly once
  std::size_t arrivals_ = 0;  ///< workers parked after draining this job
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> completed_{0};
  bool stop_ = false;
};

}  // namespace accountnet::util
