// Fixed-size thread pool and a deterministic parallel_for.
//
// Benches parallelise over independent experiment runs (seeds), so the
// parallel_for contract is: the body is invoked exactly once per index,
// indices are distributed dynamically, and exceptions from the body are
// captured and rethrown on the calling thread (first one wins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace xbarsec {

/// A fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
public:
    /// Spawns `threads` workers (defaults to hardware_concurrency, min 1).
    explicit ThreadPool(std::size_t threads = 0);

    /// Drains the queue and joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a task for execution. Never blocks.
    void submit(std::function<void()> task);

    std::size_t thread_count() const { return workers_.size(); }

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    bool stopping_ = false;
};

/// Runs body(i) for every i in [0, count) using `pool`'s workers plus the
/// calling thread. Blocks until all iterations are done. If any invocation
/// throws, the first exception is rethrown after all iterations complete
/// or are abandoned.
///
/// Nesting-safe: completion is tracked per call (not via pool-wide
/// idleness), and the calling thread participates, so a parallel_for
/// issued from inside another parallel_for's body — e.g. a pooled GEMM
/// inside a pooled fig5 run — always makes progress and never deadlocks;
/// it merely degrades toward serial when all workers are busy.
void parallel_for(ThreadPool& pool, std::size_t count, const std::function<void(std::size_t)>& body);

/// Convenience overload: runs on an internal pool sized to the hardware.
/// Suitable for benches; library code should accept a ThreadPool&.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

}  // namespace xbarsec
