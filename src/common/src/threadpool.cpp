#include "xbarsec/common/threadpool.hpp"

#include <atomic>
#include <exception>
#include <memory>

#include "xbarsec/common/contracts.hpp"

namespace xbarsec {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }
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
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    XS_EXPECTS(task != nullptr);
    {
        std::lock_guard lock(mutex_);
        XS_EXPECTS_MSG(!stopping_, "submit() after destruction began");
        queue_.push(std::move(task));
    }
    cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();  // tasks are noexcept-wrapped by parallel_for; see below
    }
}

namespace {

/// Shared state of one parallel_for call. Held by shared_ptr so helper
/// tasks that only start after the call has returned (their queue slot was
/// behind other work) find valid — already exhausted — state instead of
/// dangling stack references.
struct ParallelForState {
    explicit ParallelForState(std::size_t n, const std::function<void(std::size_t)>& b)
        : count(n), body(&b) {}

    const std::size_t count;
    const std::function<void(std::size_t)>* body;  ///< only read while indices remain
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex mutex;
    std::condition_variable cv_done;

    /// Claims indices until they run out. Every index in [0, count) is
    /// claimed by somebody (the calling thread keeps looping until the
    /// range is exhausted), and every claimed index bumps `done` exactly
    /// once — executed or skipped-after-failure — so done == count is the
    /// call's completion condition, independent of any other work on the
    /// pool. That is what makes nested parallel_for deadlock-free: a
    /// worker blocked here waits only for iterations its own calling
    /// thread can finish, never for the pool to go globally idle.
    void drain() {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            if (!failed.load(std::memory_order_relaxed)) {
                try {
                    (*body)(i);
                } catch (...) {
                    std::lock_guard lock(mutex);
                    if (!first_error) first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
                std::lock_guard lock(mutex);
                cv_done.notify_all();
            }
        }
    }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    if (count == 1) {
        body(0);
        return;
    }

    auto state = std::make_shared<ParallelForState>(count, body);

    // One drain task per worker; the calling thread participates too, so a
    // pool of size 1 still gives two lanes of progress.
    const std::size_t tasks = std::min(pool.thread_count(), count);
    for (std::size_t t = 0; t < tasks; ++t) pool.submit([state] { state->drain(); });
    state->drain();

    std::unique_lock lock(state->mutex);
    state->cv_done.wait(lock,
                        [&] { return state->done.load(std::memory_order_acquire) == count; });
    if (state->first_error) std::rethrow_exception(state->first_error);
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
    static ThreadPool pool;  // sized to hardware once; benches share it
    parallel_for(pool, count, body);
}

}  // namespace xbarsec
