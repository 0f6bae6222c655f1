/**
 * @file
 * Minimal parallel-execution engine for the measurement Lab and the
 * sharded scheduler.
 *
 * Every measurement the paper's protocol needs — N workloads x 7
 * Ruler dimensions x {SMT, CMP}, plus O(N^2) ordered training pairs —
 * is an independent simulation with no cross-run state, so the Lab
 * fans them out across cores. The primitives here are deliberately
 * small: a ThreadPool whose workers self-schedule loop iterations off
 * a shared atomic cursor (work-stealing-friendly dynamic scheduling;
 * no per-thread static partition to go idle early), and a
 * parallelFor() convenience wrapper.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly
 * once for every i in [0, n), in unspecified order and concurrently.
 * Callers index results by i, so the *assembled* result of a parallel
 * batch is byte-identical to the serial loop — the simulations
 * themselves are pure functions of (config, seed).
 *
 * Reused pools: the free parallelFor() keeps one long-lived pool per
 * width, created on first use and joined at process exit, so a call
 * costs a batch handoff to parked workers, not thread creation. At
 * most `threads` threads (the caller included) run body at once.
 *
 * Inline rule: a call runs as a plain loop on the calling thread —
 * no pool, no waiting — when the width is 1, when n <= 1, when it is
 * nested inside a pool task, or when the width's pool is already
 * running another caller's batch. A call therefore never blocks on a
 * pool that might be waiting on it, so single-flight MemoCache waits
 * inside pool tasks cannot deadlock. `pool.inline_batches` counts
 * these calls; `pool.batches` counts the ones dispatched to a pool.
 *
 * Held batches (Wake::kHeld): the batch is published to the pool as
 * usual, but its helpers stay parked while the caller drains it
 * alone, until a task on the caller calls expectWork(). The Lab holds
 * its batches and sim::Machine calls expectWork() on entering a live
 * simulation, so a batch of memo hits — microseconds per task, slower
 * when several run at once — costs what the serial loop costs, and a
 * batch that simulates wakes its helpers as its first simulation
 * starts. Which thread runs which index never shows in the results.
 * `pool.unwoken_batches` counts held batches that finished without
 * waking a helper.
 *
 * The width defaults to the SMITE_THREADS environment variable when
 * set, else std::thread::hardware_concurrency().
 */

#ifndef SMITE_CORE_PARALLEL_H
#define SMITE_CORE_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace smite::core {

class ThreadPool;

/** How a pool batch wakes the helper threads that share it. */
enum class Wake {
    kEager,  ///< when the batch is published
    kHeld,   ///< when a task on the caller calls expectWork()
};

namespace detail {
/** The pool whose held, not yet woken batch this thread drains. */
inline thread_local ThreadPool *t_heldPool = nullptr;
} // namespace detail

/**
 * Hint that the calling task is about to do work long enough to repay
 * a thread wake-up: wakes the helpers of the held batch this thread
 * drains, if any; a no-op everywhere else. Header-only, so layers
 * below core (sim::Machine) can call it without linking the pool.
 */
inline void expectWork();

/**
 * Worker threads to use when the caller does not say: the
 * SMITE_THREADS environment variable if set to a positive integer,
 * else std::thread::hardware_concurrency(), and at least 1.
 */
int defaultThreadCount();

/**
 * A fixed-size pool executing one indexed loop at a time.
 *
 * The pool owns size()-1 worker threads, parked on a condition
 * variable between batches; the thread calling parallelFor()
 * participates as the size()-th worker, so a pool of size 1 owns no
 * threads at all and runs everything inline. Iterations are claimed
 * dynamically (one atomic fetch_add per iteration), so unequal
 * iteration costs balance automatically.
 */
class ThreadPool
{
  public:
    /** @param threads logical worker count; <= 0 means default. */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Logical worker count (including the calling thread). */
    int size() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Run body(i) for every i in [0, n), blocking until all
     * iterations finish. On the pool, the first exception thrown by
     * any iteration is rethrown here (remaining iterations still
     * run). A call made while the pool runs another batch, or from
     * inside any pool task, runs as a plain loop on the caller
     * instead; there the first exception propagates at once. With
     * @p wake = Wake::kHeld the helpers join only once a task on the
     * caller calls expectWork().
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     Wake wake = Wake::kEager);

  private:
    friend void expectWork();

    /** Release the held batch's helpers (see Wake::kHeld). */
    void wakeHelpers()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            held_ = false;
        }
        notifyHelpers();
    }

    /** Notify the open batch's helpers; only its caller calls this. */
    void notifyHelpers()
    {
        for (std::size_t k = 0; k < helpers_; ++k)
            work_cv_.notify_one();
    }

    void workerLoop();
    /** Claim and run iterations of one batch until none are left. */
    void drainBatch(const std::function<void(std::size_t)> &body,
                    std::size_t total);

    std::atomic<bool> busy_{false};     ///< a caller owns the pool
    std::mutex mu_;
    std::condition_variable work_cv_;   ///< workers wait for a batch
    std::condition_variable done_cv_;   ///< caller waits for drain
    // The open batch; written by its caller under mu_, snapshotted by
    // each worker under mu_ when it joins. nullptr = no batch open.
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t total_ = 0;
    std::size_t helpers_ = 0;           ///< workers the batch may use
    bool held_ = false;                 ///< helpers not woken yet
    std::atomic<std::size_t> next_{0};  ///< shared iteration cursor
    int active_ = 0;                    ///< workers inside the batch
    std::uint64_t epoch_ = 0;           ///< batch generation counter
    std::exception_ptr error_;
    bool stop_ = false;
    std::vector<std::thread> workers_;  ///< last: they use the above
};

/**
 * Parallel loop: run body(i) for i in [0, n) on at most @p threads
 * threads (<= 0 = defaultThreadCount()), on the process-wide pool of
 * that width. Same contract as ThreadPool::parallelFor; with one
 * thread or n <= 1 this is a plain loop on the calling thread.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 int threads = 0, Wake wake = Wake::kEager);

inline void
expectWork()
{
    if (ThreadPool *pool = std::exchange(detail::t_heldPool, nullptr))
        pool->wakeHelpers();
}

} // namespace smite::core

#endif // SMITE_CORE_PARALLEL_H
