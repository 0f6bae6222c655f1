#include "core/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smite::core {

namespace {

/**
 * Pool metrics (docs/OBSERVABILITY.md): batches dispatched to a pool
 * and calls served inline on the caller, held batches that never woke
 * a helper, tasks executed, the width of the last dispatched batch,
 * and — only while SMITE_METRICS is on,
 * because it costs two clock reads per task — a task-latency
 * histogram in microseconds.
 */
struct PoolMetrics {
    obs::Counter &batches =
        obs::Registry::global().counter("pool.batches");
    obs::Counter &inline_batches =
        obs::Registry::global().counter("pool.inline_batches");
    obs::Counter &unwoken_batches =
        obs::Registry::global().counter("pool.unwoken_batches");
    obs::Counter &tasks = obs::Registry::global().counter("pool.tasks");
    obs::Gauge &width = obs::Registry::global().gauge("pool.width");
    obs::Histogram &task_us =
        obs::Registry::global().histogram("pool.task_us");

    static PoolMetrics &
    get()
    {
        static PoolMetrics metrics;
        return metrics;
    }
};

/**
 * True while this thread runs a pool task: always on a worker, and on
 * a caller while it drains its own batch. A parallelFor issued here
 * runs inline instead of waiting on a pool.
 */
thread_local bool t_inPoolTask = false;

/**
 * `pool.delay` fault site: stall this task for the site's configured
 * microseconds, emulating a loaded machine where some workers lag.
 * Purely a scheduling perturbation — results must not change, which
 * is exactly what the determinism tests lean on.
 */
void
maybeDelayTask(std::size_t i)
{
    fault::FaultPlan &faults = fault::FaultPlan::global();
    if (!faults.enabled())
        return;
    if (!faults.shouldInject("pool.delay", std::to_string(i)))
        return;
    const double us = faults.spec("pool.delay").micros;
    if (us > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::micro>(us));
    }
}

/** Run one iteration, timing it into the histogram when enabled. */
void
runTimed(const std::function<void(std::size_t)> &body, std::size_t i)
{
    maybeDelayTask(i);
    if (!obs::metricsEnabled()) {
        body(i);
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(i);
    const auto t1 = std::chrono::steady_clock::now();
    PoolMetrics::get().task_us.observe(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
}

/**
 * A parallelFor served on the calling thread: a plain loop whose
 * iterations, like a pool's, pass the `pool.delay` fault site and
 * feed `pool.task_us`.
 */
void
runInline(std::size_t n, const std::function<void(std::size_t)> &body)
{
    PoolMetrics::get().inline_batches.add();
    for (std::size_t i = 0; i < n; ++i)
        runTimed(body, i);
}

/**
 * The process-wide pool of width @p threads (> 1), created on first
 * use. The map's destructor joins every pool's workers at exit.
 */
ThreadPool &
sharedPool(int threads)
{
    static std::mutex mu;
    static std::map<int, std::unique_ptr<ThreadPool>> pools;
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<ThreadPool> &pool = pools[threads];
    if (!pool)
        pool = std::make_unique<ThreadPool>(threads);
    return *pool;
}

} // namespace

int
defaultThreadCount()
{
    if (const char *env = std::getenv("SMITE_THREADS")) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n > 0)
            return static_cast<int>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    workers_.reserve(threads - 1);
    for (int t = 0; t < threads - 1; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::drainBatch(const std::function<void(std::size_t)> &body,
                       std::size_t total)
{
    for (;;) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= total)
            return;
        try {
            runTimed(body, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    t_inPoolTask = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // Join only an open, unheld batch this worker has not served
        // yet. A worker that wakes after its batch closed keeps
        // sleeping, so it can never claim an index against a stale
        // cursor; one that wakes spuriously during a held batch does
        // too, so a held batch runs on the caller until the hint.
        work_cv_.wait(lock, [&] {
            return stop_ ||
                   (body_ != nullptr && !held_ && epoch_ != seen);
        });
        if (stop_)
            return;
        seen = epoch_;
        const std::function<void(std::size_t)> &body = *body_;
        const std::size_t total = total_;
        ++active_;
        lock.unlock();
        drainBatch(body, total);
        lock.lock();
        // The last worker out wakes the caller.
        if (--active_ == 0)
            done_cv_.notify_one();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        Wake wake)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1 || t_inPoolTask ||
        busy_.exchange(true, std::memory_order_acquire)) {
        runInline(n, body);
        return;
    }
    struct Release {
        std::atomic<bool> &busy;
        ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    PoolMetrics &metrics = PoolMetrics::get();
    metrics.batches.add();
    metrics.tasks.add(n);
    metrics.width.set(size());
    obs::Span span("pool.batch",
                   obs::TraceSession::global().enabled()
                       ? std::to_string(n) + " tasks x " +
                             std::to_string(size()) + " workers"
                       : std::string());
    {
        std::lock_guard<std::mutex> lock(mu_);
        body_ = &body;
        total_ = n;
        // Wake only as many workers as there are iterations beyond
        // the caller's own; the rest stay parked.
        helpers_ = std::min(n - 1, workers_.size());
        held_ = wake == Wake::kHeld;
        next_.store(0, std::memory_order_relaxed);
        ++epoch_;
    }
    if (wake == Wake::kHeld)
        detail::t_heldPool = this;
    else
        notifyHelpers();
    // The caller is a worker too (drainBatch never throws).
    t_inPoolTask = true;
    drainBatch(body, n);
    t_inPoolTask = false;
    detail::t_heldPool = nullptr;
    // Every index is claimed once the caller's drain returns, and only
    // joined workers run claimed indices, so the batch is complete
    // when none is left inside it. Closing it under the same lock
    // keeps any later waker out.
    std::exception_ptr error;
    bool unwoken = false;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] { return active_ == 0; });
        body_ = nullptr;
        unwoken = std::exchange(held_, false);
        error = std::exchange(error_, nullptr);
    }
    if (unwoken)
        metrics.unwoken_batches.add();
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            int threads, Wake wake)
{
    if (n == 0)
        return;
    if (threads <= 0)
        threads = defaultThreadCount();
    if (threads == 1 || n == 1) {
        runInline(n, body);
        return;
    }
    sharedPool(threads).parallelFor(n, body, wake);
}

} // namespace smite::core
