/**
 * @file
 * Thread-safe single-flight memoization cache for measurement
 * results.
 *
 * The Lab's measurements are expensive (whole-machine simulations)
 * and keyed by kind, profile digests and shape (core/experiment.h),
 * so when the batch APIs fan requests across a thread pool two
 * guarantees matter:
 *
 *  1. *thread safety* — concurrent lookups and inserts never race;
 *  2. *single flight* — when several threads miss on the same key at
 *     once, exactly one runs the compute function; the others block
 *     until the value is ready and then share it. Two threads never
 *     simulate the same key twice.
 *
 * The cache is split into kShards shards, chosen by a mix of the
 * key's hash. Each shard has its own mutex, condition variable and
 * hash map, so lookups of different keys rarely touch the same lock
 * (a memo-served campaign makes hundreds of lookups per pool batch).
 * Every guarantee holds per key, and a key lives in one shard only,
 * so sharding changes none of them.
 *
 * Slots are heap-allocated and shared, so the references handed out
 * stay valid for as long as any consumer holds them — the Lab's
 * reference-returning accessors keep their contract under
 * concurrency.
 *
 * Failure semantics (pinned by tests/test_parallel.cpp): if a compute
 * function throws, the exception propagates to the computing caller
 * *and* to every thread waiting on that in-flight key, but the key is
 * NOT poisoned — the failed slot is discarded, and a later call with
 * the same key runs the compute function again. Measurement failures
 * are transient under fault injection (see src/fault), so retrying
 * must be possible; only successful values are memoized.
 */

#ifndef SMITE_CORE_MEMO_CACHE_H
#define SMITE_CORE_MEMO_CACHE_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "fault/keyed_hash.h"
#include "obs/metrics.h"

namespace smite::core {

/**
 * Sharded hash map with single-flight computation.
 *
 * @tparam Key equality-comparable key type
 * @tparam Value default-constructible result type
 * @tparam Hash hash of a Key; it need not be well mixed (the shard
 *         index is taken from fault::mix64 of it)
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MemoCache
{
  public:
    /** Shards per cache (a power of two). */
    static constexpr std::size_t kShards = 16;

    /**
     * One set of traffic counters. `hits`, `misses` and `waits` are
     * the global Registry counters `<prefix>.hits` / `.misses` /
     * `.waits` (see docs/OBSERVABILITY.md): a *hit* found a ready
     * value, a *miss* elected the caller to compute, a *wait* blocked
     * on another thread's in-flight computation of the same key
     * (single-flight contention). `computes` counts compute
     * invocations for this set alone. A cache that holds several
     * kinds of result passes one set per kind to getOrCompute().
     */
    struct Counters {
        obs::Counter *hits = nullptr;  ///< null until instrument()
        obs::Counter *misses = nullptr;
        obs::Counter *waits = nullptr;
        std::atomic<std::uint64_t> computes{0};

        /** Bind to `<prefix>.*`; call once, before concurrent use. */
        void
        instrument(const std::string &prefix)
        {
            obs::Registry &registry = obs::Registry::global();
            hits = &registry.counter(prefix + ".hits");
            misses = &registry.counter(prefix + ".misses");
            waits = &registry.counter(prefix + ".waits");
        }
    };

    /** Publish the cache's own counter set under `<prefix>.*`. */
    void instrument(const std::string &prefix) { own_.instrument(prefix); }

    /** The shard that holds @p key. */
    static std::size_t
    shardOf(const Key &key)
    {
        return static_cast<std::size_t>(
                   fault::mix64(static_cast<std::uint64_t>(Hash{}(key)))) &
               (kShards - 1);
    }

    /** getOrCompute() against the cache's own counter set. */
    template <typename Fn>
    const Value &
    getOrCompute(const Key &key, Fn &&compute)
    {
        return getOrCompute(key, std::forward<Fn>(compute), own_);
    }

    /**
     * Return the cached value for @p key, computing it with
     * @p compute on a miss, and count the traffic in @p counters.
     * Concurrent callers of the same key block until the one elected
     * computer finishes (single-flight). If the computer throws, all
     * of them — computer and waiters — see the exception and the key
     * is left absent, so the next call retries. The returned
     * reference is stable for the cache's lifetime.
     */
    template <typename Fn>
    const Value &
    getOrCompute(const Key &key, Fn &&compute, Counters &counters)
    {
        Shard &shard = shards_[shardOf(key)];
        std::unique_lock<std::mutex> lock(shard.mu);
        const auto [it, inserted] = shard.slots.try_emplace(key);
        if (!inserted) {
            // A ready slot in the map holds a value: failed flights
            // leave the map under the lock that marks them ready.
            if (it->second->ready) {
                if (counters.hits)
                    counters.hits->add();
                return it->second->value;
            }
            // Someone else owns this key: wait it out. Keep the slot
            // alive independently of the map — a failed flight erases
            // its map entry before we wake.
            const std::shared_ptr<Slot> slot = it->second;
            if (counters.waits)
                counters.waits->add();
            shard.cv.wait(lock, [&] { return slot->ready; });
            if (slot->error)
                std::rethrow_exception(slot->error);
            return slot->value;
        }
        it->second = std::make_shared<Slot>();
        const std::shared_ptr<Slot> slot = it->second;
        if (counters.misses)
            counters.misses->add();
        // We own the computation; run it unlocked so other keys
        // proceed and nested lookups cannot deadlock.
        lock.unlock();
        counters.computes.fetch_add(1, std::memory_order_relaxed);
        Value value{};
        std::exception_ptr error;
        try {
            value = compute();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        slot->value = std::move(value);
        slot->error = error;
        slot->ready = true;
        if (error) {
            // Don't memoize the failure: waiters hold the slot and
            // rethrow; the next caller finds no entry and retries.
            shard.slots.erase(key);
        }
        shard.cv.notify_all();
        if (error)
            std::rethrow_exception(error);
        return slot->value;
    }

    /**
     * Insert a ready value if the key is absent (e.g. preloading from
     * the replay log). Existing entries — ready or in flight — win.
     */
    void
    put(const Key &key, Value value)
    {
        Shard &shard = shards_[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto [it, inserted] = shard.slots.try_emplace(key);
        if (!inserted)
            return;
        it->second = std::make_shared<Slot>();
        it->second->value = std::move(value);
        it->second->ready = true;
    }

    /** Ready value for @p key, or nullptr if absent or in flight. */
    const Value *
    peek(const Key &key) const
    {
        const Shard &shard = shards_[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto it = shard.slots.find(key);
        if (it == shard.slots.end() || !it->second->ready)
            return nullptr;
        if (own_.hits)
            own_.hits->add();
        return &it->second->value;
    }

    /**
     * Compute invocations (misses actually attempted) counted
     * against the cache's own counter set.
     */
    std::uint64_t
    computeCount() const
    {
        return own_.computes.load(std::memory_order_relaxed);
    }

    /** Number of entries (ready or in flight) across all shards. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            n += shard.slots.size();
        }
        return n;
    }

  private:
    struct Slot {
        Value value{};
        std::exception_ptr error;
        bool ready = false;
    };

    /** One lock domain; cache-line aligned so shards never share one. */
    struct alignas(64) Shard {
        mutable std::mutex mu;
        std::condition_variable cv;
        std::unordered_map<Key, std::shared_ptr<Slot>, Hash> slots;
    };

    std::array<Shard, kShards> shards_;
    Counters own_;
};

} // namespace smite::core

#endif // SMITE_CORE_MEMO_CACHE_H
