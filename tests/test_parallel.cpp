/**
 * @file
 * Tests for the parallel measurement engine: the ThreadPool /
 * parallelFor primitives, the determinism contract of the Lab batch
 * APIs (parallel == serial, byte for byte), the single-flight
 * guarantee of the memo caches, and the SMITE_THREADS=1 serial path.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/memo_cache.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

/** Scoped SMITE_THREADS override. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *old = std::getenv("SMITE_THREADS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            setenv("SMITE_THREADS", value, 1);
        else
            unsetenv("SMITE_THREADS");
    }
    ~ScopedThreadsEnv()
    {
        if (had_)
            setenv("SMITE_THREADS", old_.c_str(), 1);
        else
            unsetenv("SMITE_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

std::vector<workload::WorkloadProfile>
smallSet()
{
    return {workload::spec2006::byName("401.bzip2"),
            workload::spec2006::byName("429.mcf"),
            workload::spec2006::byName("453.povray"),
            workload::spec2006::byName("470.lbm")};
}

constexpr sim::Cycle kWarmup = 2'000;
constexpr sim::Cycle kMeasure = 8'000;

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(
        hits.size(),
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        4);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, AssembledResultsMatchSerial)
{
    std::vector<double> serial(100), parallel(100);
    const auto f = [](std::size_t i) {
        return static_cast<double>(i * i) * 0.25 + 1.0;
    };
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = f(i);
    parallelFor(
        parallel.size(),
        [&](std::size_t i) { parallel[i] = f(i); }, 8);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(
            16,
            [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, PoolIsReusableAcrossBatches)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(50, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 49 * 50 / 2);
    }
}

TEST(ParallelFor, ReusedPoolRunsUnequalBatchesExactlyOnce)
{
    // A worker that is late for a narrow batch must not claim an index
    // of the wide batch after it: that index would run twice and the
    // caller could wait forever for a completion count it overshot.
    // One spinning thread per core preempts the pool's threads at
    // arbitrary points, which is what opens that window.
    struct Hogs {
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        ~Hogs()
        {
            stop.store(true, std::memory_order_relaxed);
            for (std::thread &t : threads)
                t.join();
        }
    } hogs;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned h = 0; h < cores; ++h) {
        hogs.threads.emplace_back([&hogs] {
            while (!hogs.stop.load(std::memory_order_relaxed)) {
            }
        });
    }

    // Batches run back to back (no per-round bookkeeping in between,
    // which would close the window); the tally is checked at the end.
    constexpr int kRounds = 50'000;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    const std::function<void(std::size_t)> body = [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    };
    for (int round = 0; round < kRounds; ++round)
        pool.parallelFor(round % 2 == 0 ? 64 : 2, body);
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), i < 2 ? kRounds : kRounds / 2)
            << "index " << i;
    }
}

TEST(ParallelFor, SharedPoolUsableAfterThrowingBatch)
{
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(
            parallelFor(
                16,
                [](std::size_t i) {
                    if (i == 7)
                        throw std::runtime_error("boom");
                },
                4),
            std::runtime_error);
        std::vector<std::atomic<int>> hits(100);
        parallelFor(
            hits.size(),
            [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            },
            4);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, NestedAndConcurrentCallsFinishWithinWidth)
{
    constexpr int kWidth = 3;
    constexpr std::size_t kOuter = 24;
    constexpr std::size_t kInner = 16;

    // One call: kOuter tasks, each running a nested kInner-way loop.
    // Records every thread that ran any of its iterations.
    const auto call = [&](std::vector<std::atomic<int>> &hits,
                          std::set<std::thread::id> &ids) {
        std::mutex mu;
        parallelFor(
            kOuter,
            [&](std::size_t o) {
                parallelFor(
                    kInner,
                    [&](std::size_t i) {
                        hits[o * kInner + i].fetch_add(
                            1, std::memory_order_relaxed);
                        std::lock_guard<std::mutex> lock(mu);
                        ids.insert(std::this_thread::get_id());
                    },
                    kWidth);
            },
            kWidth);
    };

    constexpr int kCallers = 4;
    std::vector<std::vector<std::atomic<int>>> hits;
    for (int c = 0; c < kCallers; ++c)
        hits.emplace_back(kOuter * kInner);
    std::vector<std::set<std::thread::id>> ids(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back([&, c] { call(hits[c], ids[c]); });
    for (std::thread &t : callers)
        t.join();

    for (int c = 0; c < kCallers; ++c) {
        for (const auto &h : hits[c])
            EXPECT_EQ(h.load(), 1);
        EXPECT_LE(ids[c].size(), static_cast<std::size_t>(kWidth));
    }
}

/** Value of the registry counter @p name. */
std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

TEST(ParallelFor, HeldBatchWithoutHintRunsOnCallerAndWakesNoHelper)
{
    ThreadPool pool(4);
    const std::uint64_t unwoken = counterValue("pool.unwoken_batches");
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(64);
    pool.parallelFor(
        ran.size(),
        [&](std::size_t i) { ran[i] = std::this_thread::get_id(); },
        Wake::kHeld);
    for (const std::thread::id id : ran)
        EXPECT_EQ(id, caller);
    EXPECT_EQ(counterValue("pool.unwoken_batches"), unwoken + 1);

    // The pool is still usable, and an eager batch is never counted.
    std::atomic<int> sum{0};
    pool.parallelFor(50, [&](std::size_t i) {
        sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
    EXPECT_EQ(counterValue("pool.unwoken_batches"), unwoken + 1);
}

TEST(ParallelFor, HeldBatchWakesHelpersOnHint)
{
    ThreadPool pool(4);
    const std::uint64_t unwoken = counterValue("pool.unwoken_batches");
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::atomic<int> helped{0};
    bool woke = false;
    pool.parallelFor(
        16,
        [&](std::size_t i) {
            {
                std::lock_guard<std::mutex> lock(mu);
                ids.insert(std::this_thread::get_id());
            }
            if (std::this_thread::get_id() != caller) {
                helped.fetch_add(1);
                return;
            }
            if (i != 0)
                return;
            // Index 0 is the caller's first task: no helper can claim
            // an index before the hint. Wait (bounded) for a helper to
            // run one of the other 15.
            expectWork();
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (helped.load() == 0 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            woke = helped.load() > 0;
        },
        Wake::kHeld);
    EXPECT_TRUE(woke);
    EXPECT_GE(ids.size(), 2u);
    EXPECT_EQ(counterValue("pool.unwoken_batches"), unwoken);

    // The hint is a no-op outside a held batch.
    expectWork();
}

TEST(ParallelFor, HeldBatchRethrowsAndRunsNestedCallsInline)
{
    ThreadPool pool(4);
    for (const bool hint : {false, true}) {
        EXPECT_THROW(pool.parallelFor(
                         16,
                         [&](std::size_t i) {
                             if (hint)
                                 expectWork();
                             if (i == 7)
                                 throw std::runtime_error("boom");
                         },
                         Wake::kHeld),
                     std::runtime_error);

        // Each task's nested loop runs inline on the task's thread.
        std::vector<std::atomic<int>> hits(8 * 16);
        std::atomic<int> foreign{0};
        const std::uint64_t inline_before =
            counterValue("pool.inline_batches");
        pool.parallelFor(
            8,
            [&](std::size_t o) {
                if (hint)
                    expectWork();
                const std::thread::id outer = std::this_thread::get_id();
                parallelFor(
                    16,
                    [&](std::size_t i) {
                        hits[o * 16 + i].fetch_add(1);
                        if (std::this_thread::get_id() != outer)
                            foreign.fetch_add(1);
                    },
                    4, Wake::kHeld);
            },
            Wake::kHeld);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
        EXPECT_EQ(foreign.load(), 0);
        EXPECT_EQ(counterValue("pool.inline_batches") - inline_before,
                  8u);
    }
}

TEST(ParallelFor, SmiteThreadsOneDegradesToSerialPath)
{
    ScopedThreadsEnv env("1");
    EXPECT_EQ(defaultThreadCount(), 1);
    // With one thread every iteration runs inline on the caller, and
    // the call counts as an inline batch, not a pool batch.
    const obs::Counter &pooled =
        obs::Registry::global().counter("pool.batches");
    const obs::Counter &inlined =
        obs::Registry::global().counter("pool.inline_batches");
    const std::uint64_t pooled0 = pooled.value();
    const std::uint64_t inlined0 = inlined.value();
    const auto caller = std::this_thread::get_id();
    std::set<std::thread::id> ids;
    parallelFor(32, [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), caller);
    EXPECT_EQ(pooled.value(), pooled0);
    EXPECT_EQ(inlined.value(), inlined0 + 1);
}

TEST(ParallelFor, SmiteThreadsEnvOverridesWidth)
{
    ScopedThreadsEnv env("5");
    EXPECT_EQ(defaultThreadCount(), 5);
    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    EXPECT_EQ(lab.parallelism(), 5);
    lab.setParallelism(2);
    EXPECT_EQ(lab.parallelism(), 2);
}

TEST(StreamStore, ConcurrentReadersMatchSerialAndGenerateOnce)
{
    // 8 threads read overlapping prefixes of the same 4 streams, each
    // at its own lengths, batch size and stream order. Every thread
    // must see the serial stream, and the store must generate each
    // stream once: its longest prefix, rounded up to whole chunks.
    constexpr int kThreads = 8;
    constexpr int kChunk = workload::StreamStore::kChunkUops;
    const std::vector<workload::WorkloadProfile> profiles = smallSet();
    const int streams = static_cast<int>(profiles.size());
    const auto length = [&](int t, int s) {
        return (1 + (t + s) % 5) * kChunk / 2 + 13 * t;
    };

    std::vector<std::vector<sim::Uop>> serial(streams);
    std::uint64_t expected_uops = 0;
    for (int s = 0; s < streams; ++s) {
        int longest = 0;
        for (int t = 0; t < kThreads; ++t)
            longest = std::max(longest, length(t, s));
        workload::UopGenerator gen(profiles[s], 7);
        for (int i = 0; i < longest; ++i)
            serial[s].push_back(gen.next());
        expected_uops += (longest + kChunk - 1) / kChunk * kChunk;
    }

    obs::Counter &generated = obs::Registry::global().counter(
        "workload.stream.generated_uops");
    const std::uint64_t before = generated.value();
    workload::StreamStore store;
    std::atomic<int> ready{0};
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            const int batch = 16 + t;
            std::vector<sim::Uop> buf(batch);
            for (int k = 0; k < streams; ++k) {
                const int s = t % 2 ? (t + k) % streams
                                    : (streams - 1 - k + t) % streams;
                workload::ProfileUopSource src(profiles[s], 7, store);
                for (int i = 0; i < length(t, s); i += batch) {
                    src.nextBatch(buf.data(), batch);
                    for (int j = 0; j < batch && i + j < length(t, s);
                         ++j) {
                        const sim::Uop &a = buf[j];
                        const sim::Uop &b = serial[s][i + j];
                        if (a.type != b.type || a.srcDist1 != b.srcDist1 ||
                            a.srcDist2 != b.srcDist2 ||
                            a.mispredict != b.mispredict ||
                            a.addr != b.addr || a.pc != b.pc)
                            ++mismatches[t];
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(generated.value() - before, expected_uops);
}

TEST(StreamStore, DigestCollisionThrows)
{
    // A digest already held by another (profile, seed) is never
    // served: the store checks both, not just the key.
    workload::StreamStore store;
    const workload::WorkloadProfile &mcf =
        workload::spec2006::byName("429.mcf");
    const workload::WorkloadProfile &gcc =
        workload::spec2006::byName("403.gcc");
    const std::uint64_t key = workload::streamDigest(mcf, 1);
    store.open(key, mcf, 1);
    EXPECT_THROW(store.open(key, gcc, 1), std::logic_error);
    EXPECT_THROW(store.open(key, mcf, 2), std::logic_error);
    EXPECT_NO_THROW(store.open(key, mcf, 1));
}

TEST(MemoCache, SingleFlightUnderContention)
{
    MemoCache<int, int> cache;
    std::atomic<int> computed{0};
    std::vector<std::thread> threads;
    std::vector<int> results(8, -1);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] = cache.getOrCompute(42, [&] {
                computed.fetch_add(1);
                // Widen the race window so waiters really pile up.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return 1234;
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(cache.computeCount(), 1u);
    for (int r : results)
        EXPECT_EQ(r, 1234);
}

TEST(MemoCache, FailedComputeDoesNotPoisonKey)
{
    MemoCache<int, int> cache;
    int calls = 0;
    // First flight throws: the exception reaches the caller and the
    // key must NOT be cached as a permanent failure.
    EXPECT_THROW(cache.getOrCompute(7,
                                    [&]() -> int {
                                        ++calls;
                                        throw std::runtime_error(
                                            "transient");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.peek(7), nullptr);
    // A retry recomputes and succeeds.
    const int value = cache.getOrCompute(7, [&] {
        ++calls;
        return 99;
    });
    EXPECT_EQ(value, 99);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(cache.computeCount(), 2u);
    ASSERT_NE(cache.peek(7), nullptr);
    EXPECT_EQ(*cache.peek(7), 99);
}

TEST(MemoCache, WaitersObserveFlightExceptionAndKeyStaysRetryable)
{
    MemoCache<int, int> cache;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            try {
                cache.getOrCompute(1, [&]() -> int {
                    // Let the other threads join the flight as
                    // waiters before it fails.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("flight failed");
                });
            } catch (const std::runtime_error &) {
                failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Every thread — the computing one and all waiters on the same
    // flight — sees the failure. Some threads may have started fresh
    // flights after the first was erased, so at least one compute ran
    // and every thread failed.
    EXPECT_EQ(failures.load(), 8);
    EXPECT_GE(cache.computeCount(), 1u);
    EXPECT_EQ(cache.size(), 0u);
    // The key recovers on the next call.
    EXPECT_EQ(cache.getOrCompute(1, [] { return 5; }), 5);
}

/** The first key for each shard of a MemoCache<int, int>. */
std::vector<int>
keyPerShard()
{
    using Cache = MemoCache<int, int>;
    std::vector<int> keys(Cache::kShards, -1);
    std::size_t found = 0;
    for (int k = 0; found < Cache::kShards; ++k) {
        int &slot = keys[Cache::shardOf(k)];
        if (slot < 0) {
            slot = k;
            ++found;
        }
    }
    return keys;
}

TEST(MemoCache, KeysCoverEveryShardAndEachStaysInOne)
{
    using Cache = MemoCache<int, int>;
    const std::vector<int> keys = keyPerShard();
    ASSERT_EQ(keys.size(), Cache::kShards);
    std::set<std::size_t> shards;
    for (const int k : keys) {
        // The shard is a pure function of the key.
        EXPECT_EQ(Cache::shardOf(k), Cache::shardOf(k));
        shards.insert(Cache::shardOf(k));
    }
    EXPECT_EQ(shards.size(), Cache::kShards);

    // 4,096 consecutive keys spread over every shard, none starved.
    std::vector<int> per_shard(Cache::kShards, 0);
    for (int k = 0; k < 4096; ++k)
        ++per_shard[Cache::shardOf(k)];
    for (const int n : per_shard)
        EXPECT_GT(n, 4096 / static_cast<int>(Cache::kShards) / 2);
}

TEST(MemoCache, SizePeekAndPutSpanShards)
{
    MemoCache<int, int> cache;
    const std::vector<int> keys = keyPerShard();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 2 == 0)
            cache.put(keys[i], keys[i] * 10);
        else
            cache.getOrCompute(keys[i], [&] { return keys[i] * 10; });
    }
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_EQ(cache.computeCount(), keys.size() / 2);
    for (const int k : keys) {
        const int *value = cache.peek(k);
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(*value, k * 10);
    }
    // An existing entry wins over put(), whichever way it got in, and
    // a hit never recomputes.
    for (const int k : keys)
        cache.put(k, -1);
    for (const int k : keys) {
        EXPECT_EQ(*cache.peek(k), k * 10);
        EXPECT_EQ(cache.getOrCompute(k, [] { return -1; }), k * 10);
    }
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_EQ(cache.computeCount(), keys.size() / 2);
    EXPECT_EQ(cache.peek(-7), nullptr);
}

TEST(MemoCache, SingleFlightOnOneHotKeyPerShard)
{
    MemoCache<int, int> cache;
    const std::vector<int> keys = keyPerShard();
    std::vector<std::atomic<int>> computed(keys.size());
    std::vector<std::thread> threads;
    std::vector<std::vector<int>> seen(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the hot keys from its own offset, so
            // every shard sees racing first lookups.
            for (std::size_t n = 0; n < keys.size(); ++n) {
                const std::size_t i = (n + t) % keys.size();
                const int &value = cache.getOrCompute(keys[i], [&] {
                    computed[i].fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    return keys[i] + 1;
                });
                seen[t].push_back(value - keys[i]);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &c : computed)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(cache.computeCount(), keys.size());
    EXPECT_EQ(cache.size(), keys.size());
    for (const auto &values : seen) {
        ASSERT_EQ(values.size(), keys.size());
        for (const int v : values)
            EXPECT_EQ(v, 1);
    }
}

TEST(MemoCache, ThrowInOneShardLeavesOtherShardsServing)
{
    MemoCache<int, int> cache;
    const std::vector<int> keys = keyPerShard();
    const int failing = keys[0];
    std::atomic<bool> others_done{false};
    std::atomic<int> served{0};

    // The failing flight stays open until every other shard has been
    // served, so those lookups provably ran while it was in flight.
    std::thread flight([&] {
        EXPECT_THROW(cache.getOrCompute(failing,
                                        [&]() -> int {
                                            while (!others_done.load())
                                                std::this_thread::yield();
                                            throw std::runtime_error(
                                                "flight failed");
                                        }),
                     std::runtime_error);
    });
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < keys.size(); ++i) {
        others.emplace_back([&, i] {
            if (cache.getOrCompute(keys[i], [&] { return keys[i]; }) ==
                keys[i])
                served.fetch_add(1);
        });
    }
    for (auto &th : others)
        th.join();
    EXPECT_EQ(served.load(), static_cast<int>(keys.size()) - 1);
    others_done.store(true);
    flight.join();

    // The failure poisoned nothing: its key retries, the rest hit.
    EXPECT_EQ(cache.peek(failing), nullptr);
    EXPECT_EQ(cache.size(), keys.size() - 1);
    EXPECT_EQ(cache.getOrCompute(failing, [] { return 42; }), 42);
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_EQ(*cache.peek(keys[i]), keys[i]);
    EXPECT_EQ(cache.size(), keys.size());
}

TEST(Lab, CharacterizeAllMatchesSerialExactly)
{
    const auto profiles = smallSet();
    const auto mode = CoLocationMode::kSmt;

    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    parallel.setParallelism(4);

    const auto batch = parallel.characterizeAll(profiles, mode);
    ASSERT_EQ(batch.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Characterization &ref =
            serial.characterization(profiles[i], mode);
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            EXPECT_EQ(batch[i].sensitivity[d], ref.sensitivity[d]);
            EXPECT_EQ(batch[i].contentiousness[d],
                      ref.contentiousness[d]);
        }
    }
}

TEST(Lab, MeasureAllPairsMatchesSerialExactly)
{
    const auto profiles = smallSet();
    const auto mode = CoLocationMode::kSmt;

    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    parallel.setParallelism(4);

    const auto matrix = parallel.measureAllPairs(profiles, mode);
    ASSERT_EQ(matrix.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t j = 0; j < profiles.size(); ++j) {
            if (i == j) {
                EXPECT_EQ(matrix[i][j], 0.0);
                continue;
            }
            EXPECT_EQ(matrix[i][j],
                      serial.pairDegradation(profiles[i], profiles[j],
                                             mode));
        }
    }
    // One simulation per unordered pair, not per ordered pair.
    const std::size_t n = profiles.size();
    EXPECT_EQ(parallel.stats().pairs, n * (n - 1) / 2);
}

TEST(Lab, SinglePairCallsAfterMeasureAllPairsAreStoreHits)
{
    const auto profiles = smallSet();
    const auto mode = CoLocationMode::kSmt;
    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    lab.setParallelism(4);
    const auto matrix = lab.measureAllPairs(profiles, mode);

    obs::Registry &registry = obs::Registry::global();
    obs::Counter &misses = registry.counter("lab.cache.pair.misses");
    obs::Counter &hits = registry.counter("lab.cache.pair.hits");
    obs::Counter &batches = registry.counter("pool.batches");
    const std::uint64_t misses_before = misses.value();
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t batches_before = batches.value();
    const std::uint64_t computed_before = lab.stats().total();

    const std::size_t n = profiles.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i != j) {
                EXPECT_EQ(lab.pairDegradation(profiles[i], profiles[j],
                                              mode),
                          matrix[i][j]);
            }
        }
    }
    EXPECT_EQ(misses.value(), misses_before);
    EXPECT_EQ(hits.value() - hits_before, n * (n - 1));

    // A repeat batch is all store hits: same matrix, and it is served
    // on the caller without waking the pool.
    EXPECT_EQ(lab.measureAllPairs(profiles, mode), matrix);
    EXPECT_EQ(misses.value(), misses_before);
    EXPECT_EQ(batches.value(), batches_before);
    EXPECT_EQ(lab.stats().total(), computed_before);
}

TEST(Lab, SoloIpcAllMatchesSerialExactly)
{
    const auto profiles = smallSet();
    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    parallel.setParallelism(4);

    const auto batch = parallel.soloIpcAll(profiles);
    ASSERT_EQ(batch.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(batch[i], serial.soloIpc(profiles[i]));
}

TEST(Lab, ConcurrentCacheHitsSimulateOnce)
{
    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("429.mcf");

    std::vector<std::thread> threads;
    std::vector<double> results(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] =
                lab.pairDegradation(a, b, CoLocationMode::kSmt);
        });
    }
    for (auto &th : threads)
        th.join();

    for (double r : results)
        EXPECT_EQ(r, results[0]);
    // Single flight: one pair simulation and one solo per workload,
    // no matter how many threads raced on the same key.
    const Lab::Stats stats = lab.stats();
    EXPECT_EQ(stats.pairs, 1u);
    EXPECT_EQ(stats.solo_ipc, 2u);
}

TEST(Lab, ConcurrentCharacterizationsSimulateOnce)
{
    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const auto &a = workload::spec2006::byName("453.povray");

    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&] {
            lab.characterization(a, CoLocationMode::kSmt);
        });
    }
    for (auto &th : threads)
        th.join();

    const Lab::Stats stats = lab.stats();
    EXPECT_EQ(stats.characterizations, 1u);
    EXPECT_EQ(stats.ruler_baselines,
              static_cast<std::uint64_t>(rulers::kNumDimensions));
}

TEST(Lab, MixedKindsShareOneStoreAndSimulateOnce)
{
    // Characterizations and pairs over overlapping profiles hit one
    // store at once: nested solo lookups are shared between the two
    // kinds, and characterizations also nest Ruler baselines.
    const std::vector<workload::WorkloadProfile> profiles = {
        workload::spec2006::byName("401.bzip2"),
        workload::spec2006::byName("429.mcf"),
        workload::spec2006::byName("453.povray")};
    const auto mode = CoLocationMode::kSmt;
    const std::size_t n = profiles.size();

    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    std::vector<std::vector<Characterization>> chars(8);
    std::vector<std::vector<double>> pairs(8);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < n; ++k)
                chars[t].push_back(lab.characterization(
                    profiles[(k + t) % n], mode));
        });
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < n * n; ++k) {
                const std::size_t i = (k / n + t) % n;
                const std::size_t j = k % n;
                if (i != j)
                    pairs[t].push_back(lab.pairDegradation(
                        profiles[i], profiles[j], mode));
            }
        });
    }
    for (auto &th : threads)
        th.join();

    const Lab::Stats stats = lab.stats();
    EXPECT_EQ(stats.characterizations, n);
    EXPECT_EQ(stats.ruler_baselines,
              static_cast<std::uint64_t>(rulers::kNumDimensions));
    EXPECT_EQ(stats.solo_ipc, n);
    EXPECT_EQ(stats.pairs, n * (n - 1) / 2);
    EXPECT_EQ(stats.total(), n + rulers::kNumDimensions + n +
                                 n * (n - 1) / 2);

    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    for (int t = 0; t < 8; ++t) {
        for (std::size_t k = 0; k < n; ++k) {
            const Characterization &ref =
                serial.characterization(profiles[(k + t) % n], mode);
            EXPECT_EQ(chars[t][k].sensitivity, ref.sensitivity);
            EXPECT_EQ(chars[t][k].contentiousness, ref.contentiousness);
        }
        std::size_t got = 0;
        for (std::size_t k = 0; k < n * n; ++k) {
            const std::size_t i = (k / n + t) % n;
            const std::size_t j = k % n;
            if (i != j) {
                EXPECT_EQ(pairs[t][got++],
                          serial.pairDegradation(profiles[i],
                                                 profiles[j], mode));
            }
        }
    }
}

TEST(Lab, PairDirectionIndependentOfCallOrder)
{
    // The canonical (name-ordered) simulation makes both directions
    // of a pair identical regardless of which is asked first.
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("429.mcf");
    Lab forward(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    Lab backward(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);

    const double f_ab =
        forward.pairDegradation(a, b, CoLocationMode::kSmt);
    const double b_ba =
        backward.pairDegradation(b, a, CoLocationMode::kSmt);
    EXPECT_EQ(f_ab,
              backward.pairDegradation(a, b, CoLocationMode::kSmt));
    EXPECT_EQ(b_ba,
              forward.pairDegradation(b, a, CoLocationMode::kSmt));
}

/** Every characterization value and pair degradation, in order. */
std::vector<double>
campaignValues(Lab &lab)
{
    const auto profiles = smallSet();
    std::vector<double> out;
    for (const Characterization &c :
         lab.characterizeAll(profiles, CoLocationMode::kSmt)) {
        out.insert(out.end(), c.sensitivity.begin(), c.sensitivity.end());
        out.insert(out.end(), c.contentiousness.begin(),
                   c.contentiousness.end());
    }
    for (const auto &row : lab.measureAllPairs(profiles, CoLocationMode::kSmt))
        out.insert(out.end(), row.begin(), row.end());
    return out;
}

TEST(Lab, ReplayServedBatchesRunOnCallerAndWakeNoHelper)
{
    // Intervals no other test uses, so the first Lab's runs are live.
    constexpr sim::Cycle kOwnWarmup = 1'900;
    Lab cold(sim::MachineConfig::ivyBridge(), kOwnWarmup, kMeasure);
    cold.setParallelism(4);
    const std::vector<double> reference = campaignValues(cold);

    // A fresh Lab misses its own store on every entry, but every run
    // is a replay hit: each batch that reaches the pool stays on the
    // caller.
    const std::uint64_t batches = counterValue("pool.batches");
    const std::uint64_t unwoken = counterValue("pool.unwoken_batches");
    const std::uint64_t live = counterValue("machine.replay.misses");
    Lab warm(sim::MachineConfig::ivyBridge(), kOwnWarmup, kMeasure);
    warm.setParallelism(4);
    EXPECT_EQ(campaignValues(warm), reference);
    EXPECT_EQ(counterValue("machine.replay.misses"), live);
    EXPECT_GT(warm.stats().total(), 0u);
    EXPECT_GT(counterValue("pool.batches"), batches);
    EXPECT_EQ(counterValue("pool.unwoken_batches") - unwoken,
              counterValue("pool.batches") - batches);
}

TEST(Lab, ResultsMatchAcrossWidthsColdAndWarm)
{
    // Per interval pair (none used by another test): measured cold at
    // one width, then served from the replay store at widths 1 and 4.
    struct Case {
        sim::Cycle warmup;
        int cold_width;
    };
    for (const Case c : {Case{1'700, 4}, Case{1'800, 1}}) {
        const std::uint64_t batches = counterValue("pool.batches");
        const std::uint64_t unwoken = counterValue("pool.unwoken_batches");
        Lab cold(sim::MachineConfig::ivyBridge(), c.warmup, kMeasure);
        cold.setParallelism(c.cold_width);
        const std::vector<double> reference = campaignValues(cold);
        if (c.cold_width > 1) {
            // A cold batch wakes its helpers.
            EXPECT_LT(counterValue("pool.unwoken_batches") - unwoken,
                      counterValue("pool.batches") - batches);
        }
        for (const int width : {1, 4}) {
            Lab warm(sim::MachineConfig::ivyBridge(), c.warmup, kMeasure);
            warm.setParallelism(width);
            EXPECT_EQ(campaignValues(warm), reference)
                << "warmup " << c.warmup << ", width " << width;
        }
    }
}

} // namespace
} // namespace smite::core
