/**
 * @file
 * The experiment lab: a memoizing front end over the machine model
 * that provides every measurement the paper's evaluation needs —
 * solo IPCs, PMU profiles, Ruler characterizations, pair and
 * many-instance co-location degradations. The predictors train on
 * corpora built from these measurements (core/predictor.h).
 *
 * Measurements are cached in memory in one store keyed by kind, the
 * stream digest of each profile involved (workload::streamDigest: a
 * same-name copy with other parameters is another key) and shape, so
 * harnesses that revisit the same co-locations (e.g. a figure sweep)
 * derive each quantity once. Nothing here is persisted: every measurement is a pure
 * function of machine runs, and runs are memoized — and, with
 * sim::openReplayLog(), persisted across processes — by the
 * content-addressed replay store (sim/replay.h).
 *
 * The Lab is safe to call from many threads at once: the store is a
 * single-flight MemoCache (two threads never simulate the same key
 * twice) and the underlying sim::Machine builds all microarchitectural
 * state fresh inside each const run() call, so concurrent runs never
 * alias. The characterizeAll / measureAllPairs / soloIpcAll /
 * pmuProfileAll batch APIs fan the independent simulations of the
 * paper's protocol out across a thread pool (SMITE_THREADS or
 * setParallelism() controls the width) and assemble results in input
 * order, byte-identical to the serial loop.
 *
 * The Lab is also the pipeline's resilience boundary (see
 * docs/ROBUSTNESS.md). Real-machine measurement campaigns lose runs;
 * the fault layer (src/fault) simulates that, and the Lab absorbs it:
 * every measurement is retried with backoff on a transient
 * MeasurementError (SMITE_LAB_RETRIES attempts, default 3), can run
 * as a median-of-N multi-trial protocol with MAD outlier rejection
 * (SMITE_LAB_TRIALS, default 1), and the batch APIs degrade
 * gracefully — a measurement that fails past the retry budget is
 * marked invalid (or NaN) and logged to the IncidentLog instead of
 * aborting the run; the training corpus then drops the samples that
 * rest on it (core/predictor.h). With no faults armed none of this
 * changes a single output byte.
 */

#ifndef SMITE_CORE_EXPERIMENT_H
#define SMITE_CORE_EXPERIMENT_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/characterize.h"
#include "core/memo_cache.h"
#include "fault/fault.h"
#include "rulers/ruler.h"
#include "sim/machine.h"
#include "workload/profile.h"

namespace smite::core {

/**
 * Memoizing measurement front end for one machine configuration.
 */
class Lab
{
  public:
    /**
     * @param config machine to measure on
     * @param warmup cycles before counters accumulate
     * @param measure measurement interval in cycles
     */
    explicit Lab(const sim::MachineConfig &config,
                 sim::Cycle warmup = sim::kDefaultWarmupCycles,
                 sim::Cycle measure = sim::kDefaultMeasureCycles);

    // The store holds synchronization primitives and hands out
    // references into itself; the Lab stays where it was built.
    Lab(const Lab &) = delete;
    Lab &operator=(const Lab &) = delete;

    /** The machine under test. */
    const sim::Machine &machine() const { return machine_; }

    /**
     * Worker threads for the batch APIs: 0 (default) means the
     * SMITE_THREADS environment variable, else hardware concurrency.
     * 1 selects the serial path (no pool).
     */
    void setParallelism(int threads) { parallelism_ = threads; }

    /** The resolved batch-API worker count. */
    int parallelism() const;

    /**
     * Attempts per measurement before a transient MeasurementError
     * is surfaced: 0 (default) means the SMITE_LAB_RETRIES
     * environment variable as read when the Lab was constructed,
     * else 3. 1 disables retrying.
     */
    void setMaxAttempts(int attempts) { maxAttempts_ = attempts; }

    /** The resolved per-measurement attempt budget (at least 1). */
    int maxAttempts() const;

    /**
     * Independent trials per scalar measurement, aggregated with an
     * MAD-robust median: 0 (default) means the SMITE_LAB_TRIALS
     * environment variable as read when the Lab was constructed,
     * else 1 (single-shot, byte-identical to the historical
     * protocol).
     */
    void setTrials(int trials) { trials_ = trials; }

    /** The resolved trial count (at least 1). */
    int trials() const;

    /** Solo IPC (aggregate over @p threads instances, one per core). */
    double soloIpc(const workload::WorkloadProfile &profile,
                   int threads = 1);

    /** Solo counter block of a single-threaded run. */
    const sim::CounterBlock &
    soloCounters(const workload::WorkloadProfile &profile);

    /** The 11 PMU rates of soloCounters() (input to the PMU model). */
    PmuProfile pmuProfile(const workload::WorkloadProfile &profile);

    /**
     * Ruler characterization (cached; Equations 1-2): @p threads
     * application instances run next to as many instances of each
     * dimension's Ruler (sibling contexts for SMT, the next cores for
     * CMP), measured against soloIpc(profile, threads) and the
     * Ruler's solo baseline.
     *
     * @throws std::invalid_argument on a thread count the machine
     *         cannot place (CMP needs twice the cores)
     */
    const Characterization &
    characterization(const workload::WorkloadProfile &profile,
                     CoLocationMode mode, int threads = 1);

    /**
     * Measured degradation of @p victim co-located with
     * @p aggressor (Equation 7). Both directions of a pair are
     * measured in one run and stored as one entry. The run puts the
     * name-ordered workload in the first placement slot (on equal
     * names, the one with the smaller digest), so the measurement is
     * independent of which direction is asked first.
     */
    double pairDegradation(const workload::WorkloadProfile &victim,
                           const workload::WorkloadProfile &aggressor,
                           CoLocationMode mode);

    /**
     * Aggregated per-port utilization (sum over both co-located
     * contexts) of a co-location pair — the quantity of the paper's
     * Figures 3 and 5.
     */
    std::array<double, sim::kNumPorts>
    pairPortUtilization(const workload::WorkloadProfile &a,
                        const workload::WorkloadProfile &b,
                        CoLocationMode mode);

    /**
     * Measured aggregate degradation of a @p threads -thread
     * latency-sensitive application co-located with @p instances
     * instances of @p batch (the paper's CloudSuite protocol:
     * 6 threads + 1..6 batch instances for SMT, 3 + 1..3 for CMP).
     */
    double
    multiInstanceDegradation(const workload::WorkloadProfile &latency,
                             int threads,
                             const workload::WorkloadProfile &batch,
                             int instances, CoLocationMode mode);

    /**
     * Batch solo IPCs, fanned out across the pool; result i belongs
     * to profiles[i].
     */
    std::vector<double>
    soloIpcAll(const std::vector<workload::WorkloadProfile> &profiles,
               int threads = 1);

    /**
     * Batch characterization: warms the per-dimension Ruler baselines
     * in parallel, then characterizes every profile in parallel.
     * Result i belongs to profiles[i]; values are byte-identical to
     * calling characterization() serially.
     */
    std::vector<Characterization>
    characterizeAll(const std::vector<workload::WorkloadProfile> &profiles,
                    CoLocationMode mode, int threads = 1);

    /** Batch PMU profiles; result i belongs to profiles[i]. */
    std::vector<PmuProfile>
    pmuProfileAll(const std::vector<workload::WorkloadProfile> &profiles);

    /**
     * Measure every ordered co-location pair among @p profiles in
     * parallel (one simulation per unordered pair covers both
     * directions). result[i][j] is the degradation of profiles[i]
     * co-located with profiles[j]; the diagonal is 0.
     */
    std::vector<std::vector<double>>
    measureAllPairs(const std::vector<workload::WorkloadProfile> &profiles,
                    CoLocationMode mode);

    /**
     * Warm the multi-instance degradation cache for every
     * (latency app, batch app, 1..max_instances) tuple — the
     * measurement grid of the Figures 14-17 scale-out sweeps — in
     * parallel across the pool. Subsequent multiInstanceDegradation()
     * calls for these tuples are cache hits, so a serial assembly
     * loop after this produces values byte-identical to the
     * all-serial protocol. A tuple that fails past its retry budget
     * is skipped here (already logged) and re-fails deterministically
     * when asked for directly.
     */
    void multiInstancePrefetch(
        const std::vector<workload::WorkloadProfile> &latency,
        int threads,
        const std::vector<workload::WorkloadProfile> &batch,
        int max_instances, CoLocationMode mode);

    /**
     * Predicted degradation for the many-instance protocol: the
     * pairwise model prediction scaled by the fraction of app
     * threads that actually have a co-runner.
     */
    static double scaleToInstances(double pair_prediction, int instances,
                                   int threads);

    /** Per-kind counts of measurements actually computed. */
    struct Stats {
        std::uint64_t solo_ipc = 0;
        std::uint64_t solo_counters = 0;
        std::uint64_t characterizations = 0;
        std::uint64_t pairs = 0;
        std::uint64_t multi = 0;
        std::uint64_t ports = 0;
        std::uint64_t ruler_baselines = 0;

        /** Total store misses (computations performed). */
        std::uint64_t total() const
        {
            return solo_ipc + solo_counters + characterizations +
                   pairs + multi + ports + ruler_baselines;
        }
    };

    /** Computation counts since construction (thread-safe). */
    Stats stats() const;

  private:
    /** What a store entry measures. */
    enum class Kind : std::uint8_t {
        kSoloIpc,
        kSoloCounters,
        kCharacterization,
        kPair,
        kMulti,
        kPorts,
        kRulerBaseline,
        kCount,
    };

    /**
     * Store key: the kind plus everything the result depends on
     * beyond the Lab's machine and intervals. Unused words stay 0.
     */
    struct Key {
        Kind kind{};
        std::uint64_t a = 0;  ///< (first) profile digest, or Ruler index
        std::uint64_t b = 0;  ///< second profile digest
        CoLocationMode mode = CoLocationMode::kSmt;
        int threads = 0;
        int instances = 0;

        bool operator==(const Key &) const = default;
    };

    /** Hash of a Key (the digests are already well mixed). */
    struct KeyHash {
        std::size_t
        operator()(const Key &key) const noexcept
        {
            const std::uint64_t shape =
                (static_cast<std::uint64_t>(key.kind) << 56) ^
                (static_cast<std::uint64_t>(key.mode) << 48) ^
                (static_cast<std::uint64_t>(key.threads) << 24) ^
                static_cast<std::uint64_t>(key.instances);
            return static_cast<std::size_t>(
                key.a ^ (key.b * 0x9e3779b97f4a7c15ull) ^ shape);
        }
    };

    /**
     * Store value; the kind fixes the alternative: a double for solo
     * IPC, many-instance degradation and Ruler baselines, and a pair
     * of the canonical pair's (first, second) degradations.
     */
    using Value = std::variant<double, sim::CounterBlock,
                               Characterization,
                               std::pair<double, double>,
                               std::array<double, sim::kNumPorts>>;
    using Store = MemoCache<Key, Value, KeyHash>;

    /**
     * The store key of the pair (@p a, @p b) and whether the pair is
     * already in canonical order (see pairDegradation()).
     */
    static std::pair<Key, bool>
    pairKey(const workload::WorkloadProfile &a, std::uint64_t a_digest,
            const workload::WorkloadProfile &b, std::uint64_t b_digest,
            CoLocationMode mode);

    /**
     * Call @p measure(i) for every i < n. Only the indices whose
     * store entry @p key(i) is not ready yet fan out across the pool;
     * the rest are store hits and run on the caller afterwards, so a
     * batch of hits never wakes the pool. The misses go out as a held
     * batch (core::Wake::kHeld): its helpers wake only once a task
     * starts a live simulation, so misses the replay store serves run
     * on the caller too. Each index is measured exactly once either
     * way.
     */
    template <typename KeyFn, typename MeasureFn>
    void fanOut(std::size_t n, const KeyFn &key, const MeasureFn &measure);

    /** Look @p key up, computing a @p T with @p compute on a miss. */
    template <typename T, typename Fn>
    const T &
    lookup(const Key &key, Fn &&compute)
    {
        return std::get<T>(store_.getOrCompute(
            key, [&]() -> Value { return compute(); },
            counters_[static_cast<std::size_t>(key.kind)]));
    }

    // The measurements behind the public calls, for a caller that
    // already holds each profile's workload::streamDigest (seed 1).
    // The public calls and the batch APIs hash each profile once, on
    // entry, and pass its digest down; sources built for seed 1 take
    // it instead of hashing the profile again.

    double soloIpc(const workload::WorkloadProfile &profile,
                   std::uint64_t digest, int threads);

    const sim::CounterBlock &
    soloCounters(const workload::WorkloadProfile &profile,
                 std::uint64_t digest);

    const Characterization &
    characterization(const workload::WorkloadProfile &profile,
                     std::uint64_t digest, CoLocationMode mode,
                     int threads);

    double pairDegradation(const workload::WorkloadProfile &victim,
                           std::uint64_t victim_digest,
                           const workload::WorkloadProfile &aggressor,
                           std::uint64_t aggressor_digest,
                           CoLocationMode mode);

    double
    multiInstanceDegradation(const workload::WorkloadProfile &latency,
                             std::uint64_t latency_digest, int threads,
                             const workload::WorkloadProfile &batch,
                             std::uint64_t batch_digest, int instances,
                             CoLocationMode mode);

    /**
     * Aggregate IPC of @p threads instances of Ruler @p d running
     * alone in their co-location slots. Independent of the
     * application, so characterizeAll() warms every dimension in
     * parallel before fanning out applications.
     */
    double rulerBaseline(std::size_t d, CoLocationMode mode,
                         int threads);

    /**
     * Handle one failed measurement attempt: count a retry and back
     * off, or — once the attempt budget is spent — count a failure,
     * log an incident and rethrow the active MeasurementError. Must
     * be called from inside a catch handler.
     */
    void onMeasurementFailure(const std::string &key, const char *what,
                              int attempt, int max_attempts);

    /**
     * Run @p fn until it succeeds or the attempt budget is spent.
     * @p fn receives an attempt-qualified key ("<key>/aN") so keyed
     * fault decisions differ between attempts — a transient fault
     * stays transient.
     */
    template <typename Fn>
    auto
    withRetry(const std::string &key, Fn &&fn)
    {
        const int attempts = maxAttempts();
        for (int attempt = 1;; ++attempt) {
            try {
                return fn(key + "/a" + std::to_string(attempt));
            } catch (const fault::MeasurementError &err) {
                onMeasurementFailure(key, err.what(), attempt,
                                     attempts);
            }
        }
    }

    /**
     * The multi-trial measurement protocol: run @p fn trials() times
     * (each trial retried independently, keys "<key>/tT/aN") and
     * reduce component-wise with the MAD-robust median. One trial
     * short-circuits to plain retry, preserving byte-identical
     * single-shot behaviour.
     */
    std::vector<double> measureTrials(
        const std::string &key,
        const std::function<std::vector<double>(const std::string &)>
            &fn);

    sim::Machine machine_;
    std::vector<rulers::Ruler> suite_;  ///< one Ruler per dimension
    sim::Cycle warmup_;
    sim::Cycle measure_;
    int parallelism_ = 0;
    int maxAttempts_ = 0;
    int trials_ = 0;
    // SMITE_LAB_RETRIES and SMITE_LAB_TRIALS, read once on construction.
    int envAttempts_;
    int envTrials_;

    Store store_;
    /**
     * Per-kind traffic, published as `lab.cache.<kind>.*` (Ruler
     * baselines as `characterizer.cache.baseline.*`).
     */
    std::array<Store::Counters, static_cast<std::size_t>(Kind::kCount)>
        counters_;
};

} // namespace smite::core

#endif // SMITE_CORE_EXPERIMENT_H
