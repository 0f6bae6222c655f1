#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/parallel.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/summary.h"
#include "workload/generator.h"

namespace smite::core {

namespace {

/** Resolve a positive-integer knob from the environment. */
int
envInt(const char *name, int fallback)
{
    if (const char *env = std::getenv(name)) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n > 0)
            return static_cast<int>(n);
        std::fprintf(stderr, "smite: %s='%s' invalid, using %d\n",
                     name, env, fallback);
    }
    return fallback;
}

/** Aggregate IPC over counters[begin, end). */
double
aggregateIpc(const std::vector<sim::CounterBlock> &counters,
             std::size_t begin, std::size_t end)
{
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i)
        sum += counters[i].ipc();
    return sum;
}

/** workload::streamDigest (seed 1) of each profile, in order. */
std::vector<std::uint64_t>
digestsOf(const std::vector<workload::WorkloadProfile> &profiles)
{
    std::vector<std::uint64_t> digests;
    digests.reserve(profiles.size());
    for (const workload::WorkloadProfile &p : profiles)
        digests.push_back(workload::streamDigest(p));
    return digests;
}

/**
 * Placements of @p threads instances of @p profile (seeds
 * 1..threads) on context 0 of cores 0..threads-1; @p digest is the
 * profile's seed-1 stream digest. The sources are built into
 * @p sources, which must outlive the run.
 */
std::vector<sim::Placement>
placeApp(const workload::WorkloadProfile &profile, std::uint64_t digest,
         int threads, std::vector<workload::ProfileUopSource> &sources)
{
    sources.reserve(threads);  // placements point into it
    std::vector<sim::Placement> placements;
    for (int t = 0; t < threads; ++t) {
        if (t == 0)
            sources.emplace_back(profile, /*seed=*/1, digest);
        else
            sources.emplace_back(profile, /*seed=*/1 + t);
        placements.push_back(sim::Placement{t, 0, &sources.back()});
    }
    return placements;
}

/**
 * Slot of the @p k-th co-runner of a @p threads -thread application:
 * the sibling context of the app's core k (SMT) or the k-th core past
 * the app's (CMP).
 */
sim::Placement
coRunnerSlot(CoLocationMode mode, int threads, int k,
             sim::UopSource *source)
{
    return mode == CoLocationMode::kSmt
               ? sim::Placement{k, 1, source}
               : sim::Placement{threads + k, 0, source};
}

} // namespace

Lab::Lab(const sim::MachineConfig &config, sim::Cycle warmup,
         sim::Cycle measure)
    : machine_(config), suite_(rulers::defaultSuite(config)),
      warmup_(warmup), measure_(measure),
      envAttempts_(envInt("SMITE_LAB_RETRIES", 3)),
      envTrials_(envInt("SMITE_LAB_TRIALS", 1))
{
    // In Kind order.
    static constexpr const char *kMetric[] = {
        "lab.cache.solo_ipc", "lab.cache.solo_counters",
        "lab.cache.characterization", "lab.cache.pair", "lab.cache.multi",
        "lab.cache.ports", "characterizer.cache.baseline"};
    static_assert(std::size(kMetric) ==
                  static_cast<std::size_t>(Kind::kCount));
    for (std::size_t k = 0; k < counters_.size(); ++k)
        counters_[k].instrument(kMetric[k]);
}

template <typename KeyFn, typename MeasureFn>
void
Lab::fanOut(std::size_t n, const KeyFn &key, const MeasureFn &measure)
{
    std::vector<std::size_t> missing;
    std::vector<std::size_t> stored;
    for (std::size_t i = 0; i < n; ++i)
        (store_.peek(key(i)) ? stored : missing).push_back(i);
    parallelFor(
        missing.size(), [&](std::size_t k) { measure(missing[k]); },
        parallelism(), Wake::kHeld);
    for (const std::size_t i : stored)
        measure(i);
}

int
Lab::parallelism() const
{
    return parallelism_ > 0 ? parallelism_ : defaultThreadCount();
}

int
Lab::maxAttempts() const
{
    return maxAttempts_ > 0 ? maxAttempts_ : envAttempts_;
}

int
Lab::trials() const
{
    return trials_ > 0 ? trials_ : envTrials_;
}

void
Lab::onMeasurementFailure(const std::string &key, const char *what,
                          int attempt, int max_attempts)
{
    static obs::Counter &retries =
        obs::Registry::global().counter("lab.retries");
    static obs::Counter &failures =
        obs::Registry::global().counter("lab.failures");
    if (attempt >= max_attempts) {
        failures.add();
        obs::IncidentLog::global().record(
            "measurement '" + key + "' failed after " +
            std::to_string(attempt) + " attempts: " + what);
        throw;  // rethrow the MeasurementError being handled
    }
    retries.add();
    // Exponential backoff, capped: on a real cluster a failed run is
    // re-queued, not re-fired instantly. Unreachable without faults
    // armed, so plain runs never sleep.
    std::this_thread::sleep_for(
        std::chrono::microseconds(50ull << std::min(attempt - 1, 6)));
}

std::vector<double>
Lab::measureTrials(
    const std::string &key,
    const std::function<std::vector<double>(const std::string &)> &fn)
{
    const int n = trials();
    static obs::Counter &trial_count =
        obs::Registry::global().counter("lab.trials");
    trial_count.add(static_cast<std::uint64_t>(n));
    if (n <= 1)
        return withRetry(key, fn);
    std::vector<std::vector<double>> runs;
    runs.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        runs.push_back(withRetry(key + "/t" + std::to_string(t), fn));
    std::vector<double> out(runs.front().size());
    for (std::size_t c = 0; c < out.size(); ++c) {
        std::vector<double> samples;
        samples.reserve(runs.size());
        for (const auto &r : runs)
            samples.push_back(r[c]);
        out[c] = stats::robustMedian(samples);
    }
    return out;
}

double
Lab::soloIpc(const workload::WorkloadProfile &profile, int threads)
{
    return soloIpc(profile, workload::streamDigest(profile), threads);
}

double
Lab::soloIpc(const workload::WorkloadProfile &profile,
             std::uint64_t digest, int threads)
{
    if (threads < 1 || threads > machine_.config().numCores)
        throw std::invalid_argument("bad thread count");
    const Key store_key{Kind::kSoloIpc, digest, 0, {}, threads};
    return lookup<double>(store_key, [&] {
        const std::string key =
            profile.name + "#" + std::to_string(threads);
        obs::Span span("lab.solo_ipc", key);
        const std::vector<double> vals =
            measureTrials(key, [&](const std::string &tkey) {
                fault::maybeThrow("lab.measure", tkey);
                std::vector<workload::ProfileUopSource> sources;
                const auto counters =
                    machine_.run(placeApp(profile, digest, threads,
                                          sources),
                                 warmup_, measure_);
                return std::vector<double>{
                    aggregateIpc(counters, 0, counters.size())};
            });
        return vals[0];
    });
}

const sim::CounterBlock &
Lab::soloCounters(const workload::WorkloadProfile &profile)
{
    return soloCounters(profile, workload::streamDigest(profile));
}

const sim::CounterBlock &
Lab::soloCounters(const workload::WorkloadProfile &profile,
                  std::uint64_t digest)
{
    const Key store_key{Kind::kSoloCounters, digest};
    return lookup<sim::CounterBlock>(store_key, [&] {
        obs::Span span("lab.solo_counters", profile.name);
        return withRetry(profile.name, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            workload::ProfileUopSource source(profile, /*seed=*/1,
                                              digest);
            return machine_.runSolo(source, warmup_, measure_);
        });
    });
}

PmuProfile
Lab::pmuProfile(const workload::WorkloadProfile &profile)
{
    return soloCounters(profile).pmuRates();
}

double
Lab::rulerBaseline(std::size_t d, CoLocationMode mode, int threads)
{
    const Key store_key{Kind::kRulerBaseline, d, 0, mode, threads};
    return lookup<double>(store_key, [&] {
        const rulers::Ruler &ruler = suite_[d];
        obs::Span span("characterizer.baseline", ruler.name());
        std::vector<std::unique_ptr<sim::UopSource>> sources;
        std::vector<sim::Placement> placements;
        for (int t = 0; t < threads; ++t) {
            sources.push_back(ruler.makeSource());
            placements.push_back(
                coRunnerSlot(mode, threads, t, sources.back().get()));
        }
        const auto counters = machine_.run(placements, warmup_, measure_);
        return aggregateIpc(counters, 0, counters.size());
    });
}

const Characterization &
Lab::characterization(const workload::WorkloadProfile &profile,
                      CoLocationMode mode, int threads)
{
    return characterization(profile, workload::streamDigest(profile),
                            mode, threads);
}

const Characterization &
Lab::characterization(const workload::WorkloadProfile &profile,
                      std::uint64_t digest, CoLocationMode mode,
                      int threads)
{
    const int cores = machine_.config().numCores;
    if (threads < 1)
        throw std::invalid_argument("bad thread count");
    if (mode == CoLocationMode::kSmt && threads > cores)
        throw std::invalid_argument("too many threads for SMT mode");
    if (mode == CoLocationMode::kCmp && 2 * threads > cores)
        throw std::invalid_argument("too many threads for CMP mode");

    const Key store_key{Kind::kCharacterization, digest, 0, mode,
                        threads};
    return lookup<Characterization>(store_key, [&] {
        const std::string key = profile.name + "#" + modeName(mode) +
                                "#" + std::to_string(threads);
        obs::Span span("lab.characterize", key);
        // The solo reference has its own retry/trial protocol; hoist
        // it so a characterization failure never double-counts a
        // solo failure.
        const double app_solo = soloIpc(profile, digest, threads);
        return withRetry(key, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            obs::Span driver_span("characterizer.characterize",
                                  profile.name + "#" + modeName(mode));
            Characterization result;
            for (std::size_t d = 0; d < suite_.size(); ++d) {
                const rulers::Ruler &ruler = suite_[d];
                obs::Span dimension_span("characterizer.dimension",
                                         ruler.name());
                const double ruler_solo =
                    rulerBaseline(d, mode, threads);

                // Co-location: app threads + ruler instances in the
                // slots their baseline ran in.
                std::vector<workload::ProfileUopSource> app_sources;
                std::vector<sim::Placement> placements =
                    placeApp(profile, digest, threads, app_sources);
                std::vector<std::unique_ptr<sim::UopSource>> co_rulers;
                for (int t = 0; t < threads; ++t) {
                    co_rulers.push_back(ruler.makeSource());
                    placements.push_back(coRunnerSlot(
                        mode, threads, t, co_rulers.back().get()));
                }
                const auto counters =
                    machine_.run(placements, warmup_, measure_);
                const double app_co = aggregateIpc(counters, 0, threads);
                const double ruler_co =
                    aggregateIpc(counters, threads, counters.size());

                // Equations 1 and 2.
                result.sensitivity[d] =
                    app_solo > 0.0 ? (app_solo - app_co) / app_solo
                                   : 0.0;
                result.contentiousness[d] =
                    ruler_solo > 0.0
                        ? (ruler_solo - ruler_co) / ruler_solo
                        : 0.0;
            }
            return result;
        });
    });
}

double
Lab::pairDegradation(const workload::WorkloadProfile &victim,
                     const workload::WorkloadProfile &aggressor,
                     CoLocationMode mode)
{
    return pairDegradation(victim, workload::streamDigest(victim),
                           aggressor, workload::streamDigest(aggressor),
                           mode);
}

std::pair<Lab::Key, bool>
Lab::pairKey(const workload::WorkloadProfile &a, std::uint64_t a_digest,
             const workload::WorkloadProfile &b, std::uint64_t b_digest,
             CoLocationMode mode)
{
    // Store and simulate only the canonical direction: the
    // name-ordered workload (digest-ordered on a name tie) in the
    // first placement slot, so the run — and thus the measurement —
    // is the same whichever direction is asked first, serially or in
    // parallel.
    const bool ordered =
        std::tie(a.name, a_digest) <= std::tie(b.name, b_digest);
    return {Key{Kind::kPair, ordered ? a_digest : b_digest,
                ordered ? b_digest : a_digest, mode},
            ordered};
}

double
Lab::pairDegradation(const workload::WorkloadProfile &victim,
                     std::uint64_t victim_digest,
                     const workload::WorkloadProfile &aggressor,
                     std::uint64_t aggressor_digest, CoLocationMode mode)
{
    const auto [store_key, ordered] = pairKey(
        victim, victim_digest, aggressor, aggressor_digest, mode);
    const workload::WorkloadProfile &first =
        ordered ? victim : aggressor;
    const workload::WorkloadProfile &second =
        ordered ? aggressor : victim;
    const auto &degs = lookup<std::pair<double, double>>(store_key, [&] {
        const std::string canonical =
            first.name + "|" + second.name + "|" + modeName(mode);
        obs::Span span("lab.pair", canonical);
        // The solo references have their own retry/trial protocol;
        // hoist them so a pair-trial failure never double-counts a
        // solo failure.
        const double solo_a = soloIpc(first, store_key.a, 1);
        const double solo_b = soloIpc(second, store_key.b, 1);
        const std::vector<double> deg =
            measureTrials(canonical, [&](const std::string &tkey) {
                fault::maybeThrow("lab.measure", tkey);
                workload::ProfileUopSource a(first, /*seed=*/1,
                                             store_key.a);
                workload::ProfileUopSource b(second, /*seed=*/2);
                const auto counters =
                    mode == CoLocationMode::kSmt
                        ? machine_.runPairSmt(a, b, warmup_, measure_)
                        : machine_.runPairCmp(a, b, warmup_, measure_);
                const double deg_a =
                    solo_a > 0.0
                        ? (solo_a - counters[0].ipc()) / solo_a
                        : 0.0;
                const double deg_b =
                    solo_b > 0.0
                        ? (solo_b - counters[1].ipc()) / solo_b
                        : 0.0;
                return std::vector<double>{deg_a, deg_b};
            });
        return std::make_pair(deg[0], deg[1]);
    });
    return ordered ? degs.first : degs.second;
}

std::array<double, sim::kNumPorts>
Lab::pairPortUtilization(const workload::WorkloadProfile &a,
                         const workload::WorkloadProfile &b,
                         CoLocationMode mode)
{
    const Key store_key{Kind::kPorts, workload::streamDigest(a),
                        workload::streamDigest(b), mode};
    using Utilization = std::array<double, sim::kNumPorts>;
    return lookup<Utilization>(store_key, [&] {
        const std::string key =
            "ports|" + a.name + "|" + b.name + "|" + modeName(mode);
        obs::Span span("lab.ports", key);
        const std::vector<double> vals =
            measureTrials(key, [&](const std::string &tkey) {
                fault::maybeThrow("lab.measure", tkey);
                workload::ProfileUopSource sa(a, /*seed=*/1,
                                              store_key.a);
                workload::ProfileUopSource sb(b, /*seed=*/2);
                const auto counters =
                    mode == CoLocationMode::kSmt
                        ? machine_.runPairSmt(sa, sb, warmup_, measure_)
                        : machine_.runPairCmp(sa, sb, warmup_,
                                              measure_);
                std::vector<double> u(sim::kNumPorts);
                for (int p = 0; p < sim::kNumPorts; ++p) {
                    u[p] = counters[0].portUtilization(p) +
                           counters[1].portUtilization(p);
                }
                return u;
            });

        Utilization utilization{};
        std::copy(vals.begin(), vals.end(), utilization.begin());
        return utilization;
    });
}

double
Lab::multiInstanceDegradation(const workload::WorkloadProfile &latency,
                              int threads,
                              const workload::WorkloadProfile &batch,
                              int instances, CoLocationMode mode)
{
    return multiInstanceDegradation(
        latency, workload::streamDigest(latency), threads, batch,
        workload::streamDigest(batch), instances, mode);
}

double
Lab::multiInstanceDegradation(const workload::WorkloadProfile &latency,
                              std::uint64_t latency_digest, int threads,
                              const workload::WorkloadProfile &batch,
                              std::uint64_t batch_digest, int instances,
                              CoLocationMode mode)
{
    const int cores = machine_.config().numCores;
    if (threads < 1 || instances < 1 || instances > threads)
        throw std::invalid_argument("bad thread/instance counts");
    if (mode == CoLocationMode::kSmt && threads > cores)
        throw std::invalid_argument("too many threads for SMT");
    if (mode == CoLocationMode::kCmp && threads + instances > cores)
        throw std::invalid_argument("too many placements for CMP");

    const Key store_key{Kind::kMulti, latency_digest, batch_digest, mode,
                        threads, instances};
    return lookup<double>(store_key, [&] {
        const std::string key = latency.name + "#" + batch.name + "#" +
                                modeName(mode) + "#" +
                                std::to_string(threads) + "x" +
                                std::to_string(instances);
        obs::Span span("lab.multi", key);
        const double solo = soloIpc(latency, latency_digest, threads);
        const std::vector<double> vals =
            measureTrials(key, [&](const std::string &tkey) {
                fault::maybeThrow("lab.measure", tkey);
                // Latency app on context 0 of its cores; batch
                // instances in the co-runner slots.
                std::vector<workload::ProfileUopSource> app_sources;
                std::vector<sim::Placement> placements =
                    placeApp(latency, latency_digest, threads,
                             app_sources);
                std::vector<workload::ProfileUopSource> batch_sources;
                batch_sources.reserve(instances);
                for (int k = 0; k < instances; ++k)
                    batch_sources.emplace_back(batch, /*seed=*/100 + k);
                for (int k = 0; k < instances; ++k)
                    placements.push_back(coRunnerSlot(
                        mode, threads, k, &batch_sources[k]));

                const auto counters =
                    machine_.run(placements, warmup_, measure_);
                const double co_ipc = aggregateIpc(counters, 0, threads);
                return std::vector<double>{
                    solo > 0.0 ? (solo - co_ipc) / solo : 0.0};
            });
        return vals[0];
    });
}

std::vector<double>
Lab::soloIpcAll(const std::vector<workload::WorkloadProfile> &profiles,
                int threads)
{
    const std::vector<std::uint64_t> digests = digestsOf(profiles);
    std::vector<double> results(profiles.size());
    fanOut(
        profiles.size(),
        [&](std::size_t i) {
            return Key{Kind::kSoloIpc, digests[i], 0, {}, threads};
        },
        [&](std::size_t i) {
            try {
                results[i] = soloIpc(profiles[i], digests[i], threads);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged): NaN marks the
                // hole instead of sinking the whole batch.
                results[i] = std::nan("");
            }
        });
    return results;
}

std::vector<Characterization>
Lab::characterizeAll(const std::vector<workload::WorkloadProfile> &profiles,
                     CoLocationMode mode, int threads)
{
    // Warm the per-dimension Ruler baselines first; otherwise every
    // fanned-out characterization would single-flight-block on
    // dimension 0's baseline at once.
    fanOut(
        suite_.size(),
        [&](std::size_t d) {
            return Key{Kind::kRulerBaseline, d, 0, mode, threads};
        },
        [&](std::size_t d) { rulerBaseline(d, mode, threads); });
    const std::vector<std::uint64_t> digests = digestsOf(profiles);
    std::vector<Characterization> results(profiles.size());
    fanOut(
        profiles.size(),
        [&](std::size_t i) {
            return Key{Kind::kCharacterization, digests[i], 0, mode,
                       threads};
        },
        [&](std::size_t i) {
            try {
                results[i] = characterization(profiles[i], digests[i],
                                              mode, threads);
            } catch (const fault::MeasurementError &) {
                results[i].valid = false;
            }
        });
    return results;
}

std::vector<PmuProfile>
Lab::pmuProfileAll(const std::vector<workload::WorkloadProfile> &profiles)
{
    const std::vector<std::uint64_t> digests = digestsOf(profiles);
    std::vector<PmuProfile> results(profiles.size());
    fanOut(
        profiles.size(),
        [&](std::size_t i) { return Key{Kind::kSoloCounters, digests[i]}; },
        [&](std::size_t i) {
            try {
                results[i] =
                    soloCounters(profiles[i], digests[i]).pmuRates();
            } catch (const fault::MeasurementError &) {
                results[i].fill(std::nan(""));
            }
        });
    return results;
}

std::vector<std::vector<double>>
Lab::measureAllPairs(const std::vector<workload::WorkloadProfile> &profiles,
                     CoLocationMode mode)
{
    const std::size_t n = profiles.size();
    const std::vector<std::uint64_t> digests = digestsOf(profiles);

    // Solo IPCs enter every degradation; measure them first so pair
    // tasks don't serialize on the single-flight solo of a hot name.
    // A solo failure here resurfaces from the pair that needs it.
    fanOut(
        n,
        [&](std::size_t i) {
            return Key{Kind::kSoloIpc, digests[i], 0, {}, 1};
        },
        [&](std::size_t i) {
            try {
                soloIpc(profiles[i], digests[i], 1);
            } catch (const fault::MeasurementError &) {
            }
        });

    // One task per unordered pair covers both directions.
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    tasks.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j)
            tasks.emplace_back(i, j);
    }
    fanOut(
        tasks.size(),
        [&](std::size_t t) {
            const auto [i, j] = tasks[t];
            return pairKey(profiles[i], digests[i], profiles[j],
                           digests[j], mode)
                .first;
        },
        [&](std::size_t t) {
            const auto [i, j] = tasks[t];
            try {
                pairDegradation(profiles[i], digests[i], profiles[j],
                                digests[j], mode);
            } catch (const fault::MeasurementError &) {
                // The assembly pass below marks the hole.
            }
        });

    // Assemble in input order from the (now warm) cache; a pair that
    // failed past its retry budget re-fails deterministically here
    // and lands as NaN.
    std::vector<std::vector<double>> result(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) {
                result[i][j] = 0.0;
                continue;
            }
            try {
                result[i][j] = pairDegradation(profiles[i], digests[i],
                                               profiles[j], digests[j],
                                               mode);
            } catch (const fault::MeasurementError &) {
                result[i][j] = std::nan("");
            }
        }
    }
    return result;
}

void
Lab::multiInstancePrefetch(
    const std::vector<workload::WorkloadProfile> &latency, int threads,
    const std::vector<workload::WorkloadProfile> &batch,
    int max_instances, CoLocationMode mode)
{
    const std::vector<std::uint64_t> latency_digests = digestsOf(latency);
    const std::vector<std::uint64_t> batch_digests = digestsOf(batch);

    // Every tuple of one latency app divides by the same solo IPC;
    // measure those first so the fanned-out tuples don't serialize on
    // the single-flight solo entry. A failure resurfaces from the
    // tuple that needs it.
    fanOut(
        latency.size(),
        [&](std::size_t l) {
            return Key{Kind::kSoloIpc, latency_digests[l], 0, {}, threads};
        },
        [&](std::size_t l) {
            try {
                soloIpc(latency[l], latency_digests[l], threads);
            } catch (const fault::MeasurementError &) {
            }
        });

    struct Tuple {
        std::size_t l;
        std::size_t b;
        int k;
    };
    std::vector<Tuple> tuples;
    tuples.reserve(latency.size() * batch.size() *
                   static_cast<std::size_t>(max_instances));
    for (std::size_t l = 0; l < latency.size(); ++l) {
        for (std::size_t b = 0; b < batch.size(); ++b) {
            for (int k = 1; k <= max_instances; ++k)
                tuples.push_back(Tuple{l, b, k});
        }
    }
    fanOut(
        tuples.size(),
        [&](std::size_t t) {
            const Tuple &tuple = tuples[t];
            return Key{Kind::kMulti,
                       latency_digests[tuple.l],
                       batch_digests[tuple.b],
                       mode,
                       threads,
                       tuple.k};
        },
        [&](std::size_t t) {
            const Tuple &tuple = tuples[t];
            try {
                multiInstanceDegradation(
                    latency[tuple.l], latency_digests[tuple.l], threads,
                    batch[tuple.b], batch_digests[tuple.b], tuple.k,
                    mode);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged); the caller's
                // assembly loop sees the deterministic re-failure.
            }
        });
}

double
Lab::scaleToInstances(double pair_prediction, int instances, int threads)
{
    if (threads <= 0)
        throw std::invalid_argument("threads must be positive");
    return pair_prediction * static_cast<double>(instances) /
           static_cast<double>(threads);
}

Lab::Stats
Lab::stats() const
{
    const auto computes = [&](Kind kind) -> std::uint64_t {
        return counters_[static_cast<std::size_t>(kind)].computes.load(
            std::memory_order_relaxed);
    };
    Stats s;
    s.solo_ipc = computes(Kind::kSoloIpc);
    s.solo_counters = computes(Kind::kSoloCounters);
    s.characterizations = computes(Kind::kCharacterization);
    s.pairs = computes(Kind::kPair);
    s.multi = computes(Kind::kMulti);
    s.ports = computes(Kind::kPorts);
    s.ruler_baselines = computes(Kind::kRulerBaseline);
    return s;
}

} // namespace smite::core
