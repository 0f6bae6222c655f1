// Cluster::runEpochs: the paper-scale decision-epoch loop (steps in
// the cluster.h file header).

#include "scheduler/cluster.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/keyed.h"

namespace smite::scheduler {

OnlineResult
Cluster::runEpochs(double qos_target, const OnlineConfig &config,
                   const std::string &name) const
{
    if (config.epochs < 1)
        throw std::invalid_argument("epochs must be positive");
    if (config.headroom < 0.0)
        throw std::invalid_argument("headroom must be non-negative");
    if (config.spreadTolerance < 0.0)
        throw std::invalid_argument(
            "spreadTolerance must be non-negative");
    const LoadAwareConfig &la = config.loadAware;
    const bool load_aware = !la.kneeByPairing.empty();
    if (load_aware) {
        if (la.baseQps <= 0.0)
            throw std::invalid_argument(
                "load-aware admission needs a positive baseQps");
        if (la.spikeFactor < 1.0)
            throw std::invalid_argument("spikeFactor must be >= 1");
        if (la.kneeByPairing.size() != pairings_.size())
            throw std::invalid_argument(
                "knee table must cover every pairing");
        for (const auto &row : la.kneeByPairing) {
            if (row.size() != static_cast<std::size_t>(maxInstances_) + 1)
                throw std::invalid_argument(
                    "knee table rows must span depths 0..maxInstances");
        }
    }
    const std::size_t probe_budget = static_cast<std::size_t>(
        config.probeBudget > 0 ? config.probeBudget
                               : std::max(1, servers() / 4));
    const bool observing = config.policy != EpochPolicy::kStatic;
    const bool fairness = config.policy == EpochPolicy::kFairness;

    obs::Span span("scheduler.policy", name);

    obs::Registry &registry = obs::Registry::global();
    obs::Counter &epochs_run =
        registry.counter("scheduler.online.epochs");
    obs::Counter &observations =
        registry.counter("scheduler.online.observations");
    obs::Counter &observed_violations =
        registry.counter("scheduler.online.observed_violations");
    obs::Counter &qos_evictions =
        registry.counter("scheduler.online.qos_evictions");
    obs::Counter &probes = registry.counter("scheduler.online.probes");
    obs::Gauge &util_gauge =
        registry.gauge("scheduler.online.utilization");
    obs::Counter &failures =
        registry.counter("scheduler.server_failures");
    obs::Counter &fail_evictions =
        registry.counter("scheduler.evictions");
    obs::Counter &replacements =
        registry.counter("scheduler.replacements");
    obs::Counter &lost = registry.counter("scheduler.lost_instances");
    obs::Counter &recoveries = registry.counter("scheduler.recoveries");

    fault::FaultPlan &faults = fault::FaultPlan::global();
    const bool observe_noise =
        faults.enabled() && faults.armed("scheduler.observe");

    const std::size_t n = assignment_.size();
    const int max_instances = maxInstances_;

    // Load-aware and fairness metrics are registered only when their
    // feature is on, so other runs leave the registry — and the report
    // baselines diffed in tier-1 — untouched.
    obs::Counter *load_spikes_ctr = nullptr;
    obs::Counter *fillers_shed_ctr = nullptr;
    obs::Counter *load_violations_ctr = nullptr;
    obs::Gauge *filler_gauge = nullptr;
    if (load_aware) {
        load_spikes_ctr =
            &registry.counter("scheduler.online.load_spikes");
        fillers_shed_ctr =
            &registry.counter("scheduler.online.fillers_shed");
        load_violations_ctr =
            &registry.counter("scheduler.online.load_violations");
        filler_gauge =
            &registry.gauge("scheduler.online.filler_instances");
    }
    const bool spike_site =
        load_aware && faults.enabled() &&
        faults.armed("des.arrival_burst");

    obs::Counter *fairness_evictions_ctr = nullptr;
    obs::Gauge *max_slowdown_gauge = nullptr;
    obs::Gauge *spread_gauge = nullptr;
    if (fairness) {
        fairness_evictions_ctr =
            &registry.counter("scheduler.online.fairness_evictions");
        max_slowdown_gauge =
            &registry.gauge("scheduler.online.max_slowdown");
        spread_gauge =
            &registry.gauge("scheduler.online.slowdown_spread");
    }

    // Knee of server s at co-location depth d (d = 0 is solo).
    auto kneeAt = [&](std::size_t s, int depth) {
        return la.kneeByPairing[static_cast<std::size_t>(
            assignment_[s].pairing)][static_cast<std::size_t>(depth)];
    };
    auto predicted = [&](std::size_t s) {
        return instancesMeeting(s, qos_target,
                                &CoLocationOption::predictedQos);
    };
    // Guaranteed admission never exceeds the deepest co-location
    // whose measured knee still clears the *design* load.
    std::vector<int> load_cap(n, max_instances);
    if (load_aware) {
        for (std::size_t s = 0; s < n; ++s) {
            int d = 0;
            while (d < max_instances &&
                   kneeAt(s, d + 1) >= la.baseQps)
                ++d;
            load_cap[s] = d;
        }
    }

    // Start from the predicted placement; everything after is
    // reaction to churn and observations.
    std::vector<int> instances(n, 0);
    for (std::size_t s = 0; s < n; ++s)
        instances[s] = std::min(predicted(s), load_cap[s]);

    // What the loop has learned: the largest instance count each
    // server has not been observed violating at. Caps only shrink, so
    // the placement converges instead of oscillating around the
    // oracle's count.
    std::vector<int> cap(n, max_instances);
    // Last observation, used to let churn re-placement target servers
    // the model under-rates but observation cleared for one more:
    // valid only while the server still runs the observed count.
    std::vector<double> observed_slack(n, 0.0);
    std::vector<int> observed_at(n, -1);

    std::vector<bool> down(n, false);
    // Best-effort filler instances on the idle contexts (load-aware
    // only): first shed, never guaranteed-protected.
    std::vector<int> fillers(n, 0);
    OnlineResult result;
    result.timeline.reserve(static_cast<std::size_t>(config.epochs));

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        EpochStats stats;
        stats.epoch = epoch;
        epochs_run.add();

        // 1. Recovery: downed servers rejoin and are re-filled with
        // the predicted placement, bounded by the learned cap.
        for (std::size_t s = 0; s < n; ++s) {
            if (!down[s])
                continue;
            down[s] = false;
            instances[s] = std::min({predicted(s), cap[s], load_cap[s]});
            observed_at[s] = -1;
            recoveries.add();
            ++stats.recoveries;
        }

        // 2. Failures, keyed per (epoch, server): a pure function of
        // the armed seed, identical under every policy.
        std::vector<int> evicted_batches;
        for (std::size_t s = 0; s < n; ++s) {
            if (!faults.enabled() ||
                !faults.shouldInject("server.fail",
                                     epochServerKey(epoch, s)))
                continue;
            down[s] = true;
            failures.add();
            ++stats.failures;
            if (instances[s] > 0) {
                fail_evictions.add(
                    static_cast<std::uint64_t>(instances[s]));
                stats.failureEvictions += instances[s];
                evicted_batches.push_back(instances[s]);
            }
            instances[s] = 0;
            fillers[s] = 0;
            observed_at[s] = -1;
        }

        // 3. Policy-aware re-placement of the evicted instances:
        // survivors below their learned cap that either the model
        // admits at k+1 or the last observation cleared with probe
        // headroom at the current count. Round robin from the front,
        // deterministic; the remainder is lost capacity.
        for (const int batch : evicted_batches) {
            for (int inst = 0; inst < batch; ++inst) {
                bool placed = false;
                for (std::size_t s = 0; s < n; ++s) {
                    if (down[s] || instances[s] >= cap[s] ||
                        instances[s] >= load_cap[s] ||
                        instances[s] >= max_instances)
                        continue;
                    // byInstances[k-1] describes k instances, so index
                    // instances[s] is the QoS after one more.
                    const bool model_ok =
                        pairingOf(s)
                            .byInstances[static_cast<std::size_t>(
                                instances[s])]
                            .predictedQos >= qos_target;
                    const bool observed_ok =
                        observed_at[s] == instances[s] &&
                        observed_slack[s] >= config.headroom;
                    if (!model_ok && !observed_ok)
                        continue;
                    ++instances[s];
                    replacements.add();
                    ++stats.replacements;
                    placed = true;
                    break;
                }
                if (!placed) {
                    lost.add();
                    ++stats.lostInstances;
                }
            }
        }

        // 3b. Load-aware: determine each server's offered load this
        // epoch — the design load, or spikeFactor times it when the
        // keyed `des.arrival_burst` site fires for (epoch, server) —
        // and make room for any guaranteed instances the churn flow
        // just placed by shedding fillers (guaranteed work always
        // wins the contexts). A guaranteed tier whose own knee cannot
        // carry the offered load is a load violation: it is *counted*
        // (the operator must resize the tier), never evicted.
        std::vector<double> offered;
        if (load_aware) {
            offered.assign(n, la.baseQps);
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s])
                    continue;
                if (spike_site &&
                    faults.shouldInject("des.arrival_burst",
                                        epochServerKey(epoch, s))) {
                    offered[s] = la.baseQps * la.spikeFactor;
                    load_spikes_ctr->add();
                    ++stats.loadSpikes;
                }
                const int fit = max_instances - instances[s];
                if (fillers[s] > std::max(0, fit)) {
                    const int shed = fillers[s] - std::max(0, fit);
                    fillers[s] -= shed;
                    fillers_shed_ctr->add(
                        static_cast<std::uint64_t>(shed));
                    stats.fillersShed += shed;
                }
                if (kneeAt(s, instances[s]) < offered[s]) {
                    load_violations_ctr->add();
                    ++stats.loadViolations;
                }
            }
        }

        // 4. Observe every live *guaranteed* co-location's actual QoS
        // (optionally through the scheduler.observe noise site) and
        // evict one instance from every server observed below target,
        // shrinking its learned cap so the count is never retried.
        // Fillers carry no batch-QoS guarantee — that is what makes
        // them best-effort — so they live outside this loop; the knee
        // table (step 6) is the constraint that governs them.
        if (observing) {
            std::vector<double> slowdown(n, 0.0);
            double min_slowdown = 0.0, max_slowdown = 0.0;
            bool any_observed = false;
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s] || instances[s] <= 0)
                    continue;
                const std::size_t k =
                    static_cast<std::size_t>(instances[s]);
                double observed = pairingOf(s).byInstances[k - 1].actualQos;
                if (observe_noise) {
                    const auto key = epochServerKey(epoch, s);
                    if (faults.shouldInject("scheduler.observe", key)) {
                        observed *= std::max(
                            0.0, 1.0 + faults.gaussian("scheduler.observe",
                                                       key));
                    }
                }
                observations.add();
                slowdown[s] = 1.0 - observed;
                min_slowdown = any_observed
                                   ? std::min(min_slowdown, slowdown[s])
                                   : slowdown[s];
                max_slowdown = any_observed
                                   ? std::max(max_slowdown, slowdown[s])
                                   : slowdown[s];
                any_observed = true;
                if (observed < qos_target) {
                    observed_violations.add();
                    ++stats.observedViolations;
                    qos_evictions.add();
                    ++stats.qosEvictions;
                    --instances[s];
                    cap[s] = std::min(cap[s], instances[s]);
                    observed_at[s] = -1;
                } else {
                    observed_slack[s] = observed - qos_target;
                    observed_at[s] = instances[s];
                }
            }
            if (any_observed) {
                stats.maxSlowdown = max_slowdown;
                stats.slowdownSpread = max_slowdown - min_slowdown;
            }

            // 4b. Fairness pass: trim one instance from every server
            // observed at its current count whose slowdown exceeds the
            // epoch's minimum by more than the spread tolerance, even
            // though it met the QoS target. The learned cap shrinks
            // with it, so — like QoS evictions — a trimmed count is
            // never retried and the loop converges to a placement
            // whose slowdown spread fits the tolerance band.
            if (fairness) {
                for (std::size_t s = 0; s < n; ++s) {
                    if (observed_at[s] != instances[s] ||
                        instances[s] <= 0 ||
                        slowdown[s] <=
                            min_slowdown + config.spreadTolerance)
                        continue;
                    --instances[s];
                    cap[s] = std::min(cap[s], instances[s]);
                    observed_at[s] = -1;
                    fairness_evictions_ctr->add();
                    ++stats.fairnessEvictions;
                }
            }
        }

        // 5. Probe: place one more instance on the servers with the
        // most observed headroom (never-colocated servers probe last,
        // from zero), up to the per-epoch budget — but not in the
        // final epoch, so every probe is observed at least once
        // before the run is scored.
        if (observing && epoch < config.epochs - 1) {
            struct Candidate {
                std::size_t server;
                double slack;
            };
            std::vector<Candidate> candidates;
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s] || instances[s] >= cap[s] ||
                    instances[s] >= load_cap[s] ||
                    instances[s] >= max_instances)
                    continue;
                if (instances[s] == 0) {
                    candidates.push_back(Candidate{s, 0.0});
                } else if (observed_at[s] == instances[s] &&
                           observed_slack[s] >= config.headroom) {
                    candidates.push_back(
                        Candidate{s, observed_slack[s]});
                }
            }
            std::sort(candidates.begin(), candidates.end(),
                      [](const Candidate &a, const Candidate &b) {
                          if (a.slack != b.slack)
                              return a.slack > b.slack;
                          return a.server < b.server;
                      });
            const std::size_t budget =
                std::min(candidates.size(), probe_budget);
            for (std::size_t i = 0; i < budget; ++i) {
                const std::size_t s = candidates[i].server;
                ++instances[s];
                if (load_aware &&
                    instances[s] + fillers[s] > max_instances) {
                    // The probe takes a context a filler occupied.
                    --fillers[s];
                    fillers_shed_ctr->add();
                    ++stats.fillersShed;
                }
                observed_at[s] = -1;
                probes.add();
                ++stats.probes;
            }
        }

        // 6. Load-aware filler management: on every live server,
        // shed fillers whose depth the knee of this epoch's offered
        // load no longer carries, then grow them while one more
        // still clears it — best-effort work soaks up whatever
        // headroom the spike left, and gives it back first.
        if (load_aware) {
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s]) {
                    fillers[s] = 0;
                    continue;
                }
                while (fillers[s] > 0 &&
                       (instances[s] + fillers[s] > max_instances ||
                        kneeAt(s, std::min(instances[s] + fillers[s],
                                           max_instances)) <
                            offered[s])) {
                    --fillers[s];
                    fillers_shed_ctr->add();
                    ++stats.fillersShed;
                }
                while (instances[s] + fillers[s] < max_instances &&
                       kneeAt(s, instances[s] + fillers[s] + 1) >=
                           offered[s]) {
                    ++fillers[s];
                }
            }
        }

        // Epoch bookkeeping for the timeline and gauges. Fillers are
        // busy contexts too (that is their point), so they count in
        // utilization; without a knee table they are identically zero.
        int down_count = 0;
        double total = 0.0;
        double filler_total = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            down_count += down[s] ? 1 : 0;
            total += instances[s];
            filler_total += fillers[s];
        }
        stats.liveServers = static_cast<int>(n) - down_count;
        stats.totalInstances = total;
        stats.fillerInstances = filler_total;
        stats.utilization =
            (static_cast<double>(stats.liveServers) * latencyThreads_ +
             total + filler_total) /
            (static_cast<double>(n) * contextsPerServer_);
        util_gauge.set(stats.utilization);
        if (filler_gauge != nullptr)
            filler_gauge->set(filler_total);
        if (fairness) {
            max_slowdown_gauge->set(stats.maxSlowdown);
            spread_gauge->set(stats.slowdownSpread);
        }
        result.timeline.push_back(stats);
    }

    // Score the final placement's fairness from *actual* QoS (no
    // observation noise), like PolicyResult scores its compliance —
    // the quantity the fairness policy exists to bound.
    int down_servers = 0;
    double final_min = 0.0, final_max = 0.0;
    bool any_final = false;
    for (std::size_t s = 0; s < n; ++s) {
        down_servers += down[s] ? 1 : 0;
        if (down[s] || instances[s] <= 0)
            continue;
        const std::size_t k = static_cast<std::size_t>(instances[s]);
        const double sd = 1.0 - pairingOf(s).byInstances[k - 1].actualQos;
        final_min = any_final ? std::min(final_min, sd) : sd;
        final_max = any_final ? std::max(final_max, sd) : sd;
        any_final = true;
    }
    if (any_final) {
        result.finalMaxSlowdown = final_max;
        result.finalSlowdownSpread = final_max - final_min;
    }

    result.final = finish(name, qos_target, instances, down_servers);
    return result;
}

} // namespace smite::scheduler
