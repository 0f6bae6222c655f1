#include "scheduler/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/rng.h"

namespace smite::scheduler {

Cluster::Cluster(std::vector<Pairing> pairings,
                 std::vector<std::string> latencyApps, int serversPerApp,
                 int latencyThreads, int contextsPerServer,
                 std::uint64_t seed)
    : pairings_(std::move(pairings)),
      latencyApps_(std::move(latencyApps)),
      latencyThreads_(latencyThreads),
      contextsPerServer_(contextsPerServer)
{
    if (pairings_.empty() || latencyApps_.empty() || serversPerApp <= 0)
        throw std::invalid_argument("empty cluster configuration");
    maxInstances_ = static_cast<int>(pairings_.front().byInstances.size());
    for (const Pairing &p : pairings_) {
        if (static_cast<int>(p.byInstances.size()) != maxInstances_)
            throw std::invalid_argument("ragged pairing tables");
    }

    // Each server gets a random batch candidate among the pairings
    // of its latency application.
    workload::Rng rng(seed);
    for (const std::string &app : latencyApps_) {
        std::vector<int> candidates;
        for (size_t i = 0; i < pairings_.size(); ++i) {
            if (pairings_[i].latencyApp == app)
                candidates.push_back(static_cast<int>(i));
        }
        if (candidates.empty()) {
            throw std::invalid_argument(
                "no pairings for latency app " + app);
        }
        for (int s = 0; s < serversPerApp; ++s) {
            assignment_.push_back(ServerSlot{
                candidates[rng.nextBelow(candidates.size())]});
        }
    }
}

PolicyResult
Cluster::finish(const std::string &name, double qos_target,
                const std::vector<int> &instances,
                int down_servers) const
{
    PolicyResult result;
    result.policy = name;
    result.qosTarget = qos_target;
    result.servers = servers();
    result.downServers = down_servers;
    result.contextsPerServer = contextsPerServer_;
    result.latencyThreads = latencyThreads_;

    for (size_t s = 0; s < assignment_.size(); ++s) {
        const int k = instances[s];
        if (k <= 0)
            continue;
        const Pairing &pairing = pairingOf(s);
        const double actual = pairing.byInstances[k - 1].actualQos;
        ++result.coLocatedServers;
        result.totalInstances += k;
        if (actual >= qos_target)
            result.compliantInstances += k;
        if (actual < qos_target) {
            ++result.violatedServers;
            const double magnitude =
                latencyOvershootNorm_
                    ? qos_target / std::max(actual, 1e-9) - 1.0
                    : (qos_target - actual) / qos_target;
            result.sumViolation += magnitude;
            result.maxViolation =
                std::max(result.maxViolation, magnitude);
        }
    }

    // One policy run over the cluster is the scheduler's decision
    // epoch; the counters aggregate across epochs, the gauge holds
    // the most recent epoch's utilization.
    obs::Registry &registry = obs::Registry::global();
    registry.counter("scheduler.policies").add();
    registry.counter("scheduler.decisions")
        .add(static_cast<std::uint64_t>(result.servers));
    registry.counter("scheduler.admissions")
        .add(static_cast<std::uint64_t>(result.coLocatedServers));
    registry.counter("scheduler.violations")
        .add(static_cast<std::uint64_t>(result.violatedServers));
    registry.counter("scheduler.batch_instances")
        .add(static_cast<std::uint64_t>(result.totalInstances));
    registry.gauge("scheduler.utilization").set(result.utilization());
    return result;
}

int
Cluster::instancesMeeting(std::size_t s, double target,
                          double CoLocationOption::*column) const
{
    const Pairing &pairing = pairingOf(s);
    for (int k = maxInstances_; k >= 1; --k) {
        if (pairing.byInstances[k - 1].*column >= target)
            return k;
    }
    return 0;
}

PolicyResult
Cluster::runLargestMeeting(const std::string &name, double qos_target,
                           double CoLocationOption::*column) const
{
    obs::Span span("scheduler.policy", name);
    std::vector<int> instances(assignment_.size(), 0);
    for (size_t s = 0; s < assignment_.size(); ++s)
        instances[s] = instancesMeeting(s, qos_target, column);
    return finish(name, qos_target, instances);
}

PolicyResult
Cluster::runPredictedPolicy(double qos_target,
                            const std::string &name) const
{
    return runLargestMeeting(name, qos_target,
                             &CoLocationOption::predictedQos);
}

PolicyResult
Cluster::runOraclePolicy(double qos_target) const
{
    return runLargestMeeting("Oracle", qos_target,
                             &CoLocationOption::actualQos);
}

PolicyResult
Cluster::runRandomPolicy(double qos_target, double match_instances,
                         std::uint64_t seed) const
{
    obs::Span span("scheduler.policy", "Random");
    // Draw uniform instance counts, then nudge random servers until
    // the total matches the utilization gain we must reproduce.
    workload::Rng rng(seed);
    std::vector<int> instances(assignment_.size(), 0);
    std::int64_t total = 0;
    for (size_t s = 0; s < assignment_.size(); ++s) {
        instances[s] =
            static_cast<int>(rng.nextBelow(maxInstances_ + 1));
        total += instances[s];
    }
    const std::int64_t want = std::llround(match_instances);
    std::uint64_t guard = 0;
    const std::uint64_t guard_limit = 100ull * assignment_.size();
    while (total != want && guard++ < guard_limit) {
        const size_t s = rng.nextBelow(assignment_.size());
        if (total < want && instances[s] < maxInstances_) {
            ++instances[s];
            ++total;
        } else if (total > want && instances[s] > 0) {
            --instances[s];
            --total;
        }
    }
    if (total != want) {
        // Returning a mismatched total silently would skew the
        // matched-utilization comparison the Random policy exists
        // for; the divergence is absorbed but must stay auditable.
        obs::IncidentLog::global().record(
            "scheduler: random policy nudge loop hit guard limit at " +
            std::to_string(total) + " instances (target " +
            std::to_string(want) + ")");
    }
    return finish("Random", qos_target, instances);
}

} // namespace smite::scheduler
