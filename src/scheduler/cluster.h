/**
 * @file
 * Cluster-level scale-out model (paper Sections IV-C and IV-D).
 *
 * A warehouse-scale cluster of identical servers, each with six SMT
 * cores (twelve hardware contexts), runs one latency-sensitive
 * application per server on six contexts (the half-loaded baseline
 * that disallows SMT co-location). A co-location policy then decides,
 * per server, how many instances of a batch application to place on
 * the idle sibling contexts, subject to a QoS target.
 *
 * QoS is expressed uniformly as a fraction of solo performance
 * (average-performance QoS: 1 - degradation; tail QoS: solo p90
 * divided by degraded p90), so the same policies serve both metrics.
 *
 * The one-shot policies score a single placement, as the paper does.
 * Cluster::runEpochs extends them through decision epochs under
 * `server.fail` churn (src/fault); each epoch it
 *   1. recovers the servers downed in the previous epoch and re-fills
 *      them with the predicted placement, bounded by what the loop
 *      has learned about the server's pairing,
 *   2. downs servers whose keyed `server.fail` check fires for
 *      (epoch, server) and evicts their batch instances,
 *   3. re-places the evicted instances, round robin from the front,
 *      onto survivors the model admits at k+1 (or that the last
 *      observation cleared with `headroom` slack); the rest is lost
 *      capacity,
 *   4. observes the actual QoS of every co-location — optionally
 *      perturbed by the `scheduler.observe` fault site, the analogue
 *      of noisy production telemetry — and evicts one instance from
 *      every server observed below target, capping the learned
 *      admissible count for that server (under kFairness it also
 *      trims servers whose observed slowdown exceeds the epoch's
 *      minimum by more than `spreadTolerance`; cf. Subramanian et
 *      al.'s MISE), and
 *   5. probes one more instance on up to `probeBudget` servers
 *      observed with `headroom` slack, never in the final epoch (cf.
 *      Navarro et al.'s dynamic thread-to-core allocation).
 * EpochPolicy::kStatic runs steps 1-3 only: the predicted placement
 * under churn, never looking at delivered QoS. With a knee table
 * (LoadAwareConfig) every policy also caps guaranteed admission at
 * the design-load knee and manages best-effort fillers that are shed
 * first under keyed `des.arrival_burst` load spikes.
 *
 * Learned caps only shrink, and only when an observation contradicts
 * the current count, so with noise-free observations the placement
 * converges. Every fault check is keyed per (epoch, server) through
 * epochServerKey() (keyed.h) and the loop is serial, so a run is a
 * pure function of the armed seeds for any SMITE_THREADS. Each epoch
 * publishes `scheduler.online.*` metrics (docs/OBSERVABILITY.md).
 *
 * This model is deliberately the paper's: homogeneous fleet, lockstep
 * full-cluster epochs, one batch candidate per server. The
 * warehouse-scale generalization — sharded state, streaming churn
 * epochs, mixed QoS tiers, heterogeneous machines — lives in shard.h;
 * the layer-wide catalog is docs/SCHEDULING.md.
 */

#ifndef SMITE_SCHEDULER_CLUSTER_H
#define SMITE_SCHEDULER_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace smite::scheduler {

/** Predicted and actual QoS of one (latency, batch, k) co-location. */
struct CoLocationOption {
    double predictedQos = 1.0;  ///< model-predicted QoS fraction
    double actualQos = 1.0;     ///< measured QoS fraction
};

/**
 * All co-location options of one (latency app, batch app) pairing:
 * element k-1 describes running k batch instances.
 */
struct Pairing {
    std::string latencyApp;
    std::string batchApp;
    std::vector<CoLocationOption> byInstances;
};

/** Aggregate outcome of a policy run over the cluster. */
struct PolicyResult {
    std::string policy;
    double qosTarget = 1.0;
    int servers = 0;
    int coLocatedServers = 0;
    int violatedServers = 0;
    int downServers = 0;         ///< servers down in the final epoch
    double totalInstances = 0;   ///< sum of co-located batch instances
    double compliantInstances = 0; ///< instances on non-violating servers
    double sumViolation = 0;     ///< sum of (target-actual)/target
    double maxViolation = 0;     ///< worst normalized violation

    int contextsPerServer = 12;
    int latencyThreads = 6;

    /**
     * Cluster utilization: busy contexts / all contexts. Servers down
     * in the final epoch run nothing — neither their latency threads
     * nor batch instances count as busy (their contexts still count
     * as owned capacity in the denominator).
     */
    double
    utilization() const
    {
        const double busy =
            static_cast<double>(servers - downServers) *
                latencyThreads +
            totalInstances;
        return busy / (static_cast<double>(servers) * contextsPerServer);
    }

    /** Relative utilization improvement over the no-SMT baseline. */
    double
    utilizationImprovement() const
    {
        const double base = static_cast<double>(latencyThreads) /
                            contextsPerServer;
        return (utilization() - base) / base;
    }

    /**
     * Goodput utilization: like utilization(), but batch instances
     * co-located on QoS-violating servers count as wasted work — an
     * operator must kill (or never should have placed) them. An
     * over-packing policy can beat a compliant one on raw
     * utilization; it cannot on goodput.
     */
    double
    goodputUtilization() const
    {
        const double busy =
            static_cast<double>(servers - downServers) *
                latencyThreads +
            compliantInstances;
        return busy / (static_cast<double>(servers) * contextsPerServer);
    }

    /** Relative goodput improvement over the no-SMT baseline. */
    double
    goodputImprovement() const
    {
        const double base = static_cast<double>(latencyThreads) /
                            contextsPerServer;
        return (goodputUtilization() - base) / base;
    }

    /** Fraction of co-located servers violating the target. */
    double
    violationRate() const
    {
        return coLocatedServers == 0
                   ? 0.0
                   : static_cast<double>(violatedServers) /
                         coLocatedServers;
    }

    /** Mean batch instances per server. */
    double
    meanInstances() const
    {
        return servers == 0 ? 0.0
                            : totalInstances /
                                  static_cast<double>(servers);
    }
};

/**
 * Load-aware admission: the knee QPS measured by the loadgen harness
 * (loadgen::findKnee) per (pairing, co-location depth). Guaranteed
 * admission is capped at the deepest co-location whose knee clears
 * the design load, and the idle contexts hold best-effort fillers
 * that are shed — never guaranteed instances — when a keyed
 * `des.arrival_burst` spike pushes the offered load past the knee.
 * The table is plain data, so the scheduler stays independent of the
 * loadgen library.
 */
struct LoadAwareConfig {
    /** Design offered load per server (QPS); must be positive. */
    double baseQps = 0.0;

    /** Offered-load multiplier on a spiked server (>= 1). */
    double spikeFactor = 2.0;

    /**
     * kneeByPairing[pairing][depth]: max QPS meeting the tail target
     * with `depth` co-located batch instances (depth 0 = solo), one
     * row per Cluster pairing, each of size maxInstances + 1. Load-
     * aware admission is on exactly when this table is non-empty.
     */
    std::vector<std::vector<double>> kneeByPairing;
};

/** What Cluster::runEpochs does after the churn steps. */
enum class EpochPolicy {
    kStatic,       ///< churn only: recover, fail, re-place
    kUtilization,  ///< observe/evict/probe to the QoS target (default)
    kFairness,     ///< kUtilization plus the slowdown-spread trim
};

/** Tuning knobs of the epoch loop. */
struct OnlineConfig {
    /** Decision epochs to run (must be positive). */
    int epochs = 20;
    /**
     * Max probe placements per epoch; 0 derives servers/4. Bounding
     * the probe rate bounds how much QoS risk one epoch can add.
     */
    int probeBudget = 0;
    /**
     * Observed QoS slack above the target required before a server
     * is probed with one more instance.
     */
    double headroom = 0.02;
    /** Load-aware admission; inert while the knee table is empty. */
    LoadAwareConfig loadAware{};
    EpochPolicy policy = EpochPolicy::kUtilization;
    /**
     * kFairness only: max allowed excess of a server's observed
     * slowdown over the epoch's minimum before one instance is
     * trimmed (absolute slowdown, e.g. 0.05 = five QoS points).
     */
    double spreadTolerance = 0.05;
};

/** Telemetry of one decision epoch. */
struct EpochStats {
    int epoch = 0;             ///< epoch index, 0-based
    int failures = 0;          ///< servers downed this epoch
    int recoveries = 0;        ///< servers recovered at epoch start
    int failureEvictions = 0;  ///< instances evicted by failures
    int replacements = 0;      ///< evicted instances re-placed
    int lostInstances = 0;     ///< evicted instances lost
    int observedViolations = 0;///< observations below target
    int qosEvictions = 0;      ///< instances evicted on observed QoS
    int probes = 0;            ///< probe instances placed
    int liveServers = 0;       ///< servers up at epoch end
    double totalInstances = 0; ///< guaranteed batch instances at end
    double utilization = 0;    ///< live-cluster utilization at end
    // Load-aware admission (all zero without a knee table):
    int loadSpikes = 0;        ///< servers spiked by des.arrival_burst
    int fillersShed = 0;       ///< filler instances shed this epoch
    int loadViolations = 0;    ///< guaranteed tiers past their knee
    double fillerInstances = 0;///< best-effort fillers at epoch end
    // Observed-slowdown telemetry (recorded by every observing
    // policy; kFairness is the one that acts on it):
    int fairnessEvictions = 0; ///< instances trimmed for fairness
    double maxSlowdown = 0;    ///< max observed slowdown this epoch
    double slowdownSpread = 0; ///< max - min observed slowdown
};

/** Final placement plus the per-epoch trajectory that produced it. */
struct OnlineResult {
    /** Final-epoch accounting, comparable to the one-shot policies. */
    PolicyResult final;
    /** One row per decision epoch, in order. */
    std::vector<EpochStats> timeline;
    /** Max actual slowdown over the final placement's co-locations. */
    double finalMaxSlowdown = 0.0;
    /** Max - min actual slowdown over the final co-locations. */
    double finalSlowdownSpread = 0.0;
};

/**
 * The cluster: a set of servers, each pre-assigned one latency
 * application and one candidate batch application (mirroring the
 * paper's setup of 4,000 servers, 1,000 per latency application).
 */
class Cluster
{
  public:
    /**
     * @param pairings all measured/predicted (latency, batch)
     *        pairings; servers draw their batch candidate from the
     *        pairings of their latency app
     * @param latencyApps names of the latency applications
     * @param serversPerApp servers dedicated to each latency app
     * @param latencyThreads busy contexts per server before
     *        co-location
     * @param contextsPerServer total hardware contexts per server
     * @param seed RNG seed for the batch-candidate assignment
     */
    Cluster(std::vector<Pairing> pairings,
            std::vector<std::string> latencyApps, int serversPerApp,
            int latencyThreads = 6, int contextsPerServer = 12,
            std::uint64_t seed = 42);

    /**
     * SMiTe policy: on each server, co-locate the largest k whose
     * *predicted* QoS meets the target.
     */
    PolicyResult runPredictedPolicy(double qos_target,
                                    const std::string &name = "SMiTe") const;

    /**
     * Oracle policy: the largest k whose *actual* QoS meets the
     * target (perfect knowledge upper bound).
     */
    PolicyResult runOraclePolicy(double qos_target) const;

    /**
     * The epoch loop described in the file header: start from the
     * predicted placement and run @p config.epochs decision epochs
     * under `server.fail` churn with @p config.policy. The returned
     * PolicyResult scores the final epoch's placement against
     * *actual* QoS, exactly like the one-shot policies, with servers
     * still down in that epoch excluded from the busy contexts. With
     * no faults armed, kStatic is runPredictedPolicy().
     *
     * @throws std::invalid_argument on non-positive epochs, negative
     *         headroom or spreadTolerance, or an inconsistent knee
     *         table
     */
    OnlineResult runEpochs(double qos_target, const OnlineConfig &config,
                           const std::string &name = "SMiTe-online") const;

    /**
     * Random interference-oblivious policy: co-locates random
     * instance counts scaled to achieve the same total utilization
     * gain as @p match_instances total instances.
     */
    PolicyResult runRandomPolicy(double qos_target,
                                 double match_instances,
                                 std::uint64_t seed = 7) const;

    /** Number of servers in the cluster. */
    int servers() const { return static_cast<int>(assignment_.size()); }

    /** Max batch instances a server can host. */
    int maxInstances() const { return maxInstances_; }

    /**
     * Use latency-overshoot normalization for violation magnitudes:
     * (t_actual - t_allowed) / t_allowed = target/actual - 1, which
     * exceeds 100% for deep tail violations (the paper's Figure 17
     * reports violations up to 110%). Default is QoS-fraction
     * normalization, (target - actual) / target.
     */
    void useLatencyOvershootNorm(bool enable)
    {
        latencyOvershootNorm_ = enable;
    }

  private:
    struct ServerSlot {
        int pairing;  ///< index into pairings_
    };

    PolicyResult finish(const std::string &name, double qos_target,
                        const std::vector<int> &instances,
                        int down_servers = 0) const;

    /**
     * Largest k whose @p column of server @p s's pairing meets
     * @p target (0 when none does).
     */
    int instancesMeeting(std::size_t s, double target,
                         double CoLocationOption::*column) const;

    /** One-shot policy placing instancesMeeting() on every server. */
    PolicyResult runLargestMeeting(const std::string &name,
                                   double qos_target,
                                   double CoLocationOption::*column) const;

    /** The pairing table assigned to server @p s. */
    const Pairing &pairingOf(std::size_t s) const
    {
        return pairings_[assignment_[s].pairing];
    }

    std::vector<Pairing> pairings_;
    std::vector<std::string> latencyApps_;
    std::vector<ServerSlot> assignment_;
    int latencyThreads_;
    int contextsPerServer_;
    int maxInstances_;
    bool latencyOvershootNorm_ = false;
};

} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_CLUSTER_H
