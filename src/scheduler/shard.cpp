#include "scheduler/shard.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/keyed.h"

namespace smite::scheduler {

namespace {

// Stream salts: one per event kind, so the keyed streams of a server
// never collide across kinds.
constexpr std::uint64_t kSaltAssign = 1;
constexpr std::uint64_t kSaltFail = 2;
constexpr std::uint64_t kSaltRecover = 3;
constexpr std::uint64_t kSaltDepart = 4;
constexpr std::uint64_t kSaltArrive = 5;
constexpr std::uint64_t kSaltReplace = 6;

/** Probe index bits packed under the job index in one draw key. */
constexpr int kProbeBits = 6;

} // namespace

ShardedCluster::ShardedCluster(std::vector<MachineClass> classes,
                               std::vector<std::int64_t> serversPerClass,
                               int shards, std::uint64_t assignSeed)
    : classes_(std::move(classes)), shards_(shards)
{
    if (classes_.empty() || serversPerClass.size() != classes_.size())
        throw std::invalid_argument(
            "fleet needs one server count per machine class");
    if (shards_ < 1)
        throw std::invalid_argument("shard count must be positive");

    std::int64_t n = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const MachineClass &mc = classes_[c];
        if (serversPerClass[c] <= 0)
            throw std::invalid_argument(
                "servers per class must be positive");
        if (mc.latencyThreads < 1 ||
            mc.contextsPerServer <= mc.latencyThreads)
            throw std::invalid_argument(
                "machine class needs contexts beyond its latency "
                "threads");
        const int cap = mc.maxInstances();
        if (cap > 255)
            throw std::invalid_argument(
                "machine class instance capacity too large");
        if (mc.pairings.empty())
            throw std::invalid_argument(
                "machine class has no pairing tables");
        for (const Pairing &p : mc.pairings) {
            if (static_cast<int>(p.byInstances.size()) != cap)
                throw std::invalid_argument(
                    "pairing table length must equal the class "
                    "instance capacity");
        }
        maxSlots_ = std::max(maxSlots_, cap);
        n += serversPerClass[c];
    }
    if (shards_ > n)
        throw std::invalid_argument("more shards than servers");

    // Per-class pairing-table base offsets, class-major — the same
    // order buildTabs() emits, so tabIdx_ stays valid per run.
    std::vector<std::uint32_t> tab_base(classes_.size());
    std::uint32_t tabs = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        tab_base[c] = tabs;
        tabs += static_cast<std::uint32_t>(classes_[c].pairings.size());
    }

    classIdx_.reserve(static_cast<std::size_t>(n));
    tabIdx_.reserve(static_cast<std::size_t>(n));
    std::int64_t s = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const std::uint64_t choices = classes_[c].pairings.size();
        for (std::int64_t i = 0; i < serversPerClass[c]; ++i, ++s) {
            classIdx_.push_back(static_cast<std::uint16_t>(c));
            // The pairing assignment is keyed per server id — not
            // drawn in placement/scan order — so it is identical for
            // every shard partition of the same fleet.
            tabIdx_.push_back(
                tab_base[c] +
                static_cast<std::uint32_t>(
                    keyed::draw(assignSeed, kSaltAssign,
                                static_cast<std::uint64_t>(s), 0) %
                    choices));
            totalContexts_ += classes_[c].contextsPerServer;
        }
    }

    shardStart_.resize(static_cast<std::size_t>(shards_) + 1);
    for (int i = 0; i <= shards_; ++i)
        shardStart_[static_cast<std::size_t>(i)] = i * n / shards_;
}

const Pairing &
ShardedCluster::pairingOf(std::int64_t s) const
{
    const MachineClass &mc = machineClassOf(s);
    std::uint32_t idx = tabIdx_[static_cast<std::size_t>(s)];
    for (std::size_t c = 0; c < static_cast<std::size_t>(
                                    classIdx_[static_cast<std::size_t>(s)]);
         ++c)
        idx -= static_cast<std::uint32_t>(classes_[c].pairings.size());
    return mc.pairings[idx];
}

int
ShardedCluster::shardOf(std::int64_t s) const
{
    const std::int64_t n = servers();
    int i = static_cast<int>(s * shards_ / n);
    i = std::min(i, shards_ - 1);
    while (s < shardStart_[static_cast<std::size_t>(i)])
        --i;
    while (s >= shardStart_[static_cast<std::size_t>(i) + 1])
        ++i;
    return i;
}

void
ShardedCluster::buildTabs(const TierPolicy &tiers)
{
    tabs_.clear();
    const bool fillers = tiers.bestEffortFloor > 0.0;
    // Guaranteed admission must clear the QoS target *and* the
    // fairness slowdown budget; at the default budget of 1.0 the
    // second threshold is 0 and the test collapses to the target.
    const double admit_floor =
        std::max(tiers.qosTarget, 1.0 - tiers.slowdownBudget);
    for (const MachineClass &mc : classes_) {
        for (const Pairing &p : mc.pairings) {
            PairTab t;
            t.src = &p;
            t.cap = mc.maxInstances();
            t.admit.resize(static_cast<std::size_t>(t.cap));
            for (int k = 0; k < t.cap; ++k) {
                t.admit[static_cast<std::size_t>(k)] =
                    p.byInstances[static_cast<std::size_t>(k)]
                            .predictedQos >= admit_floor
                        ? 1
                        : 0;
            }
            // chainTo[j]: the largest total instance count reachable
            // from j by single steps whose predicted QoS stays at or
            // above the best-effort floor — the filler fill target is
            // chainTo[g] - g. Step-wise (not "largest k with
            // predicted[k] >= floor") so non-monotone tables cannot
            // jump a gap the incremental admit check would refuse.
            t.chainTo.resize(static_cast<std::size_t>(t.cap) + 1);
            t.chainTo[static_cast<std::size_t>(t.cap)] = t.cap;
            for (int j = t.cap - 1; j >= 0; --j) {
                const bool step =
                    fillers &&
                    p.byInstances[static_cast<std::size_t>(j)]
                            .predictedQos >= tiers.bestEffortFloor;
                t.chainTo[static_cast<std::size_t>(j)] =
                    step ? t.chainTo[static_cast<std::size_t>(j) + 1]
                         : j;
            }
            t.violating.assign(static_cast<std::size_t>(t.cap) + 1, 0);
            t.goodFill.assign(static_cast<std::size_t>(t.cap) + 1, 1);
            for (int k = 1; k <= t.cap; ++k) {
                const double actual =
                    p.byInstances[static_cast<std::size_t>(k) - 1]
                        .actualQos;
                t.violating[static_cast<std::size_t>(k)] =
                    actual < tiers.qosTarget ? 1 : 0;
                t.goodFill[static_cast<std::size_t>(k)] =
                    actual >= tiers.bestEffortFloor ? 1 : 0;
            }
            tabs_.push_back(std::move(t));
        }
    }
}

ShardedCluster::Agg
ShardedCluster::contributionOf(std::size_t s) const
{
    Agg a;
    if (up_[s] == 0)
        return a;
    const MachineClass &mc = classes_[classIdx_[s]];
    const PairTab &tab = tabs_[tabIdx_[s]];
    const int g = g_[s];
    const int b = b_[s];
    a.upServers = 1;
    a.latencyContexts = mc.latencyThreads;
    a.guaranteed = g;
    a.bestEffort = b;
    if (g > 0) {
        a.coLocated = 1;
        if (tab.violating[static_cast<std::size_t>(g)] != 0)
            a.violating = 1;
        else
            a.goodGuaranteed = g;
    }
    if (b > 0 && tab.goodFill[static_cast<std::size_t>(g + b)] != 0)
        a.goodFillers = b;
    return a;
}

void
ShardedCluster::aggSub(int shard, std::size_t s)
{
    const Agg c = contributionOf(s);
    Agg &a = aggs_[static_cast<std::size_t>(shard)];
    a.upServers -= c.upServers;
    a.latencyContexts -= c.latencyContexts;
    a.guaranteed -= c.guaranteed;
    a.bestEffort -= c.bestEffort;
    a.coLocated -= c.coLocated;
    a.violating -= c.violating;
    a.goodGuaranteed -= c.goodGuaranteed;
    a.goodFillers -= c.goodFillers;
}

void
ShardedCluster::aggAdd(int shard, std::size_t s)
{
    const Agg c = contributionOf(s);
    Agg &a = aggs_[static_cast<std::size_t>(shard)];
    a.upServers += c.upServers;
    a.latencyContexts += c.latencyContexts;
    a.guaranteed += c.guaranteed;
    a.bestEffort += c.bestEffort;
    a.coLocated += c.coLocated;
    a.violating += c.violating;
    a.goodGuaranteed += c.goodGuaranteed;
    a.goodFillers += c.goodFillers;
}

void
ShardedCluster::scheduleEvent(int shard, std::int64_t epoch,
                              std::uint32_t s)
{
    calendars_[static_cast<std::size_t>(shard)][epoch].push_back(s);
}

void
ShardedCluster::rebalanceFillers(std::size_t s, EpochDelta &delta)
{
    int target = 0;
    if (up_[s] != 0) {
        const PairTab &tab = tabs_[tabIdx_[s]];
        target = tab.chainTo[static_cast<std::size_t>(g_[s])] - g_[s];
    }
    const int cur = b_[s];
    if (target > cur)
        delta.fillerPlaced += target - cur;
    else if (cur > target)
        delta.fillerEvicted += cur - target;
    b_[s] = static_cast<std::uint8_t>(target);
}

void
ShardedCluster::processServerEvents(int shard, std::uint32_t s,
                                    std::int64_t epoch,
                                    EpochDelta &delta)
{
    const std::size_t i = s;
    if (up_[i] == 0) {
        if (recoverAt_[i] != epoch)
            return;  // stale calendar entry / nothing due
        ++delta.events;
        ++delta.recoveries;
        aggSub(shard, i);
        up_[i] = 1;
        // The server rejoins empty; its next failure is drawn now,
        // keyed by (server, failure sequence) — never by scan order.
        const std::int64_t gap = keyed::geometricSteps(
            churn_.failProb,
            keyed::draw(churn_.seed, kSaltFail, s, failSeq_[i]));
        nextFail_[i] =
            gap == keyed::kNever ? keyed::kNever : epoch + gap;
        if (shards_ > 1 && nextFail_[i] != keyed::kNever &&
            nextFail_[i] < epochsLimit_)
            scheduleEvent(shard, nextFail_[i], s);
        rebalanceFillers(i, delta);
        aggAdd(shard, i);
        return;
    }
    if (nextFail_[i] == epoch) {
        ++delta.events;
        ++delta.failures;
        aggSub(shard, i);
        if (g_[i] > 0) {
            // Evicted guaranteed jobs re-enter placement in the
            // serial phase; queues concatenate in shard order, which
            // is ascending server order for any shard count.
            evictQueues_[static_cast<std::size_t>(shard)].push_back(
                {s, static_cast<int>(g_[i])});
            delta.evictions += g_[i];
            g_[i] = 0;
        }
        if (b_[i] > 0) {
            delta.fillerEvicted += b_[i];
            b_[i] = 0;
        }
        up_[i] = 0;
        const std::int64_t gap = keyed::geometricSteps(
            churn_.recoverProb,
            keyed::draw(churn_.seed, kSaltRecover, s, failSeq_[i]));
        ++failSeq_[i];
        recoverAt_[i] =
            gap == keyed::kNever ? keyed::kNever : epoch + gap;
        if (shards_ > 1 && recoverAt_[i] != keyed::kNever &&
            recoverAt_[i] < epochsLimit_)
            scheduleEvent(shard, recoverAt_[i], s);
        aggAdd(shard, i);
        return;
    }
    // Guaranteed departures due this epoch (swap-remove, scanning
    // down so the slot swapped in was already examined).
    int g = g_[i];
    const std::size_t base = i * static_cast<std::size_t>(maxSlots_);
    int departed = 0;
    for (int j = g - 1; j >= 0; --j) {
        if (depEpoch_[base + static_cast<std::size_t>(j)] != epoch)
            continue;
        if (departed == 0)
            aggSub(shard, i);
        depEpoch_[base + static_cast<std::size_t>(j)] =
            depEpoch_[base + static_cast<std::size_t>(g) - 1];
        --g;
        ++departed;
    }
    if (departed > 0) {
        g_[i] = static_cast<std::uint8_t>(g);
        delta.departures += departed;
        ++delta.events;
        rebalanceFillers(i, delta);
        aggAdd(shard, i);
    }
}

bool
ShardedCluster::placeGuaranteedJob(std::uint64_t salt,
                                   std::int64_t epoch,
                                   std::int64_t jobIndex,
                                   EpochDelta &delta)
{
    const std::uint64_t n = static_cast<std::uint64_t>(servers());
    std::int64_t best = -1;
    double best_qos = 0.0;
    for (int t = 0; t < churn_.probesPerJob; ++t) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(jobIndex) << kProbeBits) |
            static_cast<std::uint64_t>(t);
        const std::int64_t s = static_cast<std::int64_t>(
            keyed::draw(churn_.seed, salt,
                        static_cast<std::uint64_t>(epoch), key) %
            n);
        const std::size_t i = static_cast<std::size_t>(s);
        if (up_[i] == 0)
            continue;
        const PairTab &tab = tabs_[tabIdx_[i]];
        const int g = g_[i];
        if (g >= tab.cap || tab.admit[static_cast<std::size_t>(g)] == 0)
            continue;
        // Predicted QoS *after* the placement: byInstances[g] is the
        // table row for g+1 instances. Best wins; ties go to the
        // lower server id so the choice is total-ordered.
        const double q =
            tab.src->byInstances[static_cast<std::size_t>(g)]
                .predictedQos;
        if (best < 0 || q > best_qos || (q == best_qos && s < best)) {
            best = s;
            best_qos = q;
        }
    }
    if (best < 0)
        return false;
    const std::size_t i = static_cast<std::size_t>(best);
    const int shard = shardOf(best);
    aggSub(shard, i);
    const int g = g_[i];
    // The job's lifetime is keyed by (server, placement sequence):
    // a pure per-server stream, independent of who placed it when.
    const std::int64_t gap = keyed::geometricSteps(
        churn_.departProb,
        keyed::draw(churn_.seed, kSaltDepart,
                    static_cast<std::uint64_t>(best), placeSeq_[i]));
    ++placeSeq_[i];
    const std::int64_t dep_at =
        gap == keyed::kNever ? keyed::kNever : epoch + gap;
    depEpoch_[i * static_cast<std::size_t>(maxSlots_) +
              static_cast<std::size_t>(g)] = dep_at;
    g_[i] = static_cast<std::uint8_t>(g + 1);
    if (shards_ > 1 && dep_at != keyed::kNever &&
        dep_at < epochsLimit_)
        scheduleEvent(shard, dep_at,
                      static_cast<std::uint32_t>(best));
    rebalanceFillers(i, delta);
    aggAdd(shard, i);
    return true;
}

void
ShardedCluster::resetRunState()
{
    const std::size_t n = classIdx_.size();
    up_.assign(n, 1);
    g_.assign(n, 0);
    b_.assign(n, 0);
    nextFail_.assign(n, keyed::kNever);
    recoverAt_.assign(n, keyed::kNever);
    failSeq_.assign(n, 0);
    placeSeq_.assign(n, 0);
    depEpoch_.assign(n * static_cast<std::size_t>(maxSlots_),
                     keyed::kNever);
    aggs_.assign(static_cast<std::size_t>(shards_), Agg{});
    deltas_.assign(static_cast<std::size_t>(shards_), EpochDelta{});
    calendars_.assign(static_cast<std::size_t>(shards_), {});
    evictQueues_.assign(static_cast<std::size_t>(shards_), {});
    dueScratch_.assign(static_cast<std::size_t>(shards_), {});
}

std::uint64_t
ShardedCluster::stateDigest() const
{
    const std::size_t n = classIdx_.size();
    std::uint64_t h = keyed::mix64(0x534d695465ull ^ n);
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(up_[s]) << 48) |
            (static_cast<std::uint64_t>(g_[s]) << 40) |
            (static_cast<std::uint64_t>(b_[s]) << 32) |
            static_cast<std::uint64_t>(s);
        h = keyed::mix64(h ^ packed);
    }
    return h;
}

StreamResult
ShardedCluster::runStream(const TierPolicy &tiers,
                          const ChurnConfig &churn, int epochs)
{
    if (epochs < 1)
        throw std::invalid_argument("epochs must be positive");
    if (churn.arrivalsPerEpoch < 0)
        throw std::invalid_argument("arrivals must be non-negative");
    if (churn.probesPerJob < 1 ||
        churn.probesPerJob > (1 << kProbeBits))
        throw std::invalid_argument("probesPerJob out of range");
    for (const double p :
         {churn.departProb, churn.failProb, churn.recoverProb}) {
        if (p < 0.0 || p > 1.0)
            throw std::invalid_argument(
                "churn probabilities must be in [0, 1]");
    }
    if (tiers.slowdownBudget < 0.0 || tiers.slowdownBudget > 1.0)
        throw std::invalid_argument(
            "slowdownBudget must be in [0, 1]");

    obs::Span span("scheduler.stream",
                   std::to_string(servers()) + " servers / " +
                       std::to_string(shards_) + " shards");

    tiers_ = tiers;
    churn_ = churn;
    epochsLimit_ = epochs;
    buildTabs(tiers);
    resetRunState();

    StreamResult result;
    result.servers = servers();
    result.totalContexts = totalContexts_;
    result.timeline.reserve(static_cast<std::size_t>(epochs));

    // Bootstrap pass (the one full O(n) touch both engines share):
    // draw every server's first failure epoch and fill the
    // best-effort tier into the empty fleet.
    core::parallelFor(
        static_cast<std::size_t>(shards_),
        [&](std::size_t shard) {
            EpochDelta &delta = deltas_[shard];
            const std::int64_t lo = shardStart_[shard];
            const std::int64_t hi = shardStart_[shard + 1];
            for (std::int64_t s = lo; s < hi; ++s) {
                const std::size_t i = static_cast<std::size_t>(s);
                const std::int64_t gap = keyed::geometricSteps(
                    churn_.failProb,
                    keyed::draw(churn_.seed, kSaltFail,
                                static_cast<std::uint64_t>(s),
                                failSeq_[i]));
                // Drawn "at epoch -1", so the first failure can land
                // on epoch 0.
                nextFail_[i] = gap == keyed::kNever ? keyed::kNever
                                                    : gap - 1;
                if (shards_ > 1 && nextFail_[i] != keyed::kNever &&
                    nextFail_[i] < epochsLimit_)
                    scheduleEvent(static_cast<int>(shard),
                                  nextFail_[i],
                                  static_cast<std::uint32_t>(s));
                rebalanceFillers(i, delta);
                aggAdd(static_cast<int>(shard), i);
            }
        },
        threads_);
    for (int shard = 0; shard < shards_; ++shard) {
        result.fillerPlaced +=
            deltas_[static_cast<std::size_t>(shard)].fillerPlaced;
    }

    obs::Registry &registry = obs::Registry::global();
    obs::Gauge &util_gauge =
        registry.gauge("scheduler.stream.utilization");
    obs::Gauge &goodput_gauge =
        registry.gauge("scheduler.stream.goodput_utilization");

    for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
        for (int shard = 0; shard < shards_; ++shard) {
            deltas_[static_cast<std::size_t>(shard)] = EpochDelta{};
            evictQueues_[static_cast<std::size_t>(shard)].clear();
        }

        // Phase A — the churn event pass, one shard after another
        // on the caller (width 1). Every mutation is shard-local (a
        // server's state belongs to exactly one shard), so the pass
        // could run shard-parallel, but on a 4-core host a 4-way
        // pass was no faster than this at 4k/32k/128k servers
        // (docs/PERFORMANCE.md). Merge order below is shard index
        // order either way.
        core::parallelFor(
            static_cast<std::size_t>(shards_),
            [&](std::size_t shard) {
                EpochDelta &delta = deltas_[shard];
                if (shards_ == 1) {
                    // Lockstep reference engine: scan every server,
                    // the same O(n) per epoch the 4k-server Cluster
                    // pays. Identical keyed streams, identical
                    // results — only the work differs.
                    const std::int64_t hi = shardStart_[1];
                    for (std::int64_t s = 0; s < hi; ++s)
                        processServerEvents(
                            0, static_cast<std::uint32_t>(s), epoch,
                            delta);
                    return;
                }
                auto &calendar = calendars_[shard];
                const auto it = calendar.find(epoch);
                if (it == calendar.end())
                    return;
                std::vector<std::uint32_t> &due = dueScratch_[shard];
                due = std::move(it->second);
                calendar.erase(it);
                // Ascending server order, duplicates dropped: the
                // exact order the lockstep scan visits them in.
                std::sort(due.begin(), due.end());
                due.erase(std::unique(due.begin(), due.end()),
                          due.end());
                for (const std::uint32_t s : due)
                    processServerEvents(static_cast<int>(shard), s,
                                        epoch, delta);
            },
            1);

        StreamEpochStats stats;
        stats.epoch = epoch;
        for (int shard = 0; shard < shards_; ++shard) {
            const EpochDelta &d =
                deltas_[static_cast<std::size_t>(shard)];
            stats.failures += d.failures;
            stats.recoveries += d.recoveries;
            stats.departures += d.departures;
            stats.evictions += d.evictions;
            stats.fillerPlaced += d.fillerPlaced;
            stats.fillerEvicted += d.fillerEvicted;
            stats.events += d.events;
        }

        // Phase B — serial placement over settled global state.
        // First the failure-evicted guaranteed jobs, then the
        // epoch's arrivals, each by keyed power-of-d-choices probes.
        EpochDelta serial_delta;
        std::int64_t job = 0;
        for (int shard = 0; shard < shards_; ++shard) {
            for (const auto &[server, count] :
                 evictQueues_[static_cast<std::size_t>(shard)]) {
                (void)server;
                for (int k = 0; k < count; ++k) {
                    if (placeGuaranteedJob(kSaltReplace, epoch, job++,
                                           serial_delta))
                        ++stats.replacements;
                    else
                        ++stats.lost;
                }
            }
        }
        for (int a = 0; a < churn_.arrivalsPerEpoch; ++a) {
            ++stats.arrivals;
            if (placeGuaranteedJob(kSaltArrive, epoch, a,
                                   serial_delta))
                ++stats.placed;
            else
                ++stats.rejected;
        }
        stats.fillerPlaced += serial_delta.fillerPlaced;
        stats.fillerEvicted += serial_delta.fillerEvicted;

        // Phase C — epoch snapshot: sum the per-shard integer
        // aggregates in shard order. Integers only, so the totals
        // are exact and identical for every shard partition.
        Agg total;
        for (int shard = 0; shard < shards_; ++shard) {
            const Agg &a = aggs_[static_cast<std::size_t>(shard)];
            total.upServers += a.upServers;
            total.latencyContexts += a.latencyContexts;
            total.guaranteed += a.guaranteed;
            total.bestEffort += a.bestEffort;
            total.coLocated += a.coLocated;
            total.violating += a.violating;
            total.goodGuaranteed += a.goodGuaranteed;
            total.goodFillers += a.goodFillers;
        }
        stats.liveServers = total.upServers;
        stats.guaranteedInstances = total.guaranteed;
        stats.bestEffortInstances = total.bestEffort;
        stats.utilization =
            static_cast<double>(total.latencyContexts +
                                total.guaranteed + total.bestEffort) /
            static_cast<double>(totalContexts_);
        stats.goodputUtilization =
            static_cast<double>(total.latencyContexts +
                                total.goodGuaranteed +
                                total.goodFillers) /
            static_cast<double>(totalContexts_);
        util_gauge.set(stats.utilization);
        goodput_gauge.set(stats.goodputUtilization);

        result.arrivals += stats.arrivals;
        result.placed += stats.placed;
        result.rejected += stats.rejected;
        result.departures += stats.departures;
        result.failures += stats.failures;
        result.recoveries += stats.recoveries;
        result.evictions += stats.evictions;
        result.replacements += stats.replacements;
        result.lost += stats.lost;
        result.fillerPlaced += stats.fillerPlaced;
        result.fillerEvicted += stats.fillerEvicted;
        result.events += stats.events;
        result.timeline.push_back(stats);
    }

    // Final snapshot + run accounting.
    Agg total;
    for (int shard = 0; shard < shards_; ++shard) {
        const Agg &a = aggs_[static_cast<std::size_t>(shard)];
        total.upServers += a.upServers;
        total.latencyContexts += a.latencyContexts;
        total.guaranteed += a.guaranteed;
        total.bestEffort += a.bestEffort;
        total.coLocated += a.coLocated;
        total.violating += a.violating;
        total.goodGuaranteed += a.goodGuaranteed;
        total.goodFillers += a.goodFillers;
    }
    result.liveServers = total.upServers;
    result.latencyContextsUp = total.latencyContexts;
    result.guaranteedInstances = total.guaranteed;
    result.bestEffortInstances = total.bestEffort;
    result.coLocatedServers = total.coLocated;
    result.violatingServers = total.violating;
    result.goodGuaranteed = total.goodGuaranteed;
    result.goodFillers = total.goodFillers;
    result.digest = stateDigest();

    // Fairness of the final placement: one serial O(n) scan over the
    // per-server state (extrema do not maintain incrementally under
    // removal, and a single end-of-run pass keeps the epoch loop's
    // integer-only determinism contract untouched).
    {
        double min_sd = 0.0, max_sd = 0.0;
        bool any = false;
        const std::size_t n = classIdx_.size();
        for (std::size_t s = 0; s < n; ++s) {
            if (up_[s] == 0 || g_[s] == 0)
                continue;
            const PairTab &tab = tabOf(s);
            const double sd =
                1.0 -
                tab.src->byInstances[static_cast<std::size_t>(g_[s]) - 1]
                    .actualQos;
            min_sd = any ? std::min(min_sd, sd) : sd;
            max_sd = any ? std::max(max_sd, sd) : sd;
            any = true;
        }
        if (any) {
            result.maxSlowdown = max_sd;
            result.slowdownSpread = max_sd - min_sd;
        }
    }

    registry.counter("scheduler.shard.epochs")
        .add(static_cast<std::uint64_t>(epochs));
    registry.counter("scheduler.shard.passes")
        .add(static_cast<std::uint64_t>(epochs) *
             static_cast<std::uint64_t>(shards_));
    registry.counter("scheduler.shard.events")
        .add(static_cast<std::uint64_t>(result.events));
    registry.gauge("scheduler.shard.count")
        .set(static_cast<double>(shards_));
    registry.counter("scheduler.churn.arrivals")
        .add(static_cast<std::uint64_t>(result.arrivals));
    registry.counter("scheduler.churn.placed")
        .add(static_cast<std::uint64_t>(result.placed));
    registry.counter("scheduler.churn.rejected")
        .add(static_cast<std::uint64_t>(result.rejected));
    registry.counter("scheduler.churn.departures")
        .add(static_cast<std::uint64_t>(result.departures));
    registry.counter("scheduler.churn.failures")
        .add(static_cast<std::uint64_t>(result.failures));
    registry.counter("scheduler.churn.recoveries")
        .add(static_cast<std::uint64_t>(result.recoveries));
    registry.counter("scheduler.churn.evictions")
        .add(static_cast<std::uint64_t>(result.evictions));
    registry.counter("scheduler.churn.replacements")
        .add(static_cast<std::uint64_t>(result.replacements));
    registry.counter("scheduler.churn.lost")
        .add(static_cast<std::uint64_t>(result.lost));
    registry.counter("scheduler.churn.filler_placed")
        .add(static_cast<std::uint64_t>(result.fillerPlaced));
    registry.counter("scheduler.churn.filler_evicted")
        .add(static_cast<std::uint64_t>(result.fillerEvicted));
    return result;
}

bool
ShardedCluster::verifyAggregates() const
{
    if (aggs_.empty())
        return false;
    for (int shard = 0; shard < shards_; ++shard) {
        Agg want;
        const std::int64_t lo =
            shardStart_[static_cast<std::size_t>(shard)];
        const std::int64_t hi =
            shardStart_[static_cast<std::size_t>(shard) + 1];
        for (std::int64_t s = lo; s < hi; ++s) {
            const Agg c = contributionOf(static_cast<std::size_t>(s));
            want.upServers += c.upServers;
            want.latencyContexts += c.latencyContexts;
            want.guaranteed += c.guaranteed;
            want.bestEffort += c.bestEffort;
            want.coLocated += c.coLocated;
            want.violating += c.violating;
            want.goodGuaranteed += c.goodGuaranteed;
            want.goodFillers += c.goodFillers;
        }
        const Agg &got = aggs_[static_cast<std::size_t>(shard)];
        if (want.upServers != got.upServers ||
            want.latencyContexts != got.latencyContexts ||
            want.guaranteed != got.guaranteed ||
            want.bestEffort != got.bestEffort ||
            want.coLocated != got.coLocated ||
            want.violating != got.violating ||
            want.goodGuaranteed != got.goodGuaranteed ||
            want.goodFillers != got.goodFillers)
            return false;
    }
    return true;
}

} // namespace smite::scheduler
