/**
 * @file
 * Keyed randomness for the scheduler layer.
 *
 * Two generations of churn randomness live side by side:
 *
 * - The epoch-granular string keys (`epoch<N>#server<S>`) that the
 *   paper-scale epoch loop (Cluster::runEpochs, epochs.cpp) feeds to
 *   the `server.fail` / `scheduler.observe` / `des.arrival_burst`
 *   fault sites. epochServerKey() is the single definition of that
 *   format, so every EpochPolicy replays the identical churn trace
 *   for a given SMITE_FAULTS seed. The loop makes one check per
 *   (epoch, server), so the key is formatted into a fixed inline
 *   buffer and a check allocates nothing for it.
 *
 * - The numeric keyed streams used by the sharded streaming cluster
 *   (shard.h). Every draw is a pure function of
 *   (seed, salt, a, b) — typically (seed, event kind, server,
 *   occurrence index) — so the outcome is independent of placement
 *   order, shard count and thread count. This is what fixes the
 *   original Cluster's placement-order sampling: a draw belongs to a
 *   *server*, not to the position of that server in a scan.
 *
 * geometricSteps() converts one uniform draw into a
 * time-to-next-event count by inversion, which is what lets the
 * streaming engine skip the per-epoch Bernoulli scan entirely: a
 * Geometric(p) gap between events is distributed identically to
 * "flip a p-coin every epoch", but costs one draw per *event*
 * instead of one per epoch per server.
 */

#ifndef SMITE_SCHEDULER_KEYED_H
#define SMITE_SCHEDULER_KEYED_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string_view>

#include "fault/keyed_hash.h"

namespace smite::scheduler {

/**
 * A per-(epoch, server) fault-site key held in a fixed inline buffer;
 * it reads as the std::string_view that fault::FaultPlan's keyed
 * checks take.
 */
struct EpochServerKey {
    // "epoch" + signed int + "#server" + size_t digits.
    char bytes[5 + std::numeric_limits<int>::digits10 + 2 + 7 +
               std::numeric_limits<std::size_t>::digits10 + 1];
    std::size_t size;

    operator std::string_view() const { return {bytes, size}; }
};

/** The fault-site key `epoch<N>#server<S>`. */
inline EpochServerKey
epochServerKey(int epoch, std::size_t server)
{
    EpochServerKey key{};
    char *p = std::copy_n("epoch", 5, key.bytes);
    p = std::to_chars(p, std::end(key.bytes), epoch).ptr;
    p = std::copy_n("#server", 7, p);
    p = std::to_chars(p, std::end(key.bytes), server).ptr;
    key.size = static_cast<std::size_t>(p - key.bytes);
    return key;
}

namespace keyed {

/** Sentinel epoch for "this event never happens" (p == 0 draws). */
inline constexpr std::int64_t kNever =
    std::numeric_limits<std::int64_t>::max();

using fault::mix64;
using fault::toUnit;

/** The scheduler's draw domain (see fault/keyed_hash.h). */
inline constexpr std::uint64_t kDomain = 0x5851f42d4c957f2dull;

/**
 * One keyed 64-bit draw in the scheduler domain: a pure function of
 * (seed, salt, a, b). The salt separates event kinds (failure vs
 * departure vs probe...), so streams never collide even for equal
 * (a, b).
 */
inline std::uint64_t
draw(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
     std::uint64_t b)
{
    return fault::draw(kDomain, seed, salt, a, b);
}

/**
 * Epochs until the next success of a per-epoch Bernoulli(p) trial,
 * sampled by inversion from one uniform draw: Geometric(p) on
 * {1, 2, ...}. Returns kNever when p <= 0 (or the draw lands so deep
 * in the tail the count cannot be represented); returns 1 when
 * p >= 1.
 */
inline std::int64_t
geometricSteps(double p, std::uint64_t h)
{
    if (p <= 0.0)
        return kNever;
    if (p >= 1.0)
        return 1;
    const double u = toUnit(h);
    // floor(log(1-u) / log(1-p)) + 1, computed with log1p for
    // precision at small p.
    const double k = std::floor(std::log1p(-u) / std::log1p(-p));
    if (!(k < 9.0e15))
        return kNever;
    return 1 + static_cast<std::int64_t>(k);
}

} // namespace keyed
} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_KEYED_H
