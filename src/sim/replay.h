/**
 * @file
 * Run-level replay: interval memoization and warm-state snapshots.
 *
 * Machine::run() binds (and therefore resets) every placed uop
 * source, so a run's outcome is a pure function of
 *
 *   (machine config, per-placement (core, context, stream identity),
 *    warmup cycles, measure cycles)
 *
 * — which is exactly what the Lab, the fig-grid harnesses and the
 * benchmark repeats key their requests on. Two stores exploit that:
 *
 *  - the **ReplayStore** memoizes whole run outcomes (the counter
 *    deltas plus the event-loop tallies) in a single-flight
 *    `core::MemoCache`, so a repeated run replays its recorded
 *    results without constructing a machine or ticking a cycle;
 *  - the **SnapshotStore** shares the post-prewarm L3 image between
 *    runs whose pass-1 functional warmup is provably identical (same
 *    geometry, same per-placement line budgets), so a replay *miss*
 *    still skips re-filling megabytes of cache arrays — the adopted
 *    snapshot is immutable and restored copy-on-read, set by set
 *    (SetAssocCache::Snapshot).
 *
 * Byte-identity contract: with the stores enabled, every observable
 * output — counters returned, fault draws consumed, obs metrics
 * totals — is byte-identical to the `SMITE_SIM_MEMO=0` disabled path
 * (pinned by tests/test_replay.cpp and the tier-1 memo-on/off
 * compare). Sources that cannot promise a stream identity
 * (UopSource::streamDigest() == 0) and reference-ticking runs bypass
 * the ReplayStore automatically.
 *
 * The ReplayStore is also the only measurement state that outlives a
 * process: the **ReplayLog** persists it, keyed as above and salted
 * with kModelVersion, so one log serves every machine and interval
 * and never serves a different model's results.
 */

#ifndef SMITE_SIM_REPLAY_H
#define SMITE_SIM_REPLAY_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/memo_cache.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/counters.h"

namespace smite::sim {

/**
 * Is run-level replay (ReplayStore + SnapshotStore) enabled?
 * Defaults to on; the environment kill-switch `SMITE_SIM_MEMO=0`
 * (read once at first query) and setReplayEnabled() turn it off.
 */
bool replayEnabled();

/**
 * Programmatically enable/disable replay (tests and benchmarks that
 * need both paths in one process). @return the previous setting.
 */
bool setReplayEnabled(bool on);

/** Digest of every outcome-relevant MachineConfig field. */
std::uint64_t configDigest(const MachineConfig &config);

/** Everything Machine::run() produces, recorded for replay. */
struct ReplayEntry {
    std::vector<CounterBlock> results;  ///< pre-jitter counter deltas
    std::uint64_t idleSkipped = 0;      ///< event-loop cycles skipped
    std::uint64_t wakeEvents = 0;       ///< event-loop core wakes
};

/**
 * Replay keys are flat digest vectors (cheap to hash and compare):
 * [config digest, warmup, measure, n, then (core, context, stream
 * digest) per placement] for runs; [config digest, n, then per-
 * placement data-line budget and code-line count] for snapshots.
 */
using ReplayKey = std::vector<std::uint64_t>;

/** Hash of a ReplayKey, for the shards and buckets of a ReplayStore. */
struct ReplayKeyHash {
    std::size_t
    operator()(const ReplayKey &key) const noexcept
    {
        std::uint64_t h = key.size();
        for (const std::uint64_t word : key)
            h = (std::rotl(h, 5) ^ word) * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(h);
    }
};

/** A single-flight store of run outcomes. */
using ReplayStore = core::MemoCache<ReplayKey, ReplayEntry, ReplayKeyHash>;

/**
 * The process-wide run-outcome store, instrumented as
 * `machine.replay.{hits,misses,waits}`. Replay hits additionally
 * count `machine.replay.bytes_restored` (see machine.cpp).
 */
ReplayStore &replayStore();

/**
 * Simulator-model version, salted into every persisted replay record;
 * records of any other version are skipped on load. Bump it with any
 * change that can move a run outcome (model semantics, digest inputs,
 * CounterBlock fields). tests/test_golden_sim.cpp pins it next to a
 * digest of the golden outcomes.
 */
inline constexpr std::uint64_t kModelVersion = 1;

/** Default replay-log file name, relative to the working directory. */
inline constexpr const char *kDefaultReplayLog = "smite_replay.log";

/**
 * Write-through, append-only persistence for a replay store.
 *
 * One record per line, every field a lowercase hex word:
 *
 *   version  key-size  key...  result-count  counter-words...
 *   idle-skipped  wake-events  checksum
 *
 * The counter words are each CounterBlock's uint64 fields in
 * declaration order; the checksum is a Digest of every preceding
 * word. Nothing passes through floating-point formatting, so a
 * loaded entry is bit-equal to the recorded one.
 *
 * Crash safety: each record (newline included) is one O_APPEND
 * write(2) under one mutex, so records never interleave and a crash
 * tears at most the final line. The reader skips, and counts, every
 * line that is torn (no newline), corrupt (malformed or checksum
 * mismatch) or stale (another kModelVersion): losing a record only
 * costs re-simulating its run. The `disk.corrupt` fault site damages
 * appended records to exercise exactly that path.
 */
class ReplayLog
{
  public:
    /** Outcome of one load() pass over the file. */
    struct LoadStats {
        std::uint64_t loaded = 0;   ///< valid records (duplicates too)
        std::uint64_t corrupt = 0;  ///< torn, malformed or bad checksum
        std::uint64_t stale = 0;    ///< valid, but another version
    };

    ReplayLog() = default;
    ~ReplayLog();
    ReplayLog(const ReplayLog &) = delete;
    ReplayLog &operator=(const ReplayLog &) = delete;

    /**
     * Direct later appends to @p path. Performs no I/O: the file is
     * created by the first append.
     */
    void open(const std::string &path);

    /** The path passed to open(), or empty. */
    std::string path() const;

    /**
     * Put every valid current-version record of path() into @p store
     * (existing entries win). A missing file loads nothing.
     */
    LoadStats load(ReplayStore &store) const;

    /** Append one record; no-op before open(). */
    void append(const ReplayKey &key, const ReplayEntry &entry);

    /** One record line (no newline) as append() writes it. */
    static std::string encode(const ReplayKey &key,
                              const ReplayEntry &entry,
                              std::uint64_t version = kModelVersion);

    /** The process-wide log behind replayStore(). */
    static ReplayLog &global();

  private:
    mutable std::mutex mu_;
    std::string path_;
    int fd_ = -1;  ///< opened by the first append
};

/**
 * Open the process-wide ReplayLog at @p path: preload replayStore()
 * from it and write every later replay miss through to it. Counts
 * `machine.replay.log.{preloaded,corrupt,stale}`. Re-opening the
 * path already open is a no-op; with replay disabled
 * (`SMITE_SIM_MEMO=0`) the log is neither read nor written.
 */
void openReplayLog(const std::string &path = kDefaultReplayLog);

/**
 * Bounded store of shared immutable post-prewarm L3 images.
 * Publishes `machine.snapshot.{hits,misses,bytes_captured}`;
 * `machine.snapshot.bytes_restored` counts the bytes runs actually
 * materialize out of adopted images (the copy-on-read win: for short
 * runs it is a small fraction of bytes_captured).
 */
class SnapshotStore
{
  public:
    static SnapshotStore &global();

    /** The image for @p key, or nullptr. Counts a hit or a miss. */
    std::shared_ptr<const SetAssocCache::Snapshot>
    find(const ReplayKey &key);

    /**
     * Publish an image (first writer wins; dropped when the store is
     * at capacity — images are megabytes, so the store stays small
     * and a dropped insert only costs re-warming).
     */
    void insert(const ReplayKey &key,
                std::shared_ptr<const SetAssocCache::Snapshot> snap);

    /** Entries currently held. */
    std::size_t size() const;

  private:
    /** Each image is ~2 MB for an 8 MB L3: keep the store bounded. */
    static constexpr std::size_t kMaxEntries = 32;

    mutable std::shared_mutex mu_;
    std::map<ReplayKey,
             std::shared_ptr<const SetAssocCache::Snapshot>>
        images_;
};

} // namespace smite::sim

#endif // SMITE_SIM_REPLAY_H
