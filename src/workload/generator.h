/**
 * @file
 * Procedural uop stream generator: turns a WorkloadProfile into an
 * infinite, deterministic sim::UopSource.
 *
 * Three pieces:
 *  - UopGenerator is the generation function itself: (profile, seed)
 *    -> uop sequence.
 *  - StreamStore generates each (profile, seed) stream once per
 *    process, in fixed chunks of a compact encoding, and shares the
 *    chunks read-only across threads.
 *  - ProfileUopSource is the sim::UopSource the simulator binds: it
 *    decodes its stream from the store and, past the store's byte
 *    budget, continues with live generation.
 */

#ifndef SMITE_WORKLOAD_GENERATOR_H
#define SMITE_WORKLOAD_GENERATOR_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/uop.h"
#include "workload/profile.h"
#include "workload/rng.h"

namespace smite::workload {

/**
 * Replay identity of the stream a ProfileUopSource built from
 * (@p profile, @p seed) emits: a digest of every profile field plus
 * the seed. The generator is a pure function of both, so equal
 * digests imply identical streams. sim/replay.h keys runs on it,
 * core::Lab keys its measurements on it and StreamStore keys its
 * streams on it, so its bytes must stay stable across builds (see
 * sim/digest.h).
 */
std::uint64_t streamDigest(const WorkloadProfile &profile,
                           std::uint64_t seed = 1);

/**
 * The generation function behind every profile stream: two
 * generators built from the same profile and seed produce identical
 * streams, which makes solo and co-located measurements of the same
 * application directly comparable, mirroring how the paper replays
 * the same binaries.
 *
 * Besides the uop, each next() reports two facts about it that the
 * stream store's encoding relies on: whether the pc started a new
 * code region (jumped()) and whether the data address came from the
 * streaming cursor (streamed()). Every other pc and every streaming
 * address follows from the previous one by the fixed rules in
 * nextPc() and nextDataAddr().
 */
class UopGenerator
{
  public:
    /**
     * @param profile statistical description of the application
     * @param seed stream seed
     * @throws std::invalid_argument if the profile is malformed
     */
    UopGenerator(const WorkloadProfile &profile, std::uint64_t seed);

    /** The next uop in program order. */
    sim::Uop next();

    /** Did the last next() jump to a new code region? */
    bool jumped() const { return jumped_; }

    /** Did the last next() take its address from the stream cursor? */
    bool streamed() const { return streamed_; }

    /** Base of the current code region. */
    sim::Addr regionBase() const { return regionBase_; }

    /** Offset of the next pc within the current code region. */
    sim::Addr regionOffset() const { return regionOffset_; }

    /** Last streaming address handed out. */
    sim::Addr streamCursor() const { return streamCursor_; }

    /** The generating profile. */
    const WorkloadProfile &profile() const { return profile_; }

    /** The stream seed. */
    std::uint64_t seed() const { return seed_; }

  private:
    sim::Addr nextDataAddr();
    sim::Addr nextPc();
    sim::UopType sampleType();
    std::uint8_t sampleDepDistance();

    WorkloadProfile profile_;
    std::uint64_t seed_;
    Rng rng_;

    /**
     * Integer-domain thresholds (Rng::mantissaCeil/Floor) for the
     * per-uop Bernoulli draws; exactly equivalent to comparing
     * nextDouble() against the profile probabilities, minus the
     * int-to-double conversion on every draw. cumulativeMixThr_ is
     * indexed like the mix array.
     */
    std::array<std::uint64_t, sim::kNumUopTypes> cumulativeMixThr_{};
    std::uint64_t thrStream_ = 0;     ///< < streamFraction
    std::uint64_t thrStack_ = 0;      ///< < stackProb
    std::uint64_t thrHot_ = 0;        ///< < hotProb
    std::uint64_t thrLoadDep_ = 0;    ///< < loadDepProb
    std::uint64_t thrBranchDep_ = 0;  ///< < 0.5 * depProb
    std::uint64_t thrDep_ = 0;        ///< < depProb
    std::uint64_t thrDep2_ = 0;       ///< < dep2Prob
    std::uint64_t thrMispredict_ = 0; ///< < branchMispredictRate
    std::uint64_t thrPhaseLow_ = 0;   ///< > phaseLowFactor

    /**
     * Geometric-trial success threshold for the dependence-distance
     * draw (Rng::nextGeometric with mean depMeanDist, its 1/mean
     * divide hoisted out of the per-uop path). 0 means the mean is
     * <= 1 and the draw trivially returns 1 without consuming RNG
     * state, matching nextGeometric exactly.
     */
    std::uint64_t thrDepGeom_ = 0;

    sim::Addr streamCursor_ = 0;  ///< streaming access position
    sim::Addr regionBase_ = 0;    ///< current code region (loop) base
    sim::Addr regionOffset_ = 0;  ///< instruction pointer within region
    std::uint64_t dwellLeft_ = 0; ///< uops until the next region jump
    bool lowPhase_ = false;       ///< currently in the light phase?
    std::uint64_t phaseLeft_ = 0; ///< uops until the phase flips
    bool jumped_ = false;         ///< last uop started a code region
    bool streamed_ = false;       ///< last uop's address was streamed
};

/**
 * Process-wide store of generated uop streams: each (profile, seed)
 * stream is generated once, however many sources read it.
 *
 * A stream is a singly linked list of immutable chunks of
 * kChunkUops uops each. Readers walk it without locks; a reader that
 * reaches the published end extends the stream under the stream's
 * mutex (single-flight: one generator per stream, one lock per chunk,
 * never per fetch batch). Chunks are never freed while the store
 * lives.
 *
 * Encoding, per uop: one 32-bit header word (type, both dependence
 * distances, the mispredict bit and three tags: region jump,
 * streamed address, explicit address), then a side word for the new
 * region index if it jumped and one for the address (in 8-byte
 * units) if that is explicit. Streams whose footprints do not fit
 * 32-bit side words use two words per side value. A decoder rebuilds
 * the pc and every streaming address from its chunk's start state
 * with the generator's own rules. SPEC and CloudSuite streams take
 * about 4.8 bytes per uop.
 *
 * Once the stored streams total kByteBudget bytes, no stream grows
 * further; a reader past its stream's stored end continues live from
 * a private copy of the generator saved at that end. The store holds
 * no simulated state, so it is on whether or not the run-level
 * replay stores are (sim::replayEnabled()).
 *
 * Metrics (docs/OBSERVABILITY.md): `workload.stream.streams`,
 * `.bytes`, `.generated_uops` and `.live_uops`, each updated once
 * per stream or chunk.
 */
class StreamStore
{
  public:
    /** Uops per chunk. */
    static constexpr int kChunkUops = 4096;

    /** Bytes of encoded chunks after which no stream grows. */
    static constexpr std::size_t kByteBudget = std::size_t{128} << 20;

    /** One immutable run of kChunkUops encoded uops. */
    struct Chunk;

    /** One (profile, seed) stream: its generator and its chunks. */
    class Stream;

    /**
     * @param byte_budget see kByteBudget; production code uses the
     *        default, tests pass a small budget to exercise the live
     *        continuation
     */
    explicit StreamStore(std::size_t byte_budget = kByteBudget);
    ~StreamStore();

    StreamStore(const StreamStore &) = delete;
    StreamStore &operator=(const StreamStore &) = delete;

    /** The process-wide store every ProfileUopSource uses by default. */
    static StreamStore &global();

    /**
     * The stream stored under @p digest, created empty on first use.
     * @p digest must be streamDigest(@p profile, @p seed).
     * @throws std::invalid_argument if the profile is malformed
     * @throws std::logic_error if @p digest already names a stream of
     *         another profile or seed (a digest collision is never
     *         served)
     */
    Stream &open(std::uint64_t digest, const WorkloadProfile &profile,
                 std::uint64_t seed);

  private:
    friend class ProfileUopSource;

    /**
     * The chunk after @p after (the stream's head when null),
     * generating it if no reader has yet. Returns null once the
     * budget is spent and @p after is the stream's last chunk.
     */
    const Chunk *extend(Stream &stream, const Chunk *after);

    const std::size_t budget_;
    std::atomic<std::size_t> bytes_{0};
    std::mutex mu_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Stream>> streams_;
};

/**
 * The sim::UopSource of one (profile, seed) stream: decodes the
 * stream from a StreamStore, so every source of the same stream
 * shares one generation pass. reset() rewinds to the first uop.
 * The store must outlive the source.
 */
class ProfileUopSource final : public sim::UopSource
{
  public:
    /**
     * @param profile statistical description of the application
     * @param seed stream seed; keep fixed for reproducibility
     * @param store the stream store to read from
     * @throws std::invalid_argument if the profile is malformed
     */
    explicit ProfileUopSource(const WorkloadProfile &profile,
                              std::uint64_t seed = 1,
                              StreamStore &store = StreamStore::global());

    /**
     * As above, for a caller that already holds the stream's digest:
     * @p digest must be workload::streamDigest(@p profile, @p seed)
     * (asserted in debug builds), and the profile is not hashed again.
     */
    ProfileUopSource(const WorkloadProfile &profile, std::uint64_t seed,
                     std::uint64_t digest,
                     StreamStore &store = StreamStore::global());
    ~ProfileUopSource() override;
    ProfileUopSource(ProfileUopSource &&) noexcept;
    ProfileUopSource &operator=(ProfileUopSource &&) noexcept;

    sim::Uop next() override;
    int nextBatch(sim::Uop *out, int max) override;
    void reset() override;

    /**
     * Cache-resident applications (small total footprints) keep
     * their whole data set live; larger applications keep only their
     * hot structure resident.
     */
    sim::Addr
    hotFootprint() const override
    {
        constexpr sim::Addr kResidentLimit = 32ull << 20;
        return profile().dataFootprint <= kResidentLimit
                   ? profile().dataFootprint
                   : profile().hotBytes;
    }

    sim::Addr codeFootprint() const override
    {
        return profile().codeFootprint;
    }

    /**
     * Estimated rate of accesses that reach the shared cache:
     * streaming plus hot-region traffic (when the hot region is too
     * big for the private levels) plus cold-random traffic.
     */
    double
    residencyWeight() const override
    {
        constexpr sim::Addr kPrivateReach = 1 << 20;
        const WorkloadProfile &p = profile();
        const double mem = p.mixOf(sim::UopType::kLoad) +
                           p.mixOf(sim::UopType::kStore);
        const double stream_part =
            p.dataFootprint > kPrivateReach ? p.streamFraction : 0.0;
        const double after_stack =
            (1.0 - p.streamFraction) * (1.0 - p.stackProb);
        const double hot_part =
            p.hotBytes > kPrivateReach ? after_stack * p.hotProb : 0.0;
        const double cold_part = after_stack * (1.0 - p.hotProb);
        return 1e-3 + mem * (stream_part + hot_part + cold_part);
    }

    /** The generating profile. */
    const WorkloadProfile &profile() const;

    /**
     * Replay identity: workload::streamDigest(profile, seed). reset()
     * rewinds exactly, so the stream stays a pure function of both.
     */
    std::uint64_t streamDigest() const override { return digest_; }

  private:
    /** Private continuation past the stream's stored end. */
    struct LiveTail;

    /** Position the decoder at the start of the next chunk. */
    void advanceChunk();

    std::uint64_t digest_;
    StreamStore *store_;
    StreamStore::Stream *stream_;
    std::unique_ptr<LiveTail> live_;  ///< set once past the stored end

    /** Decoder position: current shared chunk, next word, uops left. */
    const StreamStore::Chunk *chunk_ = nullptr;
    const std::uint32_t *word_ = nullptr;
    int left_ = 0;

    /** Decoder state: the generator's pc and streaming rules. */
    sim::Addr regionBase_ = 0;
    sim::Addr regionOffset_ = 0;
    sim::Addr streamCursor_ = 0;
};

} // namespace smite::workload

#endif // SMITE_WORKLOAD_GENERATOR_H
