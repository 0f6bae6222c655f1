#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "sim/digest.h"

namespace smite::workload {

namespace {

/** Average bytes of machine code per uop (drives icache pressure). */
constexpr sim::Addr kBytesPerUop = 4;

// Header word layout of the stream store's encoding.
constexpr std::uint32_t kTypeMask = 0xf;
constexpr int kDist1Shift = 4;
constexpr int kDist2Shift = 10;
constexpr std::uint32_t kDistMask = 0x3f;
constexpr std::uint32_t kMispredictBit = 1u << 16;
constexpr std::uint32_t kJumpBit = 1u << 17;      ///< side word: region
constexpr std::uint32_t kStreamedBit = 1u << 18;  ///< address from cursor
constexpr std::uint32_t kExplicitBit = 1u << 19;  ///< side word: addr / 8

static_assert(sim::kNumUopTypes <= 16, "uop type needs 4 header bits");

/** Metrics of every store, registered once. */
struct StreamMetrics {
    obs::Counter &streams;
    obs::Counter &bytes;
    obs::Counter &generated;
    obs::Counter &live;

    static StreamMetrics &
    get()
    {
        static StreamMetrics m{
            obs::Registry::global().counter("workload.stream.streams"),
            obs::Registry::global().counter("workload.stream.bytes"),
            obs::Registry::global().counter(
                "workload.stream.generated_uops"),
            obs::Registry::global().counter("workload.stream.live_uops")};
        return m;
    }
};

} // namespace

UopGenerator::UopGenerator(const WorkloadProfile &profile,
                           std::uint64_t seed)
    : profile_(profile), seed_(seed), rng_(seed)
{
    double sum = 0.0;
    for (int t = 0; t < sim::kNumUopTypes; ++t) {
        if (profile_.mix[t] < 0.0)
            throw std::invalid_argument("negative mix fraction");
        sum += profile_.mix[t];
        cumulativeMixThr_[t] = Rng::mantissaCeil(sum);
    }
    thrStream_ = Rng::mantissaCeil(profile_.streamFraction);
    thrStack_ = Rng::mantissaCeil(profile_.stackProb);
    thrHot_ = Rng::mantissaCeil(profile_.hotProb);
    thrLoadDep_ = Rng::mantissaCeil(profile_.loadDepProb);
    thrBranchDep_ = Rng::mantissaCeil(0.5 * profile_.depProb);
    thrDep_ = Rng::mantissaCeil(profile_.depProb);
    thrDep2_ = Rng::mantissaCeil(profile_.dep2Prob);
    thrMispredict_ = Rng::mantissaCeil(profile_.branchMispredictRate);
    thrPhaseLow_ = Rng::mantissaFloor(profile_.phaseLowFactor);
    // mean > 1 implies p < 1 and so a threshold >= 1; 0 is free to
    // act as the "trivial draw" sentinel.
    thrDepGeom_ = profile_.depMeanDist > 1.0
                      ? Rng::mantissaCeil(1.0 / profile_.depMeanDist)
                      : 0;
    if (sum > 1.0 + 1e-9)
        throw std::invalid_argument("uop mix sums to more than 1");
    if (profile_.hotBytes > profile_.dataFootprint)
        throw std::invalid_argument("hot region exceeds footprint");
    if (profile_.stackBytes < 8 ||
        profile_.stackBytes > profile_.dataFootprint) {
        throw std::invalid_argument("bad stack region size");
    }
    if (profile_.dataFootprint < sim::kLineBytes)
        throw std::invalid_argument("data footprint below one line");
    if (profile_.codeFootprint < sim::kLineBytes)
        throw std::invalid_argument("code footprint below one line");
    if (profile_.loopBytes < sim::kLineBytes ||
        profile_.loopBytes > profile_.codeFootprint) {
        throw std::invalid_argument(
            "loop size must be within [64B, code footprint]");
    }
    // Start streaming in the middle of the footprint: for large
    // arrays this is far beyond any functionally warmed region (a
    // stream's first touch of a line is cold by nature), while for
    // cache-resident footprints it stays warm, as it should.
    streamCursor_ = (profile_.dataFootprint / 2) & ~sim::Addr{7};
}

std::uint64_t
streamDigest(const WorkloadProfile &profile, std::uint64_t seed)
{
    sim::Digest d;
    d.str("workload.profile");
    d.str(profile.name);
    d.u64(static_cast<std::uint64_t>(profile.specNumber));
    d.u64(static_cast<std::uint64_t>(profile.suite));
    for (const double m : profile.mix)
        d.f64(m);
    d.f64(profile.branchMispredictRate);
    d.u64(profile.dataFootprint);
    d.f64(profile.streamFraction);
    d.u64(profile.stackBytes);
    d.f64(profile.stackProb);
    d.u64(profile.hotBytes);
    d.f64(profile.hotProb);
    d.u64(profile.codeFootprint);
    d.u64(profile.loopBytes);
    d.f64(profile.codeDwellUops);
    d.f64(profile.phaseLowFactor);
    d.f64(profile.phaseMeanUops);
    d.f64(profile.depProb);
    d.f64(profile.loadDepProb);
    d.f64(profile.dep2Prob);
    d.f64(profile.depMeanDist);
    d.f64(profile.arrivalRate);
    d.f64(profile.serviceRate);
    d.u64(profile.reportsPercentile ? 1 : 0);
    d.u64(seed);
    return d.value();
}

sim::Addr
UopGenerator::nextPc()
{
    jumped_ = dwellLeft_ == 0;
    if (jumped_) {
        // Jump to another function/loop in the code blob and spin
        // there for a geometrically distributed number of uops.
        const std::uint64_t regions =
            std::max<std::uint64_t>(1, profile_.codeFootprint /
                                           profile_.loopBytes);
        regionBase_ = rng_.nextBelow(regions) * profile_.loopBytes;
        regionOffset_ = 0;
        const double mean = std::max(1.0, profile_.codeDwellUops);
        dwellLeft_ = 1 + static_cast<std::uint64_t>(
                             -mean * std::log(1.0 - rng_.nextDouble()));
    }
    --dwellLeft_;
    const sim::Addr pc = regionBase_ + regionOffset_;
    // regionOffset_ < loopBytes and kBytesPerUop < 64 <= loopBytes,
    // so a single subtraction replaces the modulo exactly.
    regionOffset_ += kBytesPerUop;
    if (regionOffset_ >= profile_.loopBytes)
        regionOffset_ -= profile_.loopBytes;
    return pc;
}

sim::UopType
UopGenerator::sampleType()
{
    const std::uint64_t x = rng_.nextMantissa();
    for (int t = 0; t < sim::kNumUopTypes; ++t) {
        if (x < cumulativeMixThr_[t])
            return static_cast<sim::UopType>(t);
    }
    return sim::UopType::kNop;
}

std::uint8_t
UopGenerator::sampleDepDistance()
{
    // Inline of rng_.nextGeometric(profile_.depMeanDist) with the
    // trial threshold precomputed at construction: same draws, same
    // results, no divide on the per-uop path.
    std::uint64_t d = 1;
    if (thrDepGeom_ != 0) {
        while (rng_.nextMantissa() >= thrDepGeom_ && d < 1024)
            ++d;
    }
    return static_cast<std::uint8_t>(std::min<std::uint64_t>(d, 63));
}

sim::Addr
UopGenerator::nextDataAddr()
{
    streamed_ = rng_.nextMantissa() < thrStream_;
    if (streamed_) {
        // Streaming walks the footprint at element (8B) granularity,
        // so consecutive accesses mostly stay within one cache line —
        // the spatial locality real array code has. The cursor stays
        // below the footprint (>= 64), so wrap by subtraction.
        streamCursor_ += 8;
        if (streamCursor_ >= profile_.dataFootprint)
            streamCursor_ -= profile_.dataFootprint;
        return streamCursor_;
    }
    if (rng_.nextMantissa() < thrStack_)
        return rng_.nextBelow(profile_.stackBytes / 8) * 8;
    if (rng_.nextMantissa() < thrHot_)
        return rng_.nextBelow(profile_.hotBytes / 8) * 8;
    return rng_.nextBelow(profile_.dataFootprint / 8) * 8;
}

sim::Uop
UopGenerator::next()
{
    streamed_ = false;
    // Phase modulation: in the light phase a fraction of slots carry
    // no modeled resource demand.
    if (phaseLeft_ == 0) {
        lowPhase_ = !lowPhase_;
        const double mean = std::max(1.0, profile_.phaseMeanUops);
        phaseLeft_ = 1 + static_cast<std::uint64_t>(
                             -mean * std::log(1.0 - rng_.nextDouble()));
    }
    --phaseLeft_;
    if (lowPhase_ && rng_.nextMantissa() > thrPhaseLow_) {
        sim::Uop filler;
        filler.type = sim::UopType::kNop;
        filler.pc = nextPc();
        return filler;
    }

    sim::Uop uop;
    uop.type = sampleType();
    uop.pc = nextPc();

    if (uop.type == sim::UopType::kLoad) {
        // Loads serialize on earlier results only when the program
        // actually chases pointers; array address streams are
        // dependence-free and overlap their misses.
        if (rng_.nextMantissa() < thrLoadDep_)
            uop.srcDist1 = sampleDepDistance();
    } else if (uop.type == sim::UopType::kBranch) {
        // Branch conditions are typically simple flag tests; give
        // them lighter dependences so resolution is not dominated by
        // deep value chains.
        if (rng_.nextMantissa() < thrBranchDep_)
            uop.srcDist1 = sampleDepDistance();
    } else {
        if (rng_.nextMantissa() < thrDep_)
            uop.srcDist1 = sampleDepDistance();
        if (rng_.nextMantissa() < thrDep2_)
            uop.srcDist2 = sampleDepDistance();
    }

    switch (uop.type) {
      case sim::UopType::kLoad:
      case sim::UopType::kStore:
        uop.addr = nextDataAddr();
        break;
      case sim::UopType::kBranch:
        uop.mispredict = rng_.nextMantissa() < thrMispredict_;
        break;
      default:
        break;
    }
    return uop;
}

// --- Stream store ---------------------------------------------------

struct StreamStore::Chunk {
    /** Successor, published once with release order. */
    mutable std::atomic<const Chunk *> next{nullptr};
    /** Decoder state before the first uop (see UopGenerator). */
    sim::Addr regionBase = 0;
    sim::Addr regionOffset = 0;
    sim::Addr streamCursor = 0;
    /** kChunkUops encoded uops. */
    std::vector<std::uint32_t> words;
};

class StreamStore::Stream
{
  public:
    Stream(const WorkloadProfile &profile, std::uint64_t seed)
        : gen(profile, seed),
          wide(profile.codeFootprint / profile.loopBytes >
                   std::numeric_limits<std::uint32_t>::max() ||
               profile.dataFootprint / 8 >
                   std::numeric_limits<std::uint32_t>::max())
    {}

    /**
     * Generates chunks under mu; its state is the stream's stored
     * end. Its profile never changes and is read without the lock.
     */
    UopGenerator gen;
    /** Side values take two words (low, high) instead of one. */
    const bool wide;

    std::atomic<const Chunk *> head{nullptr};
    std::mutex mu;
    std::vector<std::unique_ptr<Chunk>> chunks;  ///< guarded by mu
};

namespace {

void
pushSide(std::vector<std::uint32_t> &out, std::uint64_t v, bool wide)
{
    out.push_back(static_cast<std::uint32_t>(v));
    if (wide)
        out.push_back(static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t
readSide(const std::uint32_t *&w, bool wide)
{
    std::uint64_t v = *w++;
    if (wide)
        v |= std::uint64_t{*w++} << 32;
    return v;
}

/**
 * Generate the next kChunkUops uops of @p gen into @p chunk:
 * its start state, then the encoded words.
 */
void
fillChunk(UopGenerator &gen, bool wide, StreamStore::Chunk &chunk)
{
    chunk.regionBase = gen.regionBase();
    chunk.regionOffset = gen.regionOffset();
    chunk.streamCursor = gen.streamCursor();
    const sim::Addr loop = gen.profile().loopBytes;
    std::vector<std::uint32_t> &words = chunk.words;
    words.clear();
    words.reserve(2 * StreamStore::kChunkUops);
    for (int i = 0; i < StreamStore::kChunkUops; ++i) {
        const sim::Uop u = gen.next();
        std::uint32_t h = static_cast<std::uint32_t>(u.type) |
                          std::uint32_t{u.srcDist1} << kDist1Shift |
                          std::uint32_t{u.srcDist2} << kDist2Shift;
        if (u.mispredict)
            h |= kMispredictBit;
        const bool mem = u.type == sim::UopType::kLoad ||
                         u.type == sim::UopType::kStore;
        if (gen.jumped())
            h |= kJumpBit;
        if (gen.streamed())
            h |= kStreamedBit;
        else if (mem)
            h |= kExplicitBit;
        words.push_back(h);
        if (gen.jumped())
            pushSide(words, gen.regionBase() / loop, wide);
        if (h & kExplicitBit)
            pushSide(words, u.addr >> 3, wide);
    }
}

} // namespace

StreamStore::StreamStore(std::size_t byte_budget) : budget_(byte_budget)
{}

StreamStore::~StreamStore() = default;

StreamStore &
StreamStore::global()
{
    // Leaked on purpose: sources may still be read during static
    // destruction (pool threads, late reports).
    static StreamStore *store = new StreamStore();
    return *store;
}

StreamStore::Stream &
StreamStore::open(std::uint64_t digest, const WorkloadProfile &profile,
                  std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(digest);
    if (it == streams_.end()) {
        auto stream = std::make_unique<Stream>(profile, seed);
        it = streams_.emplace(digest, std::move(stream)).first;
        StreamMetrics::get().streams.add();
    } else if (it->second->gen.seed() != seed ||
               !(it->second->gen.profile() == profile)) {
        throw std::logic_error("stream digest collision: " +
                               profile.name + " vs " +
                               it->second->gen.profile().name);
    }
    return *it->second;
}

const StreamStore::Chunk *
StreamStore::extend(Stream &stream, const Chunk *after)
{
    std::lock_guard<std::mutex> lock(stream.mu);
    std::atomic<const Chunk *> &link = after ? after->next : stream.head;
    if (const Chunk *c = link.load(std::memory_order_acquire))
        return c;  // another reader extended it first
    // bytes_ only grows, so a spent budget stays spent and `after`
    // stays this stream's last chunk.
    if (bytes_.load(std::memory_order_relaxed) >= budget_)
        return nullptr;

    auto chunk = std::make_unique<Chunk>();
    fillChunk(stream.gen, stream.wide, *chunk);
    chunk->words.shrink_to_fit();
    const std::size_t bytes =
        sizeof(Chunk) + chunk->words.capacity() * sizeof(std::uint32_t);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    StreamMetrics &m = StreamMetrics::get();
    m.bytes.add(bytes);
    m.generated.add(kChunkUops);

    const Chunk *published = chunk.get();
    stream.chunks.push_back(std::move(chunk));
    link.store(published, std::memory_order_release);
    return published;
}

// --- Profile uop source ----------------------------------------------

/**
 * Generation past the stored end of a stream the budget stopped: a
 * private copy of the stream's generator, re-filling one private
 * chunk at a time.
 */
struct ProfileUopSource::LiveTail {
    UopGenerator gen;
    StreamStore::Chunk chunk;
};

ProfileUopSource::ProfileUopSource(const WorkloadProfile &profile,
                                   std::uint64_t seed, StreamStore &store)
    : ProfileUopSource(profile, seed, workload::streamDigest(profile, seed),
                       store)
{}

ProfileUopSource::ProfileUopSource(const WorkloadProfile &profile,
                                   std::uint64_t seed, std::uint64_t digest,
                                   StreamStore &store)
    : digest_(digest), store_(&store),
      stream_(&store.open(digest_, profile, seed))
{
    assert(digest == workload::streamDigest(profile, seed));
}

ProfileUopSource::~ProfileUopSource() = default;
ProfileUopSource::ProfileUopSource(ProfileUopSource &&) noexcept =
    default;
ProfileUopSource &
ProfileUopSource::operator=(ProfileUopSource &&) noexcept = default;

const WorkloadProfile &
ProfileUopSource::profile() const
{
    return stream_->gen.profile();
}

void
ProfileUopSource::reset()
{
    live_.reset();
    chunk_ = nullptr;
    word_ = nullptr;
    left_ = 0;
}

void
ProfileUopSource::advanceChunk()
{
    const StreamStore::Chunk *c = nullptr;
    if (!live_) {
        const std::atomic<const StreamStore::Chunk *> &link =
            chunk_ ? chunk_->next : stream_->head;
        c = link.load(std::memory_order_acquire);
        if (c == nullptr)
            c = store_->extend(*stream_, chunk_);
        if (c == nullptr) {
            // The budget is spent and chunk_ is the stream's last
            // chunk: the stream's generator is parked right after it
            // for good.
            std::lock_guard<std::mutex> lock(stream_->mu);
            live_.reset(new LiveTail{stream_->gen, {}});
        }
    }
    if (c != nullptr) {
        chunk_ = c;
    } else {
        fillChunk(live_->gen, stream_->wide, live_->chunk);
        StreamMetrics::get().live.add(StreamStore::kChunkUops);
        c = &live_->chunk;
    }
    word_ = c->words.data();
    left_ = StreamStore::kChunkUops;
    regionBase_ = c->regionBase;
    regionOffset_ = c->regionOffset;
    streamCursor_ = c->streamCursor;
}

int
ProfileUopSource::nextBatch(sim::Uop *out, int max)
{
    const sim::Addr loop = stream_->gen.profile().loopBytes;
    const sim::Addr footprint = stream_->gen.profile().dataFootprint;
    const bool wide = stream_->wide;
    int i = 0;
    while (i < max) {
        if (left_ == 0)
            advanceChunk();
        const int n = std::min(max - i, left_);
        const std::uint32_t *w = word_;
        sim::Addr base = regionBase_;
        sim::Addr offset = regionOffset_;
        sim::Addr cursor = streamCursor_;
        for (int k = 0; k < n; ++k) {
            const std::uint32_t h = *w++;
            sim::Uop u;
            u.type = static_cast<sim::UopType>(h & kTypeMask);
            u.srcDist1 =
                static_cast<std::uint8_t>((h >> kDist1Shift) & kDistMask);
            u.srcDist2 =
                static_cast<std::uint8_t>((h >> kDist2Shift) & kDistMask);
            u.mispredict = (h & kMispredictBit) != 0;
            // The generator's nextPc() and nextDataAddr() rules.
            if (h & kJumpBit) {
                base = readSide(w, wide) * loop;
                offset = 0;
            }
            u.pc = base + offset;
            offset += kBytesPerUop;
            if (offset >= loop)
                offset -= loop;
            if (h & kStreamedBit) {
                cursor += 8;
                if (cursor >= footprint)
                    cursor -= footprint;
                u.addr = cursor;
            } else if (h & kExplicitBit) {
                u.addr = readSide(w, wide) << 3;
            }
            out[i + k] = u;
        }
        word_ = w;
        regionBase_ = base;
        regionOffset_ = offset;
        streamCursor_ = cursor;
        left_ -= n;
        i += n;
    }
    return max;
}

sim::Uop
ProfileUopSource::next()
{
    sim::Uop uop;
    nextBatch(&uop, 1);
    return uop;
}

} // namespace smite::workload
