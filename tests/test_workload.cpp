/**
 * @file
 * Unit tests for the workload profiles and trace generator.
 */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "fault/keyed_hash.h"
#include "obs/metrics.h"
#include "workload/cloudsuite.h"
#include "workload/generator.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::workload {
namespace {

/** All six Uop fields equal. */
testing::AssertionResult
sameUop(const sim::Uop &a, const sim::Uop &b)
{
    if (a.type == b.type && a.srcDist1 == b.srcDist1 &&
        a.srcDist2 == b.srcDist2 && a.mispredict == b.mispredict &&
        a.addr == b.addr && a.pc == b.pc)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "type " << int(a.type) << "/" << int(b.type) << " dist1 "
           << int(a.srcDist1) << "/" << int(b.srcDist1) << " dist2 "
           << int(a.srcDist2) << "/" << int(b.srcDist2) << " mispredict "
           << a.mispredict << "/" << b.mispredict << " addr " << a.addr
           << "/" << b.addr << " pc " << a.pc << "/" << b.pc;
}

/** FNV-1a over every field of @p u, continuing from @p h. */
std::uint64_t
fnvUop(std::uint64_t h, const sim::Uop &u)
{
    const auto byte = [&](std::uint64_t v) {
        h = fault::fnv1aStep(h, static_cast<unsigned char>(v));
    };
    byte(static_cast<std::uint8_t>(u.type));
    byte(u.srcDist1);
    byte(u.srcDist2);
    byte(u.mispredict ? 1 : 0);
    for (int i = 0; i < 8; ++i)
        byte(u.addr >> (8 * i));
    for (int i = 0; i < 8; ++i)
        byte(u.pc >> (8 * i));
    return h;
}

TEST(Rng, DeterministicAndNonConstant)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.nextU64(), b.nextU64());
    EXPECT_NE(Rng(7).nextU64(), c.nextU64());
}

TEST(Rng, DoublesInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, GeometricMeanRoughlyCorrect)
{
    Rng rng(5);
    const double target = 4.0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(target));
    EXPECT_NEAR(sum / n, target, 0.15);
}

TEST(Spec2006, SuiteShape)
{
    const auto &suite = spec2006::all();
    EXPECT_EQ(suite.size(), 29u);
    EXPECT_EQ(spec2006::evenNumbered().size(), 14u);
    EXPECT_EQ(spec2006::oddNumbered().size(), 15u);
}

TEST(Spec2006, SplitIsDisjointAndComplete)
{
    std::map<std::string, int> seen;
    for (const auto &p : spec2006::evenNumbered()) {
        EXPECT_EQ(p.specNumber % 2, 0) << p.name;
        ++seen[p.name];
    }
    for (const auto &p : spec2006::oddNumbered()) {
        EXPECT_EQ(p.specNumber % 2, 1) << p.name;
        ++seen[p.name];
    }
    EXPECT_EQ(seen.size(), 29u);
    for (const auto &[name, count] : seen)
        EXPECT_EQ(count, 1) << name;
}

TEST(Spec2006, LookupByName)
{
    EXPECT_EQ(spec2006::byName("429.mcf").specNumber, 429);
    EXPECT_THROW(spec2006::byName("430.nope"), std::out_of_range);
}

TEST(Spec2006, ProfilesAreWellFormed)
{
    for (const auto &p : spec2006::all()) {
        double sum = 0.0;
        for (double f : p.mix) {
            EXPECT_GE(f, 0.0) << p.name;
            sum += f;
        }
        EXPECT_LE(sum, 1.0 + 1e-9) << p.name;
        EXPECT_GT(sum, 0.5) << p.name;  // mostly real work
        EXPECT_LE(p.hotBytes, p.dataFootprint) << p.name;
        EXPECT_GE(p.branchMispredictRate, 0.0) << p.name;
        EXPECT_LE(p.branchMispredictRate, 0.2) << p.name;
        // Constructing a generator validates the rest.
        EXPECT_NO_THROW(ProfileUopSource{p}) << p.name;
    }
}

TEST(Spec2006, PaperCallouts)
{
    // The paper highlights 444.namd as FP_ADD-heavy (port 1),
    // 454.calculix as FP_MUL-heavy (port 0), 470.lbm as more
    // contentious on port 1 than port 0.
    const auto &namd = spec2006::byName("444.namd");
    EXPECT_GT(namd.mixOf(sim::UopType::kFpAdd),
              2 * namd.mixOf(sim::UopType::kFpMul));
    const auto &calculix = spec2006::byName("454.calculix");
    EXPECT_GT(calculix.mixOf(sim::UopType::kFpMul),
              calculix.mixOf(sim::UopType::kFpAdd));
    const auto &lbm = spec2006::byName("470.lbm");
    EXPECT_GT(lbm.mixOf(sim::UopType::kFpAdd),
              lbm.mixOf(sim::UopType::kFpMul));
    // 429.mcf is memory bound: no FP at all, huge footprint.
    const auto &mcf = spec2006::byName("429.mcf");
    EXPECT_EQ(mcf.mixOf(sim::UopType::kFpAdd), 0.0);
    EXPECT_GT(mcf.dataFootprint, 1000ull << 20);
}

TEST(CloudSuite, FourApplications)
{
    const auto &suite = cloudsuite::all();
    ASSERT_EQ(suite.size(), 4u);
    EXPECT_NO_THROW(cloudsuite::byName("Web-Search"));
    EXPECT_NO_THROW(cloudsuite::byName("Data-Caching"));
    EXPECT_NO_THROW(cloudsuite::byName("Data-Serving"));
    EXPECT_NO_THROW(cloudsuite::byName("Graph-Analytics"));
    EXPECT_THROW(cloudsuite::byName("Map-Reduce"), std::out_of_range);
}

TEST(CloudSuite, PercentileReportingMatchesPaper)
{
    // Web-Search and Data-Caching report percentile latency;
    // Data-Serving and Graph-Analytics do not (paper IV-B3).
    EXPECT_TRUE(cloudsuite::byName("Web-Search").reportsPercentile);
    EXPECT_TRUE(cloudsuite::byName("Data-Caching").reportsPercentile);
    EXPECT_FALSE(cloudsuite::byName("Data-Serving").reportsPercentile);
    EXPECT_FALSE(cloudsuite::byName("Graph-Analytics").reportsPercentile);
}

TEST(CloudSuite, LatencySensitiveAndStableQueues)
{
    for (const auto &p : cloudsuite::all()) {
        EXPECT_TRUE(p.isLatencySensitive()) << p.name;
        EXPECT_LT(p.arrivalRate, p.serviceRate) << p.name;
    }
}

TEST(Generator, DeterministicStream)
{
    const auto &p = spec2006::byName("403.gcc");
    ProfileUopSource a(p, 5), b(p, 5);
    for (int i = 0; i < 5000; ++i)
        ASSERT_TRUE(sameUop(a.next(), b.next())) << "uop " << i;
}

TEST(Generator, ResetRewindsExactly)
{
    const auto &p = spec2006::byName("433.milc");
    ProfileUopSource src(p, 9);
    std::vector<sim::Uop> first;
    for (int i = 0; i < 2000; ++i)
        first.push_back(src.next());
    src.reset();
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(sameUop(src.next(), first[i])) << i;
}

TEST(Generator, DifferentSeedsDiffer)
{
    const auto &p = spec2006::byName("433.milc");
    ProfileUopSource a(p, 1), b(p, 2);
    int differing = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().type != b.next().type)
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(Generator, StreamDigestIsPinned)
{
    // Replay logs are keyed on this digest across builds, and the Lab
    // keys its measurements on it: its bytes must not drift.
    const WorkloadProfile &mcf = spec2006::byName("429.mcf");
    EXPECT_EQ(ProfileUopSource(mcf, 1).streamDigest(),
              0xfdc396e85da10188ull);
    EXPECT_EQ(streamDigest(mcf), 0xfdc396e85da10188ull);
    EXPECT_EQ(streamDigest(mcf, 2), ProfileUopSource(mcf, 2).streamDigest());

    // Same name, one parameter moved: a different stream.
    WorkloadProfile copy = mcf;
    copy.hotProb += 0.01;
    EXPECT_NE(streamDigest(copy), streamDigest(mcf));
}

TEST(Generator, SourceBuiltFromAHeldDigestMatchesHashedSource)
{
    const WorkloadProfile &mcf = spec2006::byName("429.mcf");
    ProfileUopSource hashed(mcf, 2);
    ProfileUopSource held(mcf, 2, streamDigest(mcf, 2));
    EXPECT_EQ(held.streamDigest(), hashed.streamDigest());
    for (int i = 0; i < 1000; ++i) {
        const sim::Uop a = hashed.next();
        const sim::Uop b = held.next();
        ASSERT_EQ(a.type, b.type);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.addr, b.addr);
    }
}

TEST(Generator, MixFractionsApproximatelyRealized)
{
    const auto &p = spec2006::byName("444.namd");
    ProfileUopSource src(p, 1);
    std::array<std::uint64_t, sim::kNumUopTypes> counts{};
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(src.next().type)];
    // Phase modulation dilutes everything by the same factor; check
    // the FP_ADD : FP_MUL ratio, which phases preserve.
    const double fp_add = counts[static_cast<int>(sim::UopType::kFpAdd)];
    const double fp_mul = counts[static_cast<int>(sim::UopType::kFpMul)];
    EXPECT_NEAR(fp_add / fp_mul,
                p.mixOf(sim::UopType::kFpAdd) /
                    p.mixOf(sim::UopType::kFpMul),
                0.25);
}

TEST(Generator, AddressesWithinFootprint)
{
    const auto &p = spec2006::byName("429.mcf");
    ProfileUopSource src(p, 1);
    for (int i = 0; i < 100000; ++i) {
        const sim::Uop u = src.next();
        if (u.type == sim::UopType::kLoad ||
            u.type == sim::UopType::kStore) {
            EXPECT_LT(u.addr, p.dataFootprint);
        }
        EXPECT_LT(u.pc, p.codeFootprint);
    }
}

TEST(Generator, MispredictRateApproximatelyRealized)
{
    const auto &p = spec2006::byName("445.gobmk");
    ProfileUopSource src(p, 1);
    std::uint64_t branches = 0, mispredicts = 0;
    for (int i = 0; i < 500000; ++i) {
        const sim::Uop u = src.next();
        if (u.type == sim::UopType::kBranch) {
            ++branches;
            mispredicts += u.mispredict ? 1 : 0;
        }
    }
    ASSERT_GT(branches, 0u);
    EXPECT_NEAR(static_cast<double>(mispredicts) / branches,
                p.branchMispredictRate, 0.01);
}

TEST(Generator, RejectsMalformedProfiles)
{
    WorkloadProfile p = spec2006::byName("403.gcc");
    p.mixOf(sim::UopType::kLoad) = 0.9;  // sum > 1
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);

    p = spec2006::byName("403.gcc");
    p.hotBytes = p.dataFootprint + 1;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);

    p = spec2006::byName("403.gcc");
    p.loopBytes = p.codeFootprint * 2;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);
}

TEST(Generator, ResidencyWeightOrdersMemoryIntensity)
{
    // mcf (huge cold footprint) should claim far more shared cache
    // than calculix (L1-resident).
    ProfileUopSource mcf(spec2006::byName("429.mcf"));
    ProfileUopSource calculix(spec2006::byName("454.calculix"));
    EXPECT_GT(mcf.residencyWeight(), 5 * calculix.residencyWeight());
}

TEST(StreamStore, PinnedPrefixDigest)
{
    // The first 300k uops of 429.mcf seed 1, hashed over all six
    // fields: the value the per-source generator produced before the
    // stream store existed.
    ProfileUopSource src(spec2006::byName("429.mcf"), 1);
    std::uint64_t h = fault::kFnvOffset;
    for (int i = 0; i < 300'000; ++i)
        h = fnvUop(h, src.next());
    EXPECT_EQ(h, 0xc31734e8b74dd2b8ull);
}

/**
 * Read @p n uops of @p src in batches of @p batch and check each
 * against @p live, the same stream generated directly.
 */
void
expectMatchesLive(ProfileUopSource &src, UopGenerator &live, int n,
                  int batch)
{
    std::vector<sim::Uop> buf(batch);
    for (int done = 0; done < n; done += batch) {
        src.nextBatch(buf.data(), batch);
        for (int k = 0; k < batch; ++k)
            ASSERT_TRUE(sameUop(buf[k], live.next()))
                << src.profile().name << " uop " << done + k;
    }
}

TEST(StreamStore, ServesLiveGenerationForEveryProfile)
{
    std::vector<WorkloadProfile> profiles = spec2006::all();
    for (const auto &p : cloudsuite::all())
        profiles.push_back(p);
    constexpr int kChunk = StreamStore::kChunkUops;
    StreamStore store;
    for (const auto &p : profiles) {
        for (const std::uint64_t seed : {1, 2, 100}) {
            SCOPED_TRACE(p.name + " seed " + std::to_string(seed));
            // A budget the first chunk spends: the stream stores one
            // chunk and continues live past it.
            StreamStore tiny(1);
            // Across three chunk boundaries, in an odd batch size.
            ProfileUopSource src(p, seed, store);
            UopGenerator live(p, seed);
            expectMatchesLive(src, live, 3 * kChunk + 37, 37);

            // A second reader of the now-stored stream, rewound in
            // the middle of a chunk: reset() replays from uop 0.
            ProfileUopSource again(p, seed, store);
            UopGenerator first(p, seed);
            expectMatchesLive(again, first, kChunk + kChunk / 2, 16);
            again.reset();
            UopGenerator rewound(p, seed);
            expectMatchesLive(again, rewound, 3 * kChunk + 37, 37);

            // Past the budget: one stored chunk, then live chunks.
            ProfileUopSource capped(p, seed, tiny);
            UopGenerator capped_live(p, seed);
            expectMatchesLive(capped, capped_live, 3 * kChunk + 16, 16);
            capped.reset();
            UopGenerator capped_rewound(p, seed);
            expectMatchesLive(capped, capped_rewound, 2 * kChunk, 64);
        }
    }
}

TEST(StreamStore, WideSideWordsRoundTrip)
{
    // Footprints past 32-bit side words (region index and address in
    // 8-byte units) take the two-word encoding.
    WorkloadProfile p = spec2006::byName("429.mcf");
    p.dataFootprint = std::uint64_t{1} << 36;
    p.codeFootprint = std::uint64_t{1} << 40;
    p.loopBytes = 64;
    p.codeDwellUops = 8.0;
    StreamStore store;
    ProfileUopSource src(p, 3, store);
    UopGenerator live(p, 3);
    expectMatchesLive(src, live, 3 * StreamStore::kChunkUops, 64);
}

TEST(StreamStore, BudgetStopsGrowthAndCountsLiveUops)
{
    obs::Registry &reg = obs::Registry::global();
    const auto count = [&](const char *name) {
        return reg.counter(name).value();
    };
    const std::uint64_t gen0 = count("workload.stream.generated_uops");
    const std::uint64_t live0 = count("workload.stream.live_uops");
    const std::uint64_t streams0 = count("workload.stream.streams");

    constexpr int kChunk = StreamStore::kChunkUops;
    StreamStore tiny(1);  // spent by the first chunk
    const WorkloadProfile &gcc = spec2006::byName("403.gcc");
    ProfileUopSource a(gcc, 1, tiny);
    std::vector<sim::Uop> buf(kChunk);
    for (int i = 0; i < 3; ++i)
        a.nextBatch(buf.data(), kChunk);
    // A second stream opened after the budget is spent never grows.
    ProfileUopSource b(gcc, 2, tiny);
    b.nextBatch(buf.data(), kChunk);

    EXPECT_EQ(count("workload.stream.streams") - streams0, 2u);
    EXPECT_EQ(count("workload.stream.generated_uops") - gen0,
              std::uint64_t{kChunk});
    EXPECT_EQ(count("workload.stream.live_uops") - live0,
              std::uint64_t{3 * kChunk});
}

} // namespace
} // namespace smite::workload
