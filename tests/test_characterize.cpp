/**
 * @file
 * Tests of the Ruler characterization protocol (Equations 1-2) and
 * the paper's qualitative findings about decoupled sensitivity.
 *
 * These run real (short) simulations, so tolerances are loose; the
 * assertions encode *orderings*, the same way the paper's findings
 * are stated.
 */

#include <array>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

/** One shared lab with short windows keeps this suite fast. */
Lab &
lab()
{
    static Lab instance(sim::MachineConfig::ivyBridge(), 20000, 80000);
    return instance;
}

TEST(Characterize, ValuesAreBoundedFractions)
{
    const auto &c = lab().characterization(
        workload::spec2006::byName("450.soplex"), CoLocationMode::kSmt);
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        EXPECT_GT(c.sensitivity[d], -0.15) << "dim " << d;
        EXPECT_LT(c.sensitivity[d], 1.0) << "dim " << d;
        EXPECT_GT(c.contentiousness[d], -0.15) << "dim " << d;
        EXPECT_LT(c.contentiousness[d], 1.0) << "dim " << d;
    }
}

TEST(Characterize, NamdIsPortOneSensitive)
{
    // Paper Finding 2/Figure 2: 444.namd suffers heavily from FP_ADD
    // (port 1) contention but is nearly immune to FP_MUL (port 0).
    const auto &c = lab().characterization(
        workload::spec2006::byName("444.namd"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_GT(c.sensitivity[p1], 0.2);
    EXPECT_GT(c.sensitivity[p1], 5 * c.sensitivity[p0]);
}

TEST(Characterize, CalculixIsPortZeroContentious)
{
    // Paper Finding 4: 454.calculix is more contentious on port 0
    // than 470.lbm, which leans on port 1.
    const auto &calculix = lab().characterization(
        workload::spec2006::byName("454.calculix"),
        CoLocationMode::kSmt);
    const auto &lbm = lab().characterization(
        workload::spec2006::byName("470.lbm"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_GT(calculix.contentiousness[p0], lbm.contentiousness[p0]);
    EXPECT_GT(lbm.contentiousness[p1], lbm.contentiousness[p0]);
}

TEST(Characterize, McfIsPortInsensitiveButMemoryActive)
{
    // Paper Figure 2: 429.mcf suffers ~6% from port contention while
    // others suffer up to 70%; its action is in the memory system.
    const auto &c = lab().characterization(
        workload::spec2006::byName("429.mcf"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    const int l3 = rulers::dimensionIndex(rulers::Dimension::kL3);
    EXPECT_LT(c.sensitivity[p0], 0.05);
    EXPECT_LT(c.sensitivity[p1], 0.05);
    EXPECT_GT(c.contentiousness[l3], 0.1);
}

TEST(Characterize, CmpModeDropsCoreLevelSensitivity)
{
    // On CMP co-location only L3/DRAM are shared: port sensitivity
    // must collapse relative to SMT for a port-bound application.
    const auto &profile = workload::spec2006::byName("444.namd");
    const auto &smt =
        lab().characterization(profile, CoLocationMode::kSmt);
    const auto &cmp =
        lab().characterization(profile, CoLocationMode::kCmp);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_LT(cmp.sensitivity[p1], 0.3 * smt.sensitivity[p1] + 0.02);
}

TEST(Characterize, CachedCharacterizationIsStable)
{
    const auto &profile = workload::spec2006::byName("401.bzip2");
    const auto &a =
        lab().characterization(profile, CoLocationMode::kSmt);
    const auto &b =
        lab().characterization(profile, CoLocationMode::kSmt);
    EXPECT_EQ(&a, &b);  // same cached object
}

TEST(Characterize, RejectsBadThreadCounts)
{
    const auto &profile = workload::spec2006::byName("401.bzip2");
    EXPECT_THROW(lab().characterization(profile, CoLocationMode::kSmt, 0),
                 std::invalid_argument);
    EXPECT_THROW(
        lab().characterization(profile, CoLocationMode::kSmt, 99),
        std::invalid_argument);
    // CMP needs twice the cores.
    const int cores = lab().machine().config().numCores;
    EXPECT_THROW(
        lab().characterization(profile, CoLocationMode::kCmp, cores),
        std::invalid_argument);
}

TEST(Lab, PairDegradationSymmetricCaching)
{
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("403.gcc");
    const double d1 = lab().pairDegradation(a, b, CoLocationMode::kSmt);
    const double d2 = lab().pairDegradation(b, a, CoLocationMode::kSmt);
    // Both directions were filled by one run; re-query is consistent.
    EXPECT_EQ(d1, lab().pairDegradation(a, b, CoLocationMode::kSmt));
    EXPECT_EQ(d2, lab().pairDegradation(b, a, CoLocationMode::kSmt));
}

/** Everything a Lab measures about @p p (paired with @p other). */
struct Measured {
    double solo_ipc;
    sim::CounterBlock solo_counters;
    Characterization characterization;
    double victim_deg;
    double aggressor_deg;
    double multi;
    std::array<double, sim::kNumPorts> ports;
};

Measured
measureAll(Lab &lab, const workload::WorkloadProfile &p,
           const workload::WorkloadProfile &other)
{
    const auto mode = CoLocationMode::kSmt;
    return Measured{lab.soloIpc(p),
                    lab.soloCounters(p),
                    lab.characterization(p, mode),
                    lab.pairDegradation(p, other, mode),
                    lab.pairDegradation(other, p, mode),
                    lab.multiInstanceDegradation(p, 2, other, 1, mode),
                    lab.pairPortUtilization(p, other, mode)};
}

void
expectSame(const Measured &got, const Measured &want)
{
    EXPECT_EQ(got.solo_ipc, want.solo_ipc);
    EXPECT_EQ(got.solo_counters.cycles, want.solo_counters.cycles);
    EXPECT_EQ(got.solo_counters.uops, want.solo_counters.uops);
    EXPECT_EQ(got.solo_counters.pmuRates(), want.solo_counters.pmuRates());
    EXPECT_EQ(got.characterization.sensitivity,
              want.characterization.sensitivity);
    EXPECT_EQ(got.characterization.contentiousness,
              want.characterization.contentiousness);
    EXPECT_EQ(got.victim_deg, want.victim_deg);
    EXPECT_EQ(got.aggressor_deg, want.aggressor_deg);
    EXPECT_EQ(got.multi, want.multi);
    EXPECT_EQ(got.ports, want.ports);
}

TEST(Lab, SameNameCopyIsMeasuredNotServedFromTheOriginal)
{
    // Results are keyed by what a profile is, not what it is called:
    // once a Lab has measured 429.mcf, a same-name copy with another
    // footprint and locality must measure what a fresh Lab measures.
    constexpr sim::Cycle kWarmup = 2000, kMeasure = 8000;
    const auto &original = workload::spec2006::byName("429.mcf");
    workload::WorkloadProfile copy = original;
    copy.dataFootprint = 8ull << 20;
    copy.hotBytes = 24ull << 10;
    copy.hotProb = 0.99;
    const auto &other = workload::spec2006::byName("453.povray");

    Lab shared(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const Measured first = measureAll(shared, original, other);
    const Measured second = measureAll(shared, copy, other);
    Lab fresh(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    expectSame(second, measureAll(fresh, copy, other));
    EXPECT_NE(second.solo_ipc, first.solo_ipc);

    // Equal names order a pair by digest, so both directions still
    // come from one run whichever is asked first.
    const auto mode = CoLocationMode::kSmt;
    Lab backward(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const double copy_deg = backward.pairDegradation(copy, original, mode);
    EXPECT_EQ(shared.pairDegradation(original, copy, mode),
              backward.pairDegradation(original, copy, mode));
    EXPECT_EQ(shared.pairDegradation(copy, original, mode), copy_deg);
    // original/povray, copy/povray and original/copy.
    EXPECT_EQ(shared.stats().pairs, 3u);
}

TEST(Lab, ScaleToInstancesIsLinear)
{
    EXPECT_NEAR(Lab::scaleToInstances(0.3, 3, 6), 0.15, 1e-12);
    EXPECT_NEAR(Lab::scaleToInstances(0.3, 6, 6), 0.3, 1e-12);
    EXPECT_THROW(Lab::scaleToInstances(0.3, 1, 0),
                 std::invalid_argument);
}

TEST(Lab, MultiInstanceDegradationGrowsWithInstances)
{
    // More batch instances cannot systematically help the latency
    // app (paper Figure 12's measured bars grow with instances).
    Lab small(sim::MachineConfig::ivyBridge(), 10000, 40000);
    const auto &latency = workload::spec2006::byName("453.povray");
    const auto &batch = workload::spec2006::byName("470.lbm");
    const double d1 = small.multiInstanceDegradation(
        latency, 4, batch, 1, CoLocationMode::kSmt);
    const double d4 = small.multiInstanceDegradation(
        latency, 4, batch, 4, CoLocationMode::kSmt);
    EXPECT_GT(d4, d1 - 0.02);
}

TEST(Lab, MultiInstanceValidatesShapes)
{
    Lab small(sim::MachineConfig::ivyBridge(), 1000, 2000);
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("470.lbm");
    EXPECT_THROW(small.multiInstanceDegradation(
                     a, 4, b, 5, CoLocationMode::kSmt),
                 std::invalid_argument);
    EXPECT_THROW(small.multiInstanceDegradation(
                     a, 3, b, 2, CoLocationMode::kCmp),
                 std::invalid_argument);
}

} // namespace
} // namespace smite::core
