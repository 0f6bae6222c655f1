/**
 * @file
 * Integration-level tests of the SMT machine model: issue-port
 * arbitration, dependence handling, SMT vs CMP sharing, determinism.
 */

#include <memory>

#include <gtest/gtest.h>

#include "rulers/ruler.h"
#include "sim/machine.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

namespace smite::sim {
namespace {

/** Minimal source emitting one fixed uop type forever. */
class MonoSource : public UopSource
{
  public:
    explicit MonoSource(UopType type, std::uint8_t dep = 0)
        : type_(type), dep_(dep)
    {}

    Uop
    next() override
    {
        Uop uop;
        uop.type = type_;
        uop.srcDist1 = dep_;
        uop.pc = pc_;
        pc_ = (pc_ + 4) % 256;
        return uop;
    }

    void reset() override { pc_ = 0; }

  private:
    UopType type_;
    std::uint8_t dep_;
    Addr pc_ = 0;
};

Machine
ivb()
{
    return Machine(MachineConfig::ivyBridge());
}

TEST(Machine, TableOneConfigs)
{
    const auto snb = MachineConfig::sandyBridgeEN();
    EXPECT_EQ(snb.numCores, 6);
    EXPECT_EQ(snb.totalContexts(), 12);
    EXPECT_EQ(snb.l3.sizeBytes, 15ull * 1024 * 1024);
    EXPECT_EQ(snb.microarchitecture, "Sandy Bridge-EN");

    const auto ivy = MachineConfig::ivyBridge();
    EXPECT_EQ(ivy.numCores, 4);
    EXPECT_EQ(ivy.l3.sizeBytes, 8ull * 1024 * 1024);
}

TEST(Machine, StoresItsConfigDigestAndCloneKeepsIt)
{
    const auto ivy = MachineConfig::ivyBridge();
    const auto snb = MachineConfig::sandyBridgeEN();
    for (const MachineConfig &config : {ivy, snb}) {
        const Machine machine(config);
        EXPECT_EQ(machine.configDigest(), configDigest(config));
        EXPECT_EQ(machine.clone().configDigest(), configDigest(config));
    }
    EXPECT_NE(Machine(ivy).configDigest(), Machine(snb).configDigest());
}

TEST(Machine, SinglePortTypeSaturatesAtOneIpc)
{
    MonoSource mul(UopType::kFpMul);
    const auto c = ivb().runSolo(mul, 2000, 20000);
    EXPECT_NEAR(c.ipc(), 1.0, 0.01);
    EXPECT_NEAR(c.portUtilization(0), 1.0, 0.01);
}

TEST(Machine, TriPortTypeSaturatesAtThreeIpc)
{
    MonoSource add(UopType::kIntAdd);
    const auto c = ivb().runSolo(add, 2000, 20000);
    EXPECT_NEAR(c.ipc(), 3.0, 0.02);
}

TEST(Machine, SerialDependenceChainRunsAtChainLatency)
{
    // Every uop depends on its predecessor: IPC = 1/latency.
    MonoSource chain(UopType::kFpAdd, /*dep=*/1);
    const auto c = ivb().runSolo(chain, 2000, 20000);
    EXPECT_NEAR(c.ipc(), 1.0 / execLatency(UopType::kFpAdd), 0.02);
}

TEST(Machine, SmtSharingOfOnePortHalvesThroughput)
{
    // Two FP_MUL streams on one core fight for port 0.
    MonoSource a(UopType::kFpMul), b(UopType::kFpMul);
    const auto counters = ivb().runPairSmt(a, b, 2000, 20000);
    EXPECT_NEAR(counters[0].ipc(), 0.5, 0.03);
    EXPECT_NEAR(counters[1].ipc(), 0.5, 0.03);
}

TEST(Machine, CmpPlacementremovesPortContention)
{
    // The same two streams on different cores do not interfere.
    MonoSource a(UopType::kFpMul), b(UopType::kFpMul);
    const auto counters = ivb().runPairCmp(a, b, 2000, 20000);
    EXPECT_NEAR(counters[0].ipc(), 1.0, 0.02);
    EXPECT_NEAR(counters[1].ipc(), 1.0, 0.02);
}

TEST(Machine, DisjointPortsCoexistOnSmt)
{
    // FP_MUL (port 0) + FP_ADD (port 1) share a core without port
    // conflicts; both sustain full throughput.
    MonoSource a(UopType::kFpMul), b(UopType::kFpAdd);
    const auto counters = ivb().runPairSmt(a, b, 2000, 20000);
    EXPECT_NEAR(counters[0].ipc(), 1.0, 0.05);
    EXPECT_NEAR(counters[1].ipc(), 1.0, 0.05);
}

TEST(Machine, RunsAreDeterministic)
{
    const auto &profile = workload::spec2006::byName("403.gcc");
    workload::ProfileUopSource s1(profile), s2(profile);
    const auto a = ivb().runSolo(s1, 5000, 30000);
    const auto b = ivb().runSolo(s2, 5000, 30000);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(Machine, RejectsBadPlacements)
{
    MonoSource src(UopType::kIntAdd);
    const Machine machine = ivb();
    EXPECT_THROW(machine.run({Placement{99, 0, &src}}, 10, 10),
                 std::invalid_argument);
    EXPECT_THROW(machine.run({Placement{0, 7, &src}}, 10, 10),
                 std::invalid_argument);
    EXPECT_THROW(machine.run({Placement{0, 0, nullptr}}, 10, 10),
                 std::invalid_argument);
}

TEST(Machine, CountersOnlyCoverMeasurementWindow)
{
    MonoSource src(UopType::kIntAdd);
    const auto c = ivb().runSolo(src, 5000, 10000);
    EXPECT_EQ(c.cycles, 10000u);
    EXPECT_NEAR(static_cast<double>(c.uops), 3.0 * 10000, 200);
}

TEST(Machine, BranchMispredictsReduceThroughput)
{
    class BranchySource : public UopSource
    {
      public:
        explicit BranchySource(double rate) : rate_(rate) {}
        Uop
        next() override
        {
            Uop uop;
            uop.pc = pc_;
            pc_ = (pc_ + 4) % 256;
            if (++count_ % 4 == 0) {
                uop.type = UopType::kBranch;
                // Deterministic mispredict pattern.
                mispredict_acc_ += rate_;
                if (mispredict_acc_ >= 1.0) {
                    mispredict_acc_ -= 1.0;
                    uop.mispredict = true;
                }
            } else {
                uop.type = UopType::kIntAdd;
            }
            return uop;
        }
        void
        reset() override
        {
            count_ = 0;
            pc_ = 0;
            mispredict_acc_ = 0;
        }

      private:
        double rate_;
        std::uint64_t count_ = 0;
        Addr pc_ = 0;
        double mispredict_acc_ = 0;
    };

    BranchySource perfect(0.0), noisy(0.2);
    const auto good = ivb().runSolo(perfect, 2000, 20000);
    const auto bad = ivb().runSolo(noisy, 2000, 20000);
    EXPECT_GT(good.ipc(), bad.ipc() * 1.3);
    EXPECT_EQ(good.branchMispredicts, 0u);
    EXPECT_GT(bad.branchMispredicts, 0u);
}

TEST(Machine, LoadLatencyBoundByCacheLevel)
{
    // Serial dependent loads over a tiny set: L1 hit latency bound.
    class ChasedLoads : public UopSource
    {
      public:
        Uop
        next() override
        {
            Uop uop;
            uop.type = UopType::kLoad;
            uop.srcDist1 = 1;  // serial pointer chase
            uop.addr = (count_++ % 64) * 8;  // 512B working set
            uop.pc = 0;
            return uop;
        }
        void reset() override { count_ = 0; }

      private:
        std::uint64_t count_ = 0;
    };

    ChasedLoads chase;
    const auto c = ivb().runSolo(chase, 2000, 20000);
    const double expected =
        1.0 / static_cast<double>(MachineConfig().l1d.hitLatency);
    EXPECT_NEAR(c.ipc(), expected, 0.02);
}

TEST(Machine, SmtPairDegradationIsNonNegativeForSpecApps)
{
    const Machine machine = ivb();
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("470.lbm");
    workload::ProfileUopSource solo_a(a);
    const double solo = machine.runSolo(solo_a).ipc();
    workload::ProfileUopSource pa(a), pb(b);
    const auto pair = machine.runPairSmt(pa, pb);
    EXPECT_LT(pair[0].ipc(), solo * 1.02);
}

TEST(Machine, SmtInterferesMoreThanCmpForComputeApps)
{
    // Compute-bound pairs share ports under SMT but nothing under
    // CMP; SMT must hurt strictly more.
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("435.gromacs");
    const Machine machine = ivb();
    workload::ProfileUopSource s1(a), s2(b), s3(a), s4(b);
    const auto smt = machine.runPairSmt(s1, s2);
    const auto cmp = machine.runPairCmp(s3, s4);
    EXPECT_LT(smt[0].ipc(), cmp[0].ipc());
}

} // namespace
} // namespace smite::sim
