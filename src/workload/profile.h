/**
 * @file
 * Workload profile schema.
 *
 * A profile is everything the trace generator needs to emit a
 * statistically faithful uop stream for one application: the uop type
 * mix, branch predictability, the data/code footprints and locality
 * structure, and the dependence-chain shape that determines ILP.
 * Latency-sensitive (CloudSuite-like) workloads additionally carry
 * open-loop queueing parameters for the tail-latency experiments.
 */

#ifndef SMITE_WORKLOAD_PROFILE_H
#define SMITE_WORKLOAD_PROFILE_H

#include <array>
#include <cstdint>
#include <string>

#include "sim/uop.h"

namespace smite::workload {

/** Which suite a workload belongs to. */
enum class Suite {
    kSpecInt,
    kSpecFp,
    kCloudSuite,
    kMicro,  ///< Rulers and other synthetic kernels
};

/** Human-readable suite name. */
constexpr const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::kSpecInt:    return "SPEC_INT";
      case Suite::kSpecFp:     return "SPEC_FP";
      case Suite::kCloudSuite: return "CloudSuite";
      default:                 return "micro";
    }
}

/**
 * Statistical description of one application.
 *
 * The uop mix is indexed by sim::UopType; entries must be
 * non-negative and sum to at most 1 (the remainder is emitted as
 * NOPs, modeling uops that use no modeled resource).
 */
struct WorkloadProfile {
    std::string name = "unnamed";
    int specNumber = 0;  ///< e.g. 429 for 429.mcf; 0 if not SPEC
    Suite suite = Suite::kMicro;

    /** Fraction of the dynamic uop stream per uop type. */
    std::array<double, sim::kNumUopTypes> mix{};

    /** Fraction of branches that mispredict. */
    double branchMispredictRate = 0.02;

    /** Total data working set in bytes. */
    std::uint64_t dataFootprint = 1 << 20;

    /**
     * Fraction of memory accesses that walk the footprint with a
     * 64B stride (streaming); the rest are random.
     */
    double streamFraction = 0.3;

    /**
     * Stack/scratch region: the innermost locality level. Real
     * programs direct a large share of their accesses at a few KiB
     * of stack frames and hot scalars that live in the L1 no matter
     * how large the heap is.
     */
    std::uint64_t stackBytes = 8 * 1024;

    /** Probability a non-streaming access falls in the stack region. */
    double stackProb = 0.45;

    /** Size of the hot data region (must be <= dataFootprint). */
    std::uint64_t hotBytes = 16 * 1024;

    /**
     * Probability a non-streaming, non-stack access falls in the hot
     * region (the remainder is cold-random over the footprint).
     */
    double hotProb = 0.7;

    /** Static code footprint in bytes (drives L1I/iTLB behaviour). */
    std::uint64_t codeFootprint = 16 * 1024;

    /**
     * Size of the inner loop the instruction pointer spins in. The
     * generator dwells in one loop-sized region of the code blob,
     * then jumps to another region; this is what gives real code its
     * instruction-cache locality.
     */
    std::uint64_t loopBytes = 2 * 1024;

    /** Mean uops executed in a region before jumping elsewhere. */
    double codeDwellUops = 2000.0;

    /**
     * @name Phase behaviour
     * Real applications alternate between intense and lighter
     * execution phases; measured co-location interference averages
     * over them. The generator alternates between a full-intensity
     * phase and one whose issue demand is scaled by phaseLowFactor
     * (extra non-resource uops), with geometrically distributed
     * phase lengths.
     * @{
     */
    double phaseLowFactor = 0.65;
    double phaseMeanUops = 4000.0;
    /** @} */

    /** Probability a uop carries a first register operand. */
    double depProb = 0.6;

    /**
     * Probability a *load's address* depends on an earlier result
     * (pointer chasing). Array codes keep this low — their addresses
     * are induction variables — which is what gives them memory-level
     * parallelism; pointer chasers (e.g. mcf) serialize on it.
     */
    double loadDepProb = 0.15;

    /** Probability a uop carries a second register operand. */
    double dep2Prob = 0.2;

    /** Mean dependence distance (geometric); smaller = more serial. */
    double depMeanDist = 4.0;

    /**
     * @name Open-loop service parameters
     * Only meaningful for latency-sensitive workloads: mean request
     * arrival rate lambda and solo service rate mu (requests/s).
     * @{
     */
    double arrivalRate = 0.0;
    double serviceRate = 0.0;

    /**
     * Whether the application's harness reports percentile latency
     * statistics (the paper notes Data-Serving and Graph-Analytics do
     * not).
     */
    bool reportsPercentile = false;
    /** @} */

    /**
     * Field-wise equality over exactly the fields
     * workload::streamDigest hashes.
     */
    bool operator==(const WorkloadProfile &) const = default;

    /** Does this profile describe a latency-sensitive service? */
    bool isLatencySensitive() const { return serviceRate > 0.0; }

    /** Convenience accessor into the mix array. */
    double
    mixOf(sim::UopType type) const
    {
        return mix[static_cast<int>(type)];
    }

    /** Mutable mix accessor. */
    double &
    mixOf(sim::UopType type)
    {
        return mix[static_cast<int>(type)];
    }
};

} // namespace smite::workload

#endif // SMITE_WORKLOAD_PROFILE_H
