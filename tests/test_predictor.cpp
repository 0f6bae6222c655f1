/**
 * @file
 * Conformance suite for the predictor zoo (core/predictor.h): every
 * implementation behind the core::Predictor interface must honour the
 * same contract — predictions in [0, 1], solo predicts zero,
 * unusable or adversarial signatures fall back to the conservative
 * worst case with the `predictor.*` counters ticking — plus a
 * real-Lab end-to-end smoke of trainPredictorZoo at tiny intervals.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/predictor.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "workload/cloudsuite.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

std::uint64_t
counter(const std::string &name)
{
    return obs::Registry::global().counter(name).value();
}

/** A finite, plausible synthetic signature. */
WorkloadSignature
syntheticSignature(workload::Rng &rng, const std::string &name)
{
    WorkloadSignature s;
    s.name = name;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        s.characterization.sensitivity[d] = rng.nextDouble();
        s.characterization.contentiousness[d] = rng.nextDouble();
    }
    for (int r = 0; r < sim::kNumPmuRates; ++r)
        s.pmu[r] = rng.nextDouble();
    s.soloCounters.cycles = 10'000;
    s.soloCounters.l2Misses = rng.nextU64() % 2'000;
    s.soloCounters.l3Misses = rng.nextU64() % 1'000;
    s.soloIpc = 0.5 + rng.nextDouble();
    return s;
}

/** Signatures + samples obeying a synthetic degradation law. */
TrainingCorpus
makeCorpus(int n_workloads)
{
    TrainingCorpus corpus;
    workload::Rng rng(0xA110'17ull);
    for (int i = 0; i < n_workloads; ++i) {
        corpus.signatures.push_back(
            syntheticSignature(rng, "w" + std::to_string(i)));
    }
    for (int i = 0; i < n_workloads; ++i) {
        for (int j = 0; j < n_workloads; ++j) {
            if (i == j)
                continue;
            const auto &v = corpus.signatures[i];
            const auto &a = corpus.signatures[j];
            double deg = 0.05;
            for (int d = 0; d < rulers::kNumDimensions; ++d) {
                deg += 0.08 * v.characterization.sensitivity[d] *
                       a.characterization.contentiousness[d];
            }
            corpus.samples.push_back(
                {&corpus.signatures[i], &corpus.signatures[j], deg});
        }
    }
    return corpus;
}

/** All four implementations trained on one synthetic corpus. */
std::vector<std::unique_ptr<Predictor>>
trainedZoo(const TrainingCorpus &corpus)
{
    std::vector<std::unique_ptr<Predictor>> zoo;
    zoo.push_back(std::make_unique<SmitePredictor>(
        SmitePredictor::train(corpus.samples)));
    zoo.push_back(std::make_unique<PmuPredictor>(
        PmuPredictor::train(corpus.samples)));
    zoo.push_back(std::make_unique<MisePredictor>(
        MisePredictor::train(corpus.samples)));
    zoo.push_back(std::make_unique<AlvesDrummondPredictor>(
        AlvesDrummondPredictor::train(corpus.samples)));
    return zoo;
}

TEST(PredictorZoo, NamesAreUniqueAndCostsSensible)
{
    const TrainingCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    std::set<std::string> names;
    for (const auto &p : zoo) {
        names.insert(std::string(p->name()));
        EXPECT_GE(p->signatureRuns(), 1) << p->name();
    }
    EXPECT_EQ(names.size(), zoo.size());
    // Ruler-based predictors pay one co-run per dimension on top of
    // the solo run; counter-based ones read a single solo run.
    EXPECT_EQ(zoo[0]->signatureRuns(), 1 + rulers::kNumDimensions);
    EXPECT_EQ(zoo[1]->signatureRuns(), 1);
    EXPECT_EQ(zoo[2]->signatureRuns(), 1);
    EXPECT_EQ(zoo[3]->signatureRuns(), 1 + rulers::kNumDimensions);
}

TEST(PredictorZoo, PredictionsAreBoundedAndDeterministic)
{
    const TrainingCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    for (const auto &p : zoo) {
        SCOPED_TRACE(std::string(p->name()));
        for (const PredictorSample &s : corpus.samples) {
            const double deg =
                p->predictDegradation(*s.victim, *s.aggressor);
            EXPECT_GE(deg, 0.0);
            EXPECT_LE(deg, 1.0);
            EXPECT_EQ(p->predictDegradation(*s.victim, *s.aggressor),
                      deg);
            EXPECT_EQ(p->predictQos(*s.victim, {s.aggressor}),
                      1.0 - deg);
        }
        // Solo: no aggressors, no degradation.
        EXPECT_EQ(p->predictDegradation(
                      corpus.signatures[0],
                      std::vector<const WorkloadSignature *>{}),
                  0.0);
        // Multi-aggressor sets stay bounded too.
        const double multi = p->predictDegradation(
            corpus.signatures[0],
            {&corpus.signatures[1], &corpus.signatures[2],
             &corpus.signatures[3]});
        EXPECT_GE(multi, 0.0);
        EXPECT_LE(multi, 1.0);
    }
}

TEST(PredictorZoo, AdversarialSignaturesFallBackToWorstCase)
{
    const TrainingCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    workload::Rng rng(0xD155ull);

    for (const auto &p : zoo) {
        SCOPED_TRACE(std::string(p->name()));

        // A signature whose measurement failed.
        WorkloadSignature invalid = syntheticSignature(rng, "invalid");
        invalid.valid = false;
        // A NaN smuggled into the characterization.
        WorkloadSignature poisoned =
            syntheticSignature(rng, "poisoned");
        poisoned.characterization.sensitivity[2] =
            std::numeric_limits<double>::quiet_NaN();
        // A victim that never retired a uop solo: no meaningful
        // degradation ratio can rest on a (near-)zero denominator.
        WorkloadSignature idle = syntheticSignature(rng, "idle");
        idle.soloIpc = 0.0;

        for (const WorkloadSignature *victim :
             {&invalid, &poisoned, &idle}) {
            const std::uint64_t invalid0 =
                counter("predictor.invalid_inputs");
            const std::uint64_t incidents0 =
                obs::IncidentLog::global().count();
            EXPECT_EQ(p->predictDegradation(*victim,
                                            corpus.signatures[1]),
                      1.0);
            EXPECT_EQ(counter("predictor.invalid_inputs"),
                      invalid0 + 1);
            EXPECT_GT(obs::IncidentLog::global().count(), incidents0);
        }
        // An adversarial *aggressor* is caught the same way.
        EXPECT_EQ(p->predictDegradation(corpus.signatures[0],
                                        poisoned),
                  1.0);
    }
}

TEST(PredictorZoo, OutOfRangeRawPredictionsAreClampedAndCounted)
{
    // Train on a world with large degradations, then feed a saturated
    // signature: the raw affine prediction overshoots 1 and must come
    // back clamped, with predictor.clamped counting it. The interface
    // is the only clamp, so every implementation's overshoot shows.
    TrainingCorpus corpus = makeCorpus(8);
    for (PredictorSample &s : corpus.samples)
        s.degradation *= 30.0;

    workload::Rng rng(0xC1A3ull);
    WorkloadSignature saturated = syntheticSignature(rng, "saturated");
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        saturated.characterization.sensitivity[d] = 1.0;
        saturated.characterization.contentiousness[d] = 1.0;
    }
    // Far outside the corpus' PMU rates, so the Equation 9 regression
    // lands outside [0, 1] on one side or the other.
    saturated.pmu.fill(1e6);

    auto expectClamped = [&](const Predictor &p) {
        SCOPED_TRACE(std::string(p.name()));
        const std::uint64_t predictions0 =
            counter("predictor.predictions");
        const std::uint64_t clamped0 = counter("predictor.clamped");
        const double deg = p.predictDegradation(saturated, saturated);
        EXPECT_TRUE(deg == 0.0 || deg == 1.0) << deg;
        EXPECT_EQ(counter("predictor.predictions"), predictions0 + 1);
        EXPECT_EQ(counter("predictor.clamped"), clamped0 + 1);
        return deg;
    };
    EXPECT_EQ(expectClamped(AlvesDrummondPredictor::train(corpus.samples)),
              1.0);
    EXPECT_EQ(expectClamped(SmitePredictor::train(corpus.samples)), 1.0);
    expectClamped(PmuPredictor::train(corpus.samples));
}

TEST(PredictorZoo, SignatureThreadsMatchTheLabsMeasurements)
{
    // The CloudSuite latency apps run 6 threads on Sandy Bridge-EN:
    // the batch signatures must equal serial signatureOf() element by
    // element, with the threaded characterization and solo IPC, while
    // the PMU rates and solo counters stay single-threaded.
    const auto config = sim::MachineConfig::sandyBridgeEN();
    const auto mode = CoLocationMode::kSmt;
    const auto apps = workload::cloudsuite::all();
    Lab batch_lab(config, 800, 2'000);
    const std::vector<WorkloadSignature> sigs =
        signaturesOf(batch_lab, apps, mode, 6);

    Lab lab(config, 800, 2'000);
    lab.setParallelism(1);
    ASSERT_EQ(sigs.size(), apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        SCOPED_TRACE(apps[i].name);
        const WorkloadSignature serial = signatureOf(lab, apps[i], mode, 6);
        EXPECT_EQ(sigs[i].name, serial.name);
        EXPECT_TRUE(sigs[i].valid);
        EXPECT_EQ(sigs[i].valid, serial.valid);
        EXPECT_EQ(sigs[i].characterization.sensitivity,
                  serial.characterization.sensitivity);
        EXPECT_EQ(sigs[i].characterization.contentiousness,
                  serial.characterization.contentiousness);
        EXPECT_EQ(sigs[i].pmu, serial.pmu);
        EXPECT_EQ(sigs[i].soloCounters.cycles, serial.soloCounters.cycles);
        EXPECT_EQ(sigs[i].soloCounters.l2Misses,
                  serial.soloCounters.l2Misses);
        EXPECT_EQ(sigs[i].soloCounters.l3Misses,
                  serial.soloCounters.l3Misses);
        EXPECT_EQ(sigs[i].soloIpc, serial.soloIpc);

        const Characterization &threaded =
            lab.characterization(apps[i], mode, 6);
        EXPECT_EQ(sigs[i].characterization.sensitivity,
                  threaded.sensitivity);
        EXPECT_EQ(sigs[i].characterization.contentiousness,
                  threaded.contentiousness);
        EXPECT_EQ(sigs[i].soloIpc, lab.soloIpc(apps[i], 6));
        EXPECT_EQ(sigs[i].pmu, lab.pmuProfile(apps[i]));

        // threads = 1 keeps the single-threaded measurements.
        const WorkloadSignature single = signatureOf(lab, apps[i], mode);
        EXPECT_EQ(single.characterization.sensitivity,
                  lab.characterization(apps[i], mode).sensitivity);
        EXPECT_EQ(single.soloIpc, lab.soloIpc(apps[i]));
        EXPECT_EQ(single.pmu, sigs[i].pmu);
    }
}

TEST(PredictorZoo, TrainsOnARealLabCorpus)
{
    // End-to-end at tiny intervals: six training workloads give 30
    // ordered pairs, enough for every model (the PMU baseline needs
    // the most, 2 * 11 + 1).
    Lab lab(sim::MachineConfig::ivyBridge(), 800, 2'000);
    const auto all = workload::spec2006::evenNumbered();
    const std::vector<workload::WorkloadProfile> train(
        all.begin(), all.begin() + 6);

    const std::uint64_t trained0 = counter("predictor.trained");
    const PredictorZoo zoo =
        trainPredictorZoo(lab, train, CoLocationMode::kSmt);
    EXPECT_EQ(counter("predictor.trained"), trained0 + 4);

    ASSERT_EQ(zoo.signatures.size(), train.size());
    for (const WorkloadSignature &s : zoo.signatures) {
        EXPECT_TRUE(s.valid) << s.name;
        EXPECT_GT(s.soloIpc, 0.0) << s.name;
        EXPECT_GT(s.soloCounters.cycles, 0u) << s.name;
    }
    ASSERT_EQ(zoo.predictors.size(), 4u);
    for (const auto &p : zoo.predictors) {
        SCOPED_TRACE(std::string(p->name()));
        for (std::size_t v = 0; v < zoo.signatures.size(); ++v) {
            for (std::size_t a = 0; a < zoo.signatures.size(); ++a) {
                if (v == a)
                    continue;
                const double deg = p->predictDegradation(
                    zoo.signatures[v], zoo.signatures[a]);
                EXPECT_GE(deg, 0.0);
                EXPECT_LE(deg, 1.0);
            }
        }
    }
}

} // namespace
} // namespace smite::core
