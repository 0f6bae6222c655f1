/**
 * @file
 * Unit tests for the paper's two predictors — SMiTe (Equation 3) and
 * the PMU baseline (Equation 9) — on synthetic data: coefficient
 * recovery, feature layout, sample floors and the interface's range
 * guard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include "core/predictor.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "workload/rng.h"

namespace smite::core {
namespace {

std::uint64_t
counter(const std::string &name)
{
    return obs::Registry::global().counter(name).value();
}

Characterization
randomCharacterization(workload::Rng &rng)
{
    Characterization c;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        c.sensitivity[d] = rng.nextDouble();
        c.contentiousness[d] = rng.nextDouble();
    }
    return c;
}

PmuProfile
randomPmu(workload::Rng &rng)
{
    PmuProfile p{};
    for (double &r : p)
        r = rng.nextDouble();
    return p;
}

/** A usable signature: valid, with a solo IPC to divide by. */
WorkloadSignature
signature(const Characterization &c, const PmuProfile &pmu = {})
{
    WorkloadSignature s;
    s.name = "synthetic";
    s.characterization = c;
    s.pmu = pmu;
    s.soloIpc = 1.0;
    return s;
}

/**
 * @p n independent (victim, aggressor) samples: signatures 2i and
 * 2i + 1 form sample i, whose degradation @p law computes.
 */
template <typename MakeSig, typename Law>
TrainingCorpus
pairCorpus(int n, MakeSig make_sig, Law law)
{
    TrainingCorpus corpus;
    for (int i = 0; i < 2 * n; ++i)
        corpus.signatures.push_back(make_sig());
    for (int i = 0; i < n; ++i) {
        const WorkloadSignature &v = corpus.signatures[2 * i];
        const WorkloadSignature &a = corpus.signatures[2 * i + 1];
        corpus.samples.push_back({&v, &a, law(v, a)});
    }
    return corpus;
}

TEST(SmitePredictor, FeaturesArePerDimensionProducts)
{
    Characterization victim, aggressor;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        victim.sensitivity[d] = 0.1 * (d + 1);
        aggressor.contentiousness[d] = 0.2 * (d + 1);
    }
    const auto x = SmitePredictor::features(victim, aggressor);
    ASSERT_EQ(x.size(), static_cast<size_t>(rulers::kNumDimensions));
    for (int d = 0; d < rulers::kNumDimensions; ++d)
        EXPECT_NEAR(x[d], 0.1 * (d + 1) * 0.2 * (d + 1), 1e-12);
}

TEST(SmitePredictor, RecoversSyntheticEquation3)
{
    // Build a world that obeys Equation 3 exactly and check the
    // trained model reproduces coefficients and predictions.
    const std::vector<double> truth = {0.3, 0.5, 0.1, 0.4,
                                       0.2, 0.6, 0.8};
    const double c0 = 0.02;
    auto eq3 = [&](const WorkloadSignature &v,
                   const WorkloadSignature &a) {
        double deg = c0;
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            deg += truth[d] * v.characterization.sensitivity[d] *
                   a.characterization.contentiousness[d];
        }
        return deg;
    };

    workload::Rng rng(77);
    const TrainingCorpus corpus = pairCorpus(
        120, [&] { return signature(randomCharacterization(rng)); },
        eq3);
    const SmitePredictor model =
        SmitePredictor::train(corpus.samples, 0.0);
    for (int d = 0; d < rulers::kNumDimensions; ++d)
        EXPECT_NEAR(model.coefficients()[d], truth[d], 1e-8);
    EXPECT_NEAR(model.constantTerm(), c0, 1e-8);

    workload::Rng rng2(123);
    const WorkloadSignature a = signature(randomCharacterization(rng2));
    const WorkloadSignature b = signature(randomCharacterization(rng2));
    // The prediction is guarded into [0, 1] (degradation is a
    // fraction); the synthetic world can exceed that.
    EXPECT_NEAR(model.predictDegradation(a, b),
                std::clamp(eq3(a, b), 0.0, 1.0), 1e-8);
}

TEST(SmitePredictor, RequiresEnoughSamples)
{
    std::vector<PredictorSample> samples(rulers::kNumDimensions);
    EXPECT_THROW(SmitePredictor::train(samples), std::invalid_argument);
}

TEST(PmuPredictor, RecoversSyntheticEquation9)
{
    workload::Rng rng(55);
    std::vector<double> wa(sim::kNumPmuRates), wb(sim::kNumPmuRates);
    for (auto &w : wa)
        w = rng.nextDouble() - 0.5;
    for (auto &w : wb)
        w = rng.nextDouble() - 0.5;
    const double c0 = 0.05;
    auto eq9 = [&](const WorkloadSignature &v,
                   const WorkloadSignature &a) {
        double deg = c0;
        for (int r = 0; r < sim::kNumPmuRates; ++r)
            deg += wa[r] * v.pmu[r] + wb[r] * a.pmu[r];
        return deg;
    };

    const TrainingCorpus corpus = pairCorpus(
        200, [&] { return signature({}, randomPmu(rng)); }, eq9);
    const PmuPredictor model = PmuPredictor::train(corpus.samples, 0.0);
    const PredictorSample &probe = corpus.samples.front();
    EXPECT_NEAR(model.predictDegradation(*probe.victim, *probe.aggressor),
                std::clamp(probe.degradation, 0.0, 1.0), 1e-6);
}

TEST(PmuPredictor, FeatureLayoutIsVictimThenAggressor)
{
    PmuProfile a{}, b{};
    a[0] = 1.5;
    b[0] = 2.5;
    const auto x = PmuPredictor::features(a, b);
    ASSERT_EQ(x.size(), 2u * sim::kNumPmuRates);
    EXPECT_EQ(x[0], 1.5);
    EXPECT_EQ(x[sim::kNumPmuRates], 2.5);
}

TEST(PmuPredictor, RequiresEnoughSamples)
{
    std::vector<PredictorSample> samples(2 * sim::kNumPmuRates);
    EXPECT_THROW(PmuPredictor::train(samples), std::invalid_argument);
}

TEST(SmitePredictor, PredictionsAreClampedIntoUnitInterval)
{
    // A synthetic world with large positive coefficients: an extreme
    // characterization pushes the raw affine prediction far past 1.
    // Flip the sign of the degradations and the raw prediction goes
    // negative. Either way the prediction must stay inside [0, 1],
    // and each clamp is counted.
    auto law = [](const WorkloadSignature &v, const WorkloadSignature &a) {
        double deg = 0.5;
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            deg += 2.0 * v.characterization.sensitivity[d] *
                   a.characterization.contentiousness[d];
        }
        return deg;
    };
    workload::Rng rng(11);
    TrainingCorpus pos = pairCorpus(
        60, [&] { return signature(randomCharacterization(rng)); }, law);
    std::vector<PredictorSample> neg = pos.samples;
    for (PredictorSample &s : neg)
        s.degradation = -s.degradation;

    Characterization ones;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        ones.sensitivity[d] = 1.0;
        ones.contentiousness[d] = 1.0;
    }
    const WorkloadSignature extreme = signature(ones);

    const std::uint64_t clamped0 = counter("predictor.clamped");
    const SmitePredictor high = SmitePredictor::train(pos.samples, 0.0);
    EXPECT_EQ(high.predictDegradation(extreme, extreme), 1.0);
    const SmitePredictor low = SmitePredictor::train(neg, 0.0);
    EXPECT_EQ(low.predictDegradation(extreme, extreme), 0.0);
    EXPECT_EQ(counter("predictor.clamped"), clamped0 + 2);
}

/**
 * A finite signature at DBL_MAX: two of them as aggressors pass
 * validation, yet their summed pressure overflows and the raw
 * regression comes out non-finite.
 */
WorkloadSignature
hugeSignature()
{
    Characterization c;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        c.sensitivity[d] = DBL_MAX;
        c.contentiousness[d] = DBL_MAX;
    }
    PmuProfile pmu{};
    pmu.fill(DBL_MAX);
    return signature(c, pmu);
}

TEST(SmitePredictor, NonFinitePredictionFallsBackToWorstCase)
{
    workload::Rng rng(13);
    const TrainingCorpus corpus = pairCorpus(
        40, [&] { return signature(randomCharacterization(rng)); },
        [](const WorkloadSignature &, const WorkloadSignature &) {
            return 0.1;
        });
    const SmitePredictor model = SmitePredictor::train(corpus.samples);

    // A NaN in the victim's characterization is refused up front.
    WorkloadSignature poisoned = signature(randomCharacterization(rng));
    poisoned.characterization.sensitivity[0] =
        std::numeric_limits<double>::quiet_NaN();
    const WorkloadSignature other = signature(randomCharacterization(rng));
    std::uint64_t invalid0 = counter("predictor.invalid_inputs");
    std::size_t incidents0 = obs::IncidentLog::global().count();
    EXPECT_EQ(model.predictDegradation(poisoned, other), 1.0);
    EXPECT_EQ(counter("predictor.invalid_inputs"), invalid0 + 1);
    EXPECT_GT(obs::IncidentLog::global().count(), incidents0);

    // Finite inputs whose arithmetic overflows are caught after the
    // regression, counted the same way.
    const WorkloadSignature huge = hugeSignature();
    invalid0 = counter("predictor.invalid_inputs");
    incidents0 = obs::IncidentLog::global().count();
    EXPECT_EQ(model.predictDegradation(other, {&huge, &huge}), 1.0);
    EXPECT_EQ(counter("predictor.invalid_inputs"), invalid0 + 1);
    EXPECT_GT(obs::IncidentLog::global().count(), incidents0);
}

TEST(PmuPredictor, NonFinitePredictionFallsBackToWorstCase)
{
    workload::Rng rng(17);
    const TrainingCorpus corpus = pairCorpus(
        60, [&] { return signature({}, randomPmu(rng)); },
        [](const WorkloadSignature &, const WorkloadSignature &) {
            return 0.2;
        });
    const PmuPredictor model = PmuPredictor::train(corpus.samples);

    WorkloadSignature victim = *corpus.samples.front().victim;
    victim.pmu[3] = std::numeric_limits<double>::infinity();
    const WorkloadSignature &aggressor = *corpus.samples.front().aggressor;
    std::uint64_t invalid0 = counter("predictor.invalid_inputs");
    std::size_t incidents0 = obs::IncidentLog::global().count();
    EXPECT_EQ(model.predictDegradation(victim, aggressor), 1.0);
    EXPECT_EQ(counter("predictor.invalid_inputs"), invalid0 + 1);
    EXPECT_GT(obs::IncidentLog::global().count(), incidents0);

    const WorkloadSignature huge = hugeSignature();
    invalid0 = counter("predictor.invalid_inputs");
    incidents0 = obs::IncidentLog::global().count();
    EXPECT_EQ(model.predictDegradation(*corpus.samples.front().victim,
                                       {&huge, &huge}),
              1.0);
    EXPECT_EQ(counter("predictor.invalid_inputs"), invalid0 + 1);
    EXPECT_GT(obs::IncidentLog::global().count(), incidents0);
}

TEST(PmuRates, NamesMatchPaperList)
{
    ASSERT_EQ(sim::kPmuRateNames.size(),
              static_cast<size_t>(sim::kNumPmuRates));
    EXPECT_EQ(sim::kPmuRateNames[0], "instructions/cycle");
    EXPECT_EQ(sim::kPmuRateNames[10], "branch-mispredictions/cycle");
}

} // namespace
} // namespace smite::core
