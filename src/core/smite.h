/**
 * @file
 * Umbrella header: the SMiTe public API.
 *
 * Typical usage:
 * @code
 *   using namespace smite;
 *   core::Lab lab(sim::MachineConfig::ivyBridge());
 *   auto model = lab.trainSmite(workload::spec2006::evenNumbered(),
 *                               core::CoLocationMode::kSmt);
 *   const auto &a = workload::spec2006::byName("429.mcf");
 *   const auto &b = workload::spec2006::byName("453.povray");
 *   double predicted = model.predict(
 *       lab.characterization(a, core::CoLocationMode::kSmt),
 *       lab.characterization(b, core::CoLocationMode::kSmt));
 * @endcode
 */

#ifndef SMITE_CORE_SMITE_H
#define SMITE_CORE_SMITE_H

#include "core/characterize.h"
#include "core/experiment.h"
#include "core/pmu_model.h"
#include "core/predictor.h"
#include "core/smite_model.h"
#include "core/tail_latency.h"
#include "queueing/des.h"
#include "queueing/mm1.h"
#include "rulers/ruler.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/replay.h"
#include "stats/correlation.h"
#include "stats/regression.h"
#include "stats/summary.h"
#include "workload/cloudsuite.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

#endif // SMITE_CORE_SMITE_H
