/**
 * @file
 * Structural comparison of two run-report documents.
 *
 * The reports are the pipeline's regression surface: two runs of the
 * same harness should produce the same `results`, and a chaos run's
 * damage should show up as a flagged difference, not a silent drift.
 * diffReports() compares two `smite-run-report/1` documents field by
 * field and returns one entry per divergence, with numeric values
 * allowed a relative tolerance (simulated measurements are exact, but
 * consumers may compare across toolchains).
 *
 * What is compared: `name`, the full `results` tree (recursively),
 * and the `partial` flag. `timings` and `host` are always skipped
 * (wall-clock and pool counts are never reproducible across hosts);
 * `metrics` are compared only on request. The tools/report_diff CLI
 * wraps this for CI use.
 */

#ifndef SMITE_OBS_DIFF_H
#define SMITE_OBS_DIFF_H

#include <string>
#include <vector>

#include "obs/json.h"

namespace smite::obs {

/** One divergence between two reports. */
struct ReportDiffEntry {
    std::string path;    ///< e.g. "results.smite_avg_error"
    std::string detail;  ///< human-readable "a vs b" description
};

/** Knobs for diffReports(). */
struct ReportDiffOptions {
    /** Numbers differing by at most this relative amount match. */
    double tolerance = 1e-9;
    /** Also compare the `metrics` section (noisy; off by default). */
    bool include_metrics = false;
};

/**
 * Compare two report documents. Empty result means "equivalent under
 * the options". Order of entries follows document order of @p a.
 */
std::vector<ReportDiffEntry> diffReports(const json::Value &a,
                                         const json::Value &b,
                                         const ReportDiffOptions &opts = {});

} // namespace smite::obs

#endif // SMITE_OBS_DIFF_H
