/**
 * @file
 * Validator for the observability artifacts the bench harnesses emit.
 *
 * Two subcommands, both exiting 0 on a structurally valid document and
 * 1 (with a diagnostic on stderr) otherwise:
 *
 *   obs_check trace <file>.trace.json
 *       Chrome trace_event document: requires a traceEvents array of
 *       complete ("ph":"X") events, each with a name, pid/tid and
 *       numeric ts/dur. Prints the distinct span names, one per line.
 *
 *   obs_check report <file>.report.json [--nonzero name...]
 *       Run report: requires the smite-run-report/1 schema stamp, the
 *       run name, and the config/timings/results/metrics/host sections
 *       with well-formed histogram summaries, every host metric
 *       (obs::isHostMetric) in `host` and no other there. Prints every
 *       metric name of both snapshots, one per line. Each name after
 *       --nonzero must additionally exist with a nonzero value
 *       (histograms: count > 0) — the chaos smoke test uses this to
 *       prove faults actually fired.
 *
 * The printed names feed the tier-1 smoke test, which greps each one
 * against the catalog in docs/OBSERVABILITY.md.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace {

using smite::obs::json::Value;

bool
fail(const std::string &message)
{
    std::fprintf(stderr, "obs_check: %s\n", message.c_str());
    return false;
}

bool
loadJson(const char *path, Value *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(std::string("cannot open ") + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!Value::parse(buffer.str(), out, &error))
        return fail(std::string(path) + ": " + error);
    return true;
}

bool
checkTrace(const char *path)
{
    Value doc;
    if (!loadJson(path, &doc))
        return false;
    if (!doc.isObject())
        return fail("trace document is not an object");
    const Value *events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return fail("missing traceEvents array");
    if (events->items().empty())
        return fail("traceEvents is empty");

    std::set<std::string> names;
    for (std::size_t i = 0; i < events->items().size(); ++i) {
        const Value &e = events->items()[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject())
            return fail(at + " is not an object");
        const Value *name = e.find("name");
        if (name == nullptr || !name->isString() ||
            name->asString().empty()) {
            return fail(at + " has no name");
        }
        const Value *ph = e.find("ph");
        if (ph == nullptr || !ph->isString() || ph->asString() != "X")
            return fail(at + " is not a complete (ph=X) event");
        for (const char *key : {"pid", "tid", "ts", "dur"}) {
            const Value *v = e.find(key);
            if (v == nullptr || !v->isNumber())
                return fail(at + " lacks numeric " + key);
        }
        names.insert(name->asString());
    }
    for (const std::string &name : names)
        std::printf("%s\n", name.c_str());
    return true;
}

/** Requires @p doc.@p key to be an object; returns it or nullptr. */
const Value *
requireObject(const Value &doc, const char *key, bool *ok)
{
    const Value *section = doc.find(key);
    if (section == nullptr || !section->isObject()) {
        fail(std::string("missing object section: ") + key);
        *ok = false;
        return nullptr;
    }
    return section;
}

/**
 * Value of metric @p name in the snapshot, searching all three kinds;
 * histograms report their sample count. Absent metrics are 0.
 */
double
metricValue(const Value &metrics, const std::string &name)
{
    for (const char *kind : {"counters", "gauges"}) {
        if (const Value *section = metrics.find(kind)) {
            if (const Value *v = section->find(name))
                return v->asNumber();
        }
    }
    if (const Value *section = metrics.find("histograms")) {
        if (const Value *v = section->find(name)) {
            if (const Value *count = v->find("count"))
                return count->asNumber();
        }
    }
    return 0.0;
}

/**
 * Check one metric snapshot of a report ({"counters", "gauges",
 * "histograms"}): well-formed values, every name unique across
 * @p names, and each name a host metric exactly when @p host.
 */
bool
checkSnapshot(const Value &snapshot, bool host,
              std::set<std::string> *names)
{
    bool ok = true;
    for (const char *kind : {"counters", "gauges", "histograms"}) {
        const Value *section = requireObject(snapshot, kind, &ok);
        if (section == nullptr)
            return false;
        for (const auto &[metric, value] : section->fields()) {
            if (metric.empty())
                return fail(std::string(kind) + " has an empty name");
            if (!names->insert(metric).second)
                return fail("metric listed twice: " + metric);
            if (smite::obs::isHostMetric(metric) != host) {
                return fail(metric + (host ? " is not a host metric"
                                           : " belongs in host"));
            }
            if (std::string(kind) == "histograms") {
                if (!value.isObject())
                    return fail(metric + " summary is not an object");
                for (const char *field :
                     {"count", "sum", "mean", "min", "max", "p50",
                      "p90", "p99"}) {
                    const Value *v = value.find(field);
                    if (v == nullptr || !v->isNumber()) {
                        return fail(metric + " summary lacks numeric " +
                                    field);
                    }
                }
            } else if (!value.isNumber()) {
                return fail(metric + " value is not a number");
            }
        }
    }
    return true;
}

bool
checkReport(const char *path, const std::vector<std::string> &nonzero)
{
    Value doc;
    if (!loadJson(path, &doc))
        return false;
    if (!doc.isObject())
        return fail("report document is not an object");

    const Value *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString())
        return fail("missing schema stamp");
    if (schema->asString() != smite::obs::kRunReportSchema) {
        return fail("unexpected schema \"" + schema->asString() +
                    "\" (want " +
                    std::string(smite::obs::kRunReportSchema) + ")");
    }
    const Value *name = doc.find("name");
    if (name == nullptr || !name->isString() ||
        name->asString().empty()) {
        return fail("missing run name");
    }

    bool ok = true;
    requireObject(doc, "config", &ok);
    requireObject(doc, "timings", &ok);
    requireObject(doc, "results", &ok);
    const Value *metrics = requireObject(doc, "metrics", &ok);
    const Value *host = requireObject(doc, "host", &ok);
    if (!ok)
        return false;

    std::set<std::string> metric_names;
    if (!checkSnapshot(*metrics, false, &metric_names) ||
        !checkSnapshot(*host, true, &metric_names))
        return false;
    for (const std::string &metric : metric_names)
        std::printf("%s\n", metric.c_str());

    for (const std::string &want : nonzero) {
        if (metric_names.find(want) == metric_names.end())
            return fail("required metric missing: " + want);
        if (metricValue(*metrics, want) == 0.0 &&
            metricValue(*host, want) == 0.0)
            return fail("required metric is zero: " + want);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: obs_check trace <file.json> |\n"
                     "       obs_check report <file.json> "
                     "[--nonzero name...]\n");
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "trace") {
        if (argc != 3) {
            std::fprintf(stderr,
                         "usage: obs_check trace <file.json>\n");
            return 2;
        }
        return checkTrace(argv[2]) ? 0 : 1;
    }
    if (mode == "report") {
        std::vector<std::string> nonzero;
        if (argc > 3) {
            if (std::string(argv[3]) != "--nonzero") {
                std::fprintf(stderr,
                             "obs_check: unknown option %s\n", argv[3]);
                return 2;
            }
            for (int i = 4; i < argc; ++i)
                nonzero.emplace_back(argv[i]);
        }
        return checkReport(argv[2], nonzero) ? 0 : 1;
    }
    std::fprintf(stderr, "obs_check: unknown subcommand %s\n",
                 argv[1]);
    return 2;
}
