/**
 * @file
 * End-to-end pipeline benchmark harness (one process of one workload).
 *
 * Drives the SMiTe pipeline from outside, through the public entry
 * points of each layer, and prints one JSON object of raw samples on
 * stdout; pipebench/run.py launches these processes, aggregates the
 * samples and prints the benchmark's metrics. Workloads:
 *
 *   campaign_cold    one fig10-protocol campaign from empty stores
 *                    (one per process: nothing clears the replay store)
 *   campaign_warm    one campaign to fill the stores, then repeated
 *                    campaigns in fresh Labs, served from memo
 *   fleet_paper      ShardedCluster::runStream on 4,000 servers
 *   fleet_warehouse  the same on 128,000 servers
 *
 *   pipebench <workload> --seed N [--seconds S] [--trace 0|1]
 *             [--size full|smoke] [--width W] [--trace-file PATH]
 *
 * With --trace 1 the harness records spans around every layer call
 * (its own spans, kept in memory) and adds per-layer self-times,
 * counts and the tracing overhead to the output. A failed output check
 * counts the operation as failed, and the exit code is then 1.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/experiment.h"
#include "core/parallel.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "scheduler/shard.h"
#include "sim/config.h"
#include "workload/spec2006.h"

using namespace smite;

namespace {

// ---------------------------------------------------------------- clocks

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (all threads), seconds. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::int64_t
nanosNow()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile with at least ten samples beyond it: the
 * value at sorted index n - 11. With fewer than 11 samples no
 * percentile qualifies and the maximum is returned.
 */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() < 11 ? v.back() : v[v.size() - 11];
}

// ------------------------------------------------------------- hashing

/** SplitMix64 finalizer; the benchmark's own keyed randomness. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** FNV-1a over 64-bit words: the output digests of the checks. */
struct Digest {
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            value ^= (w >> (8 * i)) & 0xff;
            value *= 0x100000001b3ull;
        }
    }

    void
    real(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        word(bits);
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------- tracing

/**
 * In-memory span recorder for the traced run. Spans nest by scope;
 * closing a span charges its duration to its parent's child time, so
 * self-time is duration minus child time. Totals are folded per span
 * name for the current operation; the spans of the first operation are
 * kept whole for the trace file.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    struct Span {
        const char *name;  ///< static or interned: outlives the tracer
        int parent;
        int op;
        std::int64_t start;
        std::int64_t end = 0;
        std::int64_t childNs = 0;
    };

    int
    open(const char *name)
    {
        if (!on_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, parent, op_, nanosNow()});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(idx)];
        s.end = nanosNow();
        const std::int64_t dur = s.end - s.start;
        if (s.parent >= 0)
            spans_[static_cast<std::size_t>(s.parent)].childNs += dur;
        Totals &t = totals_[s.name];
        t.selfNs += dur - s.childNs;
        t.count += 1;
        t.durations.push_back(static_cast<double>(dur));
        stack_.pop_back();
    }

    struct Totals {
        std::int64_t selfNs = 0;
        std::int64_t count = 0;
        std::vector<double> durations;
    };

    /** Start operation @p op: per-name totals restart from zero. */
    void
    beginOp(int op)
    {
        totals_.clear();
        if (!kept_ && op_ >= 1 && !spans_.empty()) {
            kept_ = true;
            firstOp_ = spans_;
        }
        spans_.clear();
        op_ = op;
    }

    const std::map<std::string, Totals> &totals() const { return totals_; }

    double
    selfSeconds(const std::string &name) const
    {
        const auto it = totals_.find(name);
        return it == totals_.end() ? 0.0 : 1e-9 * it->second.selfNs;
    }

    /** Chrome trace_event JSON of the first traced operation. */
    bool
    writeTo(const std::string &path) const
    {
        const std::vector<Span> &spans = kept_ ? firstOp_ : spans_;
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[";
        const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << (i ? "," : "") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << (s.start - t0) / 1000.0
                << ",\"dur\":" << (s.end - s.start) / 1000.0
                << ",\"args\":{\"op\":" << s.op
                << ",\"parent\":" << s.parent << "}}";
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool on_;
    int op_ = 0;
    bool kept_ = false;
    std::vector<Span> spans_;
    std::vector<Span> firstOp_;
    std::vector<int> stack_;
    std::map<std::string, Totals> totals_;
};

/** Stable span name "predictor.<name>" for a predictor. */
const char *
predictorSpan(std::string_view name)
{
    static std::map<std::string, std::string, std::less<>> names;
    auto it = names.find(name);
    if (it == names.end()) {
        it = names.emplace(std::string(name),
                           "predictor." + std::string(name))
                 .first;
    }
    return it->second.c_str();
}

/** RAII span: open at construction, close at scope exit. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), idx_(tracer.open(name))
    {}
    ~Scope() { tracer_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int idx_;
};

/** Cost of one open/close pair, measured on a scratch recorder. */
double
spanCostNs()
{
    Tracer scratch(true);
    constexpr int kSpans = 200000;
    const std::int64_t t0 = nanosNow();
    for (int i = 0; i < kSpans; ++i) {
        if (i % 4096 == 0)
            scratch.beginOp(i + 1);
        Scope s(scratch, "calibration");
    }
    return static_cast<double>(nanosNow() - t0) / kSpans;
}

/** Median wall microseconds of a 64-way empty parallelFor. */
double
forkJoinUs()
{
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
        const std::int64_t t0 = nanosNow();
        core::parallelFor(64, [](std::size_t) {});
        us.push_back(1e-3 * static_cast<double>(nanosNow() - t0));
    }
    return median(us);
}

// ------------------------------------------------------------ counters

std::uint64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** The process-wide counters the layer metrics are differences of. */
struct Counters {
    std::uint64_t runs = 0, replayHits = 0, snapHits = 0, snapMisses = 0;
    std::uint64_t cycles = 0, retries = 0, failures = 0;
    std::uint64_t predictions = 0, clamped = 0, invalid = 0;
    std::uint64_t batches = 0, memoHits = 0, memoMisses = 0;

    static Counters
    read()
    {
        static const char *const kMemo[] = {
            "lab.cache.solo_ipc", "lab.cache.solo_counters",
            "lab.cache.pmu", "lab.cache.characterization",
            "lab.cache.pair", "lab.cache.multi", "lab.cache.ports",
            "characterizer.cache.baseline"};
        Counters c;
        c.runs = counter("machine.runs");
        c.replayHits = counter("machine.replay.hits");
        c.snapHits = counter("machine.snapshot.hits");
        c.snapMisses = counter("machine.snapshot.misses");
        c.cycles = counter("machine.cycles");
        c.retries = counter("lab.retries");
        c.failures = counter("lab.failures");
        c.predictions = counter("predictor.predictions");
        c.clamped = counter("predictor.clamped");
        c.invalid = counter("predictor.invalid_inputs");
        c.batches = counter("pool.batches");
        for (const char *m : kMemo) {
            c.memoHits += counter((std::string(m) + ".hits").c_str());
            c.memoMisses +=
                counter((std::string(m) + ".misses").c_str());
        }
        return c;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// --------------------------------------------------------------- output

using Layers = std::map<std::string, double>;

/** Samples of this process, printed as one JSON object. */
struct Report {
    /** Wall and CPU seconds of each set-up done in this process. */
    std::vector<double> setupWallS, setupCpuS;
    double readyS = 0;  ///< steady clock when set-up finished
    struct Round {
        double wallS = 0, cpuS = 0;
    };
    std::vector<Round> rounds;
    std::vector<double> opsMs;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;
    std::uint64_t digest = 0;
    std::map<std::string, double> quality;
    std::vector<Layers> opLayers;  ///< per-operation layer values
    Layers processLayers;          ///< measured once per process
    std::map<std::string, std::string> meta;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

template <typename Map, typename Fmt>
std::string
object(const Map &m, Fmt fmt)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? "," : "") + quoted(k) + ":" + fmt(v);
    return out + "}";
}

void
print(const Report &r)
{
    std::string out = "{\"setup_wall_s\":[";
    for (std::size_t i = 0; i < r.setupWallS.size(); ++i)
        out += (i ? "," : "") + num(r.setupWallS[i]);
    out += "],\"setup_cpu_s\":[";
    for (std::size_t i = 0; i < r.setupCpuS.size(); ++i)
        out += (i ? "," : "") + num(r.setupCpuS[i]);
    out += "],\"rounds\":[";
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
        out += (i ? "," : "") + std::string("{\"wall_s\":") +
               num(r.rounds[i].wallS) +
               ",\"cpu_s\":" + num(r.rounds[i].cpuS) + "}";
    }
    out += "],\"ready_s\":" + num(r.readyS) + ",\"ops_ms\":[";
    for (std::size_t i = 0; i < r.opsMs.size(); ++i)
        out += (i ? "," : "") + num(r.opsMs[i]);
    out += "],\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        out += (i ? "," : "") + quoted(r.failures[i]);
    out += "],\"digest\":" + quoted(hex(r.digest)) +
           ",\"peak_rss_mb\":" + num(peakRssMb()) +
           ",\"quality\":" + object(r.quality, num);

    // Per-process layer values: the median over operations of each
    // per-operation value, then the once-per-process measurements.
    Layers layers;
    std::map<std::string, std::vector<double>> columns;
    for (const Layers &op : r.opLayers) {
        for (const auto &[k, v] : op)
            columns[k].push_back(v);
    }
    for (const auto &[k, v] : columns)
        layers[k] = median(v);
    for (const auto &[k, v] : r.processLayers)
        layers[k] = v;
    out += ",\"layers\":" + object(layers, num) +
           ",\"meta\":" + object(r.meta, quoted) + "}";
    std::printf("%s\n", out.c_str());
}

// -------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    int width = 0;  ///< pool width; 0 = core::defaultThreadCount()
    std::string traceFile;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pipebench: %s\nusage: pipebench <campaign_cold|"
                 "campaign_warm|fleet_paper|fleet_warehouse> --seed N "
                 "[--seconds S] [--trace 0|1] [--size full|smoke] "
                 "[--width W] [--trace-file PATH]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    Options o;
    o.workload = argv[1];
    bool seeded = false;
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("option without value");
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--seed") {
                o.seed = std::stoull(val);
                seeded = true;
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                o.trace = val == "1";
            } else if (key == "--size") {
                if (val != "full" && val != "smoke")
                    usage("--size is full or smoke");
                o.smoke = val == "smoke";
            } else if (key == "--width") {
                o.width = std::stoi(val);
            } else if (key == "--trace-file") {
                o.traceFile = val;
            } else {
                usage(("unknown option " + key).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (!seeded)
        usage("--seed is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

// ------------------------------------------------------------ campaigns

/** The fig10 protocol on one train / held-out split. */
struct CampaignSpec {
    sim::MachineConfig config = sim::MachineConfig::ivyBridge();
    sim::Cycle warmup = 0, measure = 0;
    std::vector<workload::WorkloadProfile> train, test;
};

/**
 * Seed 0 is the paper's split: train on the even-numbered SPEC
 * benchmarks, hold out the odd-numbered ones. Any other seed draws a
 * split of the same sizes by a keyed shuffle; both halves keep SPEC
 * order. The smoke size uses the first 12 benchmarks (6 + 6: the PMU
 * baseline needs more than 22 training pairs) at short intervals.
 */
CampaignSpec
campaignSpec(std::uint64_t seed, bool smoke)
{
    CampaignSpec spec;
    spec.warmup = smoke ? 1'000 : 20'000;
    spec.measure = smoke ? 4'000 : 80'000;
    const auto &all = workload::spec2006::all();
    const std::size_t n = smoke ? 12 : all.size();

    std::vector<bool> inTrain(n);
    std::size_t trainSize = 0;
    for (std::size_t i = 0; i < n; ++i) {
        inTrain[i] = std::stoi(all[i].name) % 2 == 0;
        trainSize += inTrain[i];
    }
    if (seed != 0) {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i;
        for (std::size_t i = n - 1; i > 0; --i) {
            const std::uint64_t h = mix64(mix64(seed) ^ i);
            std::swap(order[i], order[h % (i + 1)]);
        }
        std::fill(inTrain.begin(), inTrain.end(), false);
        for (std::size_t k = 0; k < trainSize; ++k)
            inTrain[order[k]] = true;
    }
    for (std::size_t i = 0; i < n; ++i)
        (inTrain[i] ? spec.train : spec.test).push_back(all[i]);
    return spec;
}

/** Exact results of one campaign. */
struct CampaignResult {
    std::uint64_t digest = 0;
    std::map<std::string, double> mae;  ///< "<predictor>_mae"
    std::string error;                  ///< empty = all checks passed
};

/**
 * One campaign in a fresh Lab: measure the training half (signatures,
 * then all pairs), fit the predictor zoo on it, take signatures and all
 * pairs of the held-out half, and run every predictor on every ordered
 * held-out pair. The training measurements are taken before
 * trainPredictorZoo so that its span holds the fits (the stats layer)
 * and memo lookups only. Errors are averaged exactly as
 * bench_fig10_spec_smt_prediction averages them.
 */
CampaignResult
runCampaign(const CampaignSpec &spec, int width, Tracer &tracer,
            Layers *layers)
{
    CampaignResult result;
    const Counters before = Counters::read();
    const double wall0 = wallNow();
    const double cpu0 = cpuNow();
    const core::CoLocationMode mode = core::CoLocationMode::kSmt;
    std::uint64_t simulations = 0;
    std::vector<const char *> predictors;
    try {
        Scope root(tracer, "campaign");
        core::Lab lab(spec.config, spec.warmup, spec.measure);
        lab.setParallelism(width);
        {
            Scope s(tracer, "lab.signatures");
            core::signaturesOf(lab, spec.train, mode);
        }
        {
            Scope s(tracer, "lab.pairs");
            lab.measureAllPairs(spec.train, mode);
        }
        core::PredictorZoo zoo;
        {
            Scope s(tracer, "lab.train");
            zoo = core::trainPredictorZoo(lab, spec.train, mode);
        }
        std::vector<core::WorkloadSignature> sigs;
        {
            Scope s(tracer, "lab.signatures");
            sigs = core::signaturesOf(lab, spec.test, mode);
        }
        std::vector<std::vector<double>> measured;
        {
            Scope s(tracer, "lab.pairs");
            measured = lab.measureAllPairs(spec.test, mode);
        }
        simulations = lab.stats().total();

        Digest digest;
        for (const core::WorkloadSignature &s : sigs) {
            if (!s.valid && result.error.empty())
                result.error = "invalid signature " + s.name;
        }
        const std::size_t n = spec.test.size();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j && std::isnan(measured[i][j]) &&
                    result.error.empty())
                    result.error = "failed pair " + spec.test[i].name +
                                   "|" + spec.test[j].name;
                digest.real(measured[i][j]);
            }
        }
        for (std::size_t p = 0; p < zoo.predictors.size(); ++p) {
            const core::Predictor &predictor = *zoo.predictors[p];
            const std::string name(predictor.name());
            const char *span = predictorSpan(name);
            predictors.push_back(span);
            double total = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                double err = 0.0;
                int count = 0;
                for (std::size_t j = 0; j < n; ++j) {
                    if (i == j)
                        continue;
                    double predicted = 0.0;
                    {
                        Scope s(tracer, span);
                        predicted =
                            predictor.predictDegradation(sigs[i], sigs[j]);
                    }
                    if (!std::isfinite(predicted) && result.error.empty())
                        result.error = "non-finite " + name +
                                       " prediction";
                    digest.real(predicted);
                    err += std::abs(predicted - measured[i][j]);
                    ++count;
                }
                total += err / count;
            }
            result.mae[name + "_mae"] = total / static_cast<double>(n);
            digest.real(result.mae[name + "_mae"]);
        }
        result.digest = digest.value;
    } catch (const std::exception &e) {
        result.error = std::string("exception: ") + e.what();
    }
    const double wall = wallNow() - wall0;
    const double cpu = cpuNow() - cpu0;
    const Counters after = Counters::read();
    // The predictor guard answers an unusable input with the worst
    // case instead of failing; the benchmark counts that as a failure.
    if (after.invalid != before.invalid && result.error.empty()) {
        result.error = std::to_string(after.invalid - before.invalid) +
                       " predictions refused as invalid";
    }
    if (layers == nullptr)
        return result;

    // Layer metrics of this operation (all counters are differences
    // over the operation, so earlier operations do not leak in).
    const double runs = static_cast<double>(after.runs - before.runs);
    const double hits =
        static_cast<double>(after.replayHits - before.replayHits);
    const double live = runs - hits;
    const double cycles = static_cast<double>(after.cycles - before.cycles);
    const double liveMcycles = runs > 0 ? 1e-6 * cycles * live / runs : 0;
    const double snapHits =
        static_cast<double>(after.snapHits - before.snapHits);
    const double snapAll =
        snapHits + static_cast<double>(after.snapMisses - before.snapMisses);
    const double predictions =
        static_cast<double>(after.predictions - before.predictions);
    const double memoHits =
        static_cast<double>(after.memoHits - before.memoHits);
    const double memoAll =
        memoHits + static_cast<double>(after.memoMisses - before.memoMisses);
    const int poolWidth = width > 0 ? width : core::defaultThreadCount();
    Layers &l = *layers;
    l["sim.runs"] = runs;
    l["sim.live_runs"] = live;
    l["sim.replay_hit_ratio"] = ratio(hits, runs);
    l["sim.snapshot_hit_ratio"] = ratio(snapHits, snapAll);
    l["sim.live_mcycles"] = liveMcycles;
    l["sim.mcycles_per_cpu_s"] = ratio(liveMcycles, cpu);
    l["lab.simulations"] = static_cast<double>(simulations);
    l["lab.memo_hit_ratio"] = ratio(memoHits, memoAll);
    l["lab.retries"] = static_cast<double>(after.retries - before.retries);
    l["lab.failed"] = static_cast<double>(after.failures - before.failures);
    l["predictor.clamped_ratio"] = ratio(
        static_cast<double>(after.clamped - before.clamped), predictions);
    l["predictor.invalid_ratio"] = ratio(
        static_cast<double>(after.invalid - before.invalid), predictions);
    l["pool.busy_ratio"] = ratio(cpu, wall * poolWidth);
    l["pool.batches_per_op"] =
        static_cast<double>(after.batches - before.batches);
    if (tracer.on()) {
        const double signatures = tracer.selfSeconds("lab.signatures");
        const double pairs = tracer.selfSeconds("lab.pairs");
        l["lab.train_s"] = tracer.selfSeconds("lab.train");
        l["lab.signatures_s"] = signatures;
        l["lab.pairs_s"] = pairs;
        l["bench.self_s"] = tracer.selfSeconds("campaign");
        // Only separable when every machine run was a replay hit: the
        // measurement spans then hold nothing but memo traffic.
        l["sim.replay_us_per_hit"] =
            live == 0 && hits > 0 ? 1e6 * (signatures + pairs) / hits : 0;
        double predictS = 0;
        for (const char *span : predictors) {
            const auto it = tracer.totals().find(span);
            if (it == tracer.totals().end())
                continue;
            const std::string prefix = span;
            l[prefix + ".predict_ns_p50"] = median(it->second.durations);
            l[prefix + ".predict_ns_tail"] = tail(it->second.durations);
            predictS += 1e-9 * it->second.selfNs;
        }
        l["predictor.predict_s"] = predictS;
        l["trace.spans_per_op"] = 0;
        for (const auto &[name, t] : tracer.totals())
            l["trace.spans_per_op"] += static_cast<double>(t.count);
    }
    return result;
}

void
recordCampaign(Report &report, const CampaignResult &result,
               std::uint64_t reference)
{
    ++report.attempted;
    if (!result.error.empty())
        report.fail(result.error);
    else if (result.digest != reference)
        report.fail("campaign digest " + hex(result.digest) +
                    " differs from " + hex(reference));
}

void
runCampaignCold(const Options &o, Report &report, Tracer &tracer)
{
    const CampaignSpec spec = campaignSpec(o.seed, o.smoke);
    // Set-up of a campaign process is everything it did so far.
    report.readyS = wallNow();
    report.setupCpuS.push_back(cpuNow());
    report.meta["warmup_cycles"] = std::to_string(spec.warmup);
    report.meta["measure_cycles"] = std::to_string(spec.measure);

    tracer.beginOp(1);
    Layers layers;
    const double wall0 = wallNow();
    const double cpu0 = cpuNow();
    const CampaignResult result = runCampaign(spec, o.width, tracer, &layers);
    const double wall = wallNow() - wall0;
    const double cpu = cpuNow() - cpu0;
    recordCampaign(report, result, result.digest);
    report.rounds.push_back({wall, cpu});
    report.opsMs.push_back(1e3 * wall);
    report.digest = result.digest;
    report.quality = result.mae;
    report.opLayers.push_back(layers);
}

/**
 * Warm campaigns: the set-up pass runs the campaign once, filling the
 * process-wide replay and snapshot stores; every operation then runs
 * the whole campaign again in a fresh Lab and must reproduce the
 * set-up pass's digest exactly (replay-served equals live).
 */
void
runCampaignWarm(const Options &o, Report &report, Tracer &tracer)
{
    constexpr int kOpsPerRound = 16;
    const CampaignSpec spec = campaignSpec(o.seed, o.smoke);
    const CampaignResult fill = runCampaign(spec, o.width, tracer, nullptr);
    // Set-up of a campaign process is everything it did so far.
    report.readyS = wallNow();
    report.setupCpuS.push_back(cpuNow());
    report.meta["warmup_cycles"] = std::to_string(spec.warmup);
    report.meta["measure_cycles"] = std::to_string(spec.measure);
    recordCampaign(report, fill, fill.digest);
    report.digest = fill.digest;
    report.quality = fill.mae;
    if (!fill.error.empty())
        return;

    // The traced run also times every fourth operation at width 1
    // for pool.parallel_speedup; those stay out of the latency samples.
    std::vector<double> serialMs;
    const double start = wallNow();
    int op = 0;
    while (wallNow() - start < o.seconds || report.rounds.empty()) {
        const double wall0 = wallNow();
        const double cpu0 = cpuNow();
        for (int k = 0; k < kOpsPerRound; ++k, ++op) {
            const bool serial = tracer.on() && op % 4 == 3;
            tracer.beginOp(op + 1);
            Layers layers;
            const double opStart = wallNow();
            const CampaignResult r =
                runCampaign(spec, serial ? 1 : o.width, tracer, &layers);
            const double ms = 1e3 * (wallNow() - opStart);
            recordCampaign(report, r, fill.digest);
            if (serial) {
                serialMs.push_back(ms);
            } else {
                report.opsMs.push_back(ms);
                report.opLayers.push_back(layers);
            }
        }
        report.rounds.push_back({wallNow() - wall0, cpuNow() - cpu0});
    }
    if (tracer.on()) {
        report.processLayers["pool.parallel_speedup"] =
            ratio(median(serialMs), median(report.opsMs));
    }
}

// --------------------------------------------------------------- fleets

struct FleetSpec {
    std::int64_t servers;
    int epochs;
    int opsPerRound;
};

constexpr scheduler::TierPolicy kTiers{0.90, 0.60};

/**
 * One machine class of the fleet from a Table 1 config: the latency
 * app owns one context per core, batch capacity is the sibling
 * contexts, and the seeded QoS tables scale contention with the
 * machine's L3 (the same job hurts more on the smaller cache) and miss
 * by up to +/-25% in prediction, so placements both violate and leave
 * capacity unused. Every SPEC benchmark is a batch job (116 pairings
 * per class), so the fleet's capacity varies little from seed to seed.
 */
scheduler::MachineClass
machineClass(const sim::MachineConfig &config, std::uint64_t classIndex,
             std::uint64_t seed)
{
    static const char *const kLatency[] = {"web-search", "media-streaming",
                                           "data-serving",
                                           "graph-analytics"};
    scheduler::MachineClass mc;
    mc.name = config.microarchitecture;
    mc.latencyThreads = config.numCores;
    mc.contextsPerServer = config.totalContexts();
    const double pressure =
        std::sqrt(8.0 * 1024 * 1024 /
                  static_cast<double>(config.l3.sizeBytes));
    const auto &batch = workload::spec2006::all();
    for (std::uint64_t l = 0; l < std::size(kLatency); ++l) {
        for (std::uint64_t b = 0; b < batch.size(); ++b) {
            scheduler::Pairing p;
            p.latencyApp = kLatency[l];
            p.batchApp = batch[b].name;
            const std::uint64_t h =
                mix64(mix64(mix64(seed) ^ classIndex) ^ (l << 8 | b));
            const double slope = (0.02 + 0.08 * unitDraw(h)) * pressure;
            const double err = 0.50 * unitDraw(mix64(h)) - 0.25;
            for (int k = 1; k <= mc.maxInstances(); ++k) {
                scheduler::CoLocationOption option;
                option.actualQos = std::max(0.0, 1.0 - slope * k);
                option.predictedQos =
                    std::max(0.0, 1.0 - slope * (1.0 + err) * k);
                p.byInstances.push_back(option);
            }
            mc.pairings.push_back(std::move(p));
        }
    }
    return mc;
}

/** 60/40 Sandy Bridge-EN / Ivy Bridge fleet, 64 shards. */
scheduler::ShardedCluster
makeFleet(std::int64_t servers, std::uint64_t seed)
{
    const std::int64_t snb = servers * 3 / 5;
    return scheduler::ShardedCluster(
        {machineClass(sim::MachineConfig::sandyBridgeEN(), 0, seed),
         machineClass(sim::MachineConfig::ivyBridge(), 1, seed)},
        {snb, servers - snb}, 64);
}

/** Failures, departures and arrivals sized to the fleet. */
scheduler::ChurnConfig
churnFor(std::int64_t servers, std::uint64_t seed)
{
    scheduler::ChurnConfig churn;
    churn.arrivalsPerEpoch = static_cast<int>(servers / 128);
    churn.departProb = 0.01;
    churn.failProb = 0.002;
    churn.recoverProb = 0.25;
    churn.probesPerJob = 4;
    churn.seed = seed;
    return churn;
}

/** Everything a fleet run produced, folded into one digest. */
std::uint64_t
fleetDigest(const scheduler::StreamResult &r)
{
    Digest d;
    d.word(r.digest);
    for (const std::int64_t v :
         {r.liveServers, r.guaranteedInstances, r.bestEffortInstances,
          r.violatingServers, r.arrivals, r.placed, r.rejected,
          r.departures, r.failures, r.recoveries, r.evictions,
          r.replacements, r.lost, r.fillerPlaced, r.fillerEvicted,
          r.events})
        d.word(static_cast<std::uint64_t>(v));
    for (const scheduler::StreamEpochStats &e : r.timeline) {
        for (const std::int64_t v :
             {e.failures, e.recoveries, e.departures, e.placed, e.lost,
              e.events, e.guaranteedInstances, e.bestEffortInstances})
            d.word(static_cast<std::uint64_t>(v));
    }
    return d.value;
}

/** Empty string when the run's conservation identities hold. */
std::string
fleetCheck(const scheduler::ShardedCluster &fleet,
           const scheduler::StreamResult &r)
{
    if (r.placed - r.departures - r.lost != r.guaranteedInstances)
        return "placed - departures - lost != guaranteed";
    if (r.evictions != r.replacements + r.lost)
        return "evictions != replacements + lost";
    if (r.fillerPlaced - r.fillerEvicted != r.bestEffortInstances)
        return "filler placed - evicted != best-effort";
    if (!fleet.verifyAggregates())
        return "shard aggregates disagree with per-server state";
    return "";
}

/**
 * Fleet workload: set-up builds the fleet and runs one width-1 stream
 * as the reference (five times; every reference must agree); every
 * timed operation is one runStream call at the default pool width that
 * must reproduce the reference digest and pass the conservation checks.
 */
void
runFleet(const Options &o, const FleetSpec &fs, Report &report,
         Tracer &tracer)
{
    const scheduler::ChurnConfig churn = churnFor(fs.servers, o.seed);
    report.meta["servers"] = std::to_string(fs.servers);
    report.meta["epochs"] = std::to_string(fs.epochs);
    std::unique_ptr<scheduler::ShardedCluster> fleet;
    for (int i = 0; i < 5; ++i) {
        const double t0 = wallNow();
        const double cpu0 = cpuNow();
        fleet = std::make_unique<scheduler::ShardedCluster>(
            makeFleet(fs.servers, o.seed));
        fleet->setThreads(1);
        const scheduler::StreamResult ref =
            fleet->runStream(kTiers, churn, fs.epochs);
        report.setupWallS.push_back(wallNow() - t0);
        report.setupCpuS.push_back(cpuNow() - cpu0);

        ++report.attempted;
        const std::string error = fleetCheck(*fleet, ref);
        if (!error.empty()) {
            report.fail("width-1 reference: " + error);
        } else if (i == 0) {
            report.digest = fleetDigest(ref);
            report.quality["goodput_utilization"] =
                ref.goodputUtilization();
            report.quality["violation_rate"] = ref.violationRate();
        } else if (fleetDigest(ref) != report.digest) {
            report.fail("width-1 references disagree");
        }
    }
    report.readyS = wallNow();
    const int width = o.width > 0 ? o.width : core::defaultThreadCount();
    std::vector<double> serialMs;
    const double start = wallNow();
    int op = 0;
    while (wallNow() - start < o.seconds || report.rounds.empty()) {
        const double roundWall = wallNow();
        const double roundCpu = cpuNow();
        for (int k = 0; k < fs.opsPerRound; ++k, ++op) {
            // The traced run times every fourth stream at width 1 for
            // pool.parallel_speedup.
            const bool serial = tracer.on() && op % 4 == 3;
            fleet->setThreads(serial ? 1 : o.width);
            tracer.beginOp(op + 1);
            const std::uint64_t batches0 = counter("pool.batches");
            const double wall0 = wallNow();
            const double cpu0 = cpuNow();
            scheduler::StreamResult r;
            {
                Scope s(tracer, "scheduler.run_stream");
                r = fleet->runStream(kTiers, churn, fs.epochs);
            }
            const double wall = wallNow() - wall0;
            const double cpu = cpuNow() - cpu0;
            const std::uint64_t batches = counter("pool.batches") - batches0;

            ++report.attempted;
            const std::string error = fleetCheck(*fleet, r);
            if (!error.empty())
                report.fail(error);
            else if (fleetDigest(r) != report.digest)
                report.fail("fleet digest " + hex(fleetDigest(r)) +
                            " differs from the width-1 reference");
            if (serial) {
                serialMs.push_back(1e3 * wall);
                continue;
            }
            report.opsMs.push_back(1e3 * wall);
            Layers l;
            const double epochs = fs.epochs;
            const double events = static_cast<double>(r.events);
            l["scheduler.epoch_us"] = 1e6 * wall / epochs;
            l["scheduler.events_per_epoch"] = events / epochs;
            l["scheduler.us_per_event"] = ratio(1e6 * wall, events);
            l["scheduler.placed"] = static_cast<double>(r.placed);
            l["scheduler.rejected"] = static_cast<double>(r.rejected);
            l["scheduler.lost"] = static_cast<double>(r.lost);
            l["pool.busy_ratio"] = ratio(cpu, wall * width);
            l["pool.batches_per_op"] = static_cast<double>(batches);
            if (tracer.on()) {
                l["trace.spans_per_op"] = 1;
                l["scheduler.stream_s"] =
                    tracer.selfSeconds("scheduler.run_stream");
            }
            report.opLayers.push_back(std::move(l));
        }
        report.rounds.push_back({wallNow() - roundWall, cpuNow() - roundCpu});
    }
    if (tracer.on()) {
        report.processLayers["pool.parallel_speedup"] =
            ratio(median(serialMs), median(report.opsMs));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Report report;
    Tracer tracer(o.trace);
    report.meta["workload"] = o.workload;
    report.meta["seed"] = std::to_string(o.seed);
    report.meta["size"] = o.smoke ? "smoke" : "full";
    report.meta["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    report.meta["hardware_concurrency"] =
        std::to_string(std::thread::hardware_concurrency());
    report.meta["pool_width"] = std::to_string(
        o.width > 0 ? o.width : core::defaultThreadCount());
    report.meta["build_type"] = PIPEBENCH_BUILD_TYPE;
    report.meta["cxx_flags"] = PIPEBENCH_CXX_FLAGS;

    if (o.workload == "campaign_cold") {
        runCampaignCold(o, report, tracer);
    } else if (o.workload == "campaign_warm") {
        runCampaignWarm(o, report, tracer);
    } else if (o.workload == "fleet_paper") {
        runFleet(o, o.smoke ? FleetSpec{400, 16, 8} : FleetSpec{4000, 256, 16},
                 report, tracer);
    } else if (o.workload == "fleet_warehouse") {
        runFleet(o,
                 o.smoke ? FleetSpec{2000, 8, 4} : FleetSpec{128000, 64, 8},
                 report, tracer);
    } else {
        usage(("unknown workload " + o.workload).c_str());
    }

    if (tracer.on()) {
        // Overhead of the tracing itself: spans recorded per operation
        // times the measured cost of one span, over the operation time.
        const double costNs = spanCostNs();
        double spans = 0;
        for (const Layers &l : report.opLayers) {
            const auto it = l.find("trace.spans_per_op");
            spans += it == l.end() ? 0 : it->second;
        }
        const double perOp =
            report.opLayers.empty() ? 0 : spans / report.opLayers.size();
        report.processLayers["trace.span_cost_ns"] = costNs;
        report.processLayers["trace.overhead_pct"] =
            ratio(100.0 * perOp * costNs * 1e-6, median(report.opsMs));
        report.processLayers["pool.fork_join_us"] = forkJoinUs();
        if (!o.traceFile.empty() && !tracer.writeTo(o.traceFile))
            std::fprintf(stderr, "pipebench: cannot write %s\n",
                         o.traceFile.c_str());
    }
    print(report);
    return report.failed == 0 ? 0 : 1;
}
