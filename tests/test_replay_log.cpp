/**
 * @file
 * Tests for the persisted replay store (sim::ReplayLog): round trips
 * across processes, content addressing (a perturbed profile or a
 * different model version is never served), recovery from damaged
 * records, the SMITE_SIM_MEMO=0 kill-switch and concurrent appends.
 *
 * A fresh process is the only way to see what the log alone serves
 * (the in-process store already holds every run this process made),
 * so the writer side of the cross-process tests runs in a forked
 * child, and each test uses intervals no other test simulates.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "sim/replay.h"
#include "workload/spec2006.h"

namespace smite::sim {
namespace {

using Store = ReplayStore;

/** A scratch log path, removed on construction and destruction. */
struct TempLog {
    explicit TempLog(const char *name)
        : path((std::filesystem::temp_directory_path() / name).string())
    {
        std::remove(path.c_str());
    }
    ~TempLog() { std::remove(path.c_str()); }
    std::string path;
};

/** Point the process-wide log at @p path; restore it on scope exit. */
struct GlobalLogGuard {
    explicit GlobalLogGuard(const std::string &path)
        : prev(ReplayLog::global().path())
    {
        openReplayLog(path);
    }
    ~GlobalLogGuard() { ReplayLog::global().open(prev); }
    std::string prev;
};

std::uint64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/**
 * Run @p fn in a forked child process and return what it wrote to
 * its pipe. The child shares nothing with this process afterwards:
 * whatever it records reaches the parent only through the log.
 */
std::string
inChild(const std::function<std::string()> &fn)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "";
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const std::string out = fn();
        const ssize_t n = ::write(fds[1], out.data(), out.size());
        ::_exit(n == static_cast<ssize_t>(out.size()) ? 0 : 1);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return out;
}

/** The raw bytes of a sequence of doubles (bit-exact transport). */
std::string
bytesOf(const std::vector<double> &values)
{
    return std::string(reinterpret_cast<const char *>(values.data()),
                       values.size() * sizeof(double));
}

/** A recognisable entry: its words derive from @p seed. */
ReplayEntry
sampleEntry(std::uint64_t seed, std::size_t placements)
{
    ReplayEntry entry{std::vector<CounterBlock>(placements), seed * 3,
                      seed * 5 + 1};
    for (std::size_t p = 0; p < placements; ++p) {
        entry.results[p].cycles = 1000 + seed;
        entry.results[p].uops = ~0ull - seed - p;  // full-width word
        entry.results[p].fetchStallCycles = p;
    }
    return entry;
}

ReplayKey
sampleKey(std::uint64_t seed)
{
    return {0xC0FFEEull, 2000, 8000, 1, 0, 0, seed * 0x9e3779b9ull + 1};
}

/** @p store serves exactly @p expected for sampleKey(@p seed). */
void
expectServes(const Store &store, std::uint64_t seed,
             const ReplayEntry &expected)
{
    const ReplayEntry *got = store.peek(sampleKey(seed));
    ASSERT_NE(got, nullptr) << seed;
    // encode() spells out every word, so equal lines = equal entries.
    EXPECT_EQ(ReplayLog::encode(sampleKey(seed), *got),
              ReplayLog::encode(sampleKey(seed), expected));
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines,
           bool final_newline = true)
{
    std::ofstream out(path, std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        out << lines[i];
        if (final_newline || i + 1 < lines.size())
            out << '\n';
    }
}

TEST(ReplayLog, FreshProcessIsServedFromTheLog)
{
    TempLog log("smite_replay_log_roundtrip.log");
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("433.milc");
    const auto mode = core::CoLocationMode::kSmt;
    constexpr Cycle kWarmup = 2101, kMeasure = 6301;

    auto measure = [&](core::Lab &lab) {
        lab.setParallelism(1);
        std::vector<double> values{lab.soloIpc(a),
                                   lab.pairDegradation(a, b, mode),
                                   lab.pairDegradation(b, a, mode)};
        for (const double v : lab.pmuProfile(a))
            values.push_back(v);
        const core::Characterization &c = lab.characterization(a, mode);
        values.insert(values.end(), c.sensitivity.begin(),
                      c.sensitivity.end());
        values.insert(values.end(), c.contentiousness.begin(),
                      c.contentiousness.end());
        return values;
    };

    const std::string written = inChild([&] {
        openReplayLog(log.path);
        core::Lab lab(MachineConfig::ivyBridge(), kWarmup, kMeasure);
        return bytesOf(measure(lab));
    });
    ASSERT_TRUE(std::filesystem::exists(log.path));

    // This process has never run these intervals: every run must come
    // out of the log, and every derived value must be bit-equal to the
    // child's — both directions of the pair included.
    GlobalLogGuard guard(log.path);
    EXPECT_GT(counter("machine.replay.log.preloaded"), 0u);
    const std::uint64_t misses = counter("machine.replay.misses");
    core::Lab fresh(MachineConfig::ivyBridge(), kWarmup, kMeasure);
    EXPECT_EQ(bytesOf(measure(fresh)), written);
    EXPECT_EQ(counter("machine.replay.misses"), misses);
}

TEST(ReplayLog, PerturbedProfileIsNotServed)
{
    TempLog log("smite_replay_log_perturbed.log");
    const auto &original = workload::spec2006::byName("462.libquantum");
    workload::WorkloadProfile perturbed = original;
    perturbed.depProb += 0.01;  // same name, one parameter moved
    constexpr Cycle kWarmup = 2102, kMeasure = 6302;

    inChild([&] {
        openReplayLog(log.path);
        core::Lab lab(MachineConfig::ivyBridge(), kWarmup, kMeasure);
        lab.soloCounters(original);
        return std::string();
    });

    GlobalLogGuard guard(log.path);
    core::Lab lab(MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const std::uint64_t misses = counter("machine.replay.misses");
    lab.soloCounters(perturbed);
    EXPECT_EQ(counter("machine.replay.misses"), misses + 1)
        << "a record written for the original profile was served";

    core::Lab other(MachineConfig::ivyBridge(), kWarmup, kMeasure);
    other.soloCounters(original);
    EXPECT_EQ(counter("machine.replay.misses"), misses + 1);

    // One Lab: having measured the original, it must still run a
    // same-name copy rather than serve the original's counters.
    workload::WorkloadProfile moved = original;
    moved.loadDepProb += 0.01;
    other.soloCounters(moved);
    EXPECT_EQ(counter("machine.replay.misses"), misses + 2)
        << "the Lab served its result for the original profile";
}

TEST(ReplayLog, OtherModelVersionIsNotServed)
{
    TempLog log("smite_replay_log_version.log");
    writeLines(log.path,
               {ReplayLog::encode(sampleKey(1), sampleEntry(1, 2),
                                  kModelVersion + 1),
                ReplayLog::encode(sampleKey(2), sampleEntry(2, 2))});
    ReplayLog reader;
    reader.open(log.path);
    Store store;
    const ReplayLog::LoadStats stats = reader.load(store);
    EXPECT_EQ(stats.loaded, 1u);
    EXPECT_EQ(stats.stale, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(store.peek(sampleKey(1)), nullptr);
    expectServes(store, 2, sampleEntry(2, 2));
}

TEST(ReplayLog, DamagedRecordsAreSkippedAndCounted)
{
    TempLog log("smite_replay_log_damaged.log");
    std::vector<std::string> lines;
    for (std::uint64_t s = 0; s < 6; ++s)
        lines.push_back(ReplayLog::encode(sampleKey(s), sampleEntry(s, 1)));
    lines[1][lines[1].size() / 2] ^= 0x01;       // bit flip
    lines[2].resize(lines[2].size() / 2);        // truncated
    lines[3] += " 0";                            // trailing garbage
    lines[4] = "";                               // blank line
    // The last record is torn: written without its newline.
    writeLines(log.path, lines, /*final_newline=*/false);

    ReplayLog reader;
    reader.open(log.path);
    Store store;
    const ReplayLog::LoadStats stats = reader.load(store);
    EXPECT_EQ(stats.loaded, 1u);
    EXPECT_EQ(stats.corrupt, 5u);
    EXPECT_EQ(stats.stale, 0u);
    expectServes(store, 0, sampleEntry(0, 1));
    for (std::uint64_t s = 1; s < 6; ++s)
        EXPECT_EQ(store.peek(sampleKey(s)), nullptr) << s;
}

TEST(ReplayLog, CorruptFaultSiteDamagesAppends)
{
    TempLog log("smite_replay_log_fault.log");
    fault::FaultPlan &plan = fault::FaultPlan::global();
    plan.arm("disk.corrupt", fault::SiteSpec{.probability = 1.0,
                                             .seed = 5});
    const std::uint64_t injected = counter("fault.disk.corrupt.injected");
    {
        ReplayLog writer;
        writer.open(log.path);
        for (std::uint64_t s = 0; s < 30; ++s)
            writer.append(sampleKey(s), sampleEntry(s, 2));
    }
    EXPECT_EQ(counter("fault.disk.corrupt.injected"), injected + 30);
    plan.reset();

    ReplayLog reader;
    reader.open(log.path);
    Store store;
    const ReplayLog::LoadStats stats = reader.load(store);
    EXPECT_EQ(stats.loaded, 0u);
    // A torn record glues onto the next one, so lines <= records.
    EXPECT_GT(stats.corrupt, 0u);
    EXPECT_LE(stats.corrupt, 30u);
    EXPECT_EQ(store.size(), 0u);
}

TEST(ReplayLog, DisabledReplayLeavesNoFile)
{
    TempLog log("smite_replay_log_disabled.log");
    const bool prev = setReplayEnabled(false);
    {
        GlobalLogGuard guard(log.path);
        EXPECT_NE(ReplayLog::global().path(), log.path);
        core::Lab lab(MachineConfig::ivyBridge(), 2103, 6303);
        lab.soloIpc(workload::spec2006::byName("453.povray"));
    }
    setReplayEnabled(prev);
    EXPECT_FALSE(std::filesystem::exists(log.path));
}

TEST(ReplayLog, ConcurrentAppendsAllReadBack)
{
    TempLog log("smite_replay_log_concurrent.log");
    constexpr std::size_t kRecords = 256;
    {
        ReplayLog writer;
        writer.open(log.path);
        core::parallelFor(
            kRecords,
            [&](std::size_t i) {
                writer.append(sampleKey(i), sampleEntry(i, 1 + i % 4));
            },
            4);
    }
    ReplayLog reader;
    reader.open(log.path);
    Store store;
    const ReplayLog::LoadStats stats = reader.load(store);
    EXPECT_EQ(stats.loaded, kRecords);
    EXPECT_EQ(stats.corrupt, 0u);
    ASSERT_EQ(store.size(), kRecords);
    for (std::size_t i = 0; i < kRecords; ++i)
        expectServes(store, i, sampleEntry(i, 1 + i % 4));
}

} // namespace
} // namespace smite::sim
