#include "sim/replay.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.h"
#include "fault/keyed_hash.h"
#include "obs/metrics.h"
#include "sim/digest.h"

namespace smite::sim {

namespace {

bool
envEnabled()
{
    // Kill-switch contract (docs/ROBUSTNESS.md): exactly "0" disables
    // both stores; anything else (including unset) leaves them on.
    const char *v = std::getenv("SMITE_SIM_MEMO");
    return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{envEnabled()};
    return flag;
}

// A CounterBlock is persisted as its raw uint64 fields: no padding,
// nothing but 64-bit words, so memcpy round-trips it exactly.
static_assert(std::is_trivially_copyable_v<CounterBlock> &&
              std::has_unique_object_representations_v<CounterBlock> &&
              sizeof(CounterBlock) % sizeof(std::uint64_t) == 0);
constexpr std::size_t kCounterWords =
    sizeof(CounterBlock) / sizeof(std::uint64_t);

/** Checksum of a record's leading words. */
std::uint64_t
checksum(const std::uint64_t *words, std::size_t n)
{
    Digest d;
    for (std::size_t i = 0; i < n; ++i)
        d.u64(words[i]);
    return d.value();
}

/**
 * Parse one record line into @p key / @p entry. Returns false for a
 * malformed line or a checksum mismatch; sets @p version.
 */
bool
decode(std::string_view line, std::uint64_t &version, ReplayKey &key,
       ReplayEntry &entry)
{
    std::vector<std::uint64_t> words;
    const char *p = line.data();
    const char *end = p + line.size();
    while (p < end) {
        std::uint64_t w = 0;
        const auto [next, ec] = std::from_chars(p, end, w, 16);
        if (ec != std::errc() || (next != end && *next != ' '))
            return false;
        words.push_back(w);
        p = next == end ? end : next + 1;
    }
    // version, key size, result count, idle, wake, checksum at least.
    if (words.size() < 6 ||
        checksum(words.data(), words.size() - 1) != words.back())
        return false;
    const std::size_t key_size = words[1];
    if (key_size > words.size() - 6)
        return false;
    const std::size_t results = words[2 + key_size];
    if (results > words.size() / kCounterWords ||
        words.size() != 6 + key_size + results * kCounterWords)
        return false;
    version = words[0];
    key.assign(words.begin() + 2, words.begin() + 2 + key_size);
    const std::uint64_t *counters = words.data() + 3 + key_size;
    entry.results.resize(results);
    std::memcpy(static_cast<void *>(entry.results.data()), counters,
                results * sizeof(CounterBlock));
    entry.idleSkipped = counters[results * kCounterWords];
    entry.wakeEvents = counters[results * kCounterWords + 1];
    return true;
}

/**
 * Damage @p line for the `disk.corrupt` fault site. The variant is
 * chosen from the line's own hash so a given record is always
 * corrupted the same way.
 */
void
corrupt(std::string &line, bool &newline)
{
    switch (fault::fnv1a(line) % 3) {
    case 0:  // bit-flip a character in the middle of the record
        line[line.size() / 2] ^= 0x10;
        break;
    case 1:  // truncate the record at half length
        line.resize(line.size() / 2);
        break;
    default:  // torn append: "crashed" before the newline
        newline = false;
        break;
    }
}

} // namespace

bool
replayEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

bool
setReplayEnabled(bool on)
{
    return enabledFlag().exchange(on, std::memory_order_relaxed);
}

std::uint64_t
configDigest(const MachineConfig &config)
{
    Digest d;
    d.str("machine.config");
    d.str(config.name);
    d.str(config.microarchitecture);
    d.f64(config.ghz);
    d.str(config.kernel);
    d.u64(static_cast<std::uint64_t>(config.numCores));
    d.u64(static_cast<std::uint64_t>(config.contextsPerCore));
    const CoreConfig &core = config.core;
    d.u64(static_cast<std::uint64_t>(core.fetchWidth));
    d.u64(static_cast<std::uint64_t>(core.issuePerContext));
    d.u64(static_cast<std::uint64_t>(core.issuePerCore));
    d.u64(static_cast<std::uint64_t>(core.windowSize));
    d.u64(static_cast<std::uint64_t>(core.schedDepth));
    d.u64(static_cast<std::uint64_t>(core.mshrs));
    d.u64(core.redirectPenalty);
    d.u64(static_cast<std::uint64_t>(core.fetchPolicy));
    d.u64(config.l2NextLinePrefetch ? 1 : 0);
    d.u64(config.inclusiveL3 ? 1 : 0);
    for (const CacheConfig *c :
         {&config.l1i, &config.l1d, &config.l2, &config.l3}) {
        d.str(c->name);
        d.u64(c->sizeBytes);
        d.u64(static_cast<std::uint64_t>(c->assoc));
        d.u64(c->hitLatency);
    }
    for (const TlbConfig *t : {&config.itlb, &config.dtlb}) {
        d.u64(static_cast<std::uint64_t>(t->entries));
        d.u64(t->walkLatency);
    }
    d.u64(config.dram.accessLatency);
    d.u64(config.dram.occupancyPerLine);
    return d.value();
}

ReplayStore &
replayStore()
{
    static ReplayStore store;
    static const bool instrumented =
        (store.instrument("machine.replay"), true);
    (void)instrumented;
    return store;
}

ReplayLog::~ReplayLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ReplayLog::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_ = path;
}

std::string
ReplayLog::path() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

std::string
ReplayLog::encode(const ReplayKey &key, const ReplayEntry &entry,
                  std::uint64_t version)
{
    std::vector<std::uint64_t> words;
    words.reserve(6 + key.size() + entry.results.size() * kCounterWords);
    words.push_back(version);
    words.push_back(key.size());
    words.insert(words.end(), key.begin(), key.end());
    words.push_back(entry.results.size());
    const std::size_t at = words.size();
    words.resize(at + entry.results.size() * kCounterWords);
    std::memcpy(words.data() + at, entry.results.data(),
                entry.results.size() * sizeof(CounterBlock));
    words.push_back(entry.idleSkipped);
    words.push_back(entry.wakeEvents);
    words.push_back(checksum(words.data(), words.size()));

    std::string line;
    line.reserve(words.size() * 8);
    char buf[17];
    for (const std::uint64_t w : words) {
        if (!line.empty())
            line += ' ';
        const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, w, 16);
        line.append(buf, end);
    }
    return line;
}

ReplayLog::LoadStats
ReplayLog::load(ReplayStore &store) const
{
    LoadStats stats;
    std::ifstream in(path(), std::ios::binary);
    const std::string data{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos) {
            ++stats.corrupt;  // torn final record
            break;
        }
        const std::string_view line(data.data() + pos, nl - pos);
        pos = nl + 1;
        std::uint64_t version = 0;
        ReplayKey key;
        ReplayEntry entry;
        if (!decode(line, version, key, entry)) {
            ++stats.corrupt;
        } else if (version != kModelVersion) {
            ++stats.stale;
        } else {
            store.put(key, std::move(entry));
            ++stats.loaded;
        }
    }
    return stats;
}

void
ReplayLog::append(const ReplayKey &key, const ReplayEntry &entry)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty())
        return;
    static obs::Counter &appends =
        obs::Registry::global().counter("machine.replay.log.appends");
    std::string line = encode(key, entry);
    bool newline = true;
    fault::FaultPlan &plan = fault::FaultPlan::global();
    if (plan.enabled() && plan.shouldInject("disk.corrupt", line))
        corrupt(line, newline);
    if (newline)
        line += '\n';

    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            std::fprintf(stderr, "smite: replay log: cannot open %s\n",
                         path_.c_str());
            path_.clear();  // warn once, then run without the log
            return;
        }
    }
    // One write of the whole record: O_APPEND lands it after every
    // earlier record, never interleaved with another writer's.
    if (::write(fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
        std::fprintf(stderr, "smite: replay log: short write to %s\n",
                     path_.c_str());
        return;
    }
    appends.add();
}

ReplayLog &
ReplayLog::global()
{
    static ReplayLog log;
    return log;
}

void
openReplayLog(const std::string &path)
{
    if (!replayEnabled())
        return;
    ReplayLog &log = ReplayLog::global();
    if (log.path() == path)
        return;
    obs::Registry &registry = obs::Registry::global();
    registry.counter("machine.replay.log.appends");
    log.open(path);
    const ReplayLog::LoadStats stats = log.load(replayStore());
    registry.counter("machine.replay.log.preloaded").add(stats.loaded);
    registry.counter("machine.replay.log.corrupt").add(stats.corrupt);
    registry.counter("machine.replay.log.stale").add(stats.stale);
    if (stats.corrupt + stats.stale > 0)
        std::fprintf(stderr, "smite: replay log %s: skipped %zu records\n",
                     path.c_str(),
                     static_cast<std::size_t>(stats.corrupt + stats.stale));
}

SnapshotStore &
SnapshotStore::global()
{
    static SnapshotStore store;
    return store;
}

std::shared_ptr<const SetAssocCache::Snapshot>
SnapshotStore::find(const ReplayKey &key)
{
    static obs::Counter &hits =
        obs::Registry::global().counter("machine.snapshot.hits");
    static obs::Counter &misses =
        obs::Registry::global().counter("machine.snapshot.misses");
    std::shared_lock<std::shared_mutex> read(mu_);
    const auto it = images_.find(key);
    if (it == images_.end()) {
        misses.add();
        return nullptr;
    }
    hits.add();
    return it->second;
}

void
SnapshotStore::insert(const ReplayKey &key,
                      std::shared_ptr<const SetAssocCache::Snapshot> snap)
{
    static obs::Counter &captured =
        obs::Registry::global().counter("machine.snapshot.bytes_captured");
    std::unique_lock<std::shared_mutex> write(mu_);
    if (images_.size() >= kMaxEntries)
        return;
    const auto [it, inserted] = images_.try_emplace(key);
    if (!inserted)
        return;
    captured.add(snap->bytes());
    it->second = std::move(snap);
}

std::size_t
SnapshotStore::size() const
{
    std::shared_lock<std::shared_mutex> read(mu_);
    return images_.size();
}

} // namespace smite::sim
