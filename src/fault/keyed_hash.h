/**
 * @file
 * The one keyed-hash primitive behind every reproducible random draw
 * and every stable digest: the SplitMix64 finalizer mix64(), the keyed
 * draw() (a pure function of its arguments, so a keyed event's outcome
 * never depends on processing order), toUnit(), and the FNV-1a byte
 * step behind fault-site keys (fault.cpp) and replay digests
 * (sim/digest.h). Each layer binds its own draw *domain*
 * (scheduler/keyed.h, queueing/keyed_stream.h), so layers sharing a
 * seed never share a stream. Committed digests and results pin every
 * value here: none of it may change.
 */

#ifndef SMITE_FAULT_KEYED_HASH_H
#define SMITE_FAULT_KEYED_HASH_H

#include <cstdint>
#include <string_view>

namespace smite::fault {

/** SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * One keyed 64-bit draw. The salt separates event kinds within a
 * domain, so streams never collide even for equal (a, b).
 */
inline std::uint64_t
draw(std::uint64_t domain, std::uint64_t seed, std::uint64_t salt,
     std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = mix64(seed ^ domain);
    h = mix64(h ^ salt);
    h = mix64(h ^ a);
    return mix64(h ^ b);
}

/** Map a 64-bit draw to a uniform double in [0, 1). */
inline double
toUnit(std::uint64_t h)
{
    // 53 mantissa bits: the usual exact uniform-double construction.
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** FNV-1a 64-bit offset basis (the hash of no bytes). */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** Fold one byte into an FNV-1a 64-bit hash. */
inline constexpr std::uint64_t
fnv1aStep(std::uint64_t h, unsigned char byte)
{
    return (h ^ byte) * 0x100000001b3ull;
}

/** FNV-1a 64-bit hash of @p bytes, continuing from @p h. */
inline constexpr std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset)
{
    for (const char c : bytes)
        h = fnv1aStep(h, static_cast<unsigned char>(c));
    return h;
}

} // namespace smite::fault

#endif // SMITE_FAULT_KEYED_HASH_H
