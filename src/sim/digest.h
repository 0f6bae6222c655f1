/**
 * @file
 * FNV-1a 64-bit streaming digest used to build replay identity keys.
 *
 * The run-level replay store (sim/replay.h) keys on digests of machine
 * configurations and uop-stream identities, and its write-through log
 * persists those keys across processes and builds. A digest must
 * therefore be *stable across processes, platforms and builds*: words
 * are folded in a fixed little-endian byte order, and callers must
 * never fold in a pointer or anything layout-dependent. It must also
 * be exact: two different configurations colliding would replay the
 * wrong results, so every field that influences a run's outcome is
 * folded in bit-for-bit (doubles via their bit patterns). Any change
 * to what a digest folds in, or to the simulator behind it, must bump
 * sim::kModelVersion so logs written before the change are not
 * served.
 */

#ifndef SMITE_SIM_DIGEST_H
#define SMITE_SIM_DIGEST_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fault/keyed_hash.h"

namespace smite::sim {

/** Incremental FNV-1a 64-bit hasher. */
class Digest {
  public:
    /** Fold in a 64-bit value. */
    Digest &
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ = fault::fnv1aStep(
                hash_, static_cast<unsigned char>(value & 0xFF));
            value >>= 8;
        }
        return *this;
    }

    /** Fold in a double via its bit pattern. */
    Digest &
    f64(double value)
    {
        return u64(std::bit_cast<std::uint64_t>(value));
    }

    /** Fold in a string, length-prefixed so fields cannot bleed. */
    Digest &
    str(std::string_view value)
    {
        u64(value.size());
        hash_ = fault::fnv1a(value, hash_);
        return *this;
    }

    /** The digest so far (never returns 0: 0 means "no digest"). */
    std::uint64_t
    value() const
    {
        return hash_ == 0 ? kOffset : hash_;
    }

  private:
    /**
     * Not the standard FNV offset basis (fault::kFnvOffset): one digit
     * short of it. Kept as is; changing it would re-key every stream
     * digest and every `sim.replay` chaos decision for no gain.
     */
    static constexpr std::uint64_t kOffset = 1469598103934665603ull;
    std::uint64_t hash_ = kOffset;
};

} // namespace smite::sim

#endif // SMITE_SIM_DIGEST_H
