#pragma once

/// \file plan_snapshot.hpp
/// Versioned on-disk encoding of a `core::SolvePlan`'s key.
///
/// A plan is a deterministic function of `(n, SublinearOptions)`: O(n^2)
/// closed-form geometry (offset tables, the pair list, root blocks) that
/// builds in under a millisecond at banded n = 192, about what reading it
/// back and checking it would cost. So a snapshot stores no geometry:
/// its image is one 80-byte header,
///
///   magic, format version, ABI tag (word size and endianness: this is a
///   *host* format, not an interchange format), the full plan key (`n`
///   plus every option field that shapes a plan, with the effective band
///   in place of the requested `band_width`, as `serve::PlanKey` has it),
///   the derived scalars (`2*ceil(sqrt n)` bound, effective band,
///   iteration cap), and an FNV-1a-64 checksum over the bytes before it.
///
/// `decode_plan` trusts nothing: size == header size, magic, version, ABI
/// tag, checksum, embedded key == requested key. It then builds the plan
/// with `SolvePlan::create`, which re-runs option validation, and
/// cross-checks the stored scalars against it. Any disagreement throws,
/// which callers (`SnapshotStore`) treat as "no snapshot — rebuild".
///
/// Bit-identity contract: a decoded plan is a freshly built one, so every
/// solve through it produces bit-identical results
/// (tests/test_snapshot_roundtrip.cpp asserts this for both variants and
/// all bench families).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solver_types.hpp"

namespace subdp::snapshot {

/// Bumped on any incompatible change to the image layout;
/// decoders reject other versions (the caller rebuilds and overwrites).
inline constexpr std::uint32_t kFormatVersion = 7;

/// "SUBDPSNP" — identifies a plan snapshot regardless of version.
inline constexpr char kMagic[8] = {'S', 'U', 'B', 'D', 'P', 'S', 'N', 'P'};

/// FNV-1a 64-bit over a byte range (the header checksum, the file name
/// hash).
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data,
                                    std::size_t size) noexcept;

/// Shape-keyed snapshot file name, `plan-n<N>-k<hash16>.snap`: `n` in the
/// clear for scanability, every option field folded into the hash so two
/// shapes never share a file. A file whose content key disagrees with its
/// name fails `decode_plan`'s key check (the content is authoritative).
[[nodiscard]] std::string snapshot_file_name(
    std::size_t n, const core::SublinearOptions& options);

/// Serialises `plan`'s key into a fresh buffer (always the same size).
[[nodiscard]] std::vector<std::uint8_t> encode_plan(
    const core::SolvePlan& plan);

/// Builds the plan an image `[data, data + size)` names. Verifies
/// everything (see the file comment) against the *requested* shape
/// `(n, options)` and throws `std::invalid_argument` on any mismatch —
/// corrupt, truncated, over-long, stale-version or wrong-key bytes never
/// produce a plan. The third parameter is unused: the plan keeps nothing
/// of the buffer. It stays until the snapshot tier goes (ROADMAP item
/// 1a), because callers still pass a keep-alive handle (perfbench's
/// snapshot probe).
[[nodiscard]] std::shared_ptr<const core::SolvePlan> decode_plan(
    const std::uint8_t* data, std::size_t size,
    std::shared_ptr<const void> owner, std::size_t n,
    const core::SublinearOptions& options);

}  // namespace subdp::snapshot
