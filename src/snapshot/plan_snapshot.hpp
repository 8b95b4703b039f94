#pragma once

/// \file plan_snapshot.hpp
/// Versioned on-disk encoding of a `core::SolvePlan`'s shape geometry.
///
/// A plan is a deterministic function of `(n, SublinearOptions)`: O(n^2)
/// closed-form geometry (offset tables, the pair list, root blocks), so
/// a build costs about what a decode does. A *snapshot* persists exactly
/// that instance-independent state so a restarted service can rehydrate
/// the plan from disk instead of recomputing it:
///
///   [ SnapshotHeader : 160 bytes, trivially copyable ]
///   [ payload: 5 sections, each 16-byte aligned, zero-padded ]
///     1. layout length_base     (std::size_t per element)
///     2. layout child_base      (empty when band + 1 >= n: no side store)
///     3. shape pairs            (core::detail::Pair)
///     4. shape pair offsets     (std::size_t)
///     5. shape root blocks      (core::detail::RootBlock)
///
/// The header carries a magic, the format version, an ABI tag (field
/// sizes + endianness — this is a *host* format, not an interchange
/// format), the full plan key (`n` plus every option field that shapes a
/// plan, with the effective band in place of the requested `band_width`,
/// as `serve::PlanKey` has it), the derived scalars (`2*ceil(sqrt n)`
/// bound, effective band, iteration cap, split-site total), the five
/// section counts, and an FNV-1a-64 checksum over the payload.
///
/// `decode_plan` trusts nothing: magic, version, ABI tag, embedded key ==
/// requested key, section counts x element sizes == payload size == what
/// the caller handed in, checksum — and then the structural layers verify
/// again (layout offset tables are recomputed from `(n, band)` and
/// compared; `EngineShape::restore` compares the pair list, pair
/// offsets, split-site total and root blocks with a fresh build;
/// `SolvePlan::restore` re-runs
/// option validation and cross-checks the derived scalars). Any
/// disagreement throws, which callers (`SnapshotStore`) treat as "no
/// snapshot — rebuild". A decoded plan aliases the caller's buffer via
/// `core::ShapeArray` views (zero copy when the buffer is an mmap), kept
/// alive by the `owner` handle.
///
/// Bit-identity contract: a decoded plan is indistinguishable from a
/// freshly built one — same geometry bytes (checksummed), same derived
/// scalars (cross-checked) — so every solve through it produces
/// bit-identical results (tests/test_snapshot_roundtrip.cpp asserts this
/// for both variants and all bench families).
///
/// Both `PwVariant`s encode the same sections: a dense plan is the one
/// layout at band `n`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solver_types.hpp"

namespace subdp::snapshot {

/// Bumped on any incompatible change to the header or payload layout;
/// decoders reject other versions (the caller rebuilds and overwrites).
inline constexpr std::uint32_t kFormatVersion = 6;

/// "SUBDPSNP" — identifies a plan snapshot regardless of version.
inline constexpr char kMagic[8] = {'S', 'U', 'B', 'D', 'P', 'S', 'N', 'P'};

/// FNV-1a 64-bit over a byte range (the payload checksum).
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data,
                                    std::size_t size) noexcept;

/// Shape-keyed snapshot file name, `plan-n<N>-k<hash16>.snap`: `n` in the
/// clear for scanability, every option field folded into the hash so two
/// shapes never share a file. A file whose content key disagrees with its
/// name fails `decode_plan`'s key check (the content is authoritative).
[[nodiscard]] std::string snapshot_file_name(
    std::size_t n, const core::SublinearOptions& options);

/// Serialises `plan` (header + payload) into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_plan(
    const core::SolvePlan& plan);

/// Rehydrates a plan from `[data, data + size)`, which `owner` keeps
/// alive (an mmap handle or an owned read buffer); the returned plan's
/// geometry arrays alias that memory. Verifies everything (see the file
/// comment) against the *requested* shape `(n, options)` and throws
/// `std::invalid_argument` / `std::runtime_error` on any mismatch —
/// corrupt, truncated, stale-version or wrong-key bytes never produce a
/// plan.
[[nodiscard]] std::shared_ptr<const core::SolvePlan> decode_plan(
    const std::uint8_t* data, std::size_t size,
    std::shared_ptr<const void> owner, std::size_t n,
    const core::SublinearOptions& options);

}  // namespace subdp::snapshot
