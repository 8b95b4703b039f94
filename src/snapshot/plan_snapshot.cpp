#include "snapshot/plan_snapshot.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "support/assert.hpp"

namespace subdp::snapshot {

namespace {

/// Rejects a snapshot written by a build with a different word size or
/// byte order (host format, not interchange; see the header comment).
constexpr std::uint32_t kAbiTag =
    static_cast<std::uint32_t>(sizeof(std::size_t)) |
    ((std::endian::native == std::endian::little ? 1u : 2u) << 28);

/// The whole image: the plan key and the scalars derived from it, under
/// one checksum. Field order fixes the byte offsets the tests tamper at.
struct SnapshotHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t abi_tag;
  // The full plan key: n plus every option field that shapes a plan.
  std::uint64_t n;
  std::uint64_t band_width;  ///< The effective band, as in `PlanKey`.
  std::uint64_t max_iterations;
  std::uint8_t variant;
  std::uint8_t square_mode;
  std::uint8_t termination;
  std::uint8_t windowed_pebble;
  std::uint8_t backend;
  std::uint8_t check_crew;
  std::uint8_t record_costs;
  std::uint8_t pad;  ///< Zero.
  // Derived scalars, stored for cross-checking against recomputation.
  std::uint64_t bound;
  std::uint64_t band;
  std::uint64_t cap;
  std::uint64_t checksum;  ///< FNV-1a 64 over every byte before it.
};

static_assert(sizeof(SnapshotHeader) == 80, "snapshot header layout");
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

// `SublinearOptions::profile` is deliberately absent from the snapshot
// key (and from `key_matches`): it toggles per-step engine recording,
// never plan geometry, so profiled and unprofiled requests share one
// snapshot file — the decoded plan adopts whatever options the loading
// request carried. No format bump needed.
void fill_key(SnapshotHeader& h, std::size_t n,
              const core::SublinearOptions& o) {
  h.n = n;
  h.band_width = core::SolvePlan::effective_band_for(n, o);
  h.max_iterations = o.max_iterations;
  h.variant = static_cast<std::uint8_t>(o.variant);
  h.square_mode = static_cast<std::uint8_t>(o.square_mode);
  h.termination = static_cast<std::uint8_t>(o.termination);
  h.windowed_pebble = o.windowed_pebble ? 1 : 0;
  h.backend = static_cast<std::uint8_t>(o.machine.backend);
  h.check_crew = o.machine.check_crew ? 1 : 0;
  h.record_costs = o.machine.record_costs ? 1 : 0;
}

[[nodiscard]] bool key_matches(const SnapshotHeader& h, std::size_t n,
                               const core::SublinearOptions& o) {
  SnapshotHeader want{};
  fill_key(want, n, o);
  return h.n == want.n && h.band_width == want.band_width &&
         h.max_iterations == want.max_iterations &&
         h.variant == want.variant && h.square_mode == want.square_mode &&
         h.termination == want.termination &&
         h.windowed_pebble == want.windowed_pebble &&
         h.backend == want.backend && h.check_crew == want.check_crew &&
         h.record_costs == want.record_costs;
}

[[nodiscard]] std::uint64_t header_checksum(const SnapshotHeader& h) {
  return fnv1a64(reinterpret_cast<const std::uint8_t*>(&h),
                 offsetof(SnapshotHeader, checksum));
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string snapshot_file_name(std::size_t n,
                               const core::SublinearOptions& options) {
  SnapshotHeader key{};
  fill_key(key, n, options);
  // Hash the key fields only (the fixed-offset prefix after the magic/
  // version words), so the name is a pure function of the shape.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&key);
  const std::uint64_t hash =
      fnv1a64(bytes + offsetof(SnapshotHeader, n),
              offsetof(SnapshotHeader, pad) - offsetof(SnapshotHeader, n));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return "plan-n" + std::to_string(n) + "-k" + hex + ".snap";
}

std::vector<std::uint8_t> encode_plan(const core::SolvePlan& plan) {
  SnapshotHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.format_version = kFormatVersion;
  h.abi_tag = kAbiTag;
  fill_key(h, plan.n(), plan.options());
  h.bound = plan.iteration_bound();
  h.band = plan.effective_band();
  h.cap = plan.iteration_cap();
  h.checksum = header_checksum(h);

  std::vector<std::uint8_t> out(sizeof(SnapshotHeader));
  std::memcpy(out.data(), &h, sizeof(SnapshotHeader));
  return out;
}

std::shared_ptr<const core::SolvePlan> decode_plan(
    const std::uint8_t* data, std::size_t size,
    std::shared_ptr<const void> /*owner*/, std::size_t n,
    const core::SublinearOptions& options) {
  SUBDP_REQUIRE(data != nullptr && size == sizeof(SnapshotHeader),
                "plan snapshot size is not the header's");
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(SnapshotHeader));

  SUBDP_REQUIRE(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0,
                "not a plan snapshot (bad magic)");
  SUBDP_REQUIRE(h.format_version == kFormatVersion,
                "plan snapshot format version mismatch");
  SUBDP_REQUIRE(h.abi_tag == kAbiTag,
                "plan snapshot written by an incompatible build (ABI tag)");
  SUBDP_REQUIRE(header_checksum(h) == h.checksum,
                "plan snapshot checksum mismatch");
  SUBDP_REQUIRE(key_matches(h, n, options),
                "plan snapshot key does not match the requested shape");

  // The stored scalars must agree with a fresh plan's, or the file lied
  // about its shape.
  auto plan = core::SolvePlan::create(n, options);
  SUBDP_REQUIRE(plan->iteration_bound() == h.bound &&
                    plan->effective_band() == h.band &&
                    plan->iteration_cap() == h.cap,
                "plan snapshot derived scalars disagree with (n, options)");
  return plan;
}

}  // namespace subdp::snapshot
