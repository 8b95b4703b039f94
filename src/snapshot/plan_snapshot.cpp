#include "snapshot/plan_snapshot.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "core/engine.hpp"
#include "core/pw_banded.hpp"
#include "support/assert.hpp"

namespace subdp::snapshot {

namespace {

/// Rejects a snapshot written by a build with different field sizes or
/// byte order (host format, not interchange; see the header comment).
constexpr std::uint32_t kAbiTag =
    (static_cast<std::uint32_t>(sizeof(std::size_t)) << 0) |
    (static_cast<std::uint32_t>(sizeof(core::detail::Pair)) << 16) |
    (static_cast<std::uint32_t>(sizeof(core::detail::RootBlock)) << 24) |
    ((std::endian::native == std::endian::little ? 1u : 2u) << 28);

/// Sections start 16-byte aligned: the header is 160 bytes and every
/// section is padded up, so an aligned buffer keeps every element type
/// (size_t, Pair, RootBlock) naturally aligned.
constexpr std::size_t kSectionAlign = 16;

constexpr std::size_t pad_to_align(std::size_t at) {
  return (at + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

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
  std::uint8_t pad[17];
  // Derived scalars, stored for cross-checking against recomputation.
  std::uint64_t bound;
  std::uint64_t band;
  std::uint64_t cap;
  std::uint64_t total_split_sites;
  // Payload section counts (elements, not bytes), in payload order.
  std::uint64_t length_base_count;
  std::uint64_t child_base_count;
  std::uint64_t reserved;  ///< Zero; keeps the header at 160 bytes.
  std::uint64_t pair_count;
  std::uint64_t pair_offset_count;
  std::uint64_t root_block_count;
  std::uint64_t payload_bytes;
  std::uint64_t payload_checksum;  ///< FNV-1a 64 over the payload.
};

static_assert(sizeof(SnapshotHeader) == 160, "snapshot header layout");
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(sizeof(SnapshotHeader) % kSectionAlign == 0);

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

/// Appends one section to `out`, 16-byte aligned, zero-padded.
template <class T>
void append_section(std::vector<std::uint8_t>& out, const T* data,
                    std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.resize(pad_to_align(out.size()), 0);
  const std::size_t bytes = count * sizeof(T);
  if (bytes == 0) return;
  const std::size_t at = out.size();
  out.resize(at + bytes);
  std::memcpy(out.data() + at, data, bytes);
}

/// Cursor over the payload sections of a buffer being decoded; verifies
/// alignment and bounds, returns a `ShapeArray` view per section.
class SectionReader {
 public:
  SectionReader(const std::uint8_t* payload, std::size_t payload_bytes,
                std::shared_ptr<const void> owner)
      : payload_(payload), bytes_(payload_bytes), owner_(std::move(owner)) {}

  template <class T>
  [[nodiscard]] core::ShapeArray<T> take(std::uint64_t count) {
    at_ = pad_to_align(at_);
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    SUBDP_REQUIRE(bytes / sizeof(T) == count && at_ <= bytes_ &&
                      bytes <= bytes_ - at_,
                  "plan snapshot payload section out of bounds");
    if (count == 0) return {};
    const std::uint8_t* base = payload_ + at_;
    at_ += bytes;
    return core::ShapeArray<T>(reinterpret_cast<const T*>(base),
                               static_cast<std::size_t>(count), owner_);
  }

  [[nodiscard]] std::size_t consumed() const noexcept {
    return pad_to_align(at_);
  }

 private:
  const std::uint8_t* payload_;
  std::size_t bytes_;
  std::size_t at_ = 0;
  std::shared_ptr<const void> owner_;
};

void append_shape_payload(std::vector<std::uint8_t>& out,
                          const core::detail::EngineShape& shape,
                          SnapshotHeader& h) {
  const core::BandedPwLayout& layout = *shape.layout;
  h.length_base_count = layout.length_base().size();
  h.child_base_count = layout.child_base().size();
  h.pair_count = shape.pairs.size();
  h.pair_offset_count = shape.pairs_offset_by_length.size();
  h.root_block_count = shape.root_blocks.size();
  h.total_split_sites = shape.total_split_sites;

  append_section(out, layout.length_base().data(),
                 layout.length_base().size());
  append_section(out, layout.child_base().data(), layout.child_base().size());
  append_section(out, shape.pairs.data(), shape.pairs.size());
  append_section(out, shape.pairs_offset_by_length.data(),
                 shape.pairs_offset_by_length.size());
  append_section(out, shape.root_blocks.data(), shape.root_blocks.size());
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

  std::vector<std::uint8_t> out(sizeof(SnapshotHeader), 0);
  if (plan.shape() != nullptr) append_shape_payload(out, *plan.shape(), h);
  // Trivial plans (n == 1) carry no payload: every count stays 0.
  out.resize(pad_to_align(out.size()), 0);

  h.payload_bytes = out.size() - sizeof(SnapshotHeader);
  h.payload_checksum =
      fnv1a64(out.data() + sizeof(SnapshotHeader), h.payload_bytes);
  std::memcpy(out.data(), &h, sizeof(SnapshotHeader));
  return out;
}

std::shared_ptr<const core::SolvePlan> decode_plan(
    const std::uint8_t* data, std::size_t size,
    std::shared_ptr<const void> owner, std::size_t n,
    const core::SublinearOptions& options) {
  SUBDP_REQUIRE(data != nullptr && size >= sizeof(SnapshotHeader),
                "plan snapshot shorter than its header");
  SUBDP_REQUIRE(reinterpret_cast<std::uintptr_t>(data) % kSectionAlign == 0,
                "plan snapshot buffer is not 16-byte aligned");
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(SnapshotHeader));

  SUBDP_REQUIRE(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0,
                "not a plan snapshot (bad magic)");
  SUBDP_REQUIRE(h.format_version == kFormatVersion,
                "plan snapshot format version mismatch");
  SUBDP_REQUIRE(h.abi_tag == kAbiTag,
                "plan snapshot written by an incompatible build (ABI tag)");
  SUBDP_REQUIRE(key_matches(h, n, options),
                "plan snapshot key does not match the requested shape");
  SUBDP_REQUIRE(h.payload_bytes == size - sizeof(SnapshotHeader),
                "plan snapshot payload size disagrees with the file size");
  const std::uint8_t* payload = data + sizeof(SnapshotHeader);
  SUBDP_REQUIRE(fnv1a64(payload, static_cast<std::size_t>(
                                     h.payload_bytes)) == h.payload_checksum,
                "plan snapshot payload checksum mismatch");

  SectionReader reader(payload, static_cast<std::size_t>(h.payload_bytes),
                       std::move(owner));
  auto length_base = reader.take<std::size_t>(h.length_base_count);
  auto child_base = reader.take<std::size_t>(h.child_base_count);
  auto pairs = reader.take<core::detail::Pair>(h.pair_count);
  auto pair_offsets = reader.take<std::size_t>(h.pair_offset_count);
  auto root_blocks = reader.take<core::detail::RootBlock>(h.root_block_count);
  SUBDP_REQUIRE(reader.consumed() == h.payload_bytes,
                "plan snapshot payload has trailing bytes");

  const auto band = static_cast<std::size_t>(h.band);
  std::shared_ptr<const core::SolvePlan> plan;
  if (n < 2) {
    SUBDP_REQUIRE(h.length_base_count == 0 && h.pair_count == 0,
                  "trivial plan snapshot carries geometry");
    plan = core::SolvePlan::restore(n, options, nullptr);
  } else {
    auto layout = std::make_shared<const core::BandedPwLayout>(
        n, band, std::move(length_base), std::move(child_base));
    auto shape = core::detail::EngineShape::restore(
        std::move(layout), n, band, std::move(pairs), std::move(pair_offsets),
        std::move(root_blocks), h.total_split_sites);
    plan = core::SolvePlan::restore(n, options, std::move(shape));
  }

  // `restore` recomputed the derived scalars from (n, options); the
  // stored copies must agree or the file lied about its shape.
  SUBDP_REQUIRE(plan->iteration_bound() == h.bound &&
                    plan->effective_band() == h.band &&
                    plan->iteration_cap() == h.cap,
                "plan snapshot derived scalars disagree with (n, options)");
  return plan;
}

}  // namespace subdp::snapshot
