// Round-trip and rejection tests for the plan snapshot format
// (snapshot/plan_snapshot.hpp) and the snapshot store
// (snapshot/snapshot_store.hpp).
//
// The contract under test is bit-identity: a plan decoded from a snapshot
// must be indistinguishable from a freshly built one, so a solve through
// it produces the same cost, iteration count, full w table and
// per-iteration trace — across both pw layouts, every bench instance
// family, and the option toggles that shape a plan. The rejection half
// asserts the trust-nothing decode: truncated files, flipped payload or
// checksum bytes, stale format versions and key/filename mismatches are
// all detected, counted as rejected misses, and followed by a clean
// rebuild — never a crash, never a wrong answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "core/solver_types.hpp"
#include "dp/sequential.hpp"
#include "snapshot/plan_snapshot.hpp"
#include "snapshot/snapshot_store.hpp"
#include "support/rng.hpp"

namespace subdp::snapshot {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the system temp root, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("subdp-snapshot-test-" + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

core::SublinearResult solve_with(std::shared_ptr<const core::SolvePlan> plan,
                                 const dp::Problem& problem) {
  core::SolveSession session(std::move(plan));
  return session.solve(problem);
}

void expect_identical(const core::SublinearResult& ref,
                      const core::SublinearResult& got,
                      const std::string& label) {
  EXPECT_EQ(ref.cost, got.cost) << label;
  EXPECT_EQ(ref.iterations, got.iterations) << label;
  EXPECT_TRUE(ref.w == got.w) << label << ": w tables differ";
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << label;
  for (std::size_t t = 0; t < ref.trace.size(); ++t) {
    EXPECT_EQ(ref.trace[t].pw_cells_changed, got.trace[t].pw_cells_changed)
        << label << " iteration " << t + 1;
    EXPECT_EQ(ref.trace[t].w_cells_changed, got.trace[t].w_cells_changed)
        << label << " iteration " << t + 1;
  }
}

/// Encode -> decode through an owned buffer (the buffered-read path).
std::shared_ptr<const core::SolvePlan> reencode(
    const std::shared_ptr<const core::SolvePlan>& plan) {
  auto bytes =
      std::make_shared<std::vector<std::uint8_t>>(encode_plan(*plan));
  return decode_plan(bytes->data(), bytes->size(), bytes, plan->n(),
                     plan->options());
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The one snapshot file in `dir` (the store names it; tests tamper with
/// its bytes without re-deriving the shape-keyed name).
fs::path only_snapshot_file(const fs::path& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      EXPECT_TRUE(found.empty()) << "more than one snapshot in " << dir;
      found = entry.path();
    }
  }
  EXPECT_FALSE(found.empty()) << "no snapshot file in " << dir;
  return found;
}

// Format-v2 byte offsets (documented in plan_snapshot.cpp's header
// struct); the tamper tests below flip bytes at these positions.
constexpr std::size_t kHeaderBytes = 160;
constexpr std::size_t kVersionOffset = 8;     // format_version u32
constexpr std::size_t kChecksumOffset = 152;  // payload_checksum u64

// ---- Round-trip bit-identity -----------------------------------------------

TEST(SnapshotRoundTrip, BitIdenticalEveryFamilyBanded) {
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(2026);
    const auto problem = bench::make_instance(family, 33, rng);
    core::SublinearOptions options;  // banded default, instrumented
    const auto fresh = core::SolvePlan::create(33, options);
    const auto loaded = reencode(fresh);
    const auto ref = solve_with(fresh, *problem);
    EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost) << family;
    expect_identical(ref, solve_with(loaded, *problem), family);
  }
}

TEST(SnapshotRoundTrip, BitIdenticalEveryFamilyDense) {
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(31);
    const auto problem = bench::make_instance(family, 18, rng);
    core::SublinearOptions options;
    options.variant = core::PwVariant::kDense;
    const auto fresh = core::SolvePlan::create(18, options);
    const auto loaded = reencode(fresh);
    expect_identical(solve_with(fresh, *problem),
                     solve_with(loaded, *problem), family);
  }
}

TEST(SnapshotRoundTrip, OptionTogglesSurviveTheFormat) {
  // Every toggle that changes the engine shape or the session
  // configuration must round-trip: the decoded plan carries the same
  // options and solves identically.
  struct Toggle {
    std::string name;
    core::SublinearOptions options;
  };
  std::vector<Toggle> toggles;
  toggles.push_back({"default", {}});
  {
    core::SublinearOptions o;
    o.machine.record_costs = false;
    toggles.push_back({"fast", o});
  }
  {
    core::SublinearOptions o;
    o.band_width = 4;
    toggles.push_back({"band-4", o});
  }

  support::Rng rng(5);
  const auto problem = bench::make_instance("matrix-chain", 24, rng);
  for (const Toggle& toggle : toggles) {
    const auto fresh = core::SolvePlan::create(24, toggle.options);
    const auto loaded = reencode(fresh);
    EXPECT_EQ(loaded->n(), fresh->n()) << toggle.name;
    EXPECT_EQ(loaded->iteration_bound(), fresh->iteration_bound())
        << toggle.name;
    EXPECT_EQ(loaded->effective_band(), fresh->effective_band())
        << toggle.name;
    EXPECT_EQ(loaded->iteration_cap(), fresh->iteration_cap())
        << toggle.name;
    expect_identical(solve_with(fresh, *problem),
                     solve_with(loaded, *problem), toggle.name);
  }
}

TEST(SnapshotRoundTrip, SmallShapesIncludingTrivial) {
  // n == 1 has no engine shape (header-only snapshot); n == 2 and 3 are
  // the smallest non-trivial geometries.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    const auto fresh = core::SolvePlan::create(n);
    const auto encoded = encode_plan(*fresh);
    if (n == 1) {
      EXPECT_EQ(encoded.size(), kHeaderBytes);
    }
    const auto loaded = reencode(fresh);
    support::Rng rng(n);
    const auto problem = bench::make_instance("matrix-chain", n, rng);
    expect_identical(solve_with(fresh, *problem),
                     solve_with(loaded, *problem),
                     "n=" + std::to_string(n));
  }
}

// ---- Store save / load -----------------------------------------------------

TEST(SnapshotStoreTest, SaveLoadSolvesIdentically) {
  TempDir dir("save-load");
  SnapshotStore store(dir.str());
  const auto fresh = core::SolvePlan::create(24);
  ASSERT_TRUE(store.save(fresh));
  EXPECT_EQ(store.stats().writes_completed, 1u);
  EXPECT_EQ(store.scan().size(), 1u);

  const auto loaded = store.load(24, fresh->options());
  ASSERT_NE(loaded, nullptr);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  support::Rng rng(12);
  const auto problem = bench::make_instance("optimal-bst", 24, rng);
  expect_identical(solve_with(fresh, *problem),
                   solve_with(loaded, *problem), "store round-trip");
}

TEST(SnapshotStoreTest, AsyncWriteBackInstallsAfterFlush) {
  TempDir dir("async");
  SnapshotStore store(dir.str());
  store.save_async(core::SolvePlan::create(17));
  store.flush();
  EXPECT_EQ(store.stats().writes_completed, 1u);
  EXPECT_NE(store.load(17, {}), nullptr);
  // Temp-file discipline: nothing but the installed .snap remains.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".snap") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(SnapshotStoreTest, MissingFileIsAPlainMiss) {
  TempDir dir("miss");
  SnapshotStore store(dir.str());
  EXPECT_EQ(store.load(24, {}), nullptr);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // absent, not corrupt
}

TEST(SnapshotStoreTest, EvictRemovesTheFile) {
  TempDir dir("evict");
  SnapshotStore store(dir.str());
  ASSERT_TRUE(store.save(core::SolvePlan::create(15)));
  EXPECT_TRUE(store.evict(15, {}));
  EXPECT_FALSE(store.evict(15, {}));  // already gone
  EXPECT_EQ(store.load(15, {}), nullptr);
  EXPECT_EQ(store.stats().rejected, 0u);
}

// ---- Rejection: corrupt, truncated, stale, mismatched ----------------------

/// Installs a good snapshot for `(n, {})`, applies `tamper` to its bytes,
/// and asserts the load is a rejected miss followed by a clean rebuild
/// that repairs the file.
template <class Tamper>
void expect_rejected_then_rebuilt(const std::string& tag, Tamper tamper) {
  TempDir dir(tag);
  SnapshotStore store(dir.str());
  ASSERT_TRUE(store.save(core::SolvePlan::create(24)));
  const fs::path file = only_snapshot_file(dir.path());
  std::vector<std::uint8_t> bytes = slurp(file);
  ASSERT_GT(bytes.size(), kHeaderBytes);
  tamper(bytes);
  dump(file, bytes);

  // The PlanCache fallback protocol: load -> null -> rebuild -> save.
  EXPECT_EQ(store.load(24, {}), nullptr) << tag;
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u) << tag;
  EXPECT_EQ(stats.rejected, 1u) << tag;

  const auto rebuilt = core::SolvePlan::create(24);
  ASSERT_TRUE(store.save(rebuilt)) << tag;
  const auto reloaded = store.load(24, {});
  ASSERT_NE(reloaded, nullptr) << tag;
  support::Rng rng(88);
  const auto problem = bench::make_instance("triangulation", 24, rng);
  expect_identical(solve_with(rebuilt, *problem),
                   solve_with(reloaded, *problem), tag);
}

TEST(SnapshotRejection, TruncatedBelowHeader) {
  expect_rejected_then_rebuilt("trunc-header", [](auto& bytes) {
    bytes.resize(kHeaderBytes / 2);
  });
}

TEST(SnapshotRejection, TruncatedMidPayload) {
  expect_rejected_then_rebuilt("trunc-payload", [](auto& bytes) {
    bytes.resize(bytes.size() - 7);
  });
}

TEST(SnapshotRejection, FlippedPayloadByte) {
  expect_rejected_then_rebuilt("flip-payload", [](auto& bytes) {
    bytes[kHeaderBytes + 3] ^= 0x40;  // checksum must catch it
  });
}

TEST(SnapshotRejection, FlippedChecksumByte) {
  expect_rejected_then_rebuilt("flip-checksum", [](auto& bytes) {
    bytes[kChecksumOffset] ^= 0x01;
  });
}

TEST(SnapshotRejection, StaleFormatVersion) {
  expect_rejected_then_rebuilt("stale-version", [](auto& bytes) {
    bytes[kVersionOffset] ^= 0xFF;  // a future/old format_version
  });
}

TEST(SnapshotRejection, RetiredFormatV1) {
  // Version 1 carried four engine-toggle key bytes that version 2 drops;
  // a leftover v1 file must be rejected and rebuilt, never misread.
  expect_rejected_then_rebuilt("format-v1", [](auto& bytes) {
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + kVersionOffset, &v1, sizeof(v1));
  });
}

TEST(SnapshotRejection, BadMagic) {
  expect_rejected_then_rebuilt("bad-magic", [](auto& bytes) {
    bytes[0] ^= 0x20;
  });
}

TEST(SnapshotRejection, KeyFilenameMismatch) {
  // A valid file for shape A copied under shape B's name: the embedded
  // key is authoritative, so B's load rejects it (and A's still works).
  TempDir dir("wrong-key");
  SnapshotStore store(dir.str());
  core::SublinearOptions options_a;  // default
  core::SublinearOptions options_b;
  options_b.band_width = 4;
  ASSERT_TRUE(store.save(core::SolvePlan::create(24, options_a)));
  const fs::path file_a = only_snapshot_file(dir.path());
  const fs::path file_b =
      dir.path() / snapshot_file_name(24, options_b);
  ASSERT_NE(file_a, file_b);  // distinct shapes never share a name
  fs::copy_file(file_a, file_b);

  EXPECT_EQ(store.load(24, options_b), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
  EXPECT_NE(store.load(24, options_a), nullptr);  // A is untouched
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(SnapshotRejection, DecodeThrowsInsteadOfMisSolving) {
  // The decode layer itself: every tamper class throws (the store turns
  // this into a miss); none produces a plan.
  const auto plan = core::SolvePlan::create(12);
  auto bytes =
      std::make_shared<std::vector<std::uint8_t>>(encode_plan(*plan));
  const auto decode = [&](std::size_t size, std::size_t n,
                          const core::SublinearOptions& options) {
    return decode_plan(bytes->data(), size, bytes, n, options);
  };
  // Shorter than the header.
  EXPECT_THROW((void)decode(kHeaderBytes - 1, 12, {}),
               std::invalid_argument);
  // Requested shape disagrees with the embedded key.
  EXPECT_THROW((void)decode(bytes->size(), 13, {}), std::invalid_argument);
  core::SublinearOptions other;
  other.termination = core::TerminationMode::kFixedBound;
  EXPECT_THROW((void)decode(bytes->size(), 12, other),
               std::invalid_argument);
  // Claimed payload size disagrees with the buffer.
  EXPECT_THROW((void)decode(bytes->size() - 16, 12, {}),
               std::invalid_argument);
  // The untampered buffer still decodes (the guard rails are targeted).
  EXPECT_NE(decode(bytes->size(), 12, {}), nullptr);
}

// ---- Manifest --------------------------------------------------------------

TEST(SnapshotManifest, RoundTripsAndSkipsMalformedLines) {
  TempDir dir("manifest");
  SnapshotStore store(dir.str());
  EXPECT_TRUE(store.read_manifest().empty());  // absent file: no shapes

  store.write_manifest({24, 7, 96});
  EXPECT_EQ(store.read_manifest(),
            (std::vector<std::size_t>{24, 7, 96}));

  // A damaged manifest degrades prewarming, never startup: junk lines,
  // comments and zeros are skipped, valid entries survive.
  std::ofstream out(dir.path() / SnapshotStore::kManifestFile,
                    std::ios::trunc);
  out << "# comment\n\n  48\nnot-a-number\n0\n12 trailing junk\n";
  out.close();
  EXPECT_EQ(store.read_manifest(),
            (std::vector<std::size_t>{48, 12}));
}

}  // namespace
}  // namespace subdp::snapshot
