#pragma once

/// \file snapshot_store.hpp
/// A directory of plan snapshots: one file per shape, shape-keyed names,
/// asynchronous temp-file + validate + rename save.
///
/// The store is the persistence tier under `serve::PlanCache` (threaded
/// in via `ServiceOptions::snapshot_dir`): a cache miss consults
/// `load(n, options)` first, and freshly built plans are queued to a
/// background writer thread so the builder never blocks on disk. The
/// cache's LRU eviction never touches the files, so a re-requested
/// evicted shape reloads (a `snapshot hit`). A snapshot holds only the
/// plan's key, so a hit builds the plan too, after the file's checks.
///
/// Durability discipline (the PR 6 artifact idiom): `save` writes to
/// `<name>.tmp`, flushes, *re-reads and fully decodes* the temp file
/// (checksum included), and only then renames it over the final name —
/// rename is atomic on POSIX, so a crash at any point leaves either the
/// old good file or no file, never a truncated artifact under the real
/// name. A failed validation removes the temp and counts a
/// `write_failure`; it never installs.
///
/// Load path: one buffered read of the file's 80-byte image, then
/// `decode_plan`, which verifies it and builds the plan it names
/// (plan_snapshot.hpp). *Any* load failure — missing file, short or
/// over-long file, bad magic/version/ABI, checksum mismatch, key
/// mismatch, derived-scalar disagreement — is a miss: the caller
/// rebuilds from scratch and the eventual save overwrites the bad file.
/// Corrupt bytes are never trusted and never fatal.
///
/// Thread-safety: all methods may be called from any thread; counters
/// are atomic, the writer queue has its own lock, and file-level races
/// (two processes saving the same shape) are benign — both write valid
/// bytes and rename atomically, so readers see one of them.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solver_types.hpp"

namespace subdp::snapshot {

/// One consistent snapshot of a store's counters. Without a store every
/// counter a service reports is zero; with one, every plan construction
/// consults the store exactly once, so `hits + misses` counts those
/// consultations and `rejected <= misses` isolates the corrupt-file
/// subset (present-but-untrusted files).
struct SnapshotStoreStats {
  std::uint64_t hits = 0;       ///< Loads that produced a plan.
  std::uint64_t misses = 0;     ///< Loads that did not (absent or bad).
  std::uint64_t rejected = 0;   ///< Misses where a file existed but was
                                ///< corrupt/truncated/mismatched.
  std::uint64_t writes_completed = 0;  ///< Snapshots installed on disk.
  std::uint64_t write_failures = 0;    ///< Saves that could not install.
};

/// Plan snapshot directory; see the file comment.
class SnapshotStore {
 public:
  /// Opens (creating if needed) `directory`. Throws when the directory
  /// cannot be created. Starts the background writer thread.
  explicit SnapshotStore(std::string directory);

  /// Drains the writer queue (every queued save completes or fails, none
  /// is dropped), then joins the writer.
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Builds the plan for `(n, options)` named by its snapshot file, or
  /// returns null (counting a miss) when the file is absent or fails any
  /// validation layer. Never throws on bad bytes.
  [[nodiscard]] std::shared_ptr<const core::SolvePlan> load(
      std::size_t n, const core::SublinearOptions& options);

  /// Synchronously encodes, writes, validates and installs `plan`'s
  /// snapshot (temp + validate + rename). Returns whether it installed.
  bool save(const std::shared_ptr<const core::SolvePlan>& plan);

  /// Queues `plan` for the background writer (the builder-thread path:
  /// plan construction never waits on disk). The queued `shared_ptr`
  /// keeps the plan alive until written, even if the cache evicts it.
  void save_async(std::shared_ptr<const core::SolvePlan> plan);

  /// Blocks until every save queued so far has been written (or failed).
  void flush();

  /// Removes the snapshot file for `(n, options)`; returns whether a
  /// file was removed.
  bool evict(std::size_t n, const core::SublinearOptions& options);

  /// Snapshot file names (not paths) currently in the directory.
  [[nodiscard]] std::vector<std::string> scan() const;

  /// Shapes listed in the prewarm manifest (`prewarm.txt`: one `n` per
  /// line, `#` comments), in file order. Malformed lines are skipped —
  /// a damaged manifest degrades prewarming, never startup.
  [[nodiscard]] std::vector<std::size_t> read_manifest() const;

  /// Writes the prewarm manifest (temp + rename).
  void write_manifest(const std::vector<std::size_t>& shapes);

  [[nodiscard]] SnapshotStoreStats stats() const;

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

  /// The manifest's file name inside the store directory.
  static constexpr const char* kManifestFile = "prewarm.txt";

 private:
  [[nodiscard]] std::string path_for(std::size_t n,
                                     const core::SublinearOptions& options)
      const;

  void writer_loop();

  std::string directory_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> writes_completed_{0};
  std::atomic<std::uint64_t> write_failures_{0};

  mutable std::mutex writer_mutex_;
  std::condition_variable writer_cv_;
  std::condition_variable writer_idle_;
  std::deque<std::shared_ptr<const core::SolvePlan>> writer_queue_;
  std::size_t writes_in_flight_ = 0;
  bool writer_stop_ = false;
  std::thread writer_thread_;  ///< Last member: joined first.
};

}  // namespace subdp::snapshot
