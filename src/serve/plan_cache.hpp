#pragma once

/// \file plan_cache.hpp
/// A thread-safe, bounded-LRU cache of `SolvePlan`s and their session
/// pools, keyed by `(n, SublinearOptions)` with the effective band in
/// place of the requested `band_width`.
///
/// Plans are immutable O(n^2) closed-form geometry, and each one carries
/// the session pool whose allocated tables are the costly part of a cold
/// shape, so a server wants to build each shape once and share it.
/// `PlanCache` does so within a bound: at most `capacity` shapes stay resident, evicted
/// least-recently-used, with hit / miss / eviction counters surfaced
/// through `ServiceStats`.
///
/// Each cached shape carries its `SessionPool` alongside the plan, so
/// eviction retires the sessions (the allocated tables) together with the
/// geometry. Entries are handed out as `shared_ptr`s: a shape evicted
/// while solves are in flight stays alive — detached from the cache —
/// until the last lease returns; a re-request of that key is a fresh miss
/// that rebuilds the plan.
///
/// The key covers every option field that shapes a plan (layout variant,
/// square mode, termination, band, caps, profiling, machine
/// configuration), so two clients asking for the same `n` under different
/// options get distinct plans — and distinct pools — as correctness
/// requires.
///
/// Thread-safety: all methods may be called from any thread. A miss
/// inserts a placeholder under the cache-wide lock, then builds the plan
/// under a *per-entry* lock with the cache lock released — so a cold
/// build only blocks concurrent requests for the *same* key (which then
/// share the one build), never hits, peeks or stats on other keys.
///
/// Async build handoff: `acquire` is the blocking all-in-one path
/// (lookup + build). For callers that must never block on a build — a
/// `SolverService` worker keeping warm traffic flowing — `try_acquire`
/// is the non-blocking first half: a built entry is a plain hit; a cold
/// or still-building key records the miss (once, on placeholder
/// insertion), reports `PlanState::kBuilding` and returns null without
/// touching the per-entry build lock. The caller then owes the blocking
/// second half, `build`, from whatever thread it dedicates to builds
/// (the service's builder pool — distinct keys build concurrently, one
/// builder per key): it performs — or waits on and shares — the one
/// build for that key, recording no further hit/miss, so N concurrent
/// cold requests for one key still count exactly one miss and trigger
/// exactly one build.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solver_types.hpp"
#include "obs/clock.hpp"
#include "serve/session_pool.hpp"

namespace subdp::snapshot {
class SnapshotStore;
}  // namespace subdp::snapshot

namespace subdp::serve {

/// Total order over everything that distinguishes one plan (and the
/// machine configuration of its sessions) from another.
struct PlanKey {
  std::size_t n = 0;
  core::PwVariant variant = core::PwVariant::kBanded;
  core::SquareMode square_mode = core::SquareMode::kHlvOneLevel;
  core::TerminationMode termination = core::TerminationMode::kFixedPoint;
  /// The plan's effective band (`SolvePlan::effective_band_for`), not the
  /// requested `band_width`: a dense plan ignores the request and a
  /// banded one clamps it, so equal effective bands build equal plans.
  std::size_t band_width = 0;
  std::size_t max_iterations = 0;
  bool windowed_pebble = false;
  /// Per-step profiling changes what a session records (engine profile
  /// state), so profiled and unprofiled requests must not share pools —
  /// the toggle is part of the key even though it leaves plan geometry
  /// untouched.
  bool profile = false;
  pram::Backend backend = pram::default_backend();
  bool check_crew = false;
  bool record_costs = core::SublinearOptions{}.machine.record_costs;

  [[nodiscard]] static PlanKey make(std::size_t n,
                                    const core::SublinearOptions& options);

  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    auto tie = [](const PlanKey& k) {
      return std::tuple(k.n, k.variant, k.square_mode, k.termination,
                        k.band_width, k.max_iterations, k.windowed_pebble,
                        k.profile, k.backend, k.check_crew, k.record_costs);
    };
    return tie(a) < tie(b);
  }
};

/// Build state of one cached key, as observed by `try_acquire`.
enum class PlanState {
  kReady,     ///< Plan built; the returned pool serves it.
  kBuilding,  ///< Cold or mid-build; resolve it later via `build`.
};

/// Where an acquired pool came from, for trace tagging and the build
/// observer: an already-resident entry, a snapshot loaded from the disk
/// store, or a from-scratch geometry build.
enum class BuildSource {
  kWarm,      ///< Entry was already built (cache hit or shared build).
  kSnapshot,  ///< Plan decoded from the snapshot store.
  kBuilt,     ///< Plan built from scratch.
};

/// One completed plan materialisation (snapshot load or fresh build),
/// reported to the cache's build observer. `snapshot_load_ns` is nonzero
/// only for `kSnapshot`.
struct BuildReport {
  BuildSource source = BuildSource::kBuilt;
  std::uint64_t total_ns = 0;          ///< Load-or-build wall time.
  std::uint64_t snapshot_load_ns = 0;  ///< Store consult time.
};

/// One consistent snapshot of the cache's counters.
struct PlanCacheStats {
  std::size_t capacity = 0;
  std::size_t size = 0;         ///< Shapes currently resident.
  std::uint64_t hits = 0;       ///< Requests served by a resident shape.
  std::uint64_t misses = 0;     ///< Requests that built a plan.
  std::uint64_t evictions = 0;  ///< Shapes retired at the bound.
};

/// Bounded-LRU shape cache; see the file comment.
class PlanCache {
 public:
  /// Keeps at most `capacity >= 1` shapes resident. Each miss builds the
  /// plan and a `SessionPool` of at most `sessions_per_plan` sessions.
  /// With a `store`, a miss consults the snapshot directory first (a
  /// verified snapshot yields the plan; anything corrupt or mismatched
  /// is ignored and rebuilt), and freshly built plans are written back
  /// asynchronously. LRU eviction never touches the store's files, so a
  /// re-requested evicted shape reloads (a snapshot hit).
  PlanCache(std::size_t capacity, std::size_t sessions_per_plan,
            std::shared_ptr<snapshot::SnapshotStore> store = nullptr);

  /// The pool (and plan) serving `(n, options)`: most-recently-used bump
  /// on a hit, plan build + LRU eviction on a miss. `built`, when given,
  /// reports which of the two happened; `source`, when given, reports
  /// where the pool came from (warm / snapshot / fresh build).
  [[nodiscard]] std::shared_ptr<SessionPool> acquire(
      std::size_t n, const core::SublinearOptions& options,
      bool* built = nullptr, BuildSource* source = nullptr);

  /// Non-blocking lookup (never builds, never waits on a build lock).
  /// A built resident key is a hit: MRU bump, `*state = kReady`, pool
  /// returned. Otherwise `*state = kBuilding` and null is returned — a
  /// fresh key records one miss and inserts the building placeholder; a
  /// key already mid-build records nothing (its miss was counted when
  /// the placeholder went in). See the file comment's handoff protocol.
  [[nodiscard]] std::shared_ptr<SessionPool> try_acquire(
      std::size_t n, const core::SublinearOptions& options,
      PlanState* state = nullptr);

  /// Blocking second half of a `try_acquire` that reported `kBuilding`:
  /// builds the plan (or waits on the in-flight build and shares its
  /// pool). Records no hit/miss — the `try_acquire` that deferred here
  /// already did. Safe to call for a key that has meanwhile finished
  /// (returns the warm pool) or been evicted (rebuilds and re-inserts).
  [[nodiscard]] std::shared_ptr<SessionPool> build(
      std::size_t n, const core::SublinearOptions& options,
      BuildSource* source = nullptr);

  /// Observability seam: after installation, every real plan
  /// materialisation (a snapshot load or a from-scratch build — not a
  /// warm early-exit) invokes `observer` with its timing, measured on
  /// `clock`. Install once, before the cache sees concurrent traffic
  /// (the `SolverService` constructor does this before starting any
  /// thread); the callback runs on the building thread with no cache
  /// lock held and must be thread-safe.
  void set_build_observer(std::shared_ptr<const obs::Clock> clock,
                          std::function<void(const BuildReport&)> observer);

  /// The resident plan for `(n, options)`, or null — no stats recorded,
  /// no LRU reordering (diagnostic lookups, `SolverService::plan_for`).
  [[nodiscard]] std::shared_ptr<const core::SolvePlan> peek(
      std::size_t n, const core::SublinearOptions& options) const;

  [[nodiscard]] PlanCacheStats stats() const;

  /// Sums `SessionPoolStats` counters across the resident pools.
  [[nodiscard]] SessionPoolStats pooled_session_stats() const;

 private:
  /// One cached shape. `pool` is guarded by the cache-wide `mutex_` (it
  /// is null while the plan is still building); `build_mutex` serialises
  /// the build itself so only same-key requesters wait on it. Lock order:
  /// `build_mutex` before `mutex_`, and `mutex_` is never held across a
  /// build.
  struct Slot {
    std::mutex build_mutex;
    std::shared_ptr<SessionPool> pool;
  };

  /// LRU list, most recent at the front; the map indexes into it.
  struct Entry {
    PlanKey key;
    std::shared_ptr<Slot> slot;
  };

  /// Inserts as most-recently-used and evicts down to capacity.
  /// Requires `mutex_` held.
  void insert_mru(const PlanKey& key, std::shared_ptr<Slot> slot);

  /// The expensive half shared by `acquire` and `build`: takes `slot`'s
  /// build lock, constructs the pool if this caller wins the build (or
  /// returns the pool a concurrent winner left), drops the placeholder
  /// on a failed build and re-inserts the entry if it was dropped or
  /// evicted mid-build. Requires `mutex_` *not* held.
  [[nodiscard]] std::shared_ptr<SessionPool> finish_build(
      const PlanKey& key, const std::shared_ptr<Slot>& slot, std::size_t n,
      const core::SublinearOptions& options, BuildSource* source);

  std::size_t capacity_;
  std::size_t sessions_per_plan_;
  /// Optional persistence tier consulted by `finish_build`; never locked
  /// under `mutex_` (loads and saves happen outside the cache lock).
  std::shared_ptr<snapshot::SnapshotStore> store_;
  /// Build observer seam (`set_build_observer`); read without a lock, so
  /// it must be installed before concurrent use.
  std::shared_ptr<const obs::Clock> observer_clock_;
  std::function<void(const BuildReport&)> build_observer_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;
  std::map<PlanKey, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace subdp::serve
