#pragma once

/// \file solver_types.hpp
/// Options, traces and results for the sublinear solver.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pram/machine.hpp"
#include "support/cost.hpp"
#include "support/grid.hpp"

namespace subdp::core {

/// Which partial-weight table the solver keeps. Both are the one banded
/// layout (pw_banded.hpp); they differ only in the band `B`.
enum class PwVariant {
  kDense,   ///< Sec. 2 algorithm: band `B = n` (every slack stored, so
            ///< `band_width` is ignored), O(n^4) table, O(n^5) square work.
  kBanded,  ///< Sec. 5 reduction: slack <= B entries, O(n^3 B) square work.
};

[[nodiscard]] constexpr const char* to_string(PwVariant v) noexcept {
  return v == PwVariant::kDense ? "dense" : "banded";
}

/// How the composition in the square step searches for decompositions.
enum class SquareMode {
  kHlvOneLevel,  ///< This paper's eq. (2c): compose at a node sharing the
                 ///< gap's row `(r,q)` or column `(p,s)` — O(n) candidates.
  kRytterFull,   ///< Rytter's full squaring over all intermediate gaps
                 ///< `(r,s)` — O(n^2) candidates, O(log n) iterations.
};

[[nodiscard]] constexpr const char* to_string(SquareMode m) noexcept {
  return m == SquareMode::kHlvOneLevel ? "hlv" : "rytter";
}

/// When the iteration loop stops.
enum class TerminationMode {
  kFixedBound,      ///< Run the full `2*ceil(sqrt n)` schedule (Sec. 2/4
                    ///< worst-case guarantee), no early exit.
  kFixedPoint,      ///< Stop when an iteration changes no cell (a fixed
                    ///< point persists, so the result equals the full
                    ///< schedule's); still capped by the bound.
  kWUnchangedTwice, ///< The Sec. 7 heuristic: stop when `w'` was unchanged
                    ///< in two consecutive iterations. Not proven
                    ///< sufficient by the paper; capped by the bound.
};

[[nodiscard]] constexpr const char* to_string(TerminationMode m) noexcept {
  switch (m) {
    case TerminationMode::kFixedBound:
      return "fixed-bound";
    case TerminationMode::kFixedPoint:
      return "fixed-point";
    case TerminationMode::kWUnchangedTwice:
      return "w-unchanged-twice";
  }
  return "unknown";
}

/// Solver configuration.
///
/// Together with the instance size `n`, an option set keys a `SolvePlan`
/// (solve_plan.hpp): plans are immutable per `(n, options)` and shared
/// across sessions, so option validation happens once per shape —
/// `SolvePlan::create` rejects invalid combinations (the dense variant
/// above `SolvePlan::kMaxDenseN`, Rytter squaring above
/// `SolvePlan::kMaxRytterN`, windowed pebble without fixed-bound
/// termination, `n` beyond the packed-coordinate cap) with a
/// `SUBDP_REQUIRE` diagnostic before any instance is touched.
struct SublinearOptions {
  PwVariant variant = PwVariant::kBanded;
  SquareMode square_mode = SquareMode::kHlvOneLevel;
  TerminationMode termination = TerminationMode::kFixedPoint;
  /// Maximal stored slack `B`; 0 = the paper's `2*ceil(sqrt n)`. Ignored
  /// by `PwVariant::kDense`, which stores every slack.
  std::size_t band_width = 0;
  /// Iteration cap; 0 = `2*ceil(sqrt n)` (or `4*ceil(log2 n) + 8` for
  /// `SquareMode::kRytterFull`).
  std::size_t max_iterations = 0;
  /// Sec. 5 windowed pebble schedule: at iterations `2l-1, 2l` only pairs
  /// with `(l-1)^2 < j-i <= l^2` are pebbled. Requires `kFixedBound`
  /// termination (the window makes per-iteration change useless as a
  /// stopping signal).
  bool windowed_pebble = false;
  /// Per-step engine profiling: record a `StepProfile` per iteration
  /// (frontier density, blocks/quads/pairs skipped vs scanned,
  /// skip-test builds, write-log sizes, per-phase wall times), readable
  /// through `SolveSession::step_profile()`. Off by default; when off
  /// the engine takes no profiling branches at all, so results, timing
  /// and the ledger are untouched (asserted in the fastpath suite).
  /// Keyed into `serve::PlanKey` so profiled and unprofiled sessions
  /// never share a pool.
  bool profile = false;
  /// Host execution / accounting configuration. A bare
  /// `pram::MachineOptions` keeps the ledger (`record_costs = true`):
  /// its scan, wavefront and set-up users have no other path, and the
  /// ledger is what they run for. The solver defaults to
  /// `record_costs = false`, so every solver front door takes the
  /// engine's fast path; a caller that wants the PRAM work/depth ledger
  /// (or the CREW report) sets `record_costs` (or `check_crew`), which
  /// selects the instrumented oracle (engine.hpp).
  pram::MachineOptions machine{.record_costs = false};
};

/// One iteration's engine profile (`SublinearOptions::profile`). Counters
/// cover the fast HLV sweeps only: the oracle's sweeps, which every
/// Rytter and every instrumented session runs, leave them zero (trivially
/// consistent). Invariants asserted in tests:
/// `square_quads_scanned + square_quads_skipped + square_quads_block_skipped
/// == square_quads_total`,
/// `square_candidates_evaluated <= square_candidates_total` and
/// `pebble_pairs_scanned + pebble_pairs_skipped == pebble_pairs_total`.
struct StepProfile {
  std::size_t iteration = 0;  ///< 1-based, matching IterationTrace.
  // a-activate: the sites (`f` calls) of the fast frontier sweep, and of
  // a full one; full sweeps leave `activate_used_frontier` false.
  std::uint64_t frontier_sites = 0;
  std::uint64_t total_split_sites = 0;
  bool activate_used_frontier = false;
  // a-square tiled sweep: root blocks visited vs skipped by the visit
  // test, the target-level breakdown (a target is scanned when at least
  // one of its candidates was evaluated), and the candidates evaluated
  // against those of a full HLV sweep (identity candidates excluded).
  /// Roots whose tile ran: a cell of the root's own block moved, or a
  /// sub-root edge cell the tile reads did (engine.hpp, "Visits").
  std::uint64_t square_blocks_scanned = 0;
  /// Roots skipped whole: their tile would have evaluated no candidate.
  std::uint64_t square_blocks_skipped = 0;
  std::uint64_t square_quads_total = 0;
  std::uint64_t square_quads_scanned = 0;
  std::uint64_t square_quads_skipped = 0;  ///< visited, no candidate
  std::uint64_t square_quads_block_skipped = 0;  ///< inside a skipped block
  std::uint64_t square_candidates_evaluated = 0;
  std::uint64_t square_candidates_total = 0;
  // a-pebble frontier sweep: pairs skipped by the gap-w mark test.
  std::uint64_t pebble_pairs_total = 0;
  std::uint64_t pebble_pairs_scanned = 0;
  std::uint64_t pebble_pairs_skipped = 0;
  // Skip-test builds: the engine builds each skip test from scratch
  // right before its sweep (the a-square's visit bytes, the a-pebble's
  // moved-w containment grid).
  /// Always 0: there is no incremental grid update. Kept only because
  /// `perfbench/src/main.cpp` reads it for `core.marks_incremental_frac`,
  /// which now reads 0 by construction; a later change to the benchmark
  /// definition can retire both.
  std::uint64_t mark_updates_incremental = 0;
  /// Number of skip-test builds in the iteration — one per skipping
  /// sweep that ran (tiled a-square, frontier a-pebble).
  std::uint64_t mark_updates_rebuilt = 0;
  // Delta-buffer write-log sizes (entries applied after the barrier).
  // The tiled a-square writes in place and logs nothing.
  std::uint64_t pw_log_entries = 0;
  std::uint64_t w_log_entries = 0;
  // Wall time per macro-step phase, in steady-clock nanoseconds. The
  // phases are disjoint, so their sum is at most the iteration's wall
  // time; a phase that did not run reads 0. Unlike the counters above,
  // the timers cover the oracle sweeps too.
  std::uint64_t activate_ns = 0;   ///< a-activate + a-square edge snapshot
  std::uint64_t square_ns = 0;     ///< a-square sweep
  std::uint64_t pebble_ns = 0;     ///< a-pebble sweep
  /// Both skip-test builds: the a-square visit pass and the a-pebble
  /// containment grid.
  std::uint64_t mark_grid_ns = 0;
  std::uint64_t log_apply_ns = 0;  ///< write-log applies
};

/// Per-iteration progress counters (experiment E5/E8 traces).
struct IterationTrace {
  std::size_t iteration = 0;       ///< 1-based.
  std::uint64_t pw_cells_changed = 0;  ///< activate + square changes.
  std::uint64_t w_cells_changed = 0;
  std::uint64_t w_finite = 0;      ///< Pairs whose w' is no longer inf.
};

/// Outcome of one iteration (stepping interface).
struct IterationOutcome {
  std::uint64_t activate_changed = 0;
  std::uint64_t square_changed = 0;
  std::uint64_t pebble_changed = 0;
  [[nodiscard]] bool any_changed() const noexcept {
    return activate_changed + square_changed + pebble_changed > 0;
  }
};

/// Result of a solve.
struct SublinearResult {
  Cost cost = kInfinity;            ///< `c(0, n)`.
  std::size_t iterations = 0;       ///< Iterations actually run.
  std::size_t iteration_bound = 0;  ///< The `2*ceil(sqrt n)` schedule.
  bool reached_fixed_point = false;
  /// Final `w'` table (optimal for every pair once the schedule ran).
  support::Grid2D<Cost> w;
  std::vector<IterationTrace> trace;
};

/// Typed failure raised by the serving layer's admission control when a
/// job is declined or abandoned *without solving*: the dispatch queue was
/// full under the reject policy, or the job's deadline passed before a
/// worker picked it up. Queue-full rejections are thrown synchronously
/// from `serve::SolverService::submit`; deadline expiries arrive through
/// the job's future. Solver-side failures (invalid options, bad inputs)
/// keep their own types — catching `AdmissionError` selects exactly the
/// load-shedding outcomes.
class AdmissionError : public std::runtime_error {
 public:
  enum class Kind {
    kQueueFull,          ///< Bounded queue at capacity under `kReject`.
    kDeadlineExceeded,   ///< Deadline passed before a worker picked it up.
  };

  AdmissionError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  /// `kQueueFull` with a retry-after hint: `queue_depth` is the exact
  /// number of jobs occupying the bounded queue at rejection time and
  /// `retry_after` the service's estimate of when the next slot frees
  /// (derived from its queue-wait latency histogram; a service that has
  /// not yet observed any nonzero wait reports a documented conservative
  /// default instead). Clients back off for `retry_after` instead of
  /// spin-retrying.
  AdmissionError(Kind kind, const std::string& what,
                 std::size_t queue_depth,
                 std::chrono::nanoseconds retry_after)
      : std::runtime_error(what),
        kind_(kind),
        has_hint_(true),
        queue_depth_(queue_depth),
        retry_after_(retry_after) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// True when the thrower attached a retry-after hint (queue-full
  /// rejections from `serve::SolverService` always do; deadline expiries
  /// never do).
  [[nodiscard]] bool has_hint() const noexcept { return has_hint_; }
  /// Jobs waiting in the queue at rejection time (0 without a hint).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_depth_;
  }
  /// Estimated time until a queue slot frees; nonnegative, 0 without a
  /// hint.
  [[nodiscard]] std::chrono::nanoseconds retry_after() const noexcept {
    return retry_after_;
  }

 private:
  Kind kind_;
  bool has_hint_ = false;
  std::size_t queue_depth_ = 0;
  std::chrono::nanoseconds retry_after_{0};
};

[[nodiscard]] constexpr const char* to_string(AdmissionError::Kind k) noexcept {
  return k == AdmissionError::Kind::kQueueFull ? "queue-full"
                                               : "deadline-exceeded";
}

/// Aggregate accounting for one `serve::SolverService::solve_all` call.
struct BatchLedger {
  std::size_t instances = 0;      ///< Problems solved.
  std::size_t shape_groups = 0;   ///< Distinct `n` among the inputs.
  std::size_t plans_built = 0;    ///< Plans newly built by this call.
  std::size_t plans_reused = 0;   ///< Shape groups served by a warm plan.
  std::size_t total_iterations = 0;
  /// Summed PRAM work/depth across instances; 0 unless
  /// `options.machine.record_costs` is on (it is off by default).
  std::uint64_t total_work = 0;
  std::uint64_t total_depth = 0;
};

/// All per-instance results (input order) plus the aggregate ledger.
struct BatchResult {
  std::vector<SublinearResult> results;
  BatchLedger ledger;
};

}  // namespace subdp::core
