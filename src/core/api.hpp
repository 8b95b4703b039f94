#pragma once

/// \file api.hpp
/// Top-level convenience API over the plan/session architecture.
///
/// Three front doors, lowest friction first:
///  * `solve(problem, options)` — one instance in, assembled `Solution`
///    out (cost, optimal tree, iteration statistics, and PRAM statistics
///    when the ledger is asked for). Builds a throwaway plan+session
///    pair; what the examples use.
///  * `SolvePlan` / `SolveSession` (solve_plan.hpp / solve_session.hpp) —
///    explicit prepare-once/solve-many: share one immutable plan across
///    sessions, reset a session in place for every same-shape instance,
///    step, trace, or CREW-check each solve. The Rytter-style
///    full-squaring baseline of [8] is a plan whose options select
///    `SquareMode::kRytterFull` (conventionally with the dense variant and
///    fixed-point termination); `SolvePlan::create` caps it at n <= 24.
///  * `serve::SolverService` (serve/solver_service.hpp) — many instances:
///    a bounded LRU plan cache keyed by `(n, options)`, per-plan session
///    pools, and worker threads overlapping independent instances, with
///    a blocking `solve_all` and an async `submit -> std::future`.

#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "dp/tables.hpp"
#include "trees/full_binary_tree.hpp"

namespace subdp::core {

/// A fully assembled answer for one instance.
struct Solution {
  Cost cost = kInfinity;               ///< `c(0, n)`.
  trees::FullBinaryTree tree;          ///< An optimal decomposition tree.
  std::size_t iterations = 0;          ///< Iterations the solver ran.
  std::size_t iteration_bound = 0;     ///< The `2*ceil(sqrt n)` schedule.
  bool reached_fixed_point = false;
  /// Total PRAM operations and parallel time: the instrumented oracle's
  /// ledger, so both are 0 unless `options.machine.record_costs` is set
  /// (it is off by default).
  std::uint64_t pram_work = 0;
  std::uint64_t pram_depth = 0;
};

/// Solves `problem` with the paper's algorithm (banded layout, fixed-point
/// termination by default) and extracts an optimal tree.
[[nodiscard]] Solution solve(const dp::Problem& problem,
                             const SublinearOptions& options = {});

}  // namespace subdp::core
