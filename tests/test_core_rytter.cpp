// Tests for the Rytter-style baseline (SquareMode::kRytterFull through
// SolvePlan + SolveSession): correctness on small instances, O(log n)
// iteration counts, the n <= 24 plan guard, and the work trade-off
// against the paper's square.

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "dp/tree_shaped.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"

namespace subdp::core {
namespace {

/// The baseline's canonical options: dense variant, full squaring,
/// fixed-point termination (O(log n) iterations), and the PRAM ledger
/// its work comparisons read.
SublinearOptions rytter() {
  SublinearOptions options;
  options.variant = PwVariant::kDense;
  options.square_mode = SquareMode::kRytterFull;
  options.termination = TerminationMode::kFixedPoint;
  options.machine.record_costs = true;
  return options;
}

SublinearResult solve_with(const dp::Problem& p,
                           const SublinearOptions& options = rytter()) {
  SolveSession session(SolvePlan::create(p.size(), options));
  return session.solve(p);
}

TEST(Rytter, MatchesSequentialOnRandomInstances) {
  support::Rng rng(91);
  for (const std::size_t n : {2u, 3u, 5u, 8u, 12u}) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto p = dp::MatrixChainProblem::random(n, rng);
      const auto result = solve_with(p);
      ASSERT_EQ(result.cost, dp::solve_sequential(p).cost)
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Rytter, MatchesSequentialOnBsts) {
  support::Rng rng(92);
  const auto p = dp::OptimalBstProblem::random(11, rng);
  EXPECT_EQ(solve_with(p).cost, dp::solve_sequential(p).cost);
}

TEST(Rytter, ConvergesInLogarithmicIterationsOnZigzag) {
  // Full squaring doubles the handled path length every iteration, so
  // even the paper's worst-case shape converges in O(log n) iterations —
  // the move-count half of the trade-off (Sec. 3 discussion).
  support::Rng rng(93);
  for (const std::size_t n : {8u, 16u}) {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    const auto result = solve_with(inst.problem);
    EXPECT_EQ(result.cost, inst.optimal_cost);
    EXPECT_LE(result.iterations, 2 * support::ceil_log2(n) + 4) << "n=" << n;
  }
}

TEST(Rytter, FewerIterationsButMoreWorkThanHlvOnZigzag) {
  support::Rng rng(94);
  const std::size_t n = 16;
  auto inst = dp::make_tree_shaped_instance(
      trees::make_tree(trees::TreeShape::kZigzag, n), rng);

  SublinearOptions hlv_opts;
  hlv_opts.variant = PwVariant::kDense;
  hlv_opts.square_mode = SquareMode::kHlvOneLevel;
  hlv_opts.termination = TerminationMode::kFixedPoint;
  hlv_opts.machine.record_costs = true;
  SolveSession hlv(SolvePlan::create(n, hlv_opts));
  const auto hlv_result = hlv.solve(inst.problem);

  SolveSession ryt(SolvePlan::create(n, rytter()));
  const auto ryt_result = ryt.solve(inst.problem);

  EXPECT_EQ(hlv_result.cost, ryt_result.cost);
  // Zigzag: Rytter needs fewer iterations...
  EXPECT_LT(ryt_result.iterations, hlv_result.iterations);
  // ...but each of its square steps costs far more work.
  const auto hlv_square =
      hlv.machine().costs().phase_totals().at("a-square");
  const auto ryt_square =
      ryt.machine().costs().phase_totals().at("a-square");
  EXPECT_GT(ryt_square.work / ryt_square.steps,
            2 * (hlv_square.work / hlv_square.steps));
}

TEST(Rytter, RefusesLargeInstances) {
  // Every front door builds its plan through SolvePlan::create, so the
  // n <= 24 guard holds for sessions, core::solve and the service alike,
  // in either layout.
  EXPECT_NO_THROW((void)SolvePlan::create(SolvePlan::kMaxRytterN, rytter()));
  EXPECT_THROW((void)SolvePlan::create(25, rytter()), std::invalid_argument);
  SublinearOptions banded = rytter();
  banded.variant = PwVariant::kBanded;
  EXPECT_THROW((void)SolvePlan::create(25, banded), std::invalid_argument);
  support::Rng rng(95);
  const auto p = dp::MatrixChainProblem::random(30, rng);
  EXPECT_THROW((void)solve(p, rytter()), std::invalid_argument);
}

TEST(Rytter, FixedBoundRunsTheLogarithmicCap) {
  // Rytter plans share the solver's options surface: with fixed-bound
  // termination they run the whole 4*ceil(log2 n) + 8 iteration cap.
  support::Rng rng(97);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  SublinearOptions options = rytter();
  options.termination = TerminationMode::kFixedBound;
  const auto full = solve_with(p, options);
  EXPECT_EQ(full.cost, dp::solve_sequential(p).cost);
  EXPECT_EQ(full.iterations, 4 * support::ceil_log2(10) + 8);
}

TEST(Rytter, OneCallSolveMatchesPlanAndSession) {
  // core::solve routes through the same plan/session machinery;
  // identical options must give identical results.
  support::Rng rng(98);
  const auto p = dp::MatrixChainProblem::random(12, rng);
  const auto via_api = solve(p, rytter());
  const auto via_session = solve_with(p);
  EXPECT_EQ(via_api.cost, via_session.cost);
  EXPECT_EQ(via_api.iterations, via_session.iterations);
  EXPECT_EQ(via_api.reached_fixed_point, via_session.reached_fixed_point);
}

TEST(Rytter, ReachesFixedPoint) {
  support::Rng rng(96);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  const auto result = solve_with(p);
  EXPECT_TRUE(result.reached_fixed_point);
}

}  // namespace
}  // namespace subdp::core
