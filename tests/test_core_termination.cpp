// Tests for the Sec. 7 termination question: the fixed-point stop is safe
// and usually far earlier than the 2*ceil(sqrt n) schedule; the paper's
// "w unchanged twice" heuristic is measured for correctness on a battery
// of instances.

#include <gtest/gtest.h>

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

SublinearResult run(const dp::Problem& p, TerminationMode mode) {
  SublinearOptions options;
  options.termination = mode;
  SolveSession session(SolvePlan::create(p.size(), options));
  return session.solve(p);
}

TEST(Termination, FixedPointStopsNoLaterThanTheBound) {
  support::Rng rng(81);
  const auto p = dp::MatrixChainProblem::random(30, rng);
  const auto result = run(p, TerminationMode::kFixedPoint);
  EXPECT_LE(result.iterations, result.iteration_bound);
}

TEST(Termination, FixedPointIsCorrectOnManySeeds) {
  support::Rng rng(82);
  for (int rep = 0; rep < 20; ++rep) {
    const auto p = dp::MatrixChainProblem::random(16, rng);
    const auto result = run(p, TerminationMode::kFixedPoint);
    ASSERT_EQ(result.cost, dp::solve_sequential(p).cost) << "rep=" << rep;
  }
}

TEST(Termination, RandomInstancesConvergeLogarithmically) {
  // Sec. 6/7: simulations show far fewer than 2*sqrt(n) iterations on
  // typical inputs.
  support::Rng rng(83);
  const std::size_t n = 40;
  double total_iters = 0;
  constexpr int kTrials = 8;
  for (int rep = 0; rep < kTrials; ++rep) {
    const auto p = dp::MatrixChainProblem::random(n, rng);
    const auto result = run(p, TerminationMode::kFixedPoint);
    total_iters += static_cast<double>(result.iterations);
  }
  const double mean = total_iters / kTrials;
  EXPECT_LT(mean, static_cast<double>(support::two_ceil_sqrt(n)));
  EXPECT_LT(mean, 3.0 * static_cast<double>(support::ceil_log2(n)) + 3.0);
}

TEST(Termination, ZigzagInstancesExhaustTheSchedule) {
  // The adversarial shape forces Theta(sqrt n) iterations even with
  // fixed-point detection (nothing converges early).
  support::Rng rng(84);
  for (const std::size_t n : {16u, 36u}) {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    const auto result = run(inst.problem, TerminationMode::kFixedPoint);
    EXPECT_EQ(result.cost, inst.optimal_cost);
    EXPECT_GE(result.iterations, support::ceil_sqrt(n) / 2) << "n=" << n;
  }
}

TEST(Termination, WHeuristicIsCorrectOnRandomBattery) {
  // The paper suggests "stop when w' did not change for two consecutive
  // iterations" and leaves its sufficiency open; on this battery it must
  // at least never *undershoot* and, on these instances, actually match.
  support::Rng rng(85);
  for (int rep = 0; rep < 15; ++rep) {
    const auto p = dp::OptimalBstProblem::random(14, rng);
    const auto result = run(p, TerminationMode::kWUnchangedTwice);
    const auto expected = dp::solve_sequential(p).cost;
    ASSERT_GE(result.cost, expected);
    EXPECT_EQ(result.cost, expected) << "rep=" << rep;
  }
}

TEST(Termination, WHeuristicStopsEarlierOrEqualToFixedPoint) {
  support::Rng rng(86);
  const auto p = dp::MatrixChainProblem::random(24, rng);
  const auto heuristic = run(p, TerminationMode::kWUnchangedTwice);
  const auto fixed = run(p, TerminationMode::kFixedPoint);
  EXPECT_LE(heuristic.iterations, fixed.iterations + 2);
  EXPECT_EQ(heuristic.cost, fixed.cost);
}

TEST(Termination, FixedBoundRunsExactlyTheSchedule) {
  support::Rng rng(87);
  const auto p = dp::MatrixChainProblem::random(20, rng);
  const auto result = run(p, TerminationMode::kFixedBound);
  EXPECT_EQ(result.iterations, support::two_ceil_sqrt(20));
  EXPECT_EQ(result.cost, dp::solve_sequential(p).cost);
}

TEST(Termination, TraceShowsMonotoneProgress) {
  support::Rng rng(88);
  const auto p = dp::MatrixChainProblem::random(24, rng);
  const auto result = run(p, TerminationMode::kFixedBound);
  ASSERT_FALSE(result.trace.empty());
  // w_finite is nondecreasing and ends at the full pair count.
  std::uint64_t prev = 0;
  for (const auto& t : result.trace) {
    ASSERT_GE(t.w_finite, prev);
    prev = t.w_finite;
  }
  EXPECT_EQ(prev, 24u * 25u / 2);
  // Once the iteration changes nothing, it never changes again.
  bool quiet = false;
  for (const auto& t : result.trace) {
    const bool changed = t.pw_cells_changed + t.w_cells_changed > 0;
    if (quiet) {
      ASSERT_FALSE(changed);
    }
    if (!changed) quiet = true;
  }
}

TEST(Termination, MaxIterationOverrideCapsTheRun) {
  support::Rng rng(89);
  const auto p = dp::MatrixChainProblem::random(36, rng);
  SublinearOptions options;
  options.termination = TerminationMode::kFixedBound;
  options.max_iterations = 3;
  SolveSession session(SolvePlan::create(36, options));
  const auto result = session.solve(p);
  EXPECT_EQ(result.iterations, 3u);
}

}  // namespace
}  // namespace subdp::core
