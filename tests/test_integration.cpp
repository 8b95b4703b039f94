// End-to-end tests through the public API (core/api.hpp): all three
// motivating applications, tree extraction, and statistics plumbing.

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/polygon_triangulation.hpp"
#include "dp/sequential.hpp"
#include "dp/tables.hpp"
#include "support/rng.hpp"

namespace subdp {
namespace {

TEST(Api, MatrixChainEndToEnd) {
  const auto p = dp::MatrixChainProblem::clrs_example();
  core::SublinearOptions counted;
  counted.machine.record_costs = true;
  const auto solution = core::solve(p, counted);
  EXPECT_EQ(solution.cost, 15125);
  EXPECT_TRUE(solution.tree.validate());
  EXPECT_EQ(solution.tree.leaf_count(), 6u);
  EXPECT_EQ(dp::tree_weight(p, solution.tree), 15125);
  EXPECT_GT(solution.pram_work, 0u);
  EXPECT_GT(solution.pram_depth, 0u);
  EXPECT_LE(solution.iterations, solution.iteration_bound);
}

TEST(Api, ClrsOptimalParenthesization) {
  // CLRS 15.2: the optimal parenthesization is ((A1(A2A3))((A4A5)A6)),
  // i.e. root split after matrix 3, left subtree splits after matrix 1,
  // right subtree after matrix 5.
  const auto p = dp::MatrixChainProblem::clrs_example();
  const auto solution = core::solve(p);
  const auto& t = solution.tree;
  ASSERT_FALSE(t.is_leaf(t.root()));
  EXPECT_EQ(t.split(t.root()), 3u);
  EXPECT_EQ(t.split(t.left(t.root())), 1u);
  EXPECT_EQ(t.split(t.right(t.root())), 5u);
}

TEST(Api, OptimalBstEndToEnd) {
  const auto p = dp::OptimalBstProblem::clrs_example();
  const auto solution = core::solve(p);
  EXPECT_EQ(solution.cost, 235);
  EXPECT_EQ(dp::tree_weight(p, solution.tree), 235);
  // CLRS: k2 is the optimal root, i.e. the root split is at gap 2.
  EXPECT_EQ(solution.tree.split(solution.tree.root()), 2u);
}

TEST(Api, TriangulationEndToEnd) {
  support::Rng rng(101);
  const auto p = dp::PolygonTriangulationProblem::random_convex(12, rng);
  const auto solution = core::solve(p);
  EXPECT_EQ(solution.cost, dp::solve_sequential(p).cost);
  EXPECT_EQ(dp::tree_weight(p, solution.tree), solution.cost);
}

TEST(Api, SingleObjectInstance) {
  const dp::MatrixChainProblem p({7, 9});
  const auto solution = core::solve(p);
  EXPECT_EQ(solution.cost, 0);
  EXPECT_EQ(solution.tree.leaf_count(), 1u);
  EXPECT_EQ(solution.iterations, 0u);
}

TEST(Api, OptionsArePassedThrough) {
  support::Rng rng(102);
  const auto p = dp::MatrixChainProblem::random(16, rng);
  core::SublinearOptions options;
  options.variant = core::PwVariant::kDense;
  options.termination = core::TerminationMode::kFixedBound;
  const auto solution = core::solve(p, options);
  EXPECT_EQ(solution.iterations, solution.iteration_bound);
  EXPECT_EQ(solution.cost, dp::solve_sequential(p).cost);
}

TEST(Api, TreesFromAllSolversAgreeOnCost) {
  support::Rng rng(103);
  for (int rep = 0; rep < 5; ++rep) {
    const auto p = dp::MatrixChainProblem::random(14, rng);
    const auto seq = dp::solve_sequential(p);
    const auto seq_tree = dp::extract_tree(seq);
    const auto solution = core::solve(p);
    // Optimal trees may differ under ties, but weights must agree.
    EXPECT_EQ(dp::tree_weight(p, seq_tree), dp::tree_weight(p, solution.tree));
  }
}

TEST(Api, WorkGrowsWithInstanceSize) {
  support::Rng rng(104);
  core::SublinearOptions counted;
  counted.machine.record_costs = true;
  const auto small =
      core::solve(dp::MatrixChainProblem::random(8, rng), counted);
  const auto large =
      core::solve(dp::MatrixChainProblem::random(32, rng), counted);
  EXPECT_GT(small.pram_work, 0u);
  EXPECT_GT(large.pram_work, small.pram_work);
}

}  // namespace
}  // namespace subdp
