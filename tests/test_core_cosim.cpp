// The Sec. 4 correctness argument, executed literally: run the pebbling
// game on a known optimal tree in lock-step with the algorithm and check
// the synchronisation claims the proof relies on (with the one-iteration
// lag the paper states):
//   (a) if the game has pebbled node (i,j) after move k, then after the
//       (k+1)st a-pebble the algorithm's w'(i,j) equals the optimum;
//   (b) if cond((i,j)) = (p,q) after move k, then after the (k+1)st
//       a-square the algorithm's pw'(i,j,p,q) is finite (a concrete
//       partial tree has been accounted) and never below the true
//       partial weight.

#include <gtest/gtest.h>

#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "dp/tree_shaped.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"
#include "trees/pebble_game.hpp"

namespace subdp::core {
namespace {

struct CosimParam {
  trees::TreeShape shape;
  std::size_t n;
  std::uint64_t seed;
};

class CosimTest : public ::testing::TestWithParam<CosimParam> {};

TEST_P(CosimTest, GamePebbleImpliesAlgorithmConvergence) {
  const auto [shape, n, seed] = GetParam();
  support::Rng rng(seed);
  const auto target = trees::make_tree(shape, n, &rng);
  auto inst = dp::make_tree_shaped_instance(target, rng);
  const auto expected = dp::solve_sequential(inst.problem);
  ASSERT_EQ(expected.cost, inst.optimal_cost);

  trees::PebbleGame game(target, trees::SquareRule::kOneLevel);
  SublinearOptions options;
  options.variant = PwVariant::kDense;  // full Sec. 2 algorithm
  SolveSession solver(SolvePlan::create(n, options));
  solver.reset(inst.problem);

  std::vector<bool> pebbled_before(target.node_count(), false);
  const std::size_t bound = support::two_ceil_sqrt(n) + 1;
  for (std::size_t iter = 1; iter <= bound; ++iter) {
    const bool root_was_pebbled = game.root_pebbled();
    if (!root_was_pebbled) game.move();
    (void)solver.step();
    // Sec. 4 claim (a): nodes the game had pebbled after the previous
    // move have converged w' after this iteration's a-pebble.
    for (trees::NodeId x = 0;
         static_cast<std::size_t>(x) < target.node_count(); ++x) {
      if (!pebbled_before[static_cast<std::size_t>(x)]) continue;
      const std::size_t i = target.lo(x);
      const std::size_t j = target.hi(x);
      if (j - i < 2) continue;  // leaves are initialisation
      ASSERT_EQ(solver.current_w(i, j), expected.c(i, j))
          << "iteration " << iter << ": game pebbled (" << i << "," << j
          << ") a move ago but w' has not converged";
    }
    for (trees::NodeId x = 0;
         static_cast<std::size_t>(x) < target.node_count(); ++x) {
      pebbled_before[static_cast<std::size_t>(x)] = game.pebbled(x);
    }
    if (root_was_pebbled) break;
  }
  EXPECT_TRUE(game.root_pebbled());
  EXPECT_EQ(solver.current_w(0, n), inst.optimal_cost);
}

TEST_P(CosimTest, CondPointerImpliesPartialWeightIsAccounted) {
  const auto [shape, n, seed] = GetParam();
  support::Rng rng(seed + 1);
  const auto target = trees::make_tree(shape, n, &rng);
  auto inst = dp::make_tree_shaped_instance(target, rng);
  const auto expected = dp::solve_sequential(inst.problem);

  trees::PebbleGame game(target, trees::SquareRule::kOneLevel);
  SublinearOptions options;
  options.variant = PwVariant::kDense;
  SolveSession solver(SolvePlan::create(n, options));
  solver.reset(inst.problem);

  // cond targets recorded after the previous move: (node, cond) pairs.
  std::vector<trees::NodeId> cond_before(target.node_count());
  for (trees::NodeId x = 0;
       static_cast<std::size_t>(x) < target.node_count(); ++x) {
    cond_before[static_cast<std::size_t>(x)] = x;
  }

  const std::size_t bound = support::two_ceil_sqrt(n) + 1;
  for (std::size_t iter = 1; iter <= bound; ++iter) {
    const bool done = game.root_pebbled();
    if (!done) game.move();
    (void)solver.step();
    for (trees::NodeId x = 0;
         static_cast<std::size_t>(x) < target.node_count(); ++x) {
      const trees::NodeId c = cond_before[static_cast<std::size_t>(x)];
      if (c == x) continue;
      const std::size_t i = target.lo(x), j = target.hi(x);
      const std::size_t p = target.lo(c), q = target.hi(c);
      const Cost pw_prime = solver.current_pw(i, j, p, q);
      ASSERT_TRUE(is_finite(pw_prime))
          << "iteration " << iter << ": cond((" << i << "," << j
          << ")) = (" << p << "," << q << ") a move ago but pw' is infinite";
      // Never below the true partial weight along the planted tree:
      // pw(i,j,p,q) = w(i,j) - w(p,q) for on-tree nodes.
      ASSERT_GE(pw_prime, expected.c(i, j) - expected.c(p, q));
    }
    for (trees::NodeId x = 0;
         static_cast<std::size_t>(x) < target.node_count(); ++x) {
      cond_before[static_cast<std::size_t>(x)] = game.cond(x);
    }
    if (done) break;
  }
}

std::vector<CosimParam> cosim_params() {
  std::vector<CosimParam> params;
  std::uint64_t seed = 500;
  for (const auto shape :
       {trees::TreeShape::kComplete, trees::TreeShape::kLeftSkewed,
        trees::TreeShape::kZigzag, trees::TreeShape::kRandom,
        trees::TreeShape::kBiasedRandom}) {
    for (const std::size_t n : {4u, 9u, 16u, 25u}) {
      params.push_back({shape, n, seed++});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CosimTest, ::testing::ValuesIn(cosim_params()),
    [](const ::testing::TestParamInfo<CosimParam>& info) {
      std::string name = to_string(info.param.shape);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_" + std::to_string(info.param.n);
    });

}  // namespace
}  // namespace subdp::core
