// Randomized cross-solver equivalence fuzzing: for a sweep of seeds,
// draw a random instance family, size and solver configuration, and
// check that every solver in the repository agrees with the sequential
// baseline (and that iteration bounds and monotonicity side conditions
// hold). This is the catch-all net under the targeted suites.

#include <gtest/gtest.h>

#include <memory>

#include "core/api.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/brute_force.hpp"
#include "dp/knuth.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/polygon_triangulation.hpp"
#include "dp/sequential.hpp"
#include "dp/tables.hpp"
#include "dp/tree_shaped.hpp"
#include "dp/wavefront.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"

namespace subdp {
namespace {

std::unique_ptr<dp::Problem> random_instance(support::Rng& rng,
                                             std::size_t n) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return std::make_unique<dp::MatrixChainProblem>(
          dp::MatrixChainProblem::random(n, rng, 40));
    case 1:
      return std::make_unique<dp::OptimalBstProblem>(
          dp::OptimalBstProblem::random(n > 1 ? n - 1 : 1, rng, 30));
    case 2:
      return std::make_unique<dp::PolygonTriangulationProblem>(
          dp::PolygonTriangulationProblem::random(std::max<std::size_t>(n,
                                                                        2),
                                                  rng, 20));
    case 3: {
      const auto shape =
          trees::kAllShapes[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(std::size(trees::kAllShapes)) -
                     1))];
      auto inst = dp::make_tree_shaped_instance(
          trees::make_tree(shape, n, &rng), rng,
          rng.uniform_int(0, 16));
      return std::make_unique<dp::TabulatedProblem>(
          std::move(inst.problem));
    }
    default: {
      // Fully random tabulated f / init values (no structure at all).
      auto t = std::make_unique<dp::TabulatedProblem>(n, "fuzz-random");
      for (std::size_t i = 0; i < n; ++i) {
        t->set_init(i, rng.uniform_int(0, 1000));
      }
      for (std::size_t i = 0; i + 2 <= n; ++i) {
        for (std::size_t j = i + 2; j <= n; ++j) {
          for (std::size_t k = i + 1; k < j; ++k) {
            t->set_f(i, k, j, rng.uniform_int(0, 1000));
          }
        }
      }
      return t;
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AllSolversAgree) {
  support::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 26));
  const auto problem = random_instance(rng, n);
  const auto expected = dp::solve_sequential(*problem);
  ASSERT_TRUE(dp::validate_result(*problem, expected));

  // Exponential oracle on the small ones.
  if (problem->size() <= 9) {
    ASSERT_EQ(expected.cost, dp::brute_force_cost(*problem));
  }

  // Wavefront on a random backend.
  {
    pram::MachineOptions mopts;
    mopts.backend = static_cast<pram::Backend>(rng.uniform_int(0, 1));
    pram::Machine machine(mopts);
    ASSERT_EQ(dp::solve_wavefront(*problem, machine).cost, expected.cost);
  }

  // Sublinear solver with a random legal configuration.
  core::SublinearOptions options;
  options.variant = rng.bernoulli(0.5) ? core::PwVariant::kBanded
                                       : core::PwVariant::kDense;
  options.machine.backend =
      static_cast<pram::Backend>(rng.uniform_int(0, 1));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      options.termination = core::TerminationMode::kFixedBound;
      break;
    case 1:
      options.termination = core::TerminationMode::kFixedPoint;
      break;
    default:
      options.termination = core::TerminationMode::kFixedBound;
      options.windowed_pebble = true;
      break;
  }
  // Any band at or above the paper's choice must be safe.
  const auto paper_band = support::two_ceil_sqrt(problem->size());
  options.band_width =
      paper_band + static_cast<std::size_t>(rng.uniform_int(0, 6));

  core::SolveSession solver(
      core::SolvePlan::create(problem->size(), options));
  const auto result = solver.solve(*problem);
  ASSERT_EQ(result.cost, expected.cost)
      << problem->name() << " n=" << problem->size()
      << " variant=" << to_string(options.variant)
      << " termination=" << to_string(options.termination)
      << " windowed=" << options.windowed_pebble
      << " band=" << options.band_width;
  ASSERT_LE(result.iterations, result.iteration_bound);

  // Whole-table agreement and tree extraction.
  for (std::size_t i = 0; i < problem->size(); ++i) {
    for (std::size_t j = i + 1; j <= problem->size(); ++j) {
      ASSERT_EQ(result.w(i, j), expected.c(i, j))
          << "cell (" << i << "," << j << ")";
    }
  }
  const auto tree = dp::extract_tree_from_w(*problem, result.w);
  ASSERT_TRUE(tree.validate());
  ASSERT_EQ(dp::tree_weight(*problem, tree), expected.cost);

  // Knuth fast path whenever its preconditions hold.
  if (dp::is_k_independent(*problem) && problem->size() <= 16 &&
      dp::satisfies_quadrangle_inequality(*problem)) {
    ASSERT_EQ(dp::solve_knuth(*problem).cost, expected.cost);
  }
}

std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 120; ++s) seeds.push_back(s * 2654435761u);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::ValuesIn(fuzz_seeds()));

}  // namespace
}  // namespace subdp
