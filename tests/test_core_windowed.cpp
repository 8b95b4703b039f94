// Deep tests of the Sec. 5 windowed pebble schedule via the stepping
// interface: at iterations 2l-1 and 2l only pairs with
// (l-1)^2 < j-i <= l^2 may receive new w' values; the windows jointly
// cover every length; and the schedule still produces optimal answers on
// the families that stress it.

#include <gtest/gtest.h>

#include "core/convergence_report.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "dp/tree_shaped.hpp"
#include "support/grid.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"

namespace subdp::core {
namespace {

TEST(Windowed, OnlyWindowLengthsChangePerIteration) {
  support::Rng rng(301);
  const std::size_t n = 30;
  const auto p = dp::MatrixChainProblem::random(n, rng);

  SublinearOptions options;
  options.windowed_pebble = true;
  options.termination = TerminationMode::kFixedBound;
  SolveSession solver(SolvePlan::create(n, options));
  solver.reset(p);

  support::Grid2D<Cost> before(n + 1, n + 1, kInfinity);
  const std::size_t bound = support::two_ceil_sqrt(n);
  for (std::size_t iter = 1; iter <= bound; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        before(i, j) = solver.current_w(i, j);
      }
    }
    (void)solver.step();
    const std::size_t l = (iter + 1) / 2;
    const std::size_t lo = (l - 1) * (l - 1);  // exclusive
    const std::size_t hi = l * l;              // inclusive
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        const std::size_t len = j - i;
        if (solver.current_w(i, j) != before(i, j)) {
          ASSERT_GT(len, lo) << "iteration " << iter << " touched ("
                             << i << "," << j << ") below its window";
          ASSERT_LE(len, hi) << "iteration " << iter << " touched ("
                             << i << "," << j << ") above its window";
        }
      }
    }
  }
}

TEST(Windowed, WindowsJointlyCoverEveryLength) {
  // Lengths (l-1)^2+1 .. l^2 for l = 1 .. ceil(sqrt n) tile [1, n].
  for (const std::size_t n : {2u, 3u, 16u, 17u, 100u, 101u}) {
    std::vector<bool> covered(n + 1, false);
    for (std::size_t l = 1; l <= support::ceil_sqrt(n); ++l) {
      for (std::size_t len = (l - 1) * (l - 1) + 1;
           len <= l * l && len <= n; ++len) {
        EXPECT_FALSE(covered[len]) << "length " << len << " doubly covered";
        covered[len] = true;
      }
    }
    for (std::size_t len = 1; len <= n; ++len) {
      EXPECT_TRUE(covered[len]) << "length " << len << " never in a window";
    }
  }
}

TEST(Windowed, EachPairIsPebbledOnlyInItsTwoIterations) {
  // Count how many iterations change each pair: with windowing it can be
  // at most 2 (its window is visited exactly twice).
  support::Rng rng(302);
  const std::size_t n = 25;
  auto inst = dp::make_tree_shaped_instance(
      trees::make_tree(trees::TreeShape::kZigzag, n), rng);

  SublinearOptions options;
  options.windowed_pebble = true;
  options.termination = TerminationMode::kFixedBound;
  SolveSession solver(SolvePlan::create(n, options));
  solver.reset(inst.problem);

  support::Grid2D<int> changes(n + 1, n + 1, 0);
  support::Grid2D<Cost> before(n + 1, n + 1, kInfinity);
  for (std::size_t iter = 1; iter <= support::two_ceil_sqrt(n); ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        before(i, j) = solver.current_w(i, j);
      }
    }
    (void)solver.step();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        if (solver.current_w(i, j) != before(i, j)) ++changes(i, j);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      EXPECT_LE(changes(i, j), 2) << "(" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(solver.current_w(0, n), inst.optimal_cost);
}

TEST(Windowed, MatchesUnwindowedOnABattery) {
  support::Rng rng(303);
  for (int rep = 0; rep < 8; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 36));
    const auto p = dp::MatrixChainProblem::random(n, rng);
    SublinearOptions windowed;
    windowed.windowed_pebble = true;
    windowed.termination = TerminationMode::kFixedBound;
    SublinearOptions plain;
    plain.termination = TerminationMode::kFixedBound;
    SolveSession a(SolvePlan::create(n, windowed));
    SolveSession b(SolvePlan::create(n, plain));
    const auto ra = a.solve(p);
    const auto rb = b.solve(p);
    ASSERT_EQ(ra.cost, rb.cost) << "n=" << n;
    ASSERT_TRUE(ra.w == rb.w) << "n=" << n;
  }
}

TEST(Windowed, PebbleWorkIsConcentrated) {
  // The windowed pebble step touches O(n^1.5) pairs total (sum over
  // windows) instead of O(n^2) pairs per iteration x 2 sqrt(n).
  support::Rng rng(304);
  const std::size_t n = 64;
  const auto p = dp::MatrixChainProblem::random(n, rng);

  std::uint64_t pebble_work[2];
  int idx = 0;
  for (const bool windowed : {false, true}) {
    SublinearOptions options;
    options.windowed_pebble = windowed;
    options.termination = TerminationMode::kFixedBound;
    options.machine.record_costs = true;
    SolveSession solver(SolvePlan::create(p.size(), options));
    (void)solver.solve(p);
    pebble_work[idx++] =
        solver.machine().costs().phase_totals().at("a-pebble").work;
  }
  EXPECT_LT(pebble_work[1] * 3, pebble_work[0]);
}

TEST(ConvergenceReport, TableAndSummaryReflectTheTrace) {
  support::Rng rng(305);
  const auto p = dp::MatrixChainProblem::random(20, rng);
  SolveSession solver(SolvePlan::create(20));
  const auto result = solver.solve(p);
  const auto table = convergence_table(result, "test");
  EXPECT_EQ(table.rows(), result.trace.size());
  const auto summary = summarize_convergence(result);
  EXPECT_NE(summary.find("fixed point"), std::string::npos);
  EXPECT_NE(summary.find(std::to_string(result.iterations)),
            std::string::npos);
}

}  // namespace
}  // namespace subdp::core
