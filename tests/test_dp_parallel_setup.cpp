// Tests for the Sec. 4 preprocessing phase (dp/parallel_setup.hpp):
// parallel f-materialisation equals the direct tabulation, its ledger
// shape matches the paper's claims, and the preprocessing never
// dominates the main iteration's work.

#include "dp/parallel_setup.hpp"

#include <gtest/gtest.h>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::dp {
namespace {

TEST(ParallelSetup, WeightsScanMatchesPrefixSums) {
  support::Rng rng(61);
  pram::Machine machine;
  std::vector<Cost> weights(40);
  for (auto& w : weights) w = rng.uniform_int(0, 100);
  const auto prefix = prepare_interval_weights(machine, weights);
  ASSERT_EQ(prefix.size(), weights.size());
  Cost run = 0;
  for (std::size_t t = 0; t < weights.size(); ++t) {
    EXPECT_EQ(prefix[t], run);
    run += weights[t];
  }
}

TEST(ParallelSetup, MaterialisedTableEqualsDirectTabulation) {
  support::Rng rng(62);
  const auto problem = MatrixChainProblem::random(18, rng);
  pram::Machine machine;
  const auto parallel = materialize_in_parallel(machine, problem);
  const auto direct = TabulatedProblem::from(problem);
  for (std::size_t i = 0; i < problem.size(); ++i) {
    ASSERT_EQ(parallel.init(i), direct.init(i));
  }
  for (std::size_t i = 0; i + 2 <= problem.size(); ++i) {
    for (std::size_t j = i + 2; j <= problem.size(); ++j) {
      for (std::size_t k = i + 1; k < j; ++k) {
        ASSERT_EQ(parallel.f(i, k, j), direct.f(i, k, j));
      }
    }
  }
}

TEST(ParallelSetup, SolvingTheMaterialisedTableIsEquivalent) {
  support::Rng rng(63);
  const auto problem = OptimalBstProblem::random(15, rng);
  pram::Machine machine;
  const auto table = materialize_in_parallel(machine, problem);
  EXPECT_EQ(solve_sequential(table).cost, solve_sequential(problem).cost);
}

TEST(ParallelSetup, LedgerHasTwoStepsWithLogDepth) {
  support::Rng rng(64);
  const std::size_t n = 20;
  const auto problem = MatrixChainProblem::random(n, rng);
  pram::Machine machine;
  (void)materialize_in_parallel(machine, problem);
  EXPECT_EQ(machine.costs().step_count(), 2u);  // init + one f sweep
  // Unit work per produced f entry: total = n(n^2-1)/6 triples + n inits.
  EXPECT_EQ(machine.costs().total_work(),
            static_cast<std::uint64_t>(n) * (n * n - 1) / 6 + n);
  // O(log n) depth: widest pair scans n-1 splits.
  EXPECT_LE(machine.costs().total_depth(),
            2 + support::ceil_log2(n));
}

TEST(ParallelSetup, IsCrewConformant) {
  support::Rng rng(65);
  const auto problem = MatrixChainProblem::random(12, rng);
  pram::MachineOptions opts;
  opts.check_crew = true;
  pram::Machine machine(opts);
  (void)materialize_in_parallel(machine, problem);
  ASSERT_NE(machine.crew(), nullptr);
  EXPECT_EQ(machine.crew()->violation_count(), 0u)
      << machine.crew()->first_violation();
}

TEST(ParallelSetup, PreprocessingNeverDominatesTheMainIteration) {
  // Paper Sec. 4: "In general, the f(i,j,k)'s do not form the
  // timewise-expensive part of the computation."
  support::Rng rng(66);
  const std::size_t n = 32;
  const auto problem = MatrixChainProblem::random(n, rng);
  pram::Machine pre;
  const auto table = materialize_in_parallel(pre, problem);

  core::SublinearOptions options;
  options.machine.record_costs = true;
  core::SolveSession solver(core::SolvePlan::create(n, options));
  (void)solver.solve(table);
  EXPECT_LT(pre.costs().total_work() * 10,
            solver.machine().costs().total_work());
  EXPECT_LT(pre.costs().total_depth(),
            solver.machine().costs().total_depth());
}

}  // namespace
}  // namespace subdp::dp
