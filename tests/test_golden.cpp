// Golden regression tests: exact costs, iteration counts and PRAM
// work/depth ledgers for fixed seeds. All quantities are deterministic
// by construction (seeded xoshiro PRNG, integer costs, min-reductions),
// so any drift here means the algorithm, the cost accounting or the
// instance generators changed behaviour — the quantities EXPERIMENTS.md
// is built on.
//
// If a change is *intended* (e.g. a different depth-charging rule),
// regenerate the table below and record the reason in the commit.

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "support/rng.hpp"

namespace subdp {
namespace {

struct GoldenCase {
  std::size_t n;
  core::PwVariant variant;
  Cost cost;
  std::size_t iterations;
  std::uint64_t work;
  std::uint64_t depth;
};

/// Default options with the PRAM ledger asked for: the ledgers below are
/// the instrumented oracle's.
core::SublinearOptions counted() {
  core::SublinearOptions options;
  options.machine.record_costs = true;
  return options;
}

// Matrix-chain instances with seed 9000 + n, fixed-point termination.
const GoldenCase kMatrixChainGolden[] = {
    {8u, core::PwVariant::kDense, 30074, 5u, 6930ull, 80ull},
    {8u, core::PwVariant::kBanded, 30074, 5u, 6620ull, 75ull},
    {16u, core::PwVariant::kDense, 250800, 7u, 198492ull, 140ull},
    {16u, core::PwVariant::kBanded, 250800, 5u, 86130ull, 85ull},
    {24u, core::PwVariant::kDense, 252848, 7u, 1283170ull, 161ull},
    {24u, core::PwVariant::kBanded, 252848, 7u, 549983ull, 140ull},
    {32u, core::PwVariant::kDense, 255672, 8u, 5696064ull, 192ull},
    {32u, core::PwVariant::kBanded, 255672, 7u, 1678075ull, 140ull},
};

class GoldenMatrixChainTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenMatrixChainTest, LedgerIsBitStable) {
  const auto& g = GetParam();
  support::Rng rng(9000 + g.n);
  const auto p = dp::MatrixChainProblem::random(g.n, rng);
  core::SublinearOptions options = counted();
  options.variant = g.variant;
  options.termination = core::TerminationMode::kFixedPoint;
  core::SolveSession solver(core::SolvePlan::create(p.size(), options));
  const auto result = solver.solve(p);
  EXPECT_EQ(result.cost, g.cost);
  EXPECT_EQ(result.iterations, g.iterations);
  EXPECT_EQ(solver.machine().costs().total_work(), g.work);
  EXPECT_EQ(solver.machine().costs().total_depth(), g.depth);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenMatrixChainTest,
    ::testing::ValuesIn(kMatrixChainGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string("n") + std::to_string(info.param.n) + "_" +
             to_string(info.param.variant);
    });

TEST(Golden, BandedConvergesNoLaterButOftenEarlierThanDense) {
  // Observation pinned from the table above: the banded fixed point can
  // arrive *earlier* than the dense one (n = 16: 5 vs 7 iterations) —
  // fewer stored cells keep improving after w' has settled. The w tables
  // still agree exactly.
  support::Rng rng_a(9000 + 16), rng_b(9000 + 16);
  const auto pa = dp::MatrixChainProblem::random(16, rng_a);
  const auto pb = dp::MatrixChainProblem::random(16, rng_b);
  core::SublinearOptions dense_opts;
  dense_opts.variant = core::PwVariant::kDense;
  core::SublinearOptions banded_opts;
  core::SolveSession dense(core::SolvePlan::create(pa.size(), dense_opts));
  core::SolveSession banded(core::SolvePlan::create(pb.size(), banded_opts));
  const auto rd = dense.solve(pa);
  const auto rb = banded.solve(pb);
  EXPECT_LE(rb.iterations, rd.iterations);
  EXPECT_TRUE(rd.w == rb.w);
}

TEST(Golden, OptimalBstLedger) {
  {
    support::Rng rng(9110);
    const auto p = dp::OptimalBstProblem::random(10, rng);
    core::SolveSession solver(core::SolvePlan::create(p.size(), counted()));
    const auto r = solver.solve(p);
    EXPECT_EQ(r.cost, 1907);
    EXPECT_EQ(r.iterations, 6u);
    EXPECT_EQ(solver.machine().costs().total_work(), 29796u);
    EXPECT_EQ(solver.machine().costs().total_depth(), 102u);
  }
  {
    support::Rng rng(9120);
    const auto p = dp::OptimalBstProblem::random(20, rng);
    core::SolveSession solver(core::SolvePlan::create(p.size(), counted()));
    const auto r = solver.solve(p);
    EXPECT_EQ(r.cost, 3814);
    EXPECT_EQ(r.iterations, 7u);
    EXPECT_EQ(solver.machine().costs().total_work(), 372988u);
    EXPECT_EQ(solver.machine().costs().total_depth(), 140u);
  }
}

TEST(Golden, TextbookAnswersNeverDrift) {
  EXPECT_EQ(core::solve(dp::MatrixChainProblem::clrs_example()).cost, 15125);
  EXPECT_EQ(core::solve(dp::OptimalBstProblem::clrs_example()).cost, 235);
}

}  // namespace
}  // namespace subdp
