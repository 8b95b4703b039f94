// The central correctness suite for the paper's algorithm (SolvePlan +
// SolveSession): equality with the sequential baseline across problems x
// variants x backends x schedules, the 2*ceil(sqrt n) iteration bound,
// whole-table convergence, adversarial zigzag instances, band-width
// sensitivity, and CREW conformance.

#include <gtest/gtest.h>

#include <memory>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/polygon_triangulation.hpp"
#include "dp/sequential.hpp"
#include "dp/tables.hpp"
#include "dp/tree_shaped.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"

namespace subdp::core {
namespace {

std::unique_ptr<dp::Problem> make_problem(const std::string& kind,
                                          std::size_t n,
                                          support::Rng& rng) {
  if (kind == "matrix-chain") {
    return std::make_unique<dp::MatrixChainProblem>(
        dp::MatrixChainProblem::random(n, rng));
  }
  if (kind == "optimal-bst") {
    return std::make_unique<dp::OptimalBstProblem>(
        dp::OptimalBstProblem::random(n - 1, rng));  // n-1 keys -> n objects
  }
  if (kind == "triangulation") {
    return std::make_unique<dp::PolygonTriangulationProblem>(
        dp::PolygonTriangulationProblem::random(n, rng));
  }
  if (kind == "zigzag") {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    return std::make_unique<dp::TabulatedProblem>(std::move(inst.problem));
  }
  throw std::invalid_argument("unknown problem kind " + kind);
}

struct SolverParam {
  std::string kind;
  std::size_t n;
  PwVariant variant;
  pram::Backend backend;
};

class SublinearEqualityTest
    : public ::testing::TestWithParam<SolverParam> {};

TEST_P(SublinearEqualityTest, MatchesSequentialAndRespectsBound) {
  const auto& param = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(param.n) * 7919 +
                   static_cast<std::uint64_t>(param.variant));
  const auto problem = make_problem(param.kind, param.n, rng);
  const auto expected = dp::solve_sequential(*problem);

  SublinearOptions options;
  options.variant = param.variant;
  options.machine.backend = param.backend;
  SolveSession session(SolvePlan::create(param.n, options));
  const auto result = session.solve(*problem);

  EXPECT_EQ(result.cost, expected.cost);
  EXPECT_LE(result.iterations, result.iteration_bound);
  EXPECT_EQ(result.iteration_bound, support::two_ceil_sqrt(param.n));

  // Whole-table convergence: every w'(i,j) reached its optimum.
  for (std::size_t i = 0; i < param.n; ++i) {
    for (std::size_t j = i + 1; j <= param.n; ++j) {
      ASSERT_EQ(result.w(i, j), expected.c(i, j))
          << "w(" << i << "," << j << ") suboptimal";
    }
  }
}

std::vector<SolverParam> equality_params() {
  std::vector<SolverParam> params;
  const auto backend = pram::default_backend();
  for (const std::string kind :
       {"matrix-chain", "optimal-bst", "triangulation", "zigzag"}) {
    for (const std::size_t n : {2u, 3u, 5u, 9u, 16u, 30u}) {
      params.push_back({kind, n, PwVariant::kDense, backend});
      params.push_back({kind, n, PwVariant::kBanded, backend});
    }
  }
  // Backend cross-product on one representative configuration.
  for (const auto b : {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
    params.push_back({"matrix-chain", 24, PwVariant::kBanded, b});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Everything, SublinearEqualityTest,
    ::testing::ValuesIn(equality_params()),
    [](const ::testing::TestParamInfo<SolverParam>& info) {
      std::string name = info.param.kind + "_" +
                         std::to_string(info.param.n) + "_" +
                         to_string(info.param.variant) + "_" +
                         to_string(info.param.backend);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---- Determinism and backend equivalence ----

TEST(Sublinear, BackendsProduceIdenticalTraces) {
  support::Rng rng(61);
  const auto p = dp::MatrixChainProblem::random(20, rng);
  std::vector<SublinearResult> results;
  for (const auto b : {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
    SublinearOptions options;
    options.machine.backend = b;
    SolveSession session(SolvePlan::create(20, options));
    results.push_back(session.solve(p));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[r].cost, results[0].cost);
    ASSERT_EQ(results[r].iterations, results[0].iterations);
    ASSERT_EQ(results[r].trace.size(), results[0].trace.size());
    for (std::size_t t = 0; t < results[r].trace.size(); ++t) {
      ASSERT_EQ(results[r].trace[t].pw_cells_changed,
                results[0].trace[t].pw_cells_changed);
      ASSERT_EQ(results[r].trace[t].w_cells_changed,
                results[0].trace[t].w_cells_changed);
      ASSERT_EQ(results[r].trace[t].w_finite, results[0].trace[t].w_finite);
    }
    ASSERT_TRUE(results[r].w == results[0].w);
  }
}

TEST(Sublinear, DenseAndBandedAgreeCellByCell) {
  support::Rng rng(62);
  for (const std::size_t n : {8u, 17u, 28u}) {
    const auto p = dp::OptimalBstProblem::random(n - 1, rng);
    SublinearOptions dense_opts;
    dense_opts.variant = PwVariant::kDense;
    SublinearOptions banded_opts;
    banded_opts.variant = PwVariant::kBanded;
    SolveSession dense(SolvePlan::create(n, dense_opts));
    SolveSession banded(SolvePlan::create(n, banded_opts));
    const auto a = dense.solve(p);
    const auto b = banded.solve(p);
    ASSERT_EQ(a.cost, b.cost) << "n=" << n;
    ASSERT_TRUE(a.w == b.w) << "n=" << n;
  }
}

// ---- Schedules ----

TEST(Sublinear, WindowedScheduleMatchesSequentialOnAdversarialInput) {
  // The Sec. 5 window is the aggressive schedule; zigzag instances are the
  // shapes that exercise its tail.
  support::Rng rng(63);
  for (const std::size_t n : {9u, 16u, 25u, 36u}) {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    SublinearOptions options;
    options.windowed_pebble = true;
    options.termination = TerminationMode::kFixedBound;
    SolveSession session(SolvePlan::create(n, options));
    const auto result = session.solve(inst.problem);
    EXPECT_EQ(result.cost, inst.optimal_cost) << "n=" << n;
    EXPECT_EQ(result.iterations, support::two_ceil_sqrt(n));
  }
}

TEST(Sublinear, WindowedScheduleMatchesOnRandomInstances) {
  support::Rng rng(64);
  for (int rep = 0; rep < 6; ++rep) {
    const auto p = dp::MatrixChainProblem::random(20, rng);
    SublinearOptions options;
    options.windowed_pebble = true;
    options.termination = TerminationMode::kFixedBound;
    SolveSession session(SolvePlan::create(20, options));
    EXPECT_EQ(session.solve(p).cost, dp::solve_sequential(p).cost);
  }
}

TEST(Sublinear, WindowedRequiresFixedBound) {
  SublinearOptions options;
  options.windowed_pebble = true;
  options.termination = TerminationMode::kFixedPoint;
  EXPECT_THROW((void)SolvePlan::create(8, options), std::invalid_argument);
}

// ---- Band width sensitivity (Sec. 5's 2*sqrt(n) is the safe choice) ----

TEST(Sublinear, PaperBandWidthIsAlwaysSufficient) {
  support::Rng rng(65);
  for (const std::size_t n : {16u, 25u, 36u}) {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    SublinearOptions options;
    options.band_width = support::two_ceil_sqrt(n);
    SolveSession session(SolvePlan::create(n, options));
    EXPECT_EQ(session.solve(inst.problem).cost, inst.optimal_cost);
  }
}

TEST(Sublinear, TinyBandCanFailOnAdversarialInput) {
  // With B = 1 the band cannot represent the partial trees a zigzag
  // optimum needs within the iteration budget; the solver must then
  // *overestimate* (never underestimate) the cost.
  support::Rng rng(66);
  const std::size_t n = 25;
  auto inst = dp::make_tree_shaped_instance(
      trees::make_tree(trees::TreeShape::kZigzag, n), rng);
  SublinearOptions options;
  options.band_width = 1;
  options.termination = TerminationMode::kFixedBound;
  SolveSession session(SolvePlan::create(n, options));
  const auto result = session.solve(inst.problem);
  EXPECT_GT(result.cost, inst.optimal_cost);
}

TEST(Sublinear, CostsNeverUndershootWhileIterating) {
  // Monotone relaxation from above: at every iteration, every finite
  // w'(i,j) is the weight of *some* decomposition tree, hence >= optimal.
  support::Rng rng(67);
  const std::size_t n = 14;
  const auto p = dp::MatrixChainProblem::random(n, rng);
  const auto expected = dp::solve_sequential(p);
  SolveSession session(SolvePlan::create(n));
  session.reset(p);
  for (std::size_t iter = 0; iter < support::two_ceil_sqrt(n); ++iter) {
    (void)session.step();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        ASSERT_GE(session.current_w(i, j), expected.c(i, j));
      }
    }
  }
}

// ---- CREW conformance of the full algorithm ----

TEST(Sublinear, AllThreeStepsAreCrewConformant) {
  support::Rng rng(68);
  const auto p = dp::MatrixChainProblem::random(18, rng);
  for (const auto variant : {PwVariant::kDense, PwVariant::kBanded}) {
    SublinearOptions options;
    options.variant = variant;
    options.machine.check_crew = true;
    SolveSession session(SolvePlan::create(18, options));
    (void)session.solve(p);
    ASSERT_NE(session.machine().crew(), nullptr);
    EXPECT_EQ(session.machine().crew()->violation_count(), 0u)
        << to_string(variant) << ": "
        << session.machine().crew()->first_violation();
  }
}

// ---- Cost-ledger shape ----

TEST(Sublinear, LedgerRecordsThreeStepsPerIteration) {
  support::Rng rng(69);
  const auto p = dp::MatrixChainProblem::random(12, rng);
  SublinearOptions options;
  options.termination = TerminationMode::kFixedBound;
  options.machine.record_costs = true;
  SolveSession session(SolvePlan::create(12, options));
  const auto result = session.solve(p);
  EXPECT_EQ(session.machine().costs().step_count(), 3 * result.iterations);
  const auto totals = session.machine().costs().phase_totals();
  EXPECT_EQ(totals.count("a-activate"), 1u);
  EXPECT_EQ(totals.count("a-square"), 1u);
  EXPECT_EQ(totals.count("a-pebble"), 1u);
}

TEST(Sublinear, BandedDoesLessSquareWorkThanDense) {
  support::Rng rng(70);
  const auto p = dp::MatrixChainProblem::random(32, rng);
  std::uint64_t square_work[2] = {0, 0};
  int idx = 0;
  for (const auto variant : {PwVariant::kDense, PwVariant::kBanded}) {
    SublinearOptions options;
    options.variant = variant;
    options.termination = TerminationMode::kFixedBound;
    options.machine.record_costs = true;
    SolveSession session(SolvePlan::create(32, options));
    (void)session.solve(p);
    square_work[idx++] =
        session.machine().costs().phase_totals().at("a-square").work;
  }
  // The asymptotic gap is ~n^1.5/const; at n=32 it is still just below 2x,
  // so assert strict ordering here and leave the scaling to bench_work.
  EXPECT_LT(square_work[1], square_work[0]);
}

// ---- Edge cases ----

TEST(Sublinear, TrivialSizes) {
  const dp::MatrixChainProblem one({4, 5});
  SolveSession trivial(SolvePlan::create(1));
  const auto r1 = trivial.solve(one);
  EXPECT_EQ(r1.cost, 0);
  EXPECT_EQ(r1.iterations, 0u);

  const dp::MatrixChainProblem two({4, 5, 6});
  SolveSession small(SolvePlan::create(2));
  const auto r2 = small.solve(two);
  EXPECT_EQ(r2.cost, 120);
}

TEST(Sublinear, SteppingRequiresReset) {
  SolveSession session(SolvePlan::create(4));
  EXPECT_THROW((void)session.step(), std::invalid_argument);
}

TEST(Sublinear, ReusableAcrossInstances) {
  support::Rng rng(71);
  SolveSession session(SolvePlan::create(10));
  for (int rep = 0; rep < 4; ++rep) {
    const auto p = dp::MatrixChainProblem::random(10, rng);
    EXPECT_EQ(session.solve(p).cost, dp::solve_sequential(p).cost);
  }
}

}  // namespace
}  // namespace subdp::core
