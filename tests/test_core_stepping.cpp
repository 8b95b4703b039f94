// Tests of the stepping interface and per-iteration semantics of the
// engine: monotone relaxation of both tables, idempotence beyond the
// fixed point, trace bookkeeping, accessor contracts, and option
// validation — the machinery the co-simulation and the Sec. 7
// experiments rely on.

#include <gtest/gtest.h>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::core {
namespace {

TEST(Stepping, PwValuesAreMonotoneNonincreasing) {
  support::Rng rng(401);
  const std::size_t n = 12;
  const auto p = dp::MatrixChainProblem::random(n, rng);
  SublinearOptions options;
  options.variant = PwVariant::kDense;
  SolveSession session(SolvePlan::create(n, options));
  session.reset(p);

  // Snapshot all pw values each iteration; they may only decrease.
  std::vector<Cost> prev;
  const auto snapshot = [&] {
    std::vector<Cost> values;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t pp = i; pp < j; ++pp) {
          for (std::size_t q = pp + 1; q <= j; ++q) {
            if (pp == i && q == j) continue;
            values.push_back(session.current_pw(i, j, pp, q));
          }
        }
      }
    }
    return values;
  };
  prev = snapshot();
  for (std::size_t iter = 0; iter < support::two_ceil_sqrt(n); ++iter) {
    (void)session.step();
    const auto now = snapshot();
    ASSERT_EQ(now.size(), prev.size());
    for (std::size_t c = 0; c < now.size(); ++c) {
      ASSERT_LE(now[c], prev[c]) << "pw cell " << c << " increased";
    }
    prev = now;
  }
}

TEST(Stepping, WValuesAreMonotoneNonincreasing) {
  support::Rng rng(402);
  const std::size_t n = 16;
  const auto p = dp::OptimalBstProblem::random(n - 1, rng);
  SolveSession session(SolvePlan::create(n));
  session.reset(p);
  support::Grid2D<Cost> prev(n + 1, n + 1, kInfinity);
  for (std::size_t i = 0; i < n; ++i) prev(i, i + 1) = p.init(i);
  for (std::size_t iter = 0; iter < support::two_ceil_sqrt(n); ++iter) {
    (void)session.step();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        ASSERT_LE(session.current_w(i, j), prev(i, j));
        prev(i, j) = session.current_w(i, j);
      }
    }
  }
}

TEST(Stepping, IterationsBeyondTheFixedPointChangeNothing) {
  support::Rng rng(403);
  const std::size_t n = 14;
  const auto p = dp::MatrixChainProblem::random(n, rng);
  SolveSession session(SolvePlan::create(n));
  session.reset(p);
  // Drive to the fixed point.
  std::size_t guard = 0;
  while (session.step().any_changed()) {
    ASSERT_LT(++guard, 100u);
  }
  // Extra iterations must be perfectly quiet.
  for (int extra = 0; extra < 3; ++extra) {
    const auto out = session.step();
    EXPECT_EQ(out.activate_changed, 0u);
    EXPECT_EQ(out.square_changed, 0u);
    EXPECT_EQ(out.pebble_changed, 0u);
  }
  EXPECT_EQ(session.current_w(0, n), dp::solve_sequential(p).cost);
}

TEST(Stepping, OutcomeCountsMatchTraceEntries) {
  support::Rng rng(404);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  SolveSession session(SolvePlan::create(10));
  session.reset(p);
  for (int iter = 0; iter < 5; ++iter) {
    const auto out = session.step();
    (void)out;
  }
  const auto result = session.finish();
  ASSERT_EQ(result.trace.size(), 5u);
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    EXPECT_EQ(result.trace[t].iteration, t + 1);
  }
  EXPECT_EQ(result.iterations, 5u);
}

TEST(Stepping, LifecycleGuardsBeforeReset) {
  // The stepping interface is guarded: using it before reset() must
  // fail with a SUBDP_REQUIRE diagnostic, not dereference a null engine.
  SolveSession session(SolvePlan::create(4));
  EXPECT_THROW((void)session.step(), std::invalid_argument);
  EXPECT_THROW((void)session.finish(), std::invalid_argument);
  EXPECT_THROW((void)session.current_w(0, 1), std::invalid_argument);
  EXPECT_THROW((void)session.current_pw(0, 2, 0, 1), std::invalid_argument);
  EXPECT_EQ(session.iterations_done(), 0u);
}

TEST(Stepping, LifecycleGuardsAfterFinish) {
  support::Rng rng(405);
  const auto p = dp::MatrixChainProblem::random(12, rng);
  SolveSession session(SolvePlan::create(12));
  session.reset(p);
  (void)session.step();
  const auto result = session.finish();
  EXPECT_EQ(result.iterations, 1u);
  // After finish() the cycle is closed: stepping or reading again
  // without a fresh reset() must fail, not act on stale state (the
  // prepared problem may be long dead by now).
  EXPECT_THROW((void)session.step(), std::invalid_argument);
  EXPECT_THROW((void)session.finish(), std::invalid_argument);
  EXPECT_THROW((void)session.current_w(0, 12), std::invalid_argument);
  EXPECT_THROW((void)session.current_pw(0, 12, 0, 1),
               std::invalid_argument);
  // A new reset() reopens the cycle on the same session.
  session.reset(p);
  (void)session.step();
  EXPECT_EQ(session.current_w(0, 1), p.init(0));
  const auto again = session.finish();
  EXPECT_EQ(again.iterations, 1u);
  EXPECT_EQ(again.cost, result.cost);
}

TEST(Stepping, SolveClosesTheSteppingCycle) {
  support::Rng rng(412);
  const auto p = dp::MatrixChainProblem::random(12, rng);
  SolveSession session(SolvePlan::create(12));
  const auto direct = session.solve(p);
  EXPECT_EQ(direct.cost, dp::solve_sequential(p).cost);
  // solve() packages its own finish(); the stepping cycle is closed.
  EXPECT_THROW((void)session.finish(), std::invalid_argument);
  EXPECT_THROW((void)session.step(), std::invalid_argument);
  // Counters stay readable after the cycle closes.
  EXPECT_EQ(session.iterations_done(), direct.iterations);
  EXPECT_EQ(session.pw_cell_count(), session.plan().pw_cell_count());
}

TEST(Stepping, SessionLifecycleGuards) {
  support::Rng rng(413);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  auto plan = SolvePlan::create(10);
  SolveSession session(plan);
  // Idle session: nothing prepared yet.
  EXPECT_THROW((void)session.step(), std::invalid_argument);
  EXPECT_THROW((void)session.finish(), std::invalid_argument);
  EXPECT_THROW((void)session.current_w(0, 1), std::invalid_argument);
  // Wrong shape: the plan serves n == 10 only.
  const auto p12 = dp::MatrixChainProblem::random(12, rng);
  EXPECT_THROW(session.reset(p12), std::invalid_argument);
  // Prepared -> finished -> guarded again.
  session.reset(p);
  (void)session.step();
  (void)session.finish();
  EXPECT_THROW((void)session.step(), std::invalid_argument);
  EXPECT_THROW((void)session.current_w(0, 1), std::invalid_argument);
  session.reset(p);
  EXPECT_EQ(session.solve(p).cost, dp::solve_sequential(p).cost);
}

TEST(Stepping, AccessorsRejectBadCoordinates) {
  support::Rng rng(406);
  const auto p = dp::MatrixChainProblem::random(8, rng);
  SolveSession session(SolvePlan::create(8));
  session.reset(p);
  EXPECT_THROW((void)session.current_w(3, 3), std::invalid_argument);
  EXPECT_THROW((void)session.current_w(0, 9), std::invalid_argument);
  EXPECT_THROW((void)session.current_pw(2, 6, 1, 4), std::invalid_argument);
  EXPECT_THROW((void)session.current_pw(0, 8, 4, 4), std::invalid_argument);
}

TEST(Stepping, IdentityPwIsAlwaysZero) {
  support::Rng rng(407);
  const auto p = dp::MatrixChainProblem::random(9, rng);
  SolveSession session(SolvePlan::create(9));
  session.reset(p);
  (void)session.step();
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i + 1; j <= 9; ++j) {
      EXPECT_EQ(session.current_pw(i, j, i, j), 0);
    }
  }
}

TEST(Stepping, EffectiveBandDefaultsToPaperChoice) {
  support::Rng rng(408);
  const auto p = dp::MatrixChainProblem::random(20, rng);
  const auto plan = SolvePlan::create(20);
  EXPECT_EQ(plan->effective_band(), support::two_ceil_sqrt(20));
  EXPECT_EQ(plan->iteration_bound(), support::two_ceil_sqrt(20));

  SublinearOptions custom;
  custom.band_width = 5;
  const auto custom_plan = SolvePlan::create(20, custom);
  EXPECT_EQ(custom_plan->effective_band(), 5u);
  SolveSession session(custom_plan);
  session.reset(p);
  EXPECT_EQ(session.current_w(0, 1), p.init(0));
}

TEST(Stepping, BandIsClampedToN) {
  support::Rng rng(409);
  const auto p = dp::MatrixChainProblem::random(4, rng);
  SublinearOptions options;
  options.band_width = 1000;
  SolveSession session(SolvePlan::create(4, options));
  EXPECT_EQ(session.plan().effective_band(), 4u);
  EXPECT_EQ(session.solve(p).cost, dp::solve_sequential(p).cost);
}

TEST(Stepping, MachineLedgerGrowsPerStep) {
  support::Rng rng(410);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  SublinearOptions options;
  options.machine.record_costs = true;
  SolveSession session(SolvePlan::create(10, options));
  session.reset(p);
  const auto before = session.machine().costs().step_count();
  (void)session.step();
  EXPECT_EQ(session.machine().costs().step_count(), before + 3);
}

TEST(Stepping, ResetRestoresStateBetweenInstances) {
  support::Rng rng(411);
  const auto a = dp::MatrixChainProblem::random(10, rng);
  const auto b = dp::MatrixChainProblem::random(10, rng);
  SolveSession session(SolvePlan::create(10));
  const auto ra = session.solve(a);
  const auto rb = session.solve(b);
  // Fresh ledger per solve and fresh state (independent results).
  EXPECT_EQ(rb.cost, dp::solve_sequential(b).cost);
  EXPECT_EQ(ra.cost, dp::solve_sequential(a).cost);
}

}  // namespace
}  // namespace subdp::core
