// Tests of the plan/session/batch architecture: prepare-once/solve-many
// bit-identity against one-shot solves, in-place session reuse, plan
// sharing across sessions, ledger resets between instances, and the
// grouping and aggregation of `solve_all` on a 1-worker SolverService.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/api.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::core {
namespace {

std::vector<dp::MatrixChainProblem> random_chains(std::size_t count,
                                                  std::size_t n,
                                                  std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<dp::MatrixChainProblem> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(dp::MatrixChainProblem::random(n, rng));
  }
  return out;
}

/// An independent one-shot solve: a fresh plan and session.
SublinearResult solve_fresh(const dp::Problem& p) {
  SolveSession session(SolvePlan::create(p.size()));
  return session.solve(p);
}

/// A 1-worker service: solves stream one at a time through the single
/// worker, each on the backend configured in `solver`.
serve::ServiceOptions one_worker(const SublinearOptions& solver = {}) {
  serve::ServiceOptions options;
  options.solver = solver;
  options.workers = 1;
  return options;
}

TEST(Plan, ValidatesOptionsPerShape) {
  EXPECT_EQ(SolvePlan::create(20)->iteration_bound(),
            support::two_ceil_sqrt(20));
  EXPECT_EQ(SolvePlan::create(20)->effective_band(),
            support::two_ceil_sqrt(20));

  SublinearOptions dense;
  dense.variant = PwVariant::kDense;
  EXPECT_THROW((void)SolvePlan::create(SolvePlan::kMaxDenseN + 1, dense),
               std::invalid_argument);

  SublinearOptions windowed;
  windowed.windowed_pebble = true;  // default termination is fixed-point
  EXPECT_THROW((void)SolvePlan::create(16, windowed),
               std::invalid_argument);

  SublinearOptions rytter;
  rytter.variant = PwVariant::kDense;
  rytter.square_mode = SquareMode::kRytterFull;
  EXPECT_EQ(SolvePlan::create(SolvePlan::kMaxRytterN, rytter)->n(),
            SolvePlan::kMaxRytterN);
  EXPECT_THROW((void)SolvePlan::create(SolvePlan::kMaxRytterN + 1, rytter),
               std::invalid_argument);

  SublinearOptions banded;
  banded.band_width = 5;
  EXPECT_EQ(SolvePlan::create(32, banded)->effective_band(), 5u);
}

TEST(Plan, SharedAcrossSessionsGivesIdenticalResults) {
  const std::size_t n = 18;
  const auto problems = random_chains(3, n, 501);
  auto plan = SolvePlan::create(n);
  SolveSession a(plan);
  SolveSession b(plan);  // same immutable plan, independent tables
  for (const auto& p : problems) {
    const auto ra = a.solve(p);
    const auto rb = b.solve(p);
    EXPECT_EQ(ra.cost, rb.cost);
    EXPECT_TRUE(ra.w == rb.w);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.cost, dp::solve_sequential(p).cost);
  }
}

TEST(Session, ReuseIsBitIdenticalToFreshSolves) {
  // One session solving several different problems in sequence must be
  // bit-identical to a fresh session per problem: the in-place reset may
  // not leak any state between instances.
  const std::size_t n = 24;
  const auto problems = random_chains(5, n, 502);
  SolveSession session(SolvePlan::create(n));
  for (const auto& p : problems) {
    const auto reused = session.solve(p);
    const auto oneshot = solve_fresh(p);
    EXPECT_EQ(reused.cost, oneshot.cost);
    EXPECT_TRUE(reused.w == oneshot.w);
    EXPECT_EQ(reused.iterations, oneshot.iterations);
    EXPECT_EQ(reused.trace.size(), oneshot.trace.size());
  }
}

TEST(Session, LedgerAndCellCountResetBetweenInstances) {
  const std::size_t n = 16;
  const auto problems = random_chains(2, n, 503);
  SublinearOptions counted;
  counted.machine.record_costs = true;
  SolveSession session(SolvePlan::create(n, counted));

  const auto r0 = session.solve(problems[0]);
  const std::size_t cells = session.pw_cell_count();
  const auto work0 = session.machine().costs().total_work();
  const auto steps0 = session.machine().costs().step_count();
  EXPECT_GT(cells, 0u);
  EXPECT_GT(work0, 0u);
  EXPECT_EQ(steps0, 3 * r0.iterations);

  // Same problem again: the ledger must restart from zero, not
  // accumulate, and the allocation is reused (same cell count).
  const auto r1 = session.solve(problems[0]);
  EXPECT_EQ(session.pw_cell_count(), cells);
  EXPECT_EQ(session.machine().costs().total_work(), work0);
  EXPECT_GT(session.machine().costs().total_work(), 0u);
  EXPECT_EQ(session.machine().costs().step_count(), 3 * r1.iterations);
  EXPECT_EQ(r1.cost, r0.cost);
  EXPECT_TRUE(r1.w == r0.w);

  // A different instance of the same shape also starts from a clean
  // ledger and the same allocation.
  (void)session.solve(problems[1]);
  EXPECT_EQ(session.pw_cell_count(), cells);
  EXPECT_EQ(session.pw_cell_count(), session.plan().pw_cell_count());
}

TEST(Session, ReuseMatchesAcrossEngineConfigurations) {
  // The in-place reset must be exact on both engine paths: the
  // instrumented oracle and the frontier-driven fast path.
  const std::size_t n = 14;
  const auto problems = random_chains(3, n, 504);
  for (const bool record_costs : {true, false}) {
    SublinearOptions options;
    options.machine.record_costs = record_costs;
    SolveSession session(SolvePlan::create(n, options));
    for (const auto& p : problems) {
      const auto reused = session.solve(p);
      SolveSession oneshot(SolvePlan::create(n, options));
      const auto fresh = oneshot.solve(p);
      EXPECT_EQ(reused.cost, fresh.cost);
      EXPECT_TRUE(reused.w == fresh.w);
      EXPECT_EQ(reused.iterations, fresh.iterations);
    }
  }
}

TEST(Batch, BitIdenticalToIndependentSolves) {
  // The acceptance bar: >= 8 same-n instances through solve_all must be
  // bit-identical (cost, iterations, full w table) to independent
  // core::solve calls.
  const std::size_t n = 32;
  const auto problems = random_chains(8, n, 507);
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : problems) pointers.push_back(&p);

  serve::SolverService service(one_worker());
  const auto out = service.solve_all(pointers);
  ASSERT_EQ(out.results.size(), problems.size());
  EXPECT_EQ(out.ledger.instances, problems.size());
  EXPECT_EQ(out.ledger.shape_groups, 1u);
  EXPECT_EQ(out.ledger.plans_built, 1u);
  EXPECT_EQ(out.ledger.plans_reused, 0u);
  EXPECT_EQ(service.stats().plan_cache.size, 1u);

  for (std::size_t k = 0; k < problems.size(); ++k) {
    const auto expected = solve_fresh(problems[k]);
    EXPECT_EQ(out.results[k].cost, expected.cost) << "instance " << k;
    EXPECT_TRUE(out.results[k].w == expected.w) << "instance " << k;
    EXPECT_EQ(out.results[k].iterations, expected.iterations)
        << "instance " << k;
    EXPECT_EQ(out.results[k].cost,
              dp::solve_sequential(problems[k]).cost);
  }
}

TEST(Batch, GroupsMixedShapesAndKeepsInputOrder) {
  support::Rng rng(508);
  std::vector<std::unique_ptr<dp::Problem>> owned;
  // Interleave three shapes so grouping has to reorder internally while
  // results stay in input order.
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t n : {10u, 17u, 23u}) {
      owned.push_back(std::make_unique<dp::MatrixChainProblem>(
          dp::MatrixChainProblem::random(n, rng)));
    }
  }
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : owned) pointers.push_back(p.get());

  serve::SolverService service(one_worker());
  const auto out = service.solve_all(pointers);
  ASSERT_EQ(out.results.size(), owned.size());
  EXPECT_EQ(out.ledger.shape_groups, 3u);
  EXPECT_EQ(out.ledger.plans_built, 3u);
  for (std::size_t k = 0; k < owned.size(); ++k) {
    EXPECT_EQ(out.results[k].cost, dp::solve_sequential(*owned[k]).cost)
        << "instance " << k;
  }

  // A second batch of known shapes is served entirely by warm plans.
  const auto again = service.solve_all(pointers);
  EXPECT_EQ(again.ledger.plans_built, 0u);
  EXPECT_EQ(again.ledger.plans_reused, 3u);
  EXPECT_EQ(service.stats().plan_cache.size, 3u);
  EXPECT_NE(service.plan_for(10), nullptr);
  EXPECT_EQ(service.plan_for(11), nullptr);
  for (std::size_t k = 0; k < owned.size(); ++k) {
    EXPECT_EQ(again.results[k].cost, out.results[k].cost);
    EXPECT_TRUE(again.results[k].w == out.results[k].w);
  }
}

TEST(Batch, AggregatesTheLedger) {
  const std::size_t n = 12;
  const auto problems = random_chains(4, n, 509);
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : problems) pointers.push_back(&p);

  SublinearOptions counted;  // the ledger is off by default
  counted.machine.record_costs = true;
  serve::SolverService service(one_worker(counted));
  const auto out = service.solve_all(pointers);

  std::uint64_t expected_work = 0;
  std::size_t expected_iterations = 0;
  for (const auto& p : problems) {
    SolveSession session(SolvePlan::create(n, counted));
    const auto r = session.solve(p);
    expected_work += session.machine().costs().total_work();
    expected_iterations += r.iterations;
  }
  EXPECT_EQ(out.ledger.total_work, expected_work);
  EXPECT_GT(out.ledger.total_work, 0u);
  EXPECT_EQ(out.ledger.total_iterations, expected_iterations);
  EXPECT_GT(out.ledger.total_depth, 0u);
}

TEST(Batch, HandlesTrivialAndEmptyInputs) {
  serve::SolverService service(one_worker());
  EXPECT_EQ(service.solve_all({}).results.size(), 0u);

  const dp::MatrixChainProblem one({4, 5});
  const dp::MatrixChainProblem also_one({7, 9});
  std::vector<const dp::Problem*> pointers = {&one, &also_one};
  const auto out = service.solve_all(pointers);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_EQ(out.results[0].cost, 0);
  EXPECT_EQ(out.results[1].cost, 0);
  EXPECT_EQ(out.ledger.plans_built, 1u);  // one shared n == 1 plan

  const dp::Problem* null_problem = nullptr;
  std::vector<const dp::Problem*> bad = {&one, null_problem};
  EXPECT_THROW((void)service.solve_all(bad), std::invalid_argument);
}

TEST(Batch, ContractUnchangedUnderTheAdmissionIntakePath) {
  // The serving layer grew admission control (bounded queue, kReject
  // shedding, per-job deadlines), but grouped batch jobs bypass it by
  // construction: no deadline is ever armed for them and a full queue
  // back-pressures the caller instead of rejecting. The ledger and
  // bit-identity contract of a default 1-worker service must therefore
  // hold byte-for-byte against a service configured to shed
  // aggressively.
  const std::size_t n = 21;
  const auto problems = random_chains(6, n, 511);
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : problems) pointers.push_back(&p);

  serve::SolverService plain(one_worker());  // unbounded queue
  const auto calm = plain.solve_all(pointers);

  serve::ServiceOptions hostile;
  hostile.workers = 2;
  hostile.queue_capacity = 1;  // every enqueue collides with capacity
  hostile.overload_policy = serve::OverloadPolicy::kReject;
  serve::SolverService service(hostile);
  const auto shed = service.solve_all(pointers);

  ASSERT_EQ(calm.results.size(), pointers.size());
  ASSERT_EQ(shed.results.size(), pointers.size());
  for (std::size_t k = 0; k < pointers.size(); ++k) {
    const auto expected = solve_fresh(problems[k]);
    EXPECT_EQ(calm.results[k].cost, expected.cost) << "instance " << k;
    EXPECT_TRUE(calm.results[k].w == expected.w) << "instance " << k;
    EXPECT_EQ(calm.results[k].iterations, expected.iterations)
        << "instance " << k;
    EXPECT_EQ(shed.results[k].cost, expected.cost) << "instance " << k;
    EXPECT_TRUE(shed.results[k].w == expected.w) << "instance " << k;
  }
  EXPECT_EQ(calm.ledger.instances, shed.ledger.instances);
  EXPECT_EQ(calm.ledger.shape_groups, shed.ledger.shape_groups);
  EXPECT_EQ(calm.ledger.plans_built, shed.ledger.plans_built);
  EXPECT_EQ(calm.ledger.total_iterations, shed.ledger.total_iterations);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 0u) << "batch jobs must never be shed";
  EXPECT_EQ(stats.jobs_expired, 0u) << "batch jobs carry no deadline";
}

TEST(Batch, RespectsConfiguredOptions) {
  support::Rng rng(510);
  const auto p = dp::OptimalBstProblem::random(13, rng);
  SublinearOptions options;
  options.variant = PwVariant::kDense;
  options.termination = TerminationMode::kFixedBound;
  options.machine.backend = pram::Backend::kThreadPool;
  serve::SolverService service(one_worker(options));
  std::vector<const dp::Problem*> pointers = {&p};
  const auto out = service.solve_all(pointers);
  EXPECT_EQ(out.results[0].cost, dp::solve_sequential(p).cost);
  EXPECT_EQ(out.results[0].iterations,
            support::two_ceil_sqrt(p.size()));
  const auto plan = service.plan_for(p.size());
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->options().variant, PwVariant::kDense);
  // The service keeps the caller's backend.
  EXPECT_EQ(plan->options().machine.backend, pram::Backend::kThreadPool);
}

}  // namespace
}  // namespace subdp::core
