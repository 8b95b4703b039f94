// Tests of the concurrent serving front door: SolverService bit-identity
// against independent solves across worker counts and submission orders,
// async submission futures, the solve_all ledger contract, LRU plan
// eviction under load, per-call option keying, and a multi-threaded
// stress run (the tsan preset's main subject) hammering one service with
// mixed shapes from many caller threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "pram/backend.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"

namespace subdp::serve {
namespace {

/// A mixed-shape instance set plus its independently solved expectations.
struct Workload {
  std::vector<std::unique_ptr<dp::Problem>> owned;
  std::vector<const dp::Problem*> pointers;
  std::vector<core::SublinearResult> expected;
};

Workload make_workload(const std::vector<std::size_t>& shapes,
                       std::size_t per_shape, std::uint64_t seed,
                       const core::SublinearOptions& options = {}) {
  Workload out;
  support::Rng rng(seed);
  for (std::size_t rep = 0; rep < per_shape; ++rep) {
    for (const std::size_t n : shapes) {
      out.owned.push_back(std::make_unique<dp::MatrixChainProblem>(
          dp::MatrixChainProblem::random(n, rng)));
    }
  }
  for (const auto& p : out.owned) out.pointers.push_back(p.get());
  for (const auto& p : out.owned) {
    core::SolveSession session(core::SolvePlan::create(p->size(), options));
    out.expected.push_back(session.solve(*p));
  }
  return out;
}

void expect_identical(const core::SublinearResult& got,
                      const core::SublinearResult& want, std::size_t k) {
  EXPECT_EQ(got.cost, want.cost) << "instance " << k;
  EXPECT_EQ(got.iterations, want.iterations) << "instance " << k;
  EXPECT_TRUE(got.w == want.w) << "instance " << k;
}

TEST(Service, SolveAllBitIdenticalAcrossWorkerCounts) {
  const auto load = make_workload({9, 14, 21}, 3, 601);
  std::vector<std::size_t> worker_counts = {
      1, 4, static_cast<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency()))};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());
  for (const std::size_t workers : worker_counts) {
    ServiceOptions options;
    options.workers = workers;
    SolverService service(options);
    const auto out = service.solve_all(load.pointers);
    ASSERT_EQ(out.results.size(), load.pointers.size());
    EXPECT_EQ(out.ledger.instances, load.pointers.size());
    EXPECT_EQ(out.ledger.shape_groups, 3u);
    EXPECT_EQ(out.ledger.plans_built, 3u);
    for (std::size_t k = 0; k < load.pointers.size(); ++k) {
      expect_identical(out.results[k], load.expected[k], k);
    }
    EXPECT_EQ(service.workers(), workers);
  }
}

TEST(Service, SubmitFuturesMatchIndependentSolvesShuffled) {
  const auto load = make_workload({8, 13, 17}, 4, 602);
  ServiceOptions options;
  options.workers = 4;
  SolverService service(options);

  // Submit in a shuffled order; results must not notice.
  std::vector<std::size_t> order(load.pointers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  support::Rng rng(603);
  rng.shuffle(order);
  std::vector<std::future<core::SublinearResult>> futures(
      load.pointers.size());
  for (const std::size_t k : order) {
    futures[k] = service.submit(*load.pointers[k]);
  }
  for (std::size_t k = 0; k < futures.size(); ++k) {
    expect_identical(futures[k].get(), load.expected[k], k);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, load.pointers.size());
  EXPECT_EQ(stats.jobs_completed, load.pointers.size());
  EXPECT_EQ(stats.plan_cache.size, 3u);
  EXPECT_EQ(stats.plan_cache.misses, 3u);
}

TEST(Service, MultiWorkerMatchesOneWorkerLedgerAndResults) {
  // A 1-worker service runs one solve at a time, so each solve's loops
  // reach the shared pool's workers; a 3-worker one overlaps instances,
  // whose loops then run inline on their workers. Both keep the
  // caller's backend, and both must produce the same results and the
  // same ledger.
  core::SublinearOptions counted;  // the ledger is off by default
  counted.machine.record_costs = true;
  const auto load = make_workload({10, 15}, 3, 604, counted);
  ServiceOptions one_worker;
  one_worker.workers = 1;
  one_worker.solver = counted;
  SolverService single(one_worker);
  const auto single_out = single.solve_all(load.pointers);

  ServiceOptions options;
  options.workers = 3;
  options.solver = counted;
  SolverService service(options);
  const auto service_out = service.solve_all(load.pointers);

  ASSERT_EQ(service_out.results.size(), single_out.results.size());
  for (std::size_t k = 0; k < single_out.results.size(); ++k) {
    expect_identical(service_out.results[k], single_out.results[k], k);
  }
  EXPECT_EQ(service_out.ledger.instances, single_out.ledger.instances);
  EXPECT_EQ(service_out.ledger.shape_groups,
            single_out.ledger.shape_groups);
  EXPECT_EQ(service_out.ledger.plans_built, single_out.ledger.plans_built);
  EXPECT_EQ(service_out.ledger.total_iterations,
            single_out.ledger.total_iterations);
  // The summed PRAM ledger is worker-count independent (accounting is
  // backend-independent by construction).
  EXPECT_EQ(service_out.ledger.total_work, single_out.ledger.total_work);
  EXPECT_GT(single_out.ledger.total_work, 0u);
  EXPECT_EQ(service_out.ledger.total_depth, single_out.ledger.total_depth);
  EXPECT_GT(single_out.ledger.total_depth, 0u);

  // A second call is served entirely warm.
  const auto again = service.solve_all(load.pointers);
  EXPECT_EQ(again.ledger.plans_built, 0u);
  EXPECT_EQ(again.ledger.plans_reused, 2u);

  // A job with default options keeps no ledger; one that asks for it
  // reports exactly the counted session's.
  const dp::Problem& problem = *load.pointers.front();
  ServiceOptions plain;
  plain.workers = 1;
  SolverService defaults(plain);
  (void)defaults.submit(problem).get();
  EXPECT_EQ(defaults.stats().total_work, 0u);
  EXPECT_EQ(defaults.stats().total_depth, 0u);
  core::SolveSession session(
      core::SolvePlan::create(problem.size(), counted));
  (void)session.solve(problem);
  (void)defaults.submit(problem, counted).get();
  EXPECT_EQ(defaults.stats().total_work,
            session.machine().costs().total_work());
  EXPECT_EQ(defaults.stats().total_depth,
            session.machine().costs().total_depth());
  EXPECT_GT(defaults.stats().total_work, 0u);
}

TEST(Service, MultiWorkerServiceKeepsTheCallersBackend) {
  // Warm on the threads backend through four workers: the plan keeps
  // that backend, and no serial plan stands in for it.
  core::SublinearOptions threads_opts;
  threads_opts.machine.backend = pram::Backend::kThreadPool;
  core::SublinearOptions serial_opts = threads_opts;
  serial_opts.machine.backend = pram::Backend::kSerial;
  const auto load = make_workload({16}, 4, 610, threads_opts);
  ServiceOptions options;
  options.workers = 4;
  options.solver = threads_opts;
  SolverService service(options);
  const auto out = service.solve_all(load.pointers);
  for (std::size_t k = 0; k < load.pointers.size(); ++k) {
    expect_identical(out.results[k], load.expected[k], k);
  }
  const auto plan = service.plan_for(16, threads_opts);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->options().machine.backend, pram::Backend::kThreadPool);
  EXPECT_EQ(service.plan_for(16, serial_opts), nullptr)
      << "a serial request must not share the threads-backend plan";
}

TEST(Service, StressManyCallerThreadsMixedShapes) {
  // The tsan preset's main subject: one service, many caller threads,
  // mixed shapes, both submission surfaces, while asserting bit-identity
  // and pool/cache accounting afterwards.
  const std::vector<std::size_t> shapes = {6, 9, 12, 15};
  const auto load = make_workload(shapes, 4, 605);  // 16 instances

  ServiceOptions options;
  options.workers = 4;
  SolverService service(options);

  constexpr std::size_t kCallerThreads = 6;
  constexpr std::size_t kRoundsPerThread = 3;
  std::vector<std::vector<std::string>> failures(kCallerThreads);
  std::vector<std::thread> callers;
  callers.reserve(kCallerThreads);
  for (std::size_t t = 0; t < kCallerThreads; ++t) {
    callers.emplace_back([&, t] {
      support::Rng rng(700 + t);
      for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
        if ((t + round) % 2 == 0) {
          // Blocking surface: the whole set at once, shuffled.
          std::vector<const dp::Problem*> mine = load.pointers;
          std::vector<std::size_t> order(mine.size());
          std::iota(order.begin(), order.end(), std::size_t{0});
          rng.shuffle(order);
          std::vector<const dp::Problem*> shuffled;
          for (const std::size_t k : order) shuffled.push_back(mine[k]);
          const auto out = service.solve_all(shuffled);
          for (std::size_t j = 0; j < order.size(); ++j) {
            const auto& want = load.expected[order[j]];
            if (!(out.results[j].cost == want.cost &&
                  out.results[j].iterations == want.iterations &&
                  out.results[j].w == want.w)) {
              failures[t].push_back("solve_all mismatch");
            }
          }
        } else {
          // Async surface: one future per instance, shuffled order.
          std::vector<std::size_t> order(load.pointers.size());
          std::iota(order.begin(), order.end(), std::size_t{0});
          rng.shuffle(order);
          std::vector<std::future<core::SublinearResult>> futures(
              load.pointers.size());
          for (const std::size_t k : order) {
            futures[k] = service.submit(*load.pointers[k]);
          }
          for (std::size_t k = 0; k < futures.size(); ++k) {
            const auto got = futures[k].get();
            const auto& want = load.expected[k];
            if (!(got.cost == want.cost &&
                  got.iterations == want.iterations && got.w == want.w)) {
              failures[t].push_back("submit mismatch");
            }
          }
        }
      }
    });
  }
  for (auto& thread : callers) thread.join();
  for (std::size_t t = 0; t < kCallerThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "caller " << t << ": " << failures[t].size() << " mismatches, "
        << "first: " << failures[t].front();
  }

  const auto stats = service.stats();
  const std::uint64_t total_jobs =
      kCallerThreads * kRoundsPerThread * load.pointers.size();
  EXPECT_EQ(stats.jobs_submitted, total_jobs);
  EXPECT_EQ(stats.jobs_completed, total_jobs);
  // Every shape was built exactly once; everything else hit warm plans.
  EXPECT_EQ(stats.plan_cache.size, shapes.size());
  EXPECT_EQ(stats.plan_cache.misses, shapes.size());
  EXPECT_EQ(stats.plan_cache.evictions, 0u);
  EXPECT_GT(stats.plan_cache.hits, 0u);
  // Pool growth is bounded by the real concurrency (workers per plan)
  // and the traffic is dominated by in-place session reuse.
  EXPECT_LE(stats.sessions_created,
            static_cast<std::uint64_t>(options.workers) * shapes.size());
  EXPECT_GT(stats.session_reuses, stats.sessions_created);
  EXPECT_EQ(stats.sessions_created + stats.session_reuses, total_jobs);
}

TEST(Service, EvictsPlansAtTheBoundAndStillServes) {
  ServiceOptions options;
  options.workers = 2;
  options.plan_capacity = 2;
  SolverService service(options);

  const auto load = make_workload({8, 11, 14}, 2, 606);  // 3 shapes
  const auto out = service.solve_all(load.pointers);
  for (std::size_t k = 0; k < load.pointers.size(); ++k) {
    expect_identical(out.results[k], load.expected[k], k);
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.plan_cache.capacity, 2u);
  EXPECT_EQ(stats.plan_cache.size, 2u);
  EXPECT_GE(stats.plan_cache.evictions, 1u);

  // An evicted shape rebuilds on demand and still solves correctly.
  const std::uint64_t misses_before = stats.plan_cache.misses;
  support::Rng rng(607);
  const auto fresh = dp::MatrixChainProblem::random(8, rng);
  const auto result = service.submit(fresh).get();
  EXPECT_EQ(result.cost, dp::solve_sequential(fresh).cost);
  stats = service.stats();
  EXPECT_GE(stats.plan_cache.misses, misses_before);
  EXPECT_EQ(stats.plan_cache.size, 2u);
}

TEST(Service, PerCallOptionsKeyTheCacheSeparately) {
  support::Rng rng(608);
  const auto problem = dp::MatrixChainProblem::random(18, rng);

  ServiceOptions service_options;
  service_options.workers = 2;
  SolverService service(service_options);

  core::SublinearOptions dense;
  dense.variant = core::PwVariant::kDense;
  const auto banded_result = service.submit(problem).get();
  const auto dense_result = service.submit(problem, dense).get();
  EXPECT_EQ(banded_result.cost, dense_result.cost);
  EXPECT_EQ(banded_result.cost, dp::solve_sequential(problem).cost);

  const auto stats = service.stats();
  EXPECT_EQ(stats.plan_cache.size, 2u)
      << "same n under different options must occupy two cache entries";
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_NE(service.plan_for(18), nullptr);
  EXPECT_NE(service.plan_for(18, dense), nullptr);
  EXPECT_EQ(service.plan_for(18, dense)->options().variant,
            core::PwVariant::kDense);
}

TEST(Service, SubmitSurfacesPlanValidationThroughTheFuture) {
  SolverService service;
  support::Rng rng(609);
  const auto problem = dp::MatrixChainProblem::random(
      core::SolvePlan::kMaxDenseN + 1, rng);
  core::SublinearOptions dense;
  dense.variant = core::PwVariant::kDense;  // too large for dense
  auto future = service.submit(problem, dense);
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  // Rytter squaring is capped at n <= 24 by the plan, whatever the door.
  const auto mid = dp::MatrixChainProblem::random(
      core::SolvePlan::kMaxRytterN + 1, rng);
  core::SublinearOptions rytter = dense;
  rytter.square_mode = core::SquareMode::kRytterFull;
  auto rytter_future = service.submit(mid, rytter);
  EXPECT_THROW((void)rytter_future.get(), std::invalid_argument);
  // The service stays healthy after a failed job.
  const auto small = dp::MatrixChainProblem::random(10, rng);
  EXPECT_EQ(service.submit(small).get().cost,
            dp::solve_sequential(small).cost);
}

TEST(Service, OptimalBstInstancesServeConcurrently) {
  // A second problem family through the same service, to make sure
  // nothing in the dispatch path is matrix-chain specific.
  std::vector<std::unique_ptr<dp::Problem>> owned;
  support::Rng rng(610);
  for (int k = 0; k < 6; ++k) {
    owned.push_back(std::make_unique<dp::OptimalBstProblem>(
        dp::OptimalBstProblem::random(11, rng)));
  }
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : owned) pointers.push_back(p.get());

  ServiceOptions options;
  options.workers = 3;
  SolverService service(options);
  const auto out = service.solve_all(pointers);
  for (std::size_t k = 0; k < pointers.size(); ++k) {
    EXPECT_EQ(out.results[k].cost, dp::solve_sequential(*pointers[k]).cost)
        << "instance " << k;
  }
}

}  // namespace
}  // namespace subdp::serve
