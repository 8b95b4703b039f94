// Unit tests for the fork-join pool (pram/thread_pool.hpp), including
// the issuer lock that lets several threads solve on the shared pool at
// once.

#include "pram/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"

namespace subdp::pram {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NonZeroBeginRespected) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, 200, 13, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) {
    calls.fetch_add(1);
  });
  pool.parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, AutomaticGrainStillCovers) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(0, 12345, 0, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 12345);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> count{0};
    pool.parallel_for(0, 100, 3, [&](std::int64_t lo, std::int64_t hi) {
      count.fetch_add(hi - lo);
    });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ThreadPool, BodyExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::int64_t sum = 0;  // no atomics needed: single thread
  pool.parallel_for(0, 100, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().parallelism(), 1u);
}

TEST(ThreadPool, ConcurrentIssuersOnTheSharedPoolStayBitIdentical) {
  // Four caller threads solve on the threads backend while a 1-worker
  // service (which keeps that backend) solves the same instances: every
  // one of them issues loops on `shared()` at once. Each result must be
  // bit-identical to a serial solve.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 3;
  support::Rng rng(4242);
  std::vector<dp::MatrixChainProblem> problems;
  std::vector<core::SublinearResult> expected;
  for (std::size_t k = 0; k < kCallers; ++k) {
    problems.push_back(dp::MatrixChainProblem::random(20 + 2 * k, rng));
    core::SublinearOptions serial;
    serial.machine.backend = Backend::kSerial;
    core::SolveSession session(core::SolvePlan::create(20 + 2 * k, serial));
    expected.push_back(session.solve(problems.back()));
  }

  core::SublinearOptions threaded;
  threaded.machine.backend = Backend::kThreadPool;
  threaded.machine.record_costs = false;
  serve::ServiceOptions service_options;
  service_options.workers = 1;
  service_options.solver = threaded;
  serve::SolverService service(service_options);

  std::vector<std::future<core::SublinearResult>> served;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (const auto& p : problems) served.push_back(service.submit(p));
  }
  std::vector<std::vector<core::SublinearResult>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < kCallers; ++k) {
    callers.emplace_back([&, k] {
      // Alternate the fast path and the instrumented oracle: both issue
      // their loops on the shared pool.
      core::SublinearOptions options = threaded;
      options.machine.record_costs = k % 2 == 1;
      core::SolveSession session(
          core::SolvePlan::create(problems[k].size(), options));
      for (std::size_t round = 0; round < kRounds; ++round) {
        got[k].push_back(session.solve(problems[k]));
      }
    });
  }
  for (auto& t : callers) t.join();

  const auto expect_identical = [](const core::SublinearResult& a,
                                   const core::SublinearResult& b,
                                   const std::string& label) {
    EXPECT_EQ(a.cost, b.cost) << label;
    EXPECT_EQ(a.iterations, b.iterations) << label;
    EXPECT_TRUE(a.w == b.w) << label << ": w tables differ";
  };
  for (std::size_t k = 0; k < kCallers; ++k) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      expect_identical(got[k][round], expected[k],
                       "caller " + std::to_string(k));
    }
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    expect_identical(served[i].get(), expected[i % kCallers],
                     "served " + std::to_string(i));
  }
}

}  // namespace
}  // namespace subdp::pram
