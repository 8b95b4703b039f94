// Unit tests for the fork-join pool (pram/thread_pool.hpp), including
// the issuer gate: a loop reaches the workers only for a lone solve on a
// free pool, and runs inline on its caller otherwise.

#include "pram/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
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

/// Generous: a gate that holds this long has failed, and the waiting
/// test reports it instead of hanging.
constexpr std::chrono::seconds kGateTimeout{10};

/// A one-shot countdown whose wait gives up after a timeout.
class TimedLatch {
 public:
  explicit TimedLatch(int count) : count_(count) {}

  void count_down() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--count_ == 0) done_.notify_all();
  }

  /// True once the count reached zero; false after `kGateTimeout`.
  [[nodiscard]] bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return done_.wait_for(lock, kGateTimeout, [&] { return count_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  int count_;
};

/// The `(begin, end)` of every chunk a loop ran, with the thread that ran
/// it.
struct ChunkLog {
  struct Chunk {
    std::int64_t begin;
    std::int64_t end;
    std::thread::id thread;
  };
  std::mutex mutex;
  std::vector<Chunk> chunks;

  void add(std::int64_t lo, std::int64_t hi) {
    const std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({lo, hi, std::this_thread::get_id()});
  }
};

/// A loop over `[0, n)` at grain 1 ran inline: one chunk, the whole
/// range, on the calling thread (the pool would have split it).
void expect_ran_inline(const ChunkLog& log, std::int64_t n) {
  ASSERT_EQ(log.chunks.size(), 1u);
  EXPECT_EQ(log.chunks[0].begin, 0);
  EXPECT_EQ(log.chunks[0].end, n);
  EXPECT_EQ(log.chunks[0].thread, std::this_thread::get_id());
}

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

TEST(ThreadPool, LoopIssuedWhileAnotherHoldsThePoolRunsInlineAndReturns) {
  // A holder thread's loop parks every chunk it runs on `release`. A loop
  // issued meanwhile must not wait for the pool: it runs on its own
  // thread and returns while the holder's loop is still blocked.
  ThreadPool pool(4);
  TimedLatch holding(1);
  TimedLatch release(1);
  std::atomic<bool> released_in_time{true};
  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t) {
      if (lo == 0) holding.count_down();
      if (!release.wait()) released_in_time.store(false);
    });
    holder_done.store(true);
  });
  const bool started = holding.wait();
  ChunkLog log;
  if (started) {
    pool.parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
      log.add(lo, hi);
    });
  }
  const bool waited_for_holder = holder_done.load();
  release.count_down();
  holder.join();
  ASSERT_TRUE(started) << "the holder's loop never started";
  EXPECT_FALSE(waited_for_holder) << "the loop waited for the holder's";
  expect_ran_inline(log, 64);
  EXPECT_TRUE(released_in_time.load());
}

TEST(ThreadPool, LoopIssuedWhileAnotherSolveIsInFlightRunsInline) {
  // The caller's own solve plus a second one: the loop stays on the
  // caller although the pool is free.
  ThreadPool pool(4);
  const SolveGuard mine;
  const SolveGuard other;
  EXPECT_GE(SolveGuard::in_flight(), 2u);
  ChunkLog log;
  pool.parallel_for(0, 64, 1,
                    [&](std::int64_t lo, std::int64_t hi) { log.add(lo, hi); });
  expect_ran_inline(log, 64);
}

TEST(ThreadPool, LoneSolveSpreadsItsLoopOverTheWorkers) {
  // Each of two chunks waits until both have started, which only a
  // worker running the second chunk beside the caller can satisfy (an
  // inline run is one chunk, whose wait times out).
  ThreadPool pool(2);
  const SolveGuard mine;
  TimedLatch both_started(2);
  std::atomic<int> met{0};
  ChunkLog log;
  pool.parallel_for(0, 2, 1, [&](std::int64_t lo, std::int64_t hi) {
    log.add(lo, hi);
    both_started.count_down();
    if (both_started.wait()) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
  ASSERT_EQ(log.chunks.size(), 2u);
  EXPECT_NE(log.chunks[0].thread, log.chunks[1].thread);
}

TEST(ThreadPool, ConcurrentIssuersOnTheSharedPoolStayBitIdentical) {
  // Four caller threads solve on the threads backend while a 1-worker
  // service solves the same instances: every one of them issues loops on
  // `shared()` at once, some on the workers and the rest inline. Each
  // result must be bit-identical to a serial solve.
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
