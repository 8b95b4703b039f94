// Unit tests of the serving building blocks: SessionPool (lazy growth to
// a cap, RAII lease return, reuse accounting, blocking at the cap) and
// PlanCache (hit/miss/eviction stats, LRU order, (n, options) keying,
// eviction safety with in-flight pools).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "serve/plan_cache.hpp"
#include "serve/session_pool.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::serve {
namespace {

dp::MatrixChainProblem chain(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return dp::MatrixChainProblem::random(n, rng);
}

TEST(SessionPool, GrowsLazilyAndReusesReturnedSessions) {
  auto pool = std::make_shared<SessionPool>(core::SolvePlan::create(12), 3);
  EXPECT_EQ(pool->stats().sessions_created, 0u);  // nothing until acquire

  {
    SessionPool::Lease a = pool->acquire();
    EXPECT_TRUE(a.fresh());
    SessionPool::Lease b = pool->acquire();
    EXPECT_TRUE(b.fresh());
    const auto stats = pool->stats();
    EXPECT_EQ(stats.sessions_created, 2u);
    EXPECT_EQ(stats.in_use, 2u);
    EXPECT_EQ(stats.peak_in_use, 2u);
  }  // both leases return

  EXPECT_EQ(pool->stats().in_use, 0u);
  SessionPool::Lease c = pool->acquire();
  EXPECT_FALSE(c.fresh());  // warm session, not a third construction
  const auto stats = pool->stats();
  EXPECT_EQ(stats.sessions_created, 2u);
  EXPECT_EQ(stats.checkouts, 3u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(SessionPool, LeasedSessionsSolveCorrectly) {
  const auto problem = chain(12, 41);
  auto pool = std::make_shared<SessionPool>(core::SolvePlan::create(12), 2);
  SessionPool::Lease lease = pool->acquire();
  const auto result = lease->solve(problem);
  EXPECT_EQ(result.cost, dp::solve_sequential(problem).cost);
  // Same session via the pool again: in-place reuse, same answer.
  lease.release();
  SessionPool::Lease again = pool->acquire();
  EXPECT_FALSE(again.fresh());
  EXPECT_EQ(again->solve(problem).cost, result.cost);
}

TEST(SessionPool, BlocksAtTheCapUntilALeaseReturns) {
  auto pool = std::make_shared<SessionPool>(core::SolvePlan::create(8), 1);
  auto held = std::make_unique<SessionPool::Lease>(pool->acquire());

  std::promise<void> acquired;
  std::thread waiter([&] {
    SessionPool::Lease lease = pool->acquire();  // must block: cap is 1
    acquired.set_value();
  });
  auto future = acquired.get_future();
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  held.reset();  // return the only session
  future.wait();
  waiter.join();
  const auto stats = pool->stats();
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.checkouts, 2u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(PlanCache, CountsHitsAndMisses) {
  PlanCache cache(4, 1);
  core::SublinearOptions options;
  bool built = false;
  const auto first = cache.acquire(10, options, &built);
  EXPECT_TRUE(built);
  const auto second = cache.acquire(10, options, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(first, second) << "same key must share one pool";

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtTheBound) {
  PlanCache cache(2, 1);
  core::SublinearOptions options;
  (void)cache.acquire(10, options);
  (void)cache.acquire(12, options);
  (void)cache.acquire(10, options);  // hit: 10 becomes most recent
  (void)cache.acquire(14, options);  // evicts 12, the LRU entry

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_NE(cache.peek(10, options), nullptr);
  EXPECT_EQ(cache.peek(12, options), nullptr);
  EXPECT_NE(cache.peek(14, options), nullptr);

  // The evicted shape is a fresh miss (and evicts again).
  bool built = false;
  (void)cache.acquire(12, options, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCache, PeekRecordsNoStatsAndKeepsLruOrder) {
  PlanCache cache(2, 1);
  core::SublinearOptions options;
  (void)cache.acquire(10, options);
  (void)cache.acquire(12, options);
  const auto before = cache.stats();
  (void)cache.peek(10, options);  // no hit recorded, no LRU bump
  (void)cache.peek(99, options);  // no miss recorded either
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  // 10 was NOT bumped by the peek, so it is still the LRU victim.
  (void)cache.acquire(14, options);
  EXPECT_EQ(cache.peek(10, options), nullptr);
  EXPECT_NE(cache.peek(12, options), nullptr);
}

TEST(PlanCache, KeysOnOptionsNotJustN) {
  PlanCache cache(8, 1);
  core::SublinearOptions banded;
  core::SublinearOptions narrow = banded;
  narrow.band_width = 3;
  const auto a = cache.acquire(16, banded);
  const auto b = cache.acquire(16, narrow);
  EXPECT_NE(a, b) << "different options must not share a plan";
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(a->plan().effective_band(), support::two_ceil_sqrt(16));
  EXPECT_EQ(b->plan().effective_band(), 3u);
}

TEST(PlanCache, KeysOnTheEffectiveBandNotTheRequestedWidth) {
  // A dense plan ignores band_width and a banded one clamps it to [1, n]:
  // requests that build the same plan must share one entry.
  PlanCache cache(8, 1);
  core::SublinearOptions dense;
  dense.variant = core::PwVariant::kDense;
  core::SublinearOptions dense_four = dense;
  dense_four.band_width = 4;
  bool built = false;
  const auto a = cache.acquire(18, dense, &built);
  EXPECT_TRUE(built);
  const auto b = cache.acquire(18, dense_four, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(a->plan().effective_band(), 18u);

  core::SublinearOptions wide;
  wide.band_width = 18;
  core::SublinearOptions wider = wide;
  wider.band_width = 40;  // clamps to n = 18
  const auto c = cache.acquire(18, wide);
  const auto d = cache.acquire(18, wider, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(c, d);
  EXPECT_NE(a, c) << "the variants still key apart";
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCache, EvictedPoolStaysAliveWhileLeased) {
  PlanCache cache(1, 1);
  core::SublinearOptions options;
  std::shared_ptr<SessionPool> pool = cache.acquire(10, options);
  SessionPool::Lease lease = pool->acquire();
  (void)cache.acquire(12, options);  // evicts shape 10 from the cache
  EXPECT_EQ(cache.peek(10, options), nullptr);

  // The detached pool (and its plan) must still serve the in-flight
  // lease correctly.
  const auto problem = chain(10, 42);
  EXPECT_EQ(lease->solve(problem).cost, dp::solve_sequential(problem).cost);
}

TEST(PlanCache, PooledSessionStatsAggregateAcrossShapes) {
  PlanCache cache(4, 2);
  core::SublinearOptions options;
  auto a = cache.acquire(10, options);
  auto b = cache.acquire(12, options);
  { const auto lease = a->acquire(); }
  { const auto lease_one = b->acquire(); }
  { const auto lease_two = b->acquire(); }
  const SessionPoolStats sum = cache.pooled_session_stats();
  EXPECT_EQ(sum.capacity, 4u);  // two pools of two
  EXPECT_EQ(sum.checkouts, 3u);
  EXPECT_EQ(sum.in_use, 0u);
}

}  // namespace
}  // namespace subdp::serve
