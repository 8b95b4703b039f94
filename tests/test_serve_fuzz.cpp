// Seeded randomized differential stress for the SolverService admission
// path: many caller threads submit shuffled mixes of shapes, option
// sets, priority classes and deadlines against a deliberately hostile
// service configuration — small bounded queue, tiny plan cache
// (constant eviction and cold rebuild churn through the builder pool,
// exercised with 1 and 2 builders), both overload policies — and the
// harness checks the two contracts that must survive any overload:
//
//  1. differential bit-identity: every job that completes returns
//     exactly what an independent `core::solve` under the same options
//     returns (cost, iteration count, full w table);
//  2. exact accounting: every submission is resolved exactly once —
//     completed + rejected + expired == submitted — both in the
//     caller-side tallies and in `ServiceStats`, and the two agree
//     counter by counter, globally AND per priority class (the class
//     slices must also partition the global ledger, and each class's
//     e2e histogram must see exactly its completed jobs).
//
// All randomness flows from the test's seeds (support::Rng), so a
// failure reproduces from the seed; which jobs get rejected under
// kReject depends on scheduling, but the asserted invariants hold for
// every interleaving. Smoke-labelled; runs under the TSan preset.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"
#include "tests/serve_tsan_suppression.hpp"

namespace subdp::serve {
namespace {

using core::AdmissionError;

/// One solver configuration the fuzz mix draws from. Distinct option
/// sets key distinct plans, so mixing them also churns the tiny cache.
std::vector<core::SublinearOptions> option_sets() {
  std::vector<core::SublinearOptions> out;
  out.emplace_back();  // banded HLV defaults
  core::SublinearOptions dense;
  dense.variant = core::PwVariant::kDense;
  out.push_back(dense);
  core::SublinearOptions rytter;
  rytter.square_mode = core::SquareMode::kRytterFull;
  out.push_back(rytter);
  return out;
}

/// The instances plus the full differential expectation matrix
/// `expected[opt][shape]`, solved independently of any service.
struct FuzzWorkload {
  std::vector<std::unique_ptr<dp::MatrixChainProblem>> problems;
  std::vector<core::SublinearOptions> options;
  std::vector<std::vector<core::SublinearResult>> expected;
};

FuzzWorkload make_workload(const std::vector<std::size_t>& shapes,
                           std::uint64_t seed) {
  FuzzWorkload out;
  out.options = option_sets();
  support::Rng rng(seed);
  for (const std::size_t n : shapes) {
    out.problems.push_back(std::make_unique<dp::MatrixChainProblem>(
        dp::MatrixChainProblem::random(n, rng)));
  }
  out.expected.resize(out.options.size());
  for (std::size_t o = 0; o < out.options.size(); ++o) {
    for (const auto& p : out.problems) {
      core::SolveSession session(
          core::SolvePlan::create(p->size(), out.options[o]));
      out.expected[o].push_back(session.solve(*p));
    }
  }
  return out;
}

/// Per-caller outcome ledger; summed across threads and checked against
/// `ServiceStats` for the exactly-once accounting invariant. The
/// per-class slices track the same four counters keyed by the
/// `PriorityClass` the caller drew, mirroring `PriorityClassStats`.
struct ClassTally {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
};

struct Tally {
  std::uint64_t jobs = 0;  ///< Distinct jobs, however often resubmitted.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::array<ClassTally, kPriorityClasses> cls{};
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    if (failures.size() < 8) failures.push_back(what);
  }
};

enum class DeadlineMix { kNone, kFarFuture, kAlreadyExpired };

/// Seed-drawn traffic shape. Deadlines: a roll below `expired_below`
/// makes the job already expired at submit; below `far_below`, a
/// far-future deadline; otherwise no deadline. The heavy profile pushes
/// most of the traffic through the deadline paths so the EDF ordering,
/// the expiry sweep and the per-class expired counters all run hot. A
/// job is interactive with probability `interactive_share`. With
/// `retry_rejected`, a shed submit backs off by the rejection's
/// retry-after hint and resubmits until admitted, as a well-behaved
/// client would; every job then lands unless its deadline expires.
struct TrafficProfile {
  double expired_below = 0.15;
  double far_below = 0.30;
  double interactive_share = 0.5;
  bool retry_rejected = false;
};
constexpr TrafficProfile kDefaultTraffic{};
constexpr TrafficProfile kHeavyDeadlines{0.45, 0.90};
/// A 3:1 interactive:batch mix with no expired deadlines whose rejected
/// submits retry after the hinted delay: every job must complete.
constexpr TrafficProfile kRetryingQosMix{0.0, 0.30, 0.75, true};

/// One caller thread's worth of traffic: shuffled (shape, options)
/// pairs, each with a seed-drawn priority class and deadline category,
/// plus an occasional blocking solve_all mixed in (which the service
/// accounts as batch-class traffic).
void run_caller(SolverService& service, const FuzzWorkload& load,
                std::uint64_t seed, std::size_t rounds,
                TrafficProfile traffic, Tally& tally) {
  support::Rng rng(seed);
  struct Pending {
    std::future<core::SublinearResult> future;
    std::size_t opt = 0;
    std::size_t shape = 0;
    DeadlineMix deadline = DeadlineMix::kNone;
    PriorityClass priority = PriorityClass::kInteractive;
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    // Shuffle the full (option set x shape) cross product.
    std::vector<std::pair<std::size_t, std::size_t>> mix;
    for (std::size_t o = 0; o < load.options.size(); ++o) {
      for (std::size_t s = 0; s < load.problems.size(); ++s) {
        mix.emplace_back(o, s);
      }
    }
    rng.shuffle(mix);

    std::vector<Pending> pending;
    for (const auto& [o, s] : mix) {
      DeadlineMix deadline = DeadlineMix::kNone;
      const double roll = rng.uniform01();
      if (roll < traffic.expired_below) {
        deadline = DeadlineMix::kAlreadyExpired;
      } else if (roll < traffic.far_below) {
        deadline = DeadlineMix::kFarFuture;
      }
      const PriorityClass priority =
          rng.uniform01() < traffic.interactive_share
              ? PriorityClass::kInteractive
              : PriorityClass::kBatch;
      const auto cls = static_cast<std::size_t>(priority);
      ++tally.jobs;
      for (bool done = false; !done;) {
        ++tally.submitted;
        ++tally.cls[cls].submitted;
        try {
          Pending job;
          job.opt = o;
          job.shape = s;
          job.deadline = deadline;
          job.priority = priority;
          switch (deadline) {
            case DeadlineMix::kNone:
              job.future = service.submit(*load.problems[s], load.options[o],
                                          priority);
              break;
            case DeadlineMix::kFarFuture:
              job.future = service.submit(
                  *load.problems[s], load.options[o], priority,
                  std::chrono::steady_clock::now() + std::chrono::hours(1));
              break;
            case DeadlineMix::kAlreadyExpired:
              job.future = service.submit(
                  *load.problems[s], load.options[o], priority,
                  std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
              break;
          }
          pending.push_back(std::move(job));
          done = true;
        } catch (const AdmissionError& e) {
          if (e.kind() != AdmissionError::Kind::kQueueFull) {
            tally.fail(std::string("submit threw non-queue-full: ") +
                       e.what());
          }
          ++tally.rejected;
          ++tally.cls[cls].rejected;
          done = !traffic.retry_rejected;
          if (!done) {
            if (!e.has_hint()) tally.fail("rejection carried no hint");
            std::this_thread::sleep_for(e.retry_after());
          }
        }
      }
    }

    for (Pending& job : pending) {
      const auto cls = static_cast<std::size_t>(job.priority);
      try {
        const core::SublinearResult got = job.future.get();
        ++tally.completed;
        ++tally.cls[cls].completed;
        const core::SublinearResult& want =
            load.expected[job.opt][job.shape];
        if (!(got.cost == want.cost && got.iterations == want.iterations &&
              got.w == want.w)) {
          tally.fail("bit-identity mismatch (opt " +
                     std::to_string(job.opt) + ", shape " +
                     std::to_string(job.shape) + ")");
        }
        if (job.deadline == DeadlineMix::kAlreadyExpired) {
          tally.fail("already-expired job completed instead of expiring");
        }
      } catch (const AdmissionError& e) {
        if (e.kind() != AdmissionError::Kind::kDeadlineExceeded) {
          tally.fail(std::string("future threw non-deadline error: ") +
                     e.what());
        }
        if (job.deadline != DeadlineMix::kAlreadyExpired) {
          tally.fail("job without an expired deadline expired anyway");
        }
        ++tally.expired;
        ++tally.cls[cls].expired;
      }
    }

    // Every other round, mix the blocking surface into the same queue:
    // it must never shed or expire, whatever the policy. The service
    // always classifies solve_all work as batch.
    if (round % 2 == 0) {
      std::vector<const dp::Problem*> batch;
      for (const auto& p : load.problems) batch.push_back(p.get());
      const auto out = service.solve_all(batch, load.options[0]);
      const auto kBatchIdx =
          static_cast<std::size_t>(PriorityClass::kBatch);
      tally.jobs += batch.size();
      tally.submitted += batch.size();
      tally.completed += batch.size();
      tally.cls[kBatchIdx].submitted += batch.size();
      tally.cls[kBatchIdx].completed += batch.size();
      for (std::size_t s = 0; s < batch.size(); ++s) {
        const core::SublinearResult& want = load.expected[0][s];
        if (!(out.results[s].cost == want.cost &&
              out.results[s].iterations == want.iterations &&
              out.results[s].w == want.w)) {
          tally.fail("solve_all bit-identity mismatch (shape " +
                     std::to_string(s) + ")");
        }
      }
    }
  }
}

void run_fuzz(std::uint64_t seed, OverloadPolicy policy,
              std::size_t builders,
              TrafficProfile traffic = kDefaultTraffic) {
  SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + ", policy " +
               to_string(policy) + ", builders " +
               std::to_string(builders));
  const FuzzWorkload load = make_workload({6, 9, 12, 15}, seed);

  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 4;   // small: overload is the common case
  options.plan_capacity = 2;    // tiny: constant eviction + cold rebuilds
  options.overload_policy = policy;
  options.builders = builders;
  SolverService service(options);

  constexpr std::size_t kCallerThreads = 4;
  constexpr std::size_t kRounds = 2;
  std::vector<Tally> tallies(kCallerThreads);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallerThreads);
    for (std::size_t t = 0; t < kCallerThreads; ++t) {
      callers.emplace_back([&, t] {
        run_caller(service, load, seed * 1000 + t, kRounds, traffic,
                   tallies[t]);
      });
    }
    for (auto& thread : callers) thread.join();
  }

  Tally sum;
  for (const Tally& t : tallies) {
    sum.jobs += t.jobs;
    sum.submitted += t.submitted;
    sum.completed += t.completed;
    sum.rejected += t.rejected;
    sum.expired += t.expired;
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
      sum.cls[c].submitted += t.cls[c].submitted;
      sum.cls[c].completed += t.cls[c].completed;
      sum.cls[c].rejected += t.cls[c].rejected;
      sum.cls[c].expired += t.cls[c].expired;
    }
    for (const auto& f : t.failures) {
      ADD_FAILURE() << f;
    }
  }
  // Caller-side exactly-once accounting...
  EXPECT_EQ(sum.submitted, sum.completed + sum.rejected + sum.expired);
  if (traffic.retry_rejected && traffic.expired_below == 0.0) {
    // Hinted retries land every job, and no deadline can expire.
    EXPECT_EQ(sum.completed, sum.jobs);
    EXPECT_EQ(sum.expired, 0u);
  }
  // ...agreeing with the service's own ledger, counter by counter.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.builders, builders == 0 ? 1u : builders);
  EXPECT_EQ(stats.jobs_submitted, sum.submitted);
  EXPECT_EQ(stats.jobs_completed, sum.completed);
  EXPECT_EQ(stats.jobs_rejected, sum.rejected);
  EXPECT_EQ(stats.jobs_expired, sum.expired);
  EXPECT_EQ(stats.jobs_submitted,
            stats.jobs_completed + stats.jobs_rejected + stats.jobs_expired);
  // The same reconciliation per priority class: the service's class
  // slices must match the callers' class tallies counter by counter,
  // hold the drained invariant on their own, and partition the globals.
  const PriorityClassStats* const slices[kPriorityClasses] = {
      &stats.interactive, &stats.batch};
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    SCOPED_TRACE(std::string("class ") +
                 to_string(static_cast<PriorityClass>(c)));
    EXPECT_EQ(slices[c]->submitted, sum.cls[c].submitted);
    EXPECT_EQ(slices[c]->completed, sum.cls[c].completed);
    EXPECT_EQ(slices[c]->rejected, sum.cls[c].rejected);
    EXPECT_EQ(slices[c]->expired, sum.cls[c].expired);
    EXPECT_EQ(slices[c]->submitted, slices[c]->completed +
                                        slices[c]->rejected +
                                        slices[c]->expired);
    // Per-class observability: each class's e2e histogram sees exactly
    // that class's completions, and its p99 is a finite latency.
    EXPECT_EQ(slices[c]->e2e.count, slices[c]->completed);
    EXPECT_TRUE(std::isfinite(slices[c]->e2e.p99()));
    EXPECT_GE(slices[c]->e2e.p99(), 0.0);
  }
  EXPECT_EQ(stats.interactive.submitted + stats.batch.submitted,
            stats.jobs_submitted);
  EXPECT_EQ(stats.interactive.completed + stats.batch.completed,
            stats.jobs_completed);
  EXPECT_EQ(stats.interactive.rejected + stats.batch.rejected,
            stats.jobs_rejected);
  EXPECT_EQ(stats.interactive.expired + stats.batch.expired,
            stats.jobs_expired);
  // Observability reconciliation: the end-to-end latency histogram sees
  // every completed job exactly once — rejected and expired jobs never
  // reach it — under every seed, policy, and interleaving.
  EXPECT_EQ(stats.e2e.count, stats.jobs_completed);
  if (policy == OverloadPolicy::kBlock) {
    EXPECT_EQ(stats.jobs_rejected, 0u) << "kBlock must never shed";
    EXPECT_EQ(stats.interactive.rejected, 0u);
    EXPECT_EQ(stats.batch.rejected, 0u);
  }
  // No `snapshot_dir` configured: however hard the cache is churned, the
  // snapshot tier reports exactly zero activity.
  EXPECT_EQ(stats.snapshot_hits, 0u);
  EXPECT_EQ(stats.snapshot_misses, 0u);
  EXPECT_EQ(stats.snapshot_write_failures, 0u);
  EXPECT_EQ(stats.shapes_prewarmed, 0u);
  // The tiny cache was genuinely churned: more distinct (shape, options)
  // keys than capacity forces evictions and repeat cold builds.
  EXPECT_GT(stats.plan_cache.evictions, 0u);
  EXPECT_GT(stats.plan_cache.misses, stats.plan_cache.capacity);
}

TEST(ServeFuzz, RejectPolicyAcrossSeedsAndBuilderCounts) {
  for (const std::size_t builders : {1u, 2u}) {
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      run_fuzz(seed, OverloadPolicy::kReject, builders);
    }
  }
  // Shed-and-retry clients: a 3:1 interactive:batch mix backing off by
  // the retry-after hints until everything lands bit-identically.
  run_fuzz(14, OverloadPolicy::kReject, 2, kRetryingQosMix);
}

TEST(ServeFuzz, BlockPolicyAcrossSeedsAndBuilderCounts) {
  for (const std::size_t builders : {1u, 2u}) {
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
      run_fuzz(seed, OverloadPolicy::kBlock, builders);
    }
  }
}

// Deadline-heavy traffic: ~45% of submissions arrive already expired
// and another ~45% carry far-future deadlines, so most of the queue
// flows through the EDF ordering and the expiry sweep. Both policies,
// two builders — the per-class expired counters and the drained
// invariant must still reconcile exactly.
TEST(ServeFuzz, DeadlineHeavyMixAcrossSeeds) {
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    run_fuzz(seed, OverloadPolicy::kReject, 2, kHeavyDeadlines);
    run_fuzz(seed, OverloadPolicy::kBlock, 2, kHeavyDeadlines);
  }
}

}  // namespace
}  // namespace subdp::serve
