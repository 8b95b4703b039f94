// Tests of the SolverService admission-control layer: the bounded
// dispatch queue under both overload policies (kReject turning away the
// overflow submit with a typed AdmissionError, kBlock back-pressuring
// the submitter until a worker drains), per-job deadlines resolving
// without ever touching the problem, exact ServiceStats accounting
// (rejected / expired / cold-deferred and the admission invariant), the
// background plan builder keeping warm traffic flowing past a cold
// shape, single-build coalescing of concurrent cold submits, and
// solve_all's documented bypass of shedding and expiry. Deterministic:
// worker and builder progress is gated through blocking problems and
// the cold_build_hook seam, never timed. Smoke-labelled; runs under the
// TSan preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "obs/clock.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"
#include "tests/serve_tsan_suppression.hpp"

namespace subdp::serve {
namespace {

using core::AdmissionError;

/// An independent solve on a fresh plan and session: the reference every
/// admitted result must match bit for bit.
core::SublinearResult solve_alone(const dp::Problem& problem) {
  core::SolveSession session(core::SolvePlan::create(problem.size()));
  return session.solve(problem);
}

/// A reusable open-once gate for sequencing test threads.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void open_gate() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait_open() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
};

/// Opens a gate at scope exit so a failed ASSERT cannot leave the
/// service destructor waiting on a blocked worker or builder.
struct GateOpener {
  std::shared_ptr<Gate> gate;
  ~GateOpener() { gate->open_gate(); }
};

/// A matrix-chain instance whose solve blocks at the first `init` call
/// until released — pins down one worker deterministically. Announces
/// the moment a solver thread enters it, so tests can wait for "the
/// worker is now busy" instead of sleeping.
class GatedProblem final : public dp::Problem {
 public:
  explicit GatedProblem(dp::MatrixChainProblem inner)
      : inner_(std::move(inner)), gate_(std::make_shared<Gate>()) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] Cost init(std::size_t i) const override {
    {
      std::unique_lock<std::mutex> lock(entered_mutex_);
      if (!entered_) {
        entered_ = true;
        entered_cv_.notify_all();
      }
    }
    gate_->wait_open();
    return inner_.init(i);
  }
  [[nodiscard]] Cost f(std::size_t i, std::size_t k,
                       std::size_t j) const override {
    return inner_.f(i, k, j);
  }
  [[nodiscard]] std::string name() const override { return "gated"; }

  [[nodiscard]] const dp::MatrixChainProblem& inner() const {
    return inner_;
  }
  [[nodiscard]] std::shared_ptr<Gate> gate() const { return gate_; }
  void wait_until_entered() const {
    std::unique_lock<std::mutex> lock(entered_mutex_);
    entered_cv_.wait(lock, [&] { return entered_; });
  }

 private:
  dp::MatrixChainProblem inner_;
  std::shared_ptr<Gate> gate_;
  mutable std::mutex entered_mutex_;
  mutable std::condition_variable entered_cv_;
  mutable bool entered_ = false;
};

/// Counts every `init`/`f` evaluation: "resolved without solving" means
/// this stays at zero.
class ProbeProblem final : public dp::Problem {
 public:
  explicit ProbeProblem(dp::MatrixChainProblem inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] Cost init(std::size_t i) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.init(i);
  }
  [[nodiscard]] Cost f(std::size_t i, std::size_t k,
                       std::size_t j) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.f(i, k, j);
  }
  [[nodiscard]] std::string name() const override { return "probe"; }
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  dp::MatrixChainProblem inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

void expect_admission_error(std::future<core::SublinearResult>& future,
                            AdmissionError::Kind kind) {
  try {
    (void)future.get();
    FAIL() << "expected AdmissionError(" << core::to_string(kind) << ")";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

/// Asserts the admission invariant on a drained service. These services
/// run without a `snapshot_dir`, so the snapshot tier must report exactly
/// zero activity — persistence never leaks into admission accounting.
void expect_accounted(const ServiceStats& stats) {
  EXPECT_EQ(stats.jobs_submitted,
            stats.jobs_completed + stats.jobs_rejected + stats.jobs_expired);
  EXPECT_EQ(stats.snapshot_hits, 0u);
  EXPECT_EQ(stats.snapshot_misses, 0u);
  EXPECT_EQ(stats.snapshot_write_failures, 0u);
  EXPECT_EQ(stats.shapes_prewarmed, 0u);
}

TEST(Admission, RejectPolicyFailsTheOverflowSubmitWithAdmissionError) {
  constexpr std::size_t kQueueCap = 3;
  support::Rng rng(801);
  const auto warm = dp::MatrixChainProblem::random(12, rng);
  GatedProblem gated(dp::MatrixChainProblem::random(12, rng));
  std::vector<dp::MatrixChainProblem> fill;
  for (std::size_t k = 0; k < kQueueCap; ++k) {
    fill.push_back(dp::MatrixChainProblem::random(12, rng));
  }

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  // Warm the shape first so the gated job takes the direct path onto
  // the single worker (a cold job would detour through the builder).
  EXPECT_EQ(service.submit(warm).get().cost,
            dp::solve_sequential(warm).cost);

  auto gated_future = service.submit(gated);
  gated.wait_until_entered();  // the worker is now pinned mid-solve

  // The queue holds exactly kQueueCap jobs...
  std::vector<std::future<core::SublinearResult>> queued;
  for (const auto& p : fill) queued.push_back(service.submit(p));
  // ...so the (N+1)th submit is turned away, synchronously and typed.
  EXPECT_THROW((void)service.submit(fill.front()), AdmissionError);
  try {
    (void)service.submit(fill.front());
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), AdmissionError::Kind::kQueueFull);
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }

  gated.gate()->open_gate();
  EXPECT_EQ(gated_future.get().cost,
            dp::solve_sequential(gated.inner()).cost);
  for (std::size_t k = 0; k < queued.size(); ++k) {
    const auto expected = solve_alone(fill[k]);
    const auto got = queued[k].get();
    EXPECT_EQ(got.cost, expected.cost) << "instance " << k;
    EXPECT_EQ(got.iterations, expected.iterations) << "instance " << k;
    EXPECT_TRUE(got.w == expected.w) << "instance " << k;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 2u);  // both overflow attempts
  EXPECT_EQ(stats.jobs_expired, 0u);
  EXPECT_EQ(stats.jobs_completed, 2u + kQueueCap);
  EXPECT_EQ(stats.jobs_submitted, 4u + kQueueCap);
  expect_accounted(stats);
}

TEST(Admission, BlockPolicyUnblocksWhenAWorkerDrains) {
  support::Rng rng(802);
  const auto warm = dp::MatrixChainProblem::random(10, rng);
  GatedProblem gated(dp::MatrixChainProblem::random(10, rng));
  const auto filler = dp::MatrixChainProblem::random(10, rng);
  const auto blocked = dp::MatrixChainProblem::random(10, rng);

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload_policy = OverloadPolicy::kBlock;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  EXPECT_EQ(service.submit(warm).get().cost,
            dp::solve_sequential(warm).cost);
  auto gated_future = service.submit(gated);
  gated.wait_until_entered();
  auto filler_future = service.submit(filler);  // queue now full

  // A further submit must park its caller instead of throwing.
  auto parked = std::async(std::launch::async, [&] {
    return service.submit(blocked);  // blocks until the worker drains
  });
  EXPECT_EQ(parked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "kBlock submit went through while the queue was full";

  gated.gate()->open_gate();  // worker drains: gated, filler, blocked
  auto blocked_future = parked.get();  // submit returned => unblocked
  EXPECT_EQ(gated_future.get().cost,
            dp::solve_sequential(gated.inner()).cost);
  EXPECT_EQ(filler_future.get().cost, dp::solve_sequential(filler).cost);
  EXPECT_EQ(blocked_future.get().cost,
            dp::solve_sequential(blocked).cost);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.jobs_expired, 0u);
  EXPECT_EQ(stats.jobs_submitted, 4u);
  EXPECT_EQ(stats.jobs_completed, 4u);
  expect_accounted(stats);
}

TEST(Admission, ExpiredDeadlineResolvesWithoutSolving) {
  support::Rng rng(803);
  const auto warm = dp::MatrixChainProblem::random(11, rng);
  ProbeProblem probe(dp::MatrixChainProblem::random(11, rng));

  // Deadlines are judged on the injected manual clock, not the real
  // steady clock: "expired" and "in time" below are deterministic
  // statements about clock arithmetic, not races against the worker.
  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.clock = manual;
  SolverService service(options);

  // Warm the shape so the probe job cannot detour through the builder.
  EXPECT_EQ(service.submit(warm).get().cost,
            dp::solve_sequential(warm).cost);

  auto expired = service.submit(
      probe, manual->now() - std::chrono::seconds(1));
  expect_admission_error(expired, AdmissionError::Kind::kDeadlineExceeded);
  EXPECT_EQ(probe.calls(), 0u)
      << "an expired job must never touch the problem";

  // A deadline one tick ahead of the (frozen) manual clock solves
  // normally — and bit-identically.
  auto in_time = service.submit(
      probe, manual->now() + std::chrono::nanoseconds(1));
  const auto expected = solve_alone(probe);
  const auto got = in_time.get();
  EXPECT_EQ(got.cost, expected.cost);
  EXPECT_TRUE(got.w == expected.w);
  EXPECT_GT(probe.calls(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  expect_accounted(stats);
}

TEST(Admission, StatsCountersMatchExactExpectedValues) {
  constexpr std::size_t kQueueCap = 2;
  support::Rng rng(804);
  const auto cold = dp::MatrixChainProblem::random(13, rng);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  ProbeProblem doomed(dp::MatrixChainProblem::random(13, rng));
  const auto normal = dp::MatrixChainProblem::random(13, rng);

  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  // 1: a cold submit — deferred to the builder exactly once.
  EXPECT_EQ(service.submit(cold).get().cost,
            dp::solve_sequential(cold).cost);
  // 2: pin the worker on a warm-shape job.
  auto gated_future = service.submit(gated);
  gated.wait_until_entered();
  // 3: queue a job already expired on the manual clock; 4: queue a
  // normal job (queue full).
  auto expired = service.submit(
      doomed, manual->now() - std::chrono::seconds(1));
  auto ok = service.submit(normal);
  // 5: the overflow submit *sweeps the expired job out* and takes its
  // slot — a queue full of expired work admits instead of shedding.
  auto admitted = service.submit(normal);
  expect_admission_error(expired, AdmissionError::Kind::kDeadlineExceeded);
  // 6: the queue is now full of live jobs: this overflow is rejected.
  EXPECT_THROW((void)service.submit(normal), AdmissionError);

  gated.gate()->open_gate();
  EXPECT_EQ(gated_future.get().cost,
            dp::solve_sequential(gated.inner()).cost);
  EXPECT_EQ(doomed.calls(), 0u);
  EXPECT_EQ(ok.get().cost, dp::solve_sequential(normal).cost);
  EXPECT_EQ(admitted.get().cost, dp::solve_sequential(normal).cost);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 6u);
  EXPECT_EQ(stats.jobs_completed, 4u);  // cold, gated, normal, admitted
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_cold_deferred, 1u);  // the first submit only
  EXPECT_EQ(stats.plan_cache.misses, 1u);   // one shape, one build
  expect_accounted(stats);
}

TEST(Admission, ColdBuildDoesNotBlockWarmThroughput) {
  support::Rng rng(805);
  const std::size_t warm_n = 10;
  std::vector<dp::MatrixChainProblem> warm;
  for (int k = 0; k < 4; ++k) {
    warm.push_back(dp::MatrixChainProblem::random(warm_n, rng));
  }
  const auto cold = dp::MatrixChainProblem::random(16, rng);

  const auto build_gate = std::make_shared<Gate>();
  ServiceOptions options;
  options.workers = 1;
  options.cold_build_hook = [build_gate] { build_gate->wait_open(); };
  SolverService service(options);
  const GateOpener opener{build_gate};

  // Warm the small shape through solve_all: the caller thread resolves
  // the plan itself, so the builder (and its gate) is not involved.
  std::vector<const dp::Problem*> warmup = {&warm[0]};
  EXPECT_EQ(service.solve_all(warmup).results[0].cost,
            dp::solve_sequential(warm[0]).cost);

  // The cold shape parks at the builder, which is now gated shut...
  auto cold_future = service.submit(cold);
  // ...while the single worker keeps draining warm jobs behind it.
  std::vector<std::future<core::SublinearResult>> warm_futures;
  for (const auto& p : warm) warm_futures.push_back(service.submit(p));
  for (std::size_t k = 0; k < warm_futures.size(); ++k) {
    EXPECT_EQ(warm_futures[k].get().cost,
              dp::solve_sequential(warm[k]).cost)
        << "warm job " << k << " did not complete past the busy builder";
  }
  // Every warm job finished; the cold job is still parked at the gate.
  EXPECT_EQ(cold_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "cold job completed although its build gate never opened";
  auto stats = service.stats();
  EXPECT_EQ(stats.jobs_cold_deferred, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u + warm.size());

  build_gate->open_gate();
  EXPECT_EQ(cold_future.get().cost, dp::solve_sequential(cold).cost);
  stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 2u + warm.size());
  EXPECT_EQ(stats.plan_cache.misses, 2u);  // warm shape + cold shape
  expect_accounted(stats);
}

TEST(Admission, ConcurrentColdSubmitsShareOneBuild) {
  constexpr std::size_t kSameShape = 6;
  support::Rng rng(806);
  std::vector<dp::MatrixChainProblem> problems;
  for (std::size_t k = 0; k < kSameShape; ++k) {
    problems.push_back(dp::MatrixChainProblem::random(15, rng));
  }

  const auto build_gate = std::make_shared<Gate>();
  ServiceOptions options;
  options.workers = 2;
  options.cold_build_hook = [build_gate] { build_gate->wait_open(); };
  SolverService service(options);
  const GateOpener opener{build_gate};

  std::vector<std::future<core::SublinearResult>> futures;
  for (const auto& p : problems) futures.push_back(service.submit(p));

  // With the builder gated on the first cold job, the workers defer
  // every same-key job to it (none can solve: the plan never becomes
  // ready while the gate is shut).
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().jobs_cold_deferred < kSameShape &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().jobs_cold_deferred, kSameShape);
  EXPECT_EQ(service.stats().plan_cache.misses, 1u)
      << "concurrent cold submits for one key must count a single miss";

  build_gate->open_gate();
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const auto expected = solve_alone(problems[k]);
    const auto got = futures[k].get();
    EXPECT_EQ(got.cost, expected.cost) << "instance " << k;
    EXPECT_TRUE(got.w == expected.w) << "instance " << k;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u)
      << "the shared build must have happened exactly once";
  EXPECT_EQ(stats.jobs_cold_deferred, kSameShape);
  EXPECT_EQ(stats.jobs_completed, kSameShape);
  expect_accounted(stats);
}

TEST(Admission, DestructionWaitsForAMidBatchFill) {
  // Destroying the service while a solve_all caller is still filling a
  // bounded queue must not strand the call: the destructor waits for
  // the fill (which stops back-pressuring once intake closes), then
  // drains every queued job, so the batch resolves normally.
  support::Rng rng(808);
  GatedProblem gated(dp::MatrixChainProblem::random(11, rng));
  std::vector<dp::MatrixChainProblem> rest;
  for (int k = 0; k < 5; ++k) {
    rest.push_back(dp::MatrixChainProblem::random(11, rng));
  }
  std::vector<const dp::Problem*> pointers = {&gated};
  for (const auto& p : rest) pointers.push_back(&p);

  std::future<core::BatchResult> batch;
  {
    ServiceOptions options;
    options.workers = 1;
    options.queue_capacity = 1;  // the filler parks almost immediately
    SolverService service(options);
    const GateOpener opener{gated.gate()};
    batch = std::async(std::launch::async,
                       [&] { return service.solve_all(pointers); });
    // The worker is pinned on the gated first job, so the filler is
    // (at most one job later) parked on the full queue when the
    // service goes out of scope. The opener fires first, letting the
    // destructor's drain run the remaining solves.
    gated.wait_until_entered();
  }
  const auto out = batch.get();  // resolved by the destructor's drain
  ASSERT_EQ(out.results.size(), pointers.size());
  EXPECT_EQ(out.results[0].cost, dp::solve_sequential(gated.inner()).cost);
  for (std::size_t k = 0; k < rest.size(); ++k) {
    EXPECT_EQ(out.results[k + 1].cost,
              dp::solve_sequential(rest[k]).cost)
        << "instance " << k + 1;
  }
}

/// A counting gate for the builder pool: each `enter()` (called from
/// `cold_build_hook`) consumes one token, blocking until one is
/// granted, and announces itself — so tests release builds one at a
/// time and observe exactly how many are in flight.
struct TokenGate {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t tokens = 0;
  std::size_t entered = 0;

  void enter() {
    std::unique_lock<std::mutex> lock(mutex);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return tokens > 0; });
    --tokens;
  }
  void release(std::size_t k) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      tokens += k;
    }
    cv.notify_all();
  }
  void wait_entered(std::size_t k) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered >= k; });
  }
};

TEST(Admission, BuilderPoolBuildsDistinctShapesConcurrently) {
  support::Rng rng(809);
  const auto cold_a = dp::MatrixChainProblem::random(14, rng);
  const auto cold_b = dp::MatrixChainProblem::random(16, rng);

  const auto gate = std::make_shared<TokenGate>();
  ServiceOptions options;
  options.workers = 1;
  options.builders = 2;
  options.cold_build_hook = [gate] { gate->enter(); };
  SolverService service(options);
  EXPECT_EQ(service.builders(), 2u);
  EXPECT_EQ(service.stats().builders, 2u);

  auto f_a = service.submit(cold_a);
  auto f_b = service.submit(cold_b);

  // Two distinct cold keys, two builders: both claims enter the build
  // hook with neither released — two builds genuinely in flight at
  // once (a single builder could never get here: its first build
  // blocks the second claim).
  gate->wait_entered(2);

  gate->release(2);
  const auto expected_a = solve_alone(cold_a);
  const auto expected_b = solve_alone(cold_b);
  const auto got_a = f_a.get();
  const auto got_b = f_b.get();
  EXPECT_EQ(got_a.cost, expected_a.cost);
  EXPECT_TRUE(got_a.w == expected_a.w);
  EXPECT_EQ(got_b.cost, expected_b.cost);
  EXPECT_TRUE(got_b.w == expected_b.w);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_cold_deferred, 2u);
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  expect_accounted(stats);
}

TEST(Admission, ColdCoalescingStillCountsOneMissWithTwoBuilders) {
  constexpr std::size_t kSameShape = 6;
  support::Rng rng(810);
  std::vector<dp::MatrixChainProblem> problems;
  for (std::size_t k = 0; k < kSameShape; ++k) {
    problems.push_back(dp::MatrixChainProblem::random(15, rng));
  }

  const auto gate = std::make_shared<TokenGate>();
  ServiceOptions options;
  options.workers = 2;
  options.builders = 2;
  options.cold_build_hook = [gate] { gate->enter(); };
  SolverService service(options);

  std::vector<std::future<core::SublinearResult>> futures;
  for (const auto& p : problems) futures.push_back(service.submit(p));

  // Every same-key job parks on the one claimed entry; the second
  // builder finds nothing claimable and sleeps.
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().jobs_cold_deferred < kSameShape &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().jobs_cold_deferred, kSameShape);
  EXPECT_EQ(service.stats().plan_cache.misses, 1u)
      << "concurrent cold submits for one key must count a single miss";
  // A deferred job does not mean its builder has reached the hook yet.
  gate->wait_entered(1);
  {
    const std::lock_guard<std::mutex> lock(gate->mutex);
    EXPECT_EQ(gate->entered, 1u)
        << "one shape must be claimed by exactly one builder";
  }

  gate->release(kSameShape);  // ample: only one build should draw one
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const auto expected = solve_alone(problems[k]);
    const auto got = futures[k].get();
    EXPECT_EQ(got.cost, expected.cost) << "instance " << k;
    EXPECT_TRUE(got.w == expected.w) << "instance " << k;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u)
      << "the shared build must have happened exactly once";
  EXPECT_EQ(stats.jobs_cold_deferred, kSameShape);
  EXPECT_EQ(stats.jobs_completed, kSameShape);
  expect_accounted(stats);
}

TEST(Admission, BuilderPicksTheShapeWithMostWaitingRequestersFirst) {
  support::Rng rng(811);
  const auto first = dp::MatrixChainProblem::random(18, rng);
  // The lukewarm shape is submitted before the hot one AND has the
  // smaller plan key, so both submission order and key order would
  // pick it — only requester-count priority picks the hot shape.
  const auto lukewarm = dp::MatrixChainProblem::random(14, rng);
  std::vector<dp::MatrixChainProblem> hot;
  for (int k = 0; k < 3; ++k) {
    hot.push_back(dp::MatrixChainProblem::random(16, rng));
  }

  const auto gate = std::make_shared<TokenGate>();
  ServiceOptions options;
  options.workers = 1;
  options.builders = 1;  // a single builder makes the pick observable
  options.cold_build_hook = [gate] { gate->enter(); };
  SolverService service(options);

  // Hold the builder in the first shape's build while the contest
  // accumulates: one lukewarm requester vs three hot ones.
  auto f_first = service.submit(first);
  gate->wait_entered(1);
  auto f_lukewarm = service.submit(lukewarm);
  std::vector<std::future<core::SublinearResult>> f_hot;
  for (const auto& p : hot) f_hot.push_back(service.submit(p));
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().jobs_cold_deferred < 5 &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().jobs_cold_deferred, 5u);

  // Token 1 finishes the first build; the builder's next claim is the
  // hot shape (3 waiting requesters beat 1). Token 2 releases exactly
  // that build: every hot future resolves while the lukewarm job —
  // earlier submitted, smaller key — is still parked behind gate
  // entry 3.
  gate->release(1);
  gate->wait_entered(2);
  gate->release(1);
  gate->wait_entered(3);
  EXPECT_EQ(f_first.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  for (std::size_t k = 0; k < f_hot.size(); ++k) {
    ASSERT_EQ(f_hot[k].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "hot instance " << k << " must be built before the lukewarm "
        << "shape (3 requesters beat 1)";
    EXPECT_EQ(f_hot[k].get().cost, dp::solve_sequential(hot[k]).cost);
  }
  EXPECT_EQ(f_lukewarm.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the lukewarm build ran ahead of the hotter shape";

  gate->release(1);
  EXPECT_EQ(f_lukewarm.get().cost, dp::solve_sequential(lukewarm).cost);
  EXPECT_EQ(f_first.get().cost, dp::solve_sequential(first).cost);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 5u);
  EXPECT_EQ(stats.plan_cache.misses, 3u);
  expect_accounted(stats);
}

TEST(Admission, ShutdownDrainsBuildersThenWorkersResolvingEveryFuture) {
  support::Rng rng(812);
  const auto cold_a = dp::MatrixChainProblem::random(14, rng);
  const auto cold_b = dp::MatrixChainProblem::random(16, rng);

  std::future<core::SublinearResult> f_a;
  std::future<core::SublinearResult> f_b;
  {
    const auto gate = std::make_shared<TokenGate>();
    ServiceOptions options;
    options.workers = 1;
    options.builders = 2;
    options.cold_build_hook = [gate] { gate->enter(); };
    SolverService service(options);
    // Destroyed before `service` (reverse declaration order), so the
    // tokens land exactly when the destructor starts waiting on its
    // builders — the drain itself is what resolves the futures.
    struct Release {
      std::shared_ptr<TokenGate> gate;
      ~Release() { gate->release(1000); }
    } release{gate};

    f_a = service.submit(cold_a);
    f_b = service.submit(cold_b);
    gate->wait_entered(2);  // both builds claimed, neither released
  }

  // The destructor joined builders first (both builds finished and
  // requeued their jobs), then workers (which solved them): both
  // futures are resolved — with full results — after destruction.
  const auto expected_a = solve_alone(cold_a);
  const auto expected_b = solve_alone(cold_b);
  const auto got_a = f_a.get();
  const auto got_b = f_b.get();
  EXPECT_EQ(got_a.cost, expected_a.cost);
  EXPECT_TRUE(got_a.w == expected_a.w);
  EXPECT_EQ(got_b.cost, expected_b.cost);
  EXPECT_TRUE(got_b.w == expected_b.w);
}

TEST(Admission, SolveAllBypassesSheddingAndExpiry) {
  // The blocking surface back-pressures its caller instead: a batch far
  // larger than the queue under kReject completes in full, with zero
  // rejections or expiries and an untouched ledger contract.
  support::Rng rng(807);
  std::vector<std::unique_ptr<dp::Problem>> owned;
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::size_t n : {9u, 13u}) {
      owned.push_back(std::make_unique<dp::MatrixChainProblem>(
          dp::MatrixChainProblem::random(n, rng)));
    }
  }
  std::vector<const dp::Problem*> pointers;
  for (const auto& p : owned) pointers.push_back(p.get());

  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 2;  // far below the batch size
  options.overload_policy = OverloadPolicy::kReject;
  SolverService service(options);

  const auto out = service.solve_all(pointers);
  ASSERT_EQ(out.results.size(), pointers.size());
  EXPECT_EQ(out.ledger.instances, pointers.size());
  EXPECT_EQ(out.ledger.shape_groups, 2u);
  EXPECT_EQ(out.ledger.plans_built, 2u);
  for (std::size_t k = 0; k < pointers.size(); ++k) {
    const auto expected = solve_alone(*pointers[k]);
    EXPECT_EQ(out.results[k].cost, expected.cost) << "instance " << k;
    EXPECT_EQ(out.results[k].iterations, expected.iterations)
        << "instance " << k;
    EXPECT_TRUE(out.results[k].w == expected.w) << "instance " << k;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.jobs_expired, 0u);
  EXPECT_EQ(stats.jobs_submitted, pointers.size());
  EXPECT_EQ(stats.jobs_completed, pointers.size());
  EXPECT_EQ(stats.jobs_cold_deferred, 0u)
      << "solve_all resolves plans on the caller, never via the builder";
  expect_accounted(stats);
}

}  // namespace
}  // namespace subdp::serve
