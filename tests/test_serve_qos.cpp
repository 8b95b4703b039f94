// Tests of the SolverService QoS intake: EDF dequeue order proven with
// inverted submit/deadline order, the lazy expiry sweep freeing a full
// bounded queue without any worker pickup, batch-vs-interactive
// anti-starvation (an interactive submit behind a wall of solve_all
// batch traffic completes first), exact per-priority-class counter and
// histogram reconciliation, and the retry-after hint carried by
// kQueueFull rejections (exact depth, the documented p50/depth drain
// estimate, and the conservative default when the queue-wait histogram
// has no nonzero signal). Deterministic: every deadline and latency
// runs on an obs::ManualClock, and worker/builder progress is gated
// through blocking problems — never timed. Smoke-labelled; runs under
// the TSan preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "obs/clock.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"
#include "tests/serve_tsan_suppression.hpp"

namespace subdp::serve {
namespace {

using core::AdmissionError;

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
/// service destructor waiting on a blocked worker.
struct GateOpener {
  std::shared_ptr<Gate> gate;
  ~GateOpener() { gate->open_gate(); }
};

/// A matrix-chain instance whose solve blocks at the first `init` call
/// until released — pins down one worker deterministically, announcing
/// the moment a solver thread enters it.
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

/// Shared completion-order journal: each OrderedProblem appends its tag
/// the first time a solver thread enters it, so a single-worker drain
/// records the exact dequeue order.
struct OrderJournal {
  std::mutex mutex;
  std::vector<int> order;

  void record(int tag) {
    const std::lock_guard<std::mutex> lock(mutex);
    order.push_back(tag);
  }
  [[nodiscard]] std::vector<int> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return order;
  }
};

class OrderedProblem final : public dp::Problem {
 public:
  OrderedProblem(dp::MatrixChainProblem inner, int tag,
                 std::shared_ptr<OrderJournal> journal)
      : inner_(std::move(inner)), tag_(tag), journal_(std::move(journal)) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] Cost init(std::size_t i) const override {
    {
      const std::lock_guard<std::mutex> lock(recorded_mutex_);
      if (!recorded_) {
        recorded_ = true;
        journal_->record(tag_);
      }
    }
    return inner_.init(i);
  }
  [[nodiscard]] Cost f(std::size_t i, std::size_t k,
                       std::size_t j) const override {
    return inner_.f(i, k, j);
  }
  [[nodiscard]] std::string name() const override { return "ordered"; }
  [[nodiscard]] const dp::MatrixChainProblem& inner() const {
    return inner_;
  }

 private:
  dp::MatrixChainProblem inner_;
  int tag_;
  std::shared_ptr<OrderJournal> journal_;
  mutable std::mutex recorded_mutex_;
  mutable bool recorded_ = false;
};

void expect_admission_error(std::future<core::SublinearResult>& future,
                            AdmissionError::Kind kind) {
  try {
    (void)future.get();
    FAIL() << "expected AdmissionError(" << core::to_string(kind) << ")";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_FALSE(e.has_hint());  // hints belong to kQueueFull rejections
  }
}

/// Asserts the global and per-class admission invariants on a drained
/// service: each class's ledger closes, and the class slices partition
/// every global counter.
void expect_class_accounted(const ServiceStats& stats) {
  EXPECT_EQ(stats.jobs_submitted,
            stats.jobs_completed + stats.jobs_rejected + stats.jobs_expired);
  for (const PriorityClassStats* cls : {&stats.interactive, &stats.batch}) {
    EXPECT_EQ(cls->submitted,
              cls->completed + cls->rejected + cls->expired);
    EXPECT_EQ(cls->e2e.count, cls->completed);
  }
  EXPECT_EQ(stats.interactive.submitted + stats.batch.submitted,
            stats.jobs_submitted);
  EXPECT_EQ(stats.interactive.completed + stats.batch.completed,
            stats.jobs_completed);
  EXPECT_EQ(stats.interactive.rejected + stats.batch.rejected,
            stats.jobs_rejected);
  EXPECT_EQ(stats.interactive.expired + stats.batch.expired,
            stats.jobs_expired);
}

TEST(ServeQos, EdfDequeuesInDeadlineOrderNotSubmitOrder) {
  support::Rng rng(9001);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  const auto journal = std::make_shared<OrderJournal>();
  const OrderedProblem late(dp::MatrixChainProblem::random(13, rng), 1,
                            journal);
  const OrderedProblem middle(dp::MatrixChainProblem::random(13, rng), 2,
                              journal);
  const OrderedProblem early(dp::MatrixChainProblem::random(13, rng), 3,
                             journal);

  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.clock = manual;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  // Pin the single worker so the next three submits stack up queued.
  auto pinned = service.submit(gated);
  gated.wait_until_entered();

  // Submit order 1, 2, 3 — deadline order 3, 2, 1 (all far in the
  // future: nothing expires; the deadlines only *rank*).
  using std::chrono::hours;
  auto f_late = service.submit(late, manual->now() + hours(3));
  auto f_middle = service.submit(middle, manual->now() + hours(2));
  auto f_early = service.submit(early, manual->now() + hours(1));

  gated.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(gated.inner()).cost);
  EXPECT_EQ(f_late.get().cost, dp::solve_sequential(late.inner()).cost);
  EXPECT_EQ(f_middle.get().cost,
            dp::solve_sequential(middle.inner()).cost);
  EXPECT_EQ(f_early.get().cost, dp::solve_sequential(early.inner()).cost);

  // The single worker drained in EDF order: earliest deadline first,
  // inverting submission order.
  EXPECT_EQ(journal->snapshot(), (std::vector<int>{3, 2, 1}));

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 4u);
  EXPECT_EQ(stats.jobs_expired, 0u);
  expect_class_accounted(stats);
}

TEST(ServeQos, ExpirySweepFreesAFullQueueWithoutAWorkerPickup) {
  constexpr std::size_t kQueueCap = 3;
  support::Rng rng(9002);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  ProbeProblem doomed_a(dp::MatrixChainProblem::random(13, rng));
  ProbeProblem doomed_b(dp::MatrixChainProblem::random(13, rng));
  ProbeProblem doomed_c(dp::MatrixChainProblem::random(13, rng));
  const auto normal = dp::MatrixChainProblem::random(13, rng);

  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  auto pinned = service.submit(gated);
  gated.wait_until_entered();

  // Fill every slot with deadline-carrying jobs, then let every
  // deadline pass with the worker still pinned.
  using std::chrono::milliseconds;
  const Deadline deadline = manual->now() + milliseconds(10);
  auto f_a = service.submit(doomed_a, deadline);
  auto f_b = service.submit(doomed_b, deadline);
  auto f_c = service.submit(doomed_c, deadline);
  manual->advance(milliseconds(20));

  // The overflow submit is *admitted*, not rejected: the enqueue-side
  // sweep expires all three queued jobs and takes one freed slot — no
  // worker pickup involved (the only worker is still blocked in the
  // gated solve).
  auto admitted = service.submit(normal);

  // The swept futures resolved synchronously, before any pickup, and
  // the expired problems were never touched.
  using std::future_status::ready;
  EXPECT_EQ(f_a.wait_for(std::chrono::seconds(0)), ready);
  EXPECT_EQ(f_b.wait_for(std::chrono::seconds(0)), ready);
  EXPECT_EQ(f_c.wait_for(std::chrono::seconds(0)), ready);
  expect_admission_error(f_a, AdmissionError::Kind::kDeadlineExceeded);
  expect_admission_error(f_b, AdmissionError::Kind::kDeadlineExceeded);
  expect_admission_error(f_c, AdmissionError::Kind::kDeadlineExceeded);
  EXPECT_EQ(doomed_a.calls(), 0u);
  EXPECT_EQ(doomed_b.calls(), 0u);
  EXPECT_EQ(doomed_c.calls(), 0u);
  EXPECT_EQ(service.stats().jobs_expired, 3u);

  gated.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(gated.inner()).cost);
  EXPECT_EQ(admitted.get().cost, dp::solve_sequential(normal).cost);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 5u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.jobs_expired, 3u);
  expect_class_accounted(stats);
}

TEST(ServeQos, InteractiveSubmitBehindABatchWallCompletesFirst) {
  constexpr std::size_t kWall = 6;
  support::Rng rng(9003);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  const auto journal = std::make_shared<OrderJournal>();

  // Tags: 0 = the gated pin, 100 = the interactive job, 1..kWall = the
  // batch wall.
  std::deque<OrderedProblem> wall;  // deque: OrderedProblem is pinned
                                    // in place (mutex member, immovable)
  for (std::size_t i = 0; i < kWall; ++i) {
    wall.emplace_back(dp::MatrixChainProblem::random(13, rng),
                      static_cast<int>(i) + 1, journal);
  }
  const OrderedProblem interactive(dp::MatrixChainProblem::random(13, rng),
                                   100, journal);

  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  auto pinned = service.submit(gated);
  gated.wait_until_entered();

  // Queue the batch wall through solve_all on a helper thread (the call
  // blocks until its last instance solves, long after the assertion).
  std::vector<const dp::Problem*> wall_ptrs;
  wall_ptrs.reserve(kWall);
  for (const OrderedProblem& p : wall) wall_ptrs.push_back(&p);
  auto wall_result = std::async(std::launch::async, [&] {
    return service.solve_all(wall_ptrs);
  });
  // Wait for the wall to be counted in (submission is counted before
  // the jobs become visible, and the worker is pinned, so nothing
  // drains yet).
  while (service.stats().jobs_submitted < 1 + kWall) {
    std::this_thread::yield();
  }

  // The interactive submit lands behind kWall queued batch jobs — and
  // is dequeued ahead of every one of them.
  auto f_interactive = service.submit(interactive);

  gated.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(gated.inner()).cost);
  EXPECT_EQ(f_interactive.get().cost,
            dp::solve_sequential(interactive.inner()).cost);
  const core::BatchResult batch = wall_result.get();
  for (std::size_t i = 0; i < kWall; ++i) {
    EXPECT_EQ(batch.results[i].cost,
              dp::solve_sequential(wall[i].inner()).cost);
  }

  // Completion order (the gated pin is not journalled): the
  // interactive job ran ahead of the entire batch wall.
  const std::vector<int> order = journal->snapshot();
  ASSERT_EQ(order.size(), kWall + 1);
  EXPECT_EQ(order[0], 100);

  const auto stats = service.stats();
  EXPECT_EQ(stats.interactive.submitted, 2u);  // pin + interactive
  EXPECT_EQ(stats.interactive.completed, 2u);
  EXPECT_EQ(stats.batch.submitted, kWall);
  EXPECT_EQ(stats.batch.completed, kWall);
  expect_class_accounted(stats);
}

TEST(ServeQos, PerClassCountersReconcileExactly) {
  constexpr std::size_t kQueueCap = 4;
  support::Rng rng(9004);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  const auto normal = dp::MatrixChainProblem::random(13, rng);
  ProbeProblem doomed_i(dp::MatrixChainProblem::random(13, rng));
  ProbeProblem doomed_b(dp::MatrixChainProblem::random(13, rng));

  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  // Worker pinned on an interactive job; then one live + one doomed
  // job per class fills the queue.
  auto pinned = service.submit(gated);
  gated.wait_until_entered();
  using std::chrono::milliseconds;
  auto f_i1 = service.submit(normal);
  auto f_b1 = service.submit(normal, PriorityClass::kBatch);
  auto f_i2 = service.submit(doomed_i, manual->now() + milliseconds(10));
  auto f_b2 = service.submit(doomed_b, PriorityClass::kBatch,
                             manual->now() + milliseconds(10));
  manual->advance(milliseconds(20));

  // Both doomed jobs expire in the enqueue sweep; their two freed slots
  // admit one more job per class.
  auto f_i3 = service.submit(normal);
  auto f_b3 = service.submit(normal, PriorityClass::kBatch);
  expect_admission_error(f_i2, AdmissionError::Kind::kDeadlineExceeded);
  expect_admission_error(f_b2, AdmissionError::Kind::kDeadlineExceeded);
  EXPECT_EQ(doomed_i.calls(), 0u);
  EXPECT_EQ(doomed_b.calls(), 0u);

  // The queue is full of live jobs again: one rejection per class.
  EXPECT_THROW((void)service.submit(normal), AdmissionError);
  EXPECT_THROW((void)service.submit(normal, PriorityClass::kBatch),
               AdmissionError);

  gated.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(gated.inner()).cost);
  const Cost expected = dp::solve_sequential(normal).cost;
  EXPECT_EQ(f_i1.get().cost, expected);
  EXPECT_EQ(f_i3.get().cost, expected);
  EXPECT_EQ(f_b1.get().cost, expected);
  EXPECT_EQ(f_b3.get().cost, expected);

  const auto stats = service.stats();
  EXPECT_EQ(stats.interactive.submitted, 5u);
  EXPECT_EQ(stats.interactive.completed, 3u);  // pin, i1, i3
  EXPECT_EQ(stats.interactive.rejected, 1u);
  EXPECT_EQ(stats.interactive.expired, 1u);
  EXPECT_EQ(stats.batch.submitted, 4u);
  EXPECT_EQ(stats.batch.completed, 2u);  // b1, b3
  EXPECT_EQ(stats.batch.rejected, 1u);
  EXPECT_EQ(stats.batch.expired, 1u);
  EXPECT_EQ(stats.jobs_submitted, 9u);
  EXPECT_EQ(stats.jobs_completed, 5u);
  EXPECT_EQ(stats.jobs_rejected, 2u);
  EXPECT_EQ(stats.jobs_expired, 2u);
  expect_class_accounted(stats);
}

TEST(ServeQos, RetryAfterHintCarriesDepthAndHistogramDrainEstimate) {
  constexpr std::size_t kQueueCap = 4;
  support::Rng rng(9005);
  GatedProblem warmup(dp::MatrixChainProblem::random(13, rng));
  GatedProblem repin(dp::MatrixChainProblem::random(13, rng));
  const auto normal = dp::MatrixChainProblem::random(13, rng);

  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const GateOpener open_warmup{warmup.gate()};
  const GateOpener open_repin{repin.gate()};

  // Phase 1 — seed the queue-wait histogram with a known distribution:
  // pin the worker, stack four jobs, age them 16ms, drain. The
  // histogram then holds one ~0 wait (the pin's own pickup) and four
  // 16ms waits.
  auto pinned = service.submit(warmup);
  warmup.wait_until_entered();
  using std::chrono::milliseconds;
  std::vector<std::future<core::SublinearResult>> aged;
  for (int i = 0; i < 4; ++i) aged.push_back(service.submit(normal));
  manual->advance(milliseconds(16));
  warmup.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(warmup.inner()).cost);
  for (auto& f : aged) {
    EXPECT_EQ(f.get().cost, dp::solve_sequential(normal).cost);
  }

  // Phase 2 — re-pin and refill, then overflow: the rejection must
  // carry the exact depth and the documented estimate p50(waits)/depth,
  // computed from the very histogram `stats()` exposes.
  auto repinned = service.submit(repin);
  repin.wait_until_entered();
  std::vector<std::future<core::SublinearResult>> fillers;
  for (std::size_t i = 0; i < kQueueCap; ++i) {
    fillers.push_back(service.submit(normal));
  }
  bool rejected = false;
  try {
    (void)service.submit(normal);
  } catch (const AdmissionError& e) {
    rejected = true;
    EXPECT_EQ(e.kind(), AdmissionError::Kind::kQueueFull);
    EXPECT_TRUE(e.has_hint());
    EXPECT_EQ(e.queue_depth(), kQueueCap);
    // No pickups can race this snapshot (the worker is pinned), so the
    // histogram the service consulted is the one stats() renders.
    const auto waits = service.stats().queue_wait;
    ASSERT_GT(waits.count, 0u);
    ASSERT_GT(waits.p50(), 0.0);
    const auto expected = std::chrono::nanoseconds(
        static_cast<std::int64_t>(waits.p50() /
                                  static_cast<double>(kQueueCap)));
    EXPECT_EQ(e.retry_after(), expected);
    EXPECT_GT(e.retry_after().count(), 0);
  }
  EXPECT_TRUE(rejected);

  repin.gate()->open_gate();
  EXPECT_EQ(repinned.get().cost, dp::solve_sequential(repin.inner()).cost);
  for (auto& f : fillers) {
    EXPECT_EQ(f.get().cost, dp::solve_sequential(normal).cost);
  }
  expect_class_accounted(service.stats());
}

TEST(ServeQos, RetryAfterFallsBackToConservativeDefaultWithoutSignal) {
  constexpr std::size_t kQueueCap = 2;
  support::Rng rng(9006);
  GatedProblem gated(dp::MatrixChainProblem::random(13, rng));
  const auto normal = dp::MatrixChainProblem::random(13, rng);

  // The clock never advances, so every recorded queue wait is exactly
  // zero — the histogram has entries but no nonzero signal, and the
  // hint must report the documented conservative default.
  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = kQueueCap;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const GateOpener opener{gated.gate()};

  auto pinned = service.submit(gated);
  gated.wait_until_entered();
  std::vector<std::future<core::SublinearResult>> fillers;
  for (std::size_t i = 0; i < kQueueCap; ++i) {
    fillers.push_back(service.submit(normal));
  }
  bool rejected = false;
  try {
    (void)service.submit(normal);
  } catch (const AdmissionError& e) {
    rejected = true;
    EXPECT_TRUE(e.has_hint());
    EXPECT_EQ(e.queue_depth(), kQueueCap);
    EXPECT_EQ(e.retry_after(), kRetryAfterConservativeDefault);
  }
  EXPECT_TRUE(rejected);

  gated.gate()->open_gate();
  EXPECT_EQ(pinned.get().cost, dp::solve_sequential(gated.inner()).cost);
  for (auto& f : fillers) {
    EXPECT_EQ(f.get().cost, dp::solve_sequential(normal).cost);
  }
  expect_class_accounted(service.stats());
}

}  // namespace
}  // namespace subdp::serve
