// Service-level observability tests: per-job trace spans covering every
// outcome (completed, rejected, expired, cold-deferred), stage latency
// histograms reconciling with the admission counters, the Prometheus /
// JSON metrics surface carrying every ServiceStats counter, manual-clock
// determinism, and the tracing-disabled / ring-overflow edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/solver_types.hpp"
#include "dp/matrix_chain.hpp"
#include "obs/clock.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"

namespace subdp::serve {
namespace {

dp::MatrixChainProblem chain(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return dp::MatrixChainProblem::random(n, rng);
}

bool balanced_json(const std::string& s) {
  return std::count(s.begin(), s.end(), '{') ==
             std::count(s.begin(), s.end(), '}') &&
         std::count(s.begin(), s.end(), '[') ==
             std::count(s.begin(), s.end(), ']');
}

TEST(ServiceTrace, CoversCompletedColdDeferredRejectedAndExpiredJobs) {
  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);

  const auto problem = chain(16, 11);
  // Completed (and cold-deferred: the first job of a cold shape goes
  // through the builder).
  auto done = service.submit(problem);
  (void)done.get();

  // Rejected: flood a 1-deep queue until at least one submit sheds.
  std::vector<std::future<core::SublinearResult>> flood;
  std::size_t rejected = 0;
  for (int k = 0; k < 64; ++k) {
    try {
      flood.push_back(service.submit(problem));
    } catch (const core::AdmissionError&) {
      ++rejected;
    }
  }
  for (auto& f : flood) (void)f.get();
  ASSERT_GE(rejected, 1u);

  // Expired: on the manual clock the deadline is deterministically in
  // the past at pickup — no sleeping, no racing the worker.
  auto doomed = service.submit(
      problem, manual->now() - std::chrono::milliseconds(1));
  EXPECT_THROW((void)doomed.get(), core::AdmissionError);

  const std::string trace = service.export_trace();
  EXPECT_TRUE(balanced_json(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("(completed)"), std::string::npos);
  EXPECT_NE(trace.find("(rejected)"), std::string::npos);
  EXPECT_NE(trace.find("(expired)"), std::string::npos);
  EXPECT_NE(trace.find("\"cold_deferred\": true"), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"cold_defer\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"plan_ready\""), std::string::npos);
  // The second and later jobs hit the now-warm cache.
  EXPECT_NE(trace.find("\"source\": \"cache-hit\""), std::string::npos);
  EXPECT_NE(trace.find("\"source\": \"cold-build\""), std::string::npos);
}

TEST(ServiceHistograms, EndToEndCountMatchesCompletedJobsExactly) {
  ServiceOptions options;
  options.workers = 2;
  SolverService service(options);
  const auto problem = chain(12, 21);
  std::vector<std::future<core::SublinearResult>> futures;
  for (int k = 0; k < 10; ++k) futures.push_back(service.submit(problem));
  for (auto& f : futures) (void)f.get();
  std::vector<const dp::Problem*> batch = {&problem, &problem, &problem};
  (void)service.solve_all(batch);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 13u);
  EXPECT_EQ(stats.e2e.count, stats.jobs_completed);
  EXPECT_EQ(stats.queue_wait.count, stats.jobs_completed);
  EXPECT_EQ(stats.solve.count, stats.jobs_completed);
  // One shape was materialised once (the cold build).
  EXPECT_EQ(stats.plan_build.count, 1u);
  EXPECT_EQ(stats.snapshot_load.count, 0u);  // no snapshot store
  // Per-shape split: a single n=12 banded/hlv label carrying all jobs.
  ASSERT_EQ(stats.e2e_by_shape.size(), 1u);
  EXPECT_EQ(stats.e2e_by_shape[0].first, "n12-banded-hlv");
  EXPECT_EQ(stats.e2e_by_shape[0].second.count, stats.jobs_completed);
}

TEST(ServiceHistograms, ManualClockMakesLatenciesDeterministic) {
  // With an injected manual clock that never moves, every stage latency
  // is exactly zero: the histograms collapse into the zero bucket and
  // the quantiles read 0 — proof the service measures on the seam, not
  // on the real clock.
  ServiceOptions options;
  options.workers = 1;
  options.clock = std::make_shared<obs::ManualClock>();
  SolverService service(options);
  const auto problem = chain(10, 31);
  for (int k = 0; k < 4; ++k) (void)service.submit(problem).get();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.e2e.count, 4u);
  EXPECT_EQ(stats.e2e.buckets[0], 4u);  // all exact zeros
  EXPECT_EQ(stats.e2e.sum, 0u);
  EXPECT_DOUBLE_EQ(stats.e2e.p99(), 0.0);
  EXPECT_EQ(stats.queue_wait.buckets[0], stats.queue_wait.count);
  EXPECT_EQ(stats.solve.buckets[0], stats.solve.count);
}

TEST(ServiceMetrics, PrometheusCarriesEveryServiceStatsCounter) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const auto problem = chain(12, 41);
  (void)service.submit(problem).get();

  const std::string text = service.metrics().to_prometheus();
  for (const char* name :
       {"subdp_workers", "subdp_jobs_submitted", "subdp_jobs_completed",
        "subdp_jobs_rejected", "subdp_jobs_expired",
        "subdp_jobs_cold_deferred", "subdp_total_iterations",
        "subdp_total_work", "subdp_total_depth", "subdp_sessions_created",
        "subdp_session_reuses", "subdp_snapshot_hits",
        "subdp_snapshot_misses", "subdp_snapshot_write_failures",
        "subdp_shapes_prewarmed", "subdp_plan_cache_capacity",
        "subdp_plan_cache_size", "subdp_plan_cache_hits",
        "subdp_plan_cache_misses", "subdp_plan_cache_evictions",
        "subdp_trace_dropped"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // Every stage histogram renders count/sum and the percentile gauges.
  for (const char* stage :
       {"subdp_queue_wait_ns", "subdp_plan_build_ns",
        "subdp_snapshot_load_ns", "subdp_solve_ns", "subdp_e2e_ns"}) {
    EXPECT_NE(text.find(std::string(stage) + "_count"), std::string::npos)
        << stage;
    EXPECT_NE(text.find(std::string(stage) + "_sum"), std::string::npos)
        << stage;
    EXPECT_NE(text.find(std::string(stage) + "_p50"), std::string::npos)
        << stage;
    EXPECT_NE(text.find(std::string(stage) + "_p95"), std::string::npos)
        << stage;
    EXPECT_NE(text.find(std::string(stage) + "_p99"), std::string::npos)
        << stage;
  }
  // The per-shape e2e family carries its shape label.
  EXPECT_NE(text.find("subdp_e2e_shape_ns"), std::string::npos);
  EXPECT_NE(text.find("shape=\"n12-banded-hlv\""), std::string::npos);

  const std::string json = service.metrics().to_json();
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // The completed job reached the queue-wait and e2e histograms of the
  // JSON rendering too: a zero count would mean the stage
  // instrumentation fell off the hot path.
  for (const char* stage : {"subdp_queue_wait_ns", "subdp_e2e_ns"}) {
    const std::string head = std::string("{\"name\": \"") + stage +
                             "\", \"labels\": \"\", \"count\": ";
    const std::size_t at = json.find(head);
    ASSERT_NE(at, std::string::npos) << stage;
    EXPECT_EQ(json.compare(at + head.size(), 2, "1,"), 0) << stage;
  }
}

TEST(ServiceTrace, DisabledTracingStillExportsAValidEmptyTrace) {
  ServiceOptions options;
  options.workers = 1;
  options.trace_capacity = 0;  // tracing off
  SolverService service(options);
  const auto problem = chain(10, 51);
  (void)service.submit(problem).get();

  const std::string trace = service.export_trace();
  EXPECT_TRUE(balanced_json(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(service.stats().trace_dropped, 0u);
  // Histograms keep working with tracing off.
  EXPECT_EQ(service.stats().e2e.count, 1u);
}

TEST(ServiceTrace, RingOverflowIsCountedNeverBlocking) {
  ServiceOptions options;
  options.workers = 1;
  options.trace_capacity = 2;  // tiny ring: most events drop
  SolverService service(options);
  const auto problem = chain(10, 61);
  std::vector<std::future<core::SublinearResult>> futures;
  for (int k = 0; k < 16; ++k) futures.push_back(service.submit(problem));
  for (auto& f : futures) (void)f.get();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 16u);  // overflow never loses jobs
  EXPECT_GE(stats.trace_dropped, 1u);
  EXPECT_TRUE(balanced_json(service.export_trace()));
}

TEST(ServiceStatsSnapshot, AdmissionInvariantStillHoldsWithObservability) {
  const auto manual = std::make_shared<obs::ManualClock>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload_policy = OverloadPolicy::kReject;
  options.clock = manual;
  SolverService service(options);
  const auto problem = chain(12, 71);
  std::size_t rejected = 0;
  std::vector<std::future<core::SublinearResult>> futures;
  for (int k = 0; k < 32; ++k) {
    try {
      futures.push_back(service.submit(problem));
    } catch (const core::AdmissionError&) {
      ++rejected;
    }
  }
  // Drain first: the deadline submit below must find queue space, not
  // another rejection.
  for (auto& f : futures) (void)f.get();
  auto doomed = service.submit(
      problem, manual->now() - std::chrono::milliseconds(1));
  EXPECT_THROW((void)doomed.get(), core::AdmissionError);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted,
            stats.jobs_completed + stats.jobs_rejected + stats.jobs_expired);
  EXPECT_EQ(stats.jobs_rejected, rejected);
  EXPECT_EQ(stats.e2e.count, stats.jobs_completed);
}

}  // namespace
}  // namespace subdp::serve
