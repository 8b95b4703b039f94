// Quickstart: solve one matrix-chain instance with the paper's sublinear
// algorithm, then serve a stream of instances through the concurrent
// SolverService front door — blocking batches and async futures.
//
//   $ ./quickstart
//
// demonstrates the three lines a typical user needs:
//   MatrixChainProblem problem({30, 35, 15, 5, 10, 20, 25});
//   auto solution = subdp::core::solve(problem);
//   // solution.cost, solution.tree, solution.iterations, ...
//   // the PRAM work/depth ledger is on request: set
//   // options.machine.record_costs = true (the counted engine)
//
// and the serving-shaped API for heavy traffic:
//   serve::SolverService service;                 // hardware workers
//   auto batch  = service.solve_all(instances);   // blocking, ordered
//   auto future = service.submit(problem);        // async
//   // one SolvePlan per (n, options) in a bounded LRU cache, pooled
//   // sessions reset in place, instances overlapped across workers —
//   // results bit-identical to independent solves.
//
// including overload behavior under admission control: a bounded
// dispatch queue that either back-pressures (OverloadPolicy::kBlock) or
// sheds with a typed core::AdmissionError (kReject) carrying a
// retry-after hint the client sleeps on before resubmitting, and
// per-job deadlines that expire un-picked-up jobs instead of solving
// them —
// and plan persistence: `ServiceOptions::snapshot_dir` writes every
// built plan's key to a versioned on-disk snapshot store, and a
// restarted service prewarms the shapes named in the store's manifest
// before its first request, serving it with no plan-build stall.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "dp/matrix_chain.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"

namespace {

// Renders the decomposition tree as a parenthesization of A1..An.
std::string parenthesization(const subdp::trees::FullBinaryTree& tree,
                             subdp::trees::NodeId x) {
  if (tree.is_leaf(x)) {
    return "A" + std::to_string(tree.lo(x) + 1);
  }
  return "(" + parenthesization(tree, tree.left(x)) +
         parenthesization(tree, tree.right(x)) + ")";
}

}  // namespace

int main() {
  // The CLRS Section 15.2 chain: dimensions 30x35, 35x15, 15x5, 5x10,
  // 10x20, 20x25.
  const subdp::dp::MatrixChainProblem problem(
      {30, 35, 15, 5, 10, 20, 25});

  const subdp::core::Solution solution = subdp::core::solve(problem);

  std::printf("subdp quickstart: optimal matrix-chain multiplication\n");
  std::printf("  chain           : 6 matrices, dims 30x35 ... 20x25\n");
  std::printf("  optimal cost    : %lld scalar multiplications\n",
              static_cast<long long>(solution.cost));
  std::printf("  parenthesization: %s\n",
              parenthesization(solution.tree, solution.tree.root()).c_str());
  std::printf("  iterations      : %zu (worst-case schedule %zu = 2*ceil(sqrt n))\n",
              solution.iterations, solution.iteration_bound);

  // The PRAM work/depth ledger is the counted engine's; default options
  // take the fast path and keep none, so ask for it.
  subdp::core::SublinearOptions counted;
  counted.machine.record_costs = true;
  const subdp::core::Solution ledger = subdp::core::solve(problem, counted);
  std::printf("  PRAM work       : %llu elementary operations\n",
              static_cast<unsigned long long>(ledger.pram_work));
  std::printf("  PRAM depth      : %llu parallel time units\n",
              static_cast<unsigned long long>(ledger.pram_depth));

  // Heavy-traffic shape: many instances, few distinct sizes. The service
  // keeps one immutable SolvePlan per (n, options) in a bounded LRU
  // cache, checks reusable sessions out of a per-plan pool, and overlaps
  // independent instances across its worker threads; a solve that runs
  // alone also spreads its loops over the shared pool's idle cores.
  subdp::support::Rng rng(7);
  std::vector<subdp::dp::MatrixChainProblem> stream;
  for (int k = 0; k < 8; ++k) {
    stream.push_back(subdp::dp::MatrixChainProblem::random(24, rng));
  }
  std::vector<const subdp::dp::Problem*> instances;
  for (const auto& p : stream) instances.push_back(&p);

  subdp::serve::SolverService service;  // hardware_concurrency workers

  // Blocking surface: the whole batch at once, results in input order.
  const subdp::core::BatchResult out = service.solve_all(instances);
  long long cost_sum = 0;
  for (const auto& r : out.results) {
    cost_sum += static_cast<long long>(r.cost);
  }
  std::printf("\n  solve_all        : %zu instances of n=24 in %zu shape "
              "group(s), %zu plan(s) built, %zu worker(s)\n",
              out.ledger.instances, out.ledger.shape_groups,
              out.ledger.plans_built, service.workers());
  std::printf("  total iterations : %zu, summed optimal cost %lld\n",
              out.ledger.total_iterations, cost_sum);

  // Async surface: submit returns a future immediately; the plan and a
  // pooled session are resolved on a worker. Per-call options work too
  // (distinct (n, options) keys occupy distinct cache entries).
  std::vector<std::future<subdp::core::SublinearResult>> futures;
  for (const auto* p : instances) futures.push_back(service.submit(*p));
  bool async_matches = true;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const auto result = futures[k].get();
    async_matches = async_matches && result.cost == out.results[k].cost &&
                    result.iterations == out.results[k].iterations &&
                    result.w == out.results[k].w;
  }
  const subdp::serve::ServiceStats stats = service.stats();
  std::printf("  async submit     : %zu futures, results %s\n",
              futures.size(),
              async_matches ? "bit-identical to solve_all" : "DIVERGED");
  std::printf("  service stats    : %llu jobs, cache %llu hit / %llu miss, "
              "%llu session reuse(s)\n",
              static_cast<unsigned long long>(stats.jobs_completed),
              static_cast<unsigned long long>(stats.plan_cache.hits),
              static_cast<unsigned long long>(stats.plan_cache.misses),
              static_cast<unsigned long long>(stats.session_reuses));

  // Overload shape: a service with a deliberately tiny intake. The
  // 2-deep bounded queue under kReject sheds bursts with a typed
  // AdmissionError, and a job whose deadline has already passed
  // resolves with the same error instead of occupying a worker.
  // Whatever admission decides, the accounting is exact: every
  // submission ends up completed, rejected, or expired — exactly once.
  subdp::serve::ServiceOptions overload_options;
  overload_options.workers = 1;
  overload_options.queue_capacity = 2;
  overload_options.overload_policy = subdp::serve::OverloadPolicy::kReject;
  subdp::serve::SolverService bounded(overload_options);

  // Each rejection carries a retry-after hint: the queue depth it saw
  // and a drain estimate from the service's queue-wait histogram. A
  // well-behaved client sleeps that long and resubmits instead of
  // hammering the intake — here every shed submit eventually lands.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t max_depth_seen = 0;
  std::chrono::nanoseconds last_hint{0};
  std::vector<std::future<subdp::core::SublinearResult>> burst;
  for (const auto* p : instances) {
    for (;;) {
      try {
        burst.push_back(bounded.submit(*p));
        ++accepted;
        break;
      } catch (const subdp::core::AdmissionError& e) {
        ++rejected;  // queue full: shed instead of queueing unboundedly
        if (e.has_hint()) {
          max_depth_seen = std::max(max_depth_seen, e.queue_depth());
          last_hint = e.retry_after();
        }
        std::this_thread::sleep_for(
            e.has_hint()
                ? e.retry_after()
                : subdp::serve::kRetryAfterConservativeDefault);
      }
    }
  }
  for (auto& f : burst) (void)f.get();  // admitted jobs all complete
  std::printf("\n  retry-after      : %zu shed submit(s) retried after "
              "hinted backoff (depth %zu, last hint %.1f us) until all "
              "%zu landed\n",
              rejected, max_depth_seen, last_hint.count() / 1e3, accepted);

  // The queue is drained now, so this deadline-carrying submit is
  // admitted — but its deadline already passed, so the worker expires
  // it at pickup without a single f() evaluation.
  auto doomed = bounded.submit(
      stream.front(),
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  bool deadline_expired = false;
  try {
    (void)doomed.get();
  } catch (const subdp::core::AdmissionError& e) {
    deadline_expired =
        e.kind() == subdp::core::AdmissionError::Kind::kDeadlineExceeded;
  }

  const subdp::serve::ServiceStats bounded_stats = bounded.stats();
  std::printf("  overload (cap 2) : %zu admitted, %zu shed attempt(s), "
              "expired deadline %s\n",
              accepted, rejected, deadline_expired ? "shed" : "LOST");
  std::printf("  admission ledger : %llu submitted == %llu completed + "
              "%llu rejected + %llu expired\n",
              static_cast<unsigned long long>(bounded_stats.jobs_submitted),
              static_cast<unsigned long long>(bounded_stats.jobs_completed),
              static_cast<unsigned long long>(bounded_stats.jobs_rejected),
              static_cast<unsigned long long>(bounded_stats.jobs_expired));

  const bool admission_ok =
      deadline_expired && accepted == instances.size() &&
      bounded_stats.jobs_expired == 1 &&
      bounded_stats.jobs_submitted == bounded_stats.jobs_completed +
                                          bounded_stats.jobs_rejected +
                                          bounded_stats.jobs_expired;

  // Persistence shape: `snapshot_dir` moves plan builds off the request
  // path of a restarted service. Generation 1 builds the n=24 plan (a
  // snapshot miss), writes its key back to the store, and names the
  // shape in the prewarm manifest. The "restarted replica" — generation
  // 2 over the same directory — loads it in its constructor (the load
  // checks the stored key, then builds the plan it names), so its first
  // request finds a warm plan: no build on the request path,
  // bit-identical results.
  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() / "subdp-quickstart-snapshots")
          .string();
  std::filesystem::remove_all(snapshot_dir);
  subdp::serve::ServiceOptions persist_options;
  persist_options.workers = 2;
  persist_options.snapshot_dir = snapshot_dir;

  subdp::core::SublinearResult gen1;
  {
    subdp::serve::SolverService gen1_service(persist_options);
    gen1 = gen1_service.submit(stream.front()).get();  // builds + writes back
    gen1_service.snapshot_store()->flush();  // write-back is async; settle it
    gen1_service.snapshot_store()->write_manifest({24});  // the hot shapes
  }  // "process exit"

  bool snapshot_ok = false;
  {
    subdp::serve::SolverService gen2_service(persist_options);  // "restart"
    const subdp::serve::ServiceStats warm_stats = gen2_service.stats();
    const auto warm = gen2_service.submit(stream.front()).get();
    snapshot_ok = warm_stats.shapes_prewarmed == 1 &&
                  warm_stats.snapshot_hits == 1 && warm.cost == gen1.cost &&
                  warm.iterations == gen1.iterations && warm.w == gen1.w;
    std::printf("\n  plan snapshots   : %llu shape(s) prewarmed from disk, "
                "%llu snapshot hit(s), first request %s\n",
                static_cast<unsigned long long>(warm_stats.shapes_prewarmed),
                static_cast<unsigned long long>(warm_stats.snapshot_hits),
                snapshot_ok ? "bit-identical with zero build stalls"
                            : "DIVERGED");
  }
  std::filesystem::remove_all(snapshot_dir);

  // Observability shape: every service records per-stage latency
  // histograms (queue wait, plan build/load, solve, end-to-end) and a
  // per-job lifecycle trace for free. `stats()` carries the histogram
  // snapshots, `metrics()` renders them (with every counter) to
  // Prometheus text or JSON, and `export_trace()` emits Chrome
  // trace-event JSON — load it in Perfetto to see each job's span from
  // submit to resolve, rejections and expiries included.
  std::printf("\n  latency (e2e)    : %zu jobs, p50 %.1f us, p95 %.1f us, "
              "p99 %.1f us\n",
              static_cast<std::size_t>(stats.e2e.count),
              stats.e2e.p50() / 1e3, stats.e2e.p95() / 1e3,
              stats.e2e.p99() / 1e3);

  const std::string prometheus = service.metrics().to_prometheus();
  const std::string trace = bounded.export_trace();
  std::printf("  metrics export   : %zu bytes of Prometheus text "
              "(subdp_jobs_completed, subdp_e2e_ns_p95, ...)\n",
              prometheus.size());
  std::printf("  trace export     : %zu bytes of Chrome trace JSON "
              "covering completed, rejected and expired jobs\n",
              trace.size());

  const bool obs_ok =
      stats.e2e.count == stats.jobs_completed &&
      prometheus.find("subdp_jobs_completed") != std::string::npos &&
      prometheus.find("subdp_e2e_ns_p95") != std::string::npos &&
      trace.find("\"traceEvents\"") != std::string::npos &&
      trace.find("rejected") != std::string::npos &&
      trace.find("expired") != std::string::npos;

  const bool serve_ok = async_matches && out.ledger.plans_built == 1 &&
                        out.results.size() == 8 &&
                        stats.jobs_completed == 16;
  // textbook answer, intact serving + admission + persistence +
  // observability contracts
  return solution.cost == 15125 && serve_ok && admission_ok &&
                 snapshot_ok && obs_ok
             ? 0
             : 1;
}
