// Experiment E9: real multicore wall-clock times.
//
// Two entry points share this binary:
//  * the google-benchmark suite below (default): sequential DP vs the
//    diagonal-parallel wavefront vs the sublinear solver across execution
//    backends, plus the raw pebbling game;
//  * `--json=<path>`: a machine-readable perf-trajectory sweep. For every
//    instance family in bench/common.hpp and a ladder of sizes it times
//    the solver end-to-end on every available backend (serial, threads,
//    and openmp when compiled in), for the engine's two execution paths:
//    "reference" (the instrumented oracle — full sweeps through the
//    general `get`, with the PRAM ledger on) and "fast" (the ledger off:
//    frontier-driven sweeps, in-band cursors, `PwGapRun` pebble scans and
//    incrementally maintained mark grids), across both pw layouts
//    (banded ladder to n = 256, entries-indexed dense past the old 64
//    cube cap). Where both paths run, the sweep asserts their cost,
//    iteration count and full w table are bit-identical before writing
//    rows. The instrumented PRAM work ledger is recorded once per
//    (family, n) up to n = 96 (larger counted runs would dominate the
//    sweep; rows above carry total_work = 0). Per family the sweep also
//    times the batched front door: 16 same-n banded instances through
//    BatchSolver::solve_all (plan built once, session tables reset in
//    place) against the same instances through a fresh per-instance
//    solver each — rows with mode "batch-amortised" / "batch-loop" and
//    an "instances" count — and through serve::SolverService, which
//    overlaps whole instances across worker threads (mode
//    "service-parallel", workers from `--workers=<k>`, default
//    hardware_concurrency). All paths are asserted bit-identical first;
//    the service additionally across worker counts {1, 4,
//    hardware_concurrency} and a shuffled async submission order. Every
//    row records "host_threads" and "workers", so rows measured on the
//    1-core container and rows from a real multicore rerun stay
//    distinguishable. The output (conventionally BENCH_walltime.json)
//    is what CI tracks across PRs.
//
//    `--families=<a,b,...>` restricts the sweep to a comma-separated
//    subset of families and `--max-n=<n>` caps the ladder (batch rows
//    clamp to it), so CI can smoke-run a single tiny batch row, e.g.
//    `--json=out.json --families=matrix-chain --max-n=32`.
//
//    `--snapshot-dir=<path>` adds a cold-start row pair per family: the
//    first-request latency of a fresh service with no persistence
//    ("service-coldstart": the plan build sits on the request path)
//    against a service restarted over a populated plan snapshot store +
//    prewarm manifest under `<path>/<family>` ("service-prewarmed": the
//    shape was rehydrated from disk before intake opened, so the first
//    request has no plan-build component). Both paths are asserted
//    bit-identical first, the prewarmed service must report at least one
//    snapshot hit (printed as "snapshot_hits=<k>" for CI to grep), and
//    the rows land in the JSON artifact like every other mode.
//
//    `--queue-cap=<n>` (with `--policy=block|reject`, default block)
//    adds an overload-mode row per family: the same instances pushed
//    through a service whose dispatch queue holds only `n` jobs, under
//    the chosen overload policy — mode "service-admission-<policy>",
//    kReject submitters retrying until admitted (rejection count
//    printed). Every completed result is asserted bit-identical to the
//    per-instance loop first, so the admission path is covered by the
//    same differential bar as the other service rows.
//
//    `--priority-mix=<i:b>` adds a QoS row per family: the instances
//    split into interactive (far-future deadlines) and batch traffic in
//    the i:b ratio, pushed through a tiny EDF-ordered intake (bounded
//    queue, OverloadPolicy::kReject, 2 plan builders); shed submits
//    back off by the rejection's retry-after hint and resubmit until
//    every instance lands — mode "service-qos", with the rejection
//    count and per-class completions printed. Bit-identity to the
//    per-instance loop holds for every completed job, and the
//    per-class ledgers must partition the service's global counters.
//
// The PRAM results are about operation counts; this suite grounds the
// simulator on actual hardware. On a machine with few cores the
// backend speedups are correspondingly modest — the *shape* to check is
// that parallel backends do not lose to serial on the larger sizes and
// that the fast path beats the reference engine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/batch_solver.hpp"
#include "core/sublinear_solver.hpp"
#include "serve/solver_service.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "dp/wavefront.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"
#include "trees/pebble_game.hpp"

namespace {

using namespace subdp;

dp::MatrixChainProblem make_chain(std::size_t n) {
  support::Rng rng(1234 + n);
  return dp::MatrixChainProblem::random(n, rng);
}

void BM_SequentialDp(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::solve_sequential(problem).cost);
  }
}
BENCHMARK(BM_SequentialDp)->Arg(64)->Arg(128)->Arg(256);

void BM_Wavefront(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  const auto backend = static_cast<pram::Backend>(state.range(1));
  pram::MachineOptions opts;
  opts.backend = backend;
  opts.record_costs = false;
  for (auto _ : state) {
    pram::Machine machine(opts);
    benchmark::DoNotOptimize(dp::solve_wavefront(problem, machine).cost);
  }
  state.SetLabel(pram::to_string(backend));
}
BENCHMARK(BM_Wavefront)
    ->Args({256, static_cast<int>(pram::Backend::kSerial)})
    ->Args({256, static_cast<int>(pram::Backend::kThreadPool)})
    ->Args({256, static_cast<int>(pram::Backend::kOpenMP)});

// range(2) selects the engine path: 0 = reference (the instrumented
// oracle), 1 = fast (ledger off, frontier-driven sweeps).
void BM_SublinearBanded(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  const auto backend = static_cast<pram::Backend>(state.range(1));
  const bool fast = state.range(2) != 0;
  for (auto _ : state) {
    core::SublinearOptions options;
    options.machine.backend = backend;
    options.machine.record_costs = !fast;
    core::SublinearSolver solver(options);
    benchmark::DoNotOptimize(solver.solve(problem).cost);
  }
  state.SetLabel(std::string(pram::to_string(backend)) +
                 (fast ? "/fast" : "/reference"));
}
BENCHMARK(BM_SublinearBanded)
    ->Args({32, static_cast<int>(pram::Backend::kSerial), 0})
    ->Args({32, static_cast<int>(pram::Backend::kSerial), 1})
    ->Args({32, static_cast<int>(pram::Backend::kThreadPool), 1})
    ->Args({64, static_cast<int>(pram::Backend::kSerial), 0})
    ->Args({64, static_cast<int>(pram::Backend::kSerial), 1})
    ->Args({64, static_cast<int>(pram::Backend::kThreadPool), 1})
    ->Args({64, static_cast<int>(pram::Backend::kOpenMP), 1});

void BM_SublinearDense(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::SublinearOptions options;
    options.variant = core::PwVariant::kDense;
    options.machine.record_costs = false;
    core::SublinearSolver solver(options);
    benchmark::DoNotOptimize(solver.solve(problem).cost);
  }
}
BENCHMARK(BM_SublinearDense)->Arg(32)->Arg(48)->Arg(96);

void BM_PebbleGame(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tree = trees::make_tree(trees::TreeShape::kZigzag, n);
  for (auto _ : state) {
    trees::PebbleGame game(tree);
    game.run_until_root(support::two_ceil_sqrt(n));
    benchmark::DoNotOptimize(game.moves_made());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.node_count()));
}
BENCHMARK(BM_PebbleGame)->Arg(1 << 10)->Arg(1 << 14);

// ---- --json sweep ----------------------------------------------------------

struct SweepRow {
  std::string family;
  std::size_t n = 0;
  std::string variant;  // "banded" | "dense"
  std::string engine;   // "reference" | "fast"
  std::string backend;  // "serial" | "threads" | "openmp"
  std::string mode = "single";  // | "batch-amortised" | "batch-loop"
                                // | "service-parallel"
  std::size_t instances = 1;    // problems timed in this row
  double wall_ms = 0.0;         // total across `instances`
  std::uint64_t total_work = 0;  // instrumented PRAM ops; 0 = not counted
  std::size_t iterations = 0;
  Cost cost = 0;
  // Host metadata: rows measured on a 1-core container and rows from a
  // real multicore rerun must stay distinguishable in the artifact.
  unsigned host_threads = std::thread::hardware_concurrency();
  unsigned workers = 1;  // host threads the row's parallelism ran across
  // Per-job end-to-end latency percentiles (service rows only; 0 for
  // single/batch rows, which time one call, not a job population).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// ns → ms for the histogram percentile columns.
double ns_to_ms(double ns) { return ns / 1e6; }

/// Writes `content` through a sibling temp file renamed over `path` (the
/// same crash-safe protocol as the main --json artifact).
void write_text_artifact(const std::string& path,
                         const std::string& content, const char* what) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n",
                 tmp_path.c_str());
    std::exit(1);
  }
  const std::size_t wrote =
      std::fwrite(content.data(), 1, content.size(), out);
  if (std::fclose(out) != 0 || wrote != content.size()) {
    std::remove(tmp_path.c_str());
    std::fprintf(stderr, "write to %s failed\n", tmp_path.c_str());
    std::exit(1);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    std::fprintf(stderr, "could not rename %s over %s\n", tmp_path.c_str(),
                 path.c_str());
    std::exit(1);
  }
  std::printf("(%s written to %s)\n", what, path.c_str());
}

struct TimedSolve {
  double ms = 0.0;
  core::SublinearResult result;
};

/// Times one solve (best of 2) on the fast path or, with `reference`, on
/// the instrumented oracle.
TimedSolve time_solve(const dp::Problem& problem, core::PwVariant variant,
                      bool reference, pram::Backend backend) {
  core::SublinearOptions options;
  options.variant = variant;
  options.machine.backend = backend;
  options.machine.record_costs = reference;
  core::SublinearSolver solver(options);
  TimedSolve out;
  for (int rep = 0; rep < 2; ++rep) {  // best-of-2 absorbs cold caches
    const auto t0 = std::chrono::steady_clock::now();
    auto result = solver.solve(problem);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.cost);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < out.ms) out.ms = ms;
    if (rep == 0) out.result = std::move(result);
  }
  return out;
}

/// One rung of a variant's size ladder. The instrumented oracle (counted
/// runs and reference rows) gets quadratically slower with n, so it
/// climbs only part of the way; the fast path is timed everywhere.
struct LadderPoint {
  std::size_t n = 0;
  bool run_reference = false;
  bool run_counted = false;
};

void sweep_variant(const dp::Problem& problem, const std::string& family,
                   core::PwVariant variant, const LadderPoint& point,
                   const std::vector<pram::Backend>& backends,
                   std::vector<SweepRow>& rows) {
  const std::size_t n = point.n;
  const char* variant_name = core::to_string(variant);

  std::uint64_t total_work = 0;
  std::size_t iterations = 0;
  if (point.run_counted) {
    // Work totals come from one instrumented serial run; they are
    // identical across engines and backends (the equivalence tests
    // enforce this), so measure them once.
    core::SublinearOptions counted;
    counted.variant = variant;
    counted.machine.backend = pram::Backend::kSerial;
    counted.machine.record_costs = true;
    core::SublinearSolver counter(counted);
    const auto counted_result = counter.solve(problem);
    total_work = counter.machine().costs().total_work();
    iterations = counted_result.iterations;
  }

  // The serial fast run doubles as the row source of truth; the serial
  // reference run, when it runs, must be bit-identical to it.
  std::optional<core::SublinearResult> reference_serial;
  std::optional<core::SublinearResult> fast_serial;
  for (const bool reference : {true, false}) {
    if (reference && !point.run_reference) continue;
    for (const pram::Backend backend : backends) {
      // Above the counted sizes the reference engine is timed on the
      // serial backend only, to keep the sweep's wall time bounded.
      if (reference && !point.run_counted &&
          backend != pram::Backend::kSerial) {
        continue;
      }
      TimedSolve timed = time_solve(problem, variant, reference, backend);
      if (backend == pram::Backend::kSerial) {
        (reference ? reference_serial : fast_serial) = timed.result;
      }
      SweepRow row;
      row.family = family;
      row.n = n;
      row.variant = variant_name;
      row.engine = reference ? "reference" : "fast";
      row.backend = pram::to_string(backend);
      row.wall_ms = timed.ms;
      row.total_work = total_work;
      row.iterations =
          point.run_counted ? iterations : timed.result.iterations;
      row.cost = timed.result.cost;
      row.workers = pram::backend_parallelism(backend);
      rows.push_back(row);
      std::printf("%-14s n=%-4zu %-7s %-11s %-7s %10.3f ms\n",
                  family.c_str(), n, variant_name, row.engine.c_str(),
                  row.backend.c_str(), row.wall_ms);
    }
  }
  if (reference_serial.has_value() && fast_serial.has_value()) {
    SUBDP_REQUIRE(reference_serial->cost == fast_serial->cost &&
                      reference_serial->iterations ==
                          fast_serial->iterations &&
                      reference_serial->w == fast_serial->w,
                  "fast path diverged from the reference engine");
  }
}

// ---- Batch rows: the plan-amortised front door vs a per-instance loop ----

/// Times `count` same-n instances of `family` through (a) a fresh
/// per-instance solver each — every instance pays plan construction —
/// (b) `BatchSolver::solve_all`, which builds the plan once and resets
/// pooled session tables in place across the group, and (c)
/// `serve::SolverService::solve_all` with `service_workers` workers
/// overlapping whole instances (each on the serial fast path). Asserts
/// all paths bit-identical before recording any row — the service
/// additionally across worker counts {1, 4, hardware_concurrency,
/// service_workers} and a shuffled async submission order.
/// `--priority-mix=<i:b>` ratio; {0, 0} disables the service-qos row.
struct PriorityMix {
  std::size_t interactive = 0;
  std::size_t batch = 0;
  [[nodiscard]] bool enabled() const {
    return interactive + batch > 0;
  }
};

void sweep_batch(const std::string& family, std::size_t n,
                 std::size_t count, std::size_t service_workers,
                 std::size_t queue_cap, serve::OverloadPolicy policy,
                 PriorityMix priority_mix,
                 const std::string& metrics_json,
                 const std::string& trace_json,
                 std::vector<SweepRow>& rows) {
  std::vector<std::unique_ptr<dp::Problem>> owned;
  owned.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    support::Rng rng(7000 + 131 * k + n);
    owned.push_back(bench::make_instance(family, n, rng));
  }
  std::vector<const dp::Problem*> pointers;
  pointers.reserve(count);
  for (const auto& p : owned) pointers.push_back(p.get());

  core::SublinearOptions options;
  options.machine.record_costs = false;

  std::vector<core::SublinearResult> loop_results(count);
  double loop_ms = 0.0;
  double batch_ms = 0.0;
  core::BatchResult batch_out;
  // Best-of-3: at n = 96 the per-instance preparation being amortised is
  // ~10-20 ms against multi-second totals, so single-shot timing noise
  // could drown the signal.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<core::SublinearResult> results(count);
    for (std::size_t k = 0; k < count; ++k) {
      core::SublinearSolver solver(options);  // pays preparation per instance
      results[k] = solver.solve(*pointers[k]);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < loop_ms) loop_ms = ms;
    if (rep == 0) loop_results = std::move(results);

    core::BatchSolver batch(options);  // cold cache: plan built inside
    const auto b0 = std::chrono::steady_clock::now();
    auto out = batch.solve_all(pointers);
    const auto b1 = std::chrono::steady_clock::now();
    const double bms =
        std::chrono::duration<double, std::milli>(b1 - b0).count();
    if (rep == 0 || bms < batch_ms) batch_ms = bms;
    if (rep == 0) batch_out = std::move(out);
  }

  for (std::size_t k = 0; k < count; ++k) {
    SUBDP_REQUIRE(batch_out.results[k].cost == loop_results[k].cost &&
                      batch_out.results[k].iterations ==
                          loop_results[k].iterations &&
                      batch_out.results[k].w == loop_results[k].w,
                  "batched solve diverged from the per-instance loop");
  }

  for (const bool amortised : {false, true}) {
    SweepRow row;
    row.family = family;
    row.n = n;
    row.variant = core::to_string(core::PwVariant::kBanded);
    row.engine = "fast";
    row.backend = pram::to_string(options.machine.backend);
    row.mode = amortised ? "batch-amortised" : "batch-loop";
    row.instances = count;
    row.wall_ms = amortised ? batch_ms : loop_ms;
    row.iterations = batch_out.ledger.total_iterations;
    row.cost = batch_out.results.front().cost;
    row.workers = pram::backend_parallelism(options.machine.backend);
    rows.push_back(row);
    std::printf("%-14s n=%-4zu %-7s %-15s x%zu  %10.3f ms\n",
                family.c_str(), n, row.variant.c_str(), row.mode.c_str(),
                count, row.wall_ms);
  }
  std::printf("%-14s n=%-4zu batch amortisation saves %.1f ms (%.1f%%)\n",
              family.c_str(), n, loop_ms - batch_ms,
              100.0 * (loop_ms - batch_ms) / loop_ms);

  // ---- Service rows: instances overlapped across workers ----

  const auto assert_identical = [&](const core::SublinearResult& got,
                                    std::size_t k, const char* what) {
    SUBDP_REQUIRE(got.cost == loop_results[k].cost &&
                      got.iterations == loop_results[k].iterations &&
                      got.w == loop_results[k].w,
                  std::string(what) +
                      " diverged from the per-instance loop");
  };

  // The acceptance bar: bit-identity for worker counts {1, 4,
  // hardware_concurrency} plus the timed count, whatever the host.
  std::vector<std::size_t> worker_counts = {
      1, 4, static_cast<std::size_t>(pram::backend_parallelism(
                pram::Backend::kThreadPool)),
      service_workers};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());
  for (const std::size_t workers : worker_counts) {
    serve::ServiceOptions service_options;
    service_options.solver = options;
    service_options.workers = workers;
    serve::SolverService service(service_options);
    const auto out = service.solve_all(pointers);
    for (std::size_t k = 0; k < count; ++k) {
      assert_identical(out.results[k], k, "service solve_all");
    }
  }

  // Shuffled async submission through the future API: submission order
  // must not leak into any result.
  {
    serve::ServiceOptions service_options;
    service_options.solver = options;
    service_options.workers = service_workers;
    serve::SolverService service(service_options);
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    support::Rng shuffle_rng(9100 + n);
    shuffle_rng.shuffle(order);
    std::vector<std::future<core::SublinearResult>> futures(count);
    for (const std::size_t k : order) {
      futures[k] = service.submit(*pointers[k]);
    }
    for (std::size_t k = 0; k < count; ++k) {
      assert_identical(futures[k].get(), k, "shuffled service submit");
    }
  }

  // The timed row mirrors the batch rows' protocol: cold service per
  // rep (plan built inside), best-of-3. The last rep's stats feed the
  // per-job latency percentile columns (every rep runs the identical
  // cold workload) and, with no admission row to prefer, the
  // --metrics-json / --trace-json artifacts.
  double service_ms = 0.0;
  serve::ServiceStats timed_stats;
  for (int rep = 0; rep < 3; ++rep) {
    serve::ServiceOptions service_options;
    service_options.solver = options;
    service_options.workers = service_workers;
    serve::SolverService service(service_options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = service.solve_all(pointers);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out.results.front().cost);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < service_ms) service_ms = ms;
    if (rep == 2) {
      timed_stats = service.stats();
      if (queue_cap == 0) {
        if (!metrics_json.empty()) {
          write_text_artifact(metrics_json, service.metrics().to_json(),
                              "metrics json");
        }
        if (!trace_json.empty()) {
          write_text_artifact(trace_json, service.export_trace(),
                              "trace json");
        }
      }
    }
  }
  SweepRow row;
  row.family = family;
  row.n = n;
  row.variant = core::to_string(core::PwVariant::kBanded);
  row.engine = "fast";
  // Per-solve backend: a multi-worker service normalises to serial; a
  // one-worker service keeps the configured backend.
  row.backend = pram::to_string(service_workers > 1
                                    ? pram::Backend::kSerial
                                    : options.machine.backend);
  row.mode = "service-parallel";
  row.instances = count;
  row.wall_ms = service_ms;
  row.iterations = batch_out.ledger.total_iterations;
  row.cost = batch_out.results.front().cost;
  // A 1-worker service keeps the configured backend, so the row's real
  // parallelism is that backend's, not the worker count.
  row.workers = service_workers > 1
                    ? static_cast<unsigned>(service_workers)
                    : pram::backend_parallelism(options.machine.backend);
  row.p50_ms = ns_to_ms(timed_stats.e2e.p50());
  row.p95_ms = ns_to_ms(timed_stats.e2e.p95());
  row.p99_ms = ns_to_ms(timed_stats.e2e.p99());
  rows.push_back(row);
  std::printf(
      "%-14s n=%-4zu %-7s %-15s x%zu  %10.3f ms (%u workers, "
      "p50/p95/p99 %.3f/%.3f/%.3f ms)\n",
      family.c_str(), n, row.variant.c_str(), row.mode.c_str(), count,
      row.wall_ms, row.workers, row.p50_ms, row.p95_ms, row.p99_ms);

  // ---- Overload row: bounded queue + admission policy (--queue-cap) ----

  if (queue_cap != 0) {
  serve::ServiceOptions admission_options;
  admission_options.solver = options;
  admission_options.workers = service_workers;
  admission_options.queue_capacity = queue_cap;
  admission_options.overload_policy = policy;
  serve::SolverService admission(admission_options);
  std::size_t rejections = 0;
  const auto a0 = std::chrono::steady_clock::now();
  std::vector<std::future<core::SublinearResult>> futures(count);
  for (std::size_t k = 0; k < count; ++k) {
    // kBlock back-pressures inside submit; kReject sheds, and this
    // (deliberately impatient) client retries until admitted so every
    // instance still completes and the row times the full batch.
    for (;;) {
      try {
        futures[k] = admission.submit(*pointers[k]);
        break;
      } catch (const core::AdmissionError&) {
        ++rejections;
        std::this_thread::yield();
      }
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    assert_identical(futures[k].get(), k, "admission service submit");
  }
  const auto a1 = std::chrono::steady_clock::now();
  SweepRow admission_row = row;
  admission_row.mode =
      std::string("service-admission-") + serve::to_string(policy);
  admission_row.wall_ms =
      std::chrono::duration<double, std::milli>(a1 - a0).count();
  const serve::ServiceStats admission_stats = admission.stats();
  admission_row.p50_ms = ns_to_ms(admission_stats.e2e.p50());
  admission_row.p95_ms = ns_to_ms(admission_stats.e2e.p95());
  admission_row.p99_ms = ns_to_ms(admission_stats.e2e.p99());
  // With an admission row in play, export its observability artifacts
  // instead of the plain service's: the trace then covers rejected jobs
  // and queue-wait under contention, the most interesting case.
  if (!metrics_json.empty()) {
    write_text_artifact(metrics_json, admission.metrics().to_json(),
                        "metrics json");
  }
  if (!trace_json.empty()) {
    write_text_artifact(trace_json, admission.export_trace(), "trace json");
  }
  rows.push_back(admission_row);
  std::printf(
      "%-14s n=%-4zu %-7s %-23s x%zu  %10.3f ms (cap %zu, %zu rejection(s), "
      "p95 %.3f ms)\n",
      family.c_str(), n, admission_row.variant.c_str(),
      admission_row.mode.c_str(), count, admission_row.wall_ms, queue_cap,
      rejections, admission_row.p95_ms);
  }

  // ---- QoS row: EDF intake + builder pool + retry-after (--priority-mix) ----

  if (!priority_mix.enabled()) return;
  serve::ServiceOptions qos_options;
  qos_options.solver = options;
  qos_options.workers = service_workers;
  qos_options.builders = 2;
  qos_options.queue_capacity = 4;  // small: the hint path must fire
  qos_options.overload_policy = serve::OverloadPolicy::kReject;
  serve::SolverService qos(qos_options);

  // Split the instances into the requested interactive:batch ratio.
  // Interactive jobs carry far-future deadlines, so the EDF order ranks
  // them ahead of the deadline-less batch traffic; every shed submit
  // backs off by the rejection's hinted retry-after and resubmits, so
  // all `count` instances still complete and the row times the batch.
  const std::size_t mix_period =
      priority_mix.interactive + priority_mix.batch;
  std::size_t qos_rejections = 0;
  const auto q0 = std::chrono::steady_clock::now();
  std::vector<std::future<core::SublinearResult>> qos_futures(count);
  for (std::size_t k = 0; k < count; ++k) {
    const bool interactive =
        k % mix_period < priority_mix.interactive;
    for (;;) {
      try {
        if (interactive) {
          qos_futures[k] = qos.submit(
              *pointers[k], serve::PriorityClass::kInteractive,
              std::chrono::steady_clock::now() + std::chrono::hours(1));
        } else {
          qos_futures[k] =
              qos.submit(*pointers[k], serve::PriorityClass::kBatch);
        }
        break;
      } catch (const core::AdmissionError& e) {
        ++qos_rejections;
        std::this_thread::sleep_for(
            e.has_hint() ? e.retry_after()
                         : serve::kRetryAfterConservativeDefault);
      }
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    assert_identical(qos_futures[k].get(), k, "qos service submit");
  }
  const auto q1 = std::chrono::steady_clock::now();
  const serve::ServiceStats qos_stats = qos.stats();
  // The class slices must partition the global ledger exactly, and
  // every instance must have completed despite the shedding.
  SUBDP_REQUIRE(qos_stats.jobs_completed == count,
                "qos row lost instances despite hinted retries");
  SUBDP_REQUIRE(qos_stats.interactive.completed +
                        qos_stats.batch.completed ==
                    qos_stats.jobs_completed,
                "qos per-class completions do not partition the total");
  SUBDP_REQUIRE(qos_stats.jobs_submitted ==
                    qos_stats.jobs_completed + qos_stats.jobs_rejected +
                        qos_stats.jobs_expired,
                "qos admission ledger does not reconcile");
  SweepRow qos_row = row;
  qos_row.mode = "service-qos";
  qos_row.wall_ms =
      std::chrono::duration<double, std::milli>(q1 - q0).count();
  qos_row.p50_ms = ns_to_ms(qos_stats.e2e.p50());
  qos_row.p95_ms = ns_to_ms(qos_stats.e2e.p95());
  qos_row.p99_ms = ns_to_ms(qos_stats.e2e.p99());
  rows.push_back(qos_row);
  std::printf(
      "%-14s n=%-4zu %-7s %-23s x%zu  %10.3f ms (mix %zu:%zu, "
      "%zu interactive + %zu batch completed, %zu hinted retry(ies), "
      "interactive p95 %.3f ms)\n",
      family.c_str(), n, qos_row.variant.c_str(), qos_row.mode.c_str(),
      count, qos_row.wall_ms, priority_mix.interactive, priority_mix.batch,
      static_cast<std::size_t>(qos_stats.interactive.completed),
      static_cast<std::size_t>(qos_stats.batch.completed), qos_rejections,
      ns_to_ms(qos_stats.interactive.e2e.p95()));
}

// ---- Snapshot rows: cold-start vs prewarmed first-request latency ----------

/// Times the first request of a fresh service against the first request
/// of a service restarted over a populated snapshot store (one store per
/// family under `snapshot_root`), asserting bit-identity and at least
/// one snapshot hit. See the file comment (`--snapshot-dir=`).
void sweep_snapshot(const std::string& family, std::size_t n,
                    std::size_t service_workers,
                    const std::string& snapshot_root,
                    std::vector<SweepRow>& rows) {
  support::Rng rng(8800 + n);
  const auto problem = bench::make_instance(family, n, rng);

  core::SublinearOptions options;
  options.machine.record_costs = false;
  serve::ServiceOptions cold_options;
  cold_options.solver = options;
  cold_options.workers = service_workers;
  const std::string dir = snapshot_root + "/" + family;

  // Cold: no persistence — the O(n^2 B^2) plan build happens on the
  // first request's critical path. Fresh service per rep (the build
  // only happens once per service), best-of-3.
  double cold_ms = 0.0;
  core::SublinearResult cold_result;
  for (int rep = 0; rep < 3; ++rep) {
    serve::SolverService service(cold_options);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = service.submit(*problem).get();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < cold_ms) cold_ms = ms;
    if (rep == 0) cold_result = std::move(result);
  }

  // Populate the family's store and its prewarm manifest once.
  serve::ServiceOptions snapshot_options = cold_options;
  snapshot_options.snapshot_dir = dir;
  {
    serve::SolverService service(snapshot_options);
    benchmark::DoNotOptimize(service.submit(*problem).get().cost);
    service.snapshot_store()->flush();
    service.snapshot_store()->write_manifest({n});
  }

  // Prewarmed: a restarted replica rehydrates the shape from disk in its
  // constructor, so the timed first request finds a warm cache entry —
  // no plan-build component at all.
  double warm_ms = 0.0;
  core::SublinearResult warm_result;
  std::uint64_t snapshot_hits = 0;
  for (int rep = 0; rep < 3; ++rep) {
    serve::SolverService service(snapshot_options);
    const auto stats = service.stats();
    SUBDP_REQUIRE(stats.shapes_prewarmed >= 1 && stats.snapshot_hits >= 1,
                  "prewarmed service did not load its plan snapshot");
    snapshot_hits = stats.snapshot_hits;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = service.submit(*problem).get();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < warm_ms) warm_ms = ms;
    if (rep == 0) warm_result = std::move(result);
  }
  SUBDP_REQUIRE(cold_result.cost == warm_result.cost &&
                    cold_result.iterations == warm_result.iterations &&
                    cold_result.w == warm_result.w,
                "snapshot-loaded plan diverged from the fresh build");

  for (const bool prewarmed : {false, true}) {
    SweepRow row;
    row.family = family;
    row.n = n;
    row.variant = core::to_string(core::PwVariant::kBanded);
    row.engine = "fast";
    row.backend = pram::to_string(service_workers > 1
                                      ? pram::Backend::kSerial
                                      : options.machine.backend);
    row.mode = prewarmed ? "service-prewarmed" : "service-coldstart";
    row.wall_ms = prewarmed ? warm_ms : cold_ms;
    row.iterations = cold_result.iterations;
    row.cost = cold_result.cost;
    row.workers = static_cast<unsigned>(service_workers);
    rows.push_back(row);
    const std::string suffix =
        prewarmed ? " snapshot_hits=" + std::to_string(snapshot_hits) : "";
    std::printf("%-14s n=%-4zu %-7s %-17s      %10.3f ms%s\n",
                family.c_str(), n, row.variant.c_str(), row.mode.c_str(),
                row.wall_ms, suffix.c_str());
  }
  std::printf(
      "%-14s n=%-4zu prewarming removes %.3f ms of first-request "
      "latency (%.1f%%)\n",
      family.c_str(), n, cold_ms - warm_ms,
      100.0 * (cold_ms - warm_ms) / cold_ms);
}

/// Comma-separated `--families=` filter; empty = all families.
std::vector<std::string> parse_family_filter(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= arg.size()) {
    const std::size_t comma = arg.find(',', begin);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > begin) out.push_back(arg.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

void run_json_sweep(const std::string& path,
                    const std::vector<std::string>& family_filter,
                    std::size_t max_n, std::size_t service_workers,
                    std::size_t queue_cap, serve::OverloadPolicy policy,
                    PriorityMix priority_mix,
                    const std::string& snapshot_dir,
                    const std::string& metrics_json,
                    const std::string& trace_json) {
  // Write through a sibling temp file, renamed over the target only once
  // a complete, non-empty artifact exists: the sweep takes minutes, and
  // an earlier version that opened (truncated) the target up front left
  // an empty BENCH_walltime.json behind when a mid-sweep failure killed
  // the run. Opening the temp file up front still fails bad paths before
  // measuring, not after.
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n",
                 tmp_path.c_str());
    std::exit(1);
  }
  const std::vector<LadderPoint> banded_ladder = {
      {32, true, true},   {64, true, true},  {96, true, true},
      {128, true, false}, {192, true, false}, {256, false, false}};
  // Entries-indexed dense: 96 is past the old 64 cube cap.
  const std::vector<LadderPoint> dense_ladder = {{48, true, true},
                                                 {96, false, false}};
  std::vector<pram::Backend> backends = {pram::Backend::kSerial,
                                         pram::Backend::kThreadPool};
  if (pram::openmp_available()) {
    backends.push_back(pram::Backend::kOpenMP);
  } else {
    std::printf("(openmp backend not compiled in; skipping its rows)\n");
  }
  std::vector<std::string> families = bench::instance_families();
  if (!family_filter.empty()) {
    families.clear();
    for (const std::string& name : family_filter) {
      bool known = false;
      for (const std::string& f : bench::instance_families()) {
        known = known || f == name;
      }
      if (!known) {
        std::fprintf(stderr, "unknown instance family: %s\n", name.c_str());
        std::exit(1);
      }
      families.push_back(name);
    }
  }
  // The batch rows' size: the acceptance point n = 96, clamped so a
  // --max-n smoke run stays tiny.
  const std::size_t batch_n = max_n < 96 ? max_n : 96;
  // 16 instances: twice the acceptance floor of 8, so the amortised
  // preparation (15 plan builds saved) stands clear of timing noise.
  constexpr std::size_t kBatchInstances = 16;

  std::vector<SweepRow> rows;
  for (const std::string& family : families) {
    for (const LadderPoint& point : banded_ladder) {
      if (point.n > max_n) continue;
      support::Rng rng(1234 + point.n);
      const auto problem = bench::make_instance(family, point.n, rng);
      sweep_variant(*problem, family, core::PwVariant::kBanded, point,
                    backends, rows);
    }
    for (const LadderPoint& point : dense_ladder) {
      if (point.n > max_n) continue;
      support::Rng rng(1234 + point.n);
      const auto problem = bench::make_instance(family, point.n, rng);
      sweep_variant(*problem, family, core::PwVariant::kDense, point,
                    backends, rows);
    }
    sweep_batch(family, batch_n, kBatchInstances, service_workers,
                queue_cap, policy, priority_mix, metrics_json, trace_json,
                rows);
    if (!snapshot_dir.empty()) {
      sweep_snapshot(family, batch_n, service_workers, snapshot_dir, rows);
    }
  }

  // Refuse to publish an empty or failed artifact: downstream CI treats
  // the target file as the source of truth, so a sweep that measured
  // nothing (or a write that errored) must exit loudly with the previous
  // artifact left untouched.
  if (rows.empty()) {
    std::fclose(out);
    std::remove(tmp_path.c_str());
    std::fprintf(stderr,
                 "sweep produced no rows; refusing to write %s\n",
                 path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"walltime\",\n  \"results\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const SweepRow& row = rows[r];
    std::fprintf(
        out,
        "    {\"family\": \"%s\", \"n\": %zu, \"variant\": \"%s\", "
        "\"engine\": \"%s\", \"backend\": \"%s\", "
        "\"mode\": \"%s\", "
        "\"instances\": %zu, \"host_threads\": %u, \"workers\": %u, "
        "\"wall_ms\": %.4f, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"total_work\": %llu, \"iterations\": %zu, \"cost\": %lld}%s\n",
        row.family.c_str(), row.n, row.variant.c_str(), row.engine.c_str(),
        row.backend.c_str(), row.mode.c_str(),
        row.instances, row.host_threads, row.workers, row.wall_ms,
        row.p50_ms, row.p95_ms, row.p99_ms,
        static_cast<unsigned long long>(row.total_work), row.iterations,
        static_cast<long long>(row.cost), r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    std::remove(tmp_path.c_str());
    std::fprintf(stderr, "write to %s failed; %s left untouched\n",
                 tmp_path.c_str(), path.c_str());
    std::exit(1);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    std::fprintf(stderr, "could not rename %s over %s\n", tmp_path.c_str(),
                 path.c_str());
    std::exit(1);
  }
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> family_filter;
  std::size_t max_n = SIZE_MAX;
  std::size_t service_workers = 0;  // 0 = hardware_concurrency
  std::size_t queue_cap = 0;        // 0 = no admission row
  serve::OverloadPolicy policy = serve::OverloadPolicy::kBlock;
  PriorityMix priority_mix;         // {0, 0} = no service-qos row
  std::string snapshot_dir;         // empty = no cold/prewarmed rows
  std::string metrics_json;         // empty = no metrics artifact
  std::string trace_json;           // empty = no Chrome trace artifact
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    } else if (std::strncmp(argv[a], "--families=", 11) == 0) {
      family_filter = parse_family_filter(argv[a] + 11);
    } else if (std::strncmp(argv[a], "--max-n=", 8) == 0) {
      max_n = static_cast<std::size_t>(std::strtoull(argv[a] + 8,
                                                     nullptr, 10));
      if (max_n < 2) {
        std::fprintf(stderr, "--max-n must be at least 2\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--workers=", 10) == 0) {
      service_workers = static_cast<std::size_t>(
          std::strtoull(argv[a] + 10, nullptr, 10));
      if (service_workers < 1) {
        std::fprintf(stderr, "--workers must be at least 1\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--queue-cap=", 12) == 0) {
      queue_cap = static_cast<std::size_t>(
          std::strtoull(argv[a] + 12, nullptr, 10));
      if (queue_cap < 1) {
        std::fprintf(stderr, "--queue-cap must be at least 1\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--priority-mix=", 15) == 0) {
      const char* spec = argv[a] + 15;
      char* colon = nullptr;
      priority_mix.interactive =
          static_cast<std::size_t>(std::strtoull(spec, &colon, 10));
      if (colon == nullptr || *colon != ':') {
        std::fprintf(stderr, "--priority-mix must look like <i>:<b>, "
                             "e.g. --priority-mix=3:1\n");
        return 1;
      }
      priority_mix.batch = static_cast<std::size_t>(
          std::strtoull(colon + 1, nullptr, 10));
      if (!priority_mix.enabled()) {
        std::fprintf(stderr, "--priority-mix needs a nonzero ratio\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--snapshot-dir=", 15) == 0) {
      snapshot_dir = argv[a] + 15;
      if (snapshot_dir.empty()) {
        std::fprintf(stderr, "--snapshot-dir needs a path\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--metrics-json=", 15) == 0) {
      metrics_json = argv[a] + 15;
      if (metrics_json.empty()) {
        std::fprintf(stderr, "--metrics-json needs a path\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--trace-json=", 13) == 0) {
      trace_json = argv[a] + 13;
      if (trace_json.empty()) {
        std::fprintf(stderr, "--trace-json needs a path\n");
        return 1;
      }
    } else if (std::strncmp(argv[a], "--policy=", 9) == 0) {
      const std::string name = argv[a] + 9;
      if (name == "block") {
        policy = serve::OverloadPolicy::kBlock;
      } else if (name == "reject") {
        policy = serve::OverloadPolicy::kReject;
      } else {
        std::fprintf(stderr, "--policy must be block or reject\n");
        return 1;
      }
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;
  if (service_workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    service_workers = hw != 0 ? hw : 1;
  }
  if (!json_path.empty()) {
    run_json_sweep(json_path, family_filter, max_n, service_workers,
                   queue_cap, policy, priority_mix, snapshot_dir,
                   metrics_json, trace_json);
    return 0;
  }
  if (!family_filter.empty() || max_n != SIZE_MAX || queue_cap != 0 ||
      priority_mix.enabled() || !snapshot_dir.empty() ||
      !metrics_json.empty() || !trace_json.empty()) {
    std::fprintf(stderr,
                 "--families / --max-n / --queue-cap / --policy / "
                 "--priority-mix / --snapshot-dir / --metrics-json / "
                 "--trace-json filter the --json sweep only\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
