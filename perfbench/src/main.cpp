// perfbench — the repository benchmark program.
//
//   perfbench --workload <serve-hot|serve-cold> --seed <n>
//             --seconds <s> --trace <0|1> --artifact <path>
//             [--trace-json <path>] [--scratch <dir>] [--git-sha <sha>]
//
// Runs one workload and writes a JSON artifact (header, metrics, request
// counts, reconciliation) to --artifact. `run.py` next to this directory
// builds the binary, runs it, and prints the metrics. See README.md for
// the workloads, every metric's definition, and which end-to-end metric
// each per-layer metric should move.
//
// --trace 0 measures the end-to-end metrics with every kind of tracing
// off (service trace ring, engine step profiles, PRAM cost ledger).
// --trace 1 runs the same traffic twice (untraced, then traced, half the
// time each), records spans around every layer call, probes each layer on
// the workload's own inputs, and reports the per-layer metrics.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "harness.hpp"
#include "pram/machine.hpp"
#include "serve/solver_service.hpp"
#include "snapshot/plan_snapshot.hpp"
#include "snapshot/snapshot_store.hpp"

namespace perfbench {
namespace {

namespace pram = subdp::pram;
namespace serve = subdp::serve;
namespace snapshot = subdp::snapshot;
using subdp::Cost;
using subdp::support::Rng;

// ---- Fixed workload parameters ---------------------------------------------
// Changing any of these changes the benchmark; see README.md.

constexpr std::size_t kHotShapes[] = {32, 48, 64};
constexpr std::size_t kHotVariants = 2;
constexpr std::size_t kSetupRepeats = 9;
/// Equal windows the measured traffic is cut into (see `end_to_end`).
constexpr std::size_t kWindows = 10;
/// Latency limits behind `slo_met_frac`, per workload.
constexpr double kSloHotMs = 250;
constexpr double kSloColdMs = 100;
/// Rounds of the core probe (each solves every probe instance twice).
constexpr std::size_t kCoreRounds = 3;
/// Tolerances of the layer reconciliations the traced run reports.
constexpr double kCoreResidualTolerance = 0.05;
constexpr double kServeE2eTolerance = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string artifact;
  std::string trace_json;
  std::string scratch = ".bench_out";
  std::string git_sha;
};

core::SublinearOptions solver_options(pram::Backend backend,
                                      bool profile = false) {
  core::SublinearOptions o;
  o.machine.backend = backend;
  o.machine.record_costs = false;
  o.profile = profile;
  return o;
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// ---- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, std::optional<double> value,
           const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }
  /// Appends one `"name": {...}` member to the reconciliation object.
  void add_note(const char* member) {
    if (!notes.empty()) notes += ", ";
    notes += member;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  /// Layer reconciliations outside their tolerance; any fails the run.
  std::size_t reconcile_failures = 0;
  std::string notes;  ///< JSON object members (reconciliations).

 private:
  std::vector<Metric> metrics_;
};

double ns_to_ms(double ns) { return ns / 1e6; }

std::optional<double> frac(double num, double den) {
  if (den <= 0) return std::nullopt;
  return num / den;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Counting decorator -------------------------------------------------------

/// Forwards to an instance and counts `f` evaluations: the repeatable work
/// count behind `dp.f_evals_per_solve`.
class CountingProblem final : public dp::Problem {
 public:
  explicit CountingProblem(const dp::Problem& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] Cost init(std::size_t i) const override {
    return inner_.init(i);
  }
  [[nodiscard]] Cost f(std::size_t i, std::size_t k,
                       std::size_t j) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return inner_.f(i, k, j);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t evals() const { return evals_.load(); }

 private:
  const dp::Problem& inner_;
  mutable std::atomic<std::uint64_t> evals_{0};
};

// ---- Request summaries -----------------------------------------------------

struct Traffic {
  std::vector<RequestRecord> records;
  Clock::time_point start{};
  double seconds = 0;  ///< Length of the sending window from `start`.
  std::vector<double> submit_us;  ///< Time inside `submit()`.
};

/// Latency samples of the completed requests `keep` selects.
template <class Keep>
std::vector<double> latencies(const Traffic& t, bool from_due, Keep keep) {
  std::vector<double> out;
  for (const RequestRecord& r : t.records) {
    if (r.failed || !keep(r)) continue;
    out.push_back(from_due ? r.due_latency_ms() : r.sent_latency_ms());
  }
  return out;
}

double late_max_ms(const Traffic& t) {
  double worst = 0;
  for (const RequestRecord& r : t.records) worst = std::max(worst, r.late_ms());
  return worst;
}

/// Adds every request of `t` to the run's attempted / failed counts.
void tally(Report& report, const Traffic& t) {
  for (const RequestRecord& r : t.records) {
    ++report.attempted;
    if (r.failed) ++report.failed;
    if (r.mismatch) ++report.mismatches;
  }
}

/// Fills the end-to-end metrics (except `setup_s` and `peak_rss_mb`). The
/// traffic is cut into `kWindows` equal windows by due time; the latency
/// quantiles and `slo_met_frac` are each the median over the windows of
/// the window's own figure, so a host slowdown that lasts less
/// than half the run does not move them. The quantiles over all samples
/// at once are kept as `latency_ms_p50_pooled` and `latency_ms_p90_pooled`.
template <class Keep>
void end_to_end(Report& report, const Traffic& t, bool from_due,
                double slo_ms, Keep keep) {
  struct Window {
    std::vector<double> latencies;
    std::size_t considered = 0, within = 0;
  };
  std::vector<Window> windows(kWindows);
  const double window_ms = t.seconds * 1000.0 / kWindows;
  std::size_t attempted = 0, failed = 0, completed = 0;
  Clock::time_point last_done = t.start;
  for (const RequestRecord& r : t.records) {
    ++attempted;
    if (r.failed) {
      ++failed;
    } else {
      ++completed;
      last_done = std::max(last_done, r.done);
    }
    const double at_ms = std::max(0.0, ms_between(t.start, r.due));
    Window& w = windows[std::min(kWindows - 1,
                                 static_cast<std::size_t>(at_ms / window_ms))];
    if (!keep(r)) continue;
    ++w.considered;  // a failed request counts as an SLO miss
    if (r.failed) continue;
    const double ms = from_due ? r.due_latency_ms() : r.sent_latency_ms();
    w.latencies.push_back(ms);
    if (ms <= slo_ms) ++w.within;
  }
  std::vector<double> p50, p90, slo;
  for (const Window& w : windows) {
    if (!w.latencies.empty()) {
      p50.push_back(quantile(w.latencies, 0.50));
      p90.push_back(quantile(w.latencies, 0.90));
    }
    if (w.considered > 0) {
      slo.push_back(static_cast<double>(w.within) /
                    static_cast<double>(w.considered));
    }
  }
  if (!p50.empty()) {
    report.set("latency_ms_p50", median(p50), "ms");
    report.set("latency_ms_p90", median(p90), "ms");
  }
  if (last_done > t.start) {
    report.set("throughput_per_s",
               static_cast<double>(completed) /
                   (ms_between(t.start, last_done) / 1000.0),
               "1/s");
  }
  if (!slo.empty()) report.set("slo_met_frac", median(slo), "frac");
  const std::vector<double> all = latencies(t, from_due, keep);
  if (!all.empty()) {
    report.set("latency_ms_p50_pooled", quantile(all, 0.50), "ms");
    report.set("latency_ms_p90_pooled", quantile(all, 0.90), "ms");
  }
  report.set("latency_samples", static_cast<double>(all.size()), "count");
  report.set("failed_frac", frac(static_cast<double>(failed),
                                 static_cast<double>(attempted)),
             "frac");
}

// ---- Core layer: one solve driven call by call ----------------------------

/// Sums of the timed `SolveSession` calls over a sequence of solves.
struct CoreTiming {
  double reset_ms = 0, step_ms = 0, finish_ms = 0;
  std::size_t solves = 0, steps = 0;
  double over_bound_sum = 0;
  double pw_bytes_sum = 0;

  [[nodiscard]] double parts_ms() const {
    return reset_ms + step_ms + finish_ms;
  }
};

/// `SolveSession::solve`, unrolled so that `reset`, every `step` and
/// `finish` are timed (and recorded as spans under `request`).
core::SublinearResult stepped_solve(core::SolveSession& session,
                                    const dp::Problem& problem,
                                    CoreTiming& timing, SpanRecorder* spans,
                                    std::uint64_t request) {
  const Clock::time_point t0 = Clock::now();
  session.reset(problem);
  const Clock::time_point t1 = Clock::now();
  timing.reset_ms += ms_between(t0, t1);
  if (spans) spans->add("reset", "core", request, t0, t1);
  const core::SolvePlan& plan = session.plan();
  if (!plan.trivial()) {
    std::size_t streak = 0;
    for (std::size_t iter = 0; iter < plan.iteration_cap(); ++iter) {
      const Clock::time_point s0 = Clock::now();
      const core::IterationOutcome out = session.step();
      const Clock::time_point s1 = Clock::now();
      timing.step_ms += ms_between(s0, s1);
      ++timing.steps;
      if (spans) spans->add("step", "core", request, s0, s1);
      const auto mode = plan.options().termination;
      if (mode == core::TerminationMode::kFixedPoint && !out.any_changed()) {
        break;
      }
      if (mode == core::TerminationMode::kWUnchangedTwice) {
        streak = out.pebble_changed == 0 ? streak + 1 : 0;
        if (streak >= 2) break;
      }
    }
  }
  const Clock::time_point f0 = Clock::now();
  core::SublinearResult result = session.finish();
  const Clock::time_point f1 = Clock::now();
  timing.finish_ms += ms_between(f0, f1);
  if (spans) {
    spans->add("finish", "core", request, f0, f1);
    spans->add("solve", "core", request, t0, f1);
  }
  ++timing.solves;
  timing.over_bound_sum += static_cast<double>(result.iterations) /
                           static_cast<double>(plan.iteration_bound());
  timing.pw_bytes_sum +=
      static_cast<double>(session.pw_cell_count() * sizeof(Cost));
  return result;
}

/// Plans (timed builds) and sessions per shape for a probe.
struct ShapeSessions {
  pram::Backend backend;
  bool profile = false;
  std::map<std::size_t, std::unique_ptr<core::SolveSession>> sessions;
  std::vector<double> build_ms;

  core::SolveSession& get(std::size_t n) {
    auto it = sessions.find(n);
    if (it != sessions.end()) return *it->second;
    const Clock::time_point t0 = Clock::now();
    auto plan = core::SolvePlan::create(n, solver_options(backend, profile));
    build_ms.push_back(ms_between(t0, Clock::now()));
    return *sessions.emplace(n, std::make_unique<core::SolveSession>(plan))
                .first->second;
  }
};


/// The core layer on `probe` instances (serial, as the service runs them):
/// timed session calls, one timed plan build per shape, and the
/// reconciliation of the session calls against `SolveSession::solve`,
/// timed on its own. Each round solves every instance once each way,
/// alternating which way goes first; the residual is the median over
/// these pairs of (solve wall - reset - sum of steps - finish) / solve
/// wall, so a host stall in one solve does not move it.
void core_probe(Report& report, const std::vector<const Instance*>& probe,
                SpanRecorder* spans, std::uint64_t& next_request) {
  ShapeSessions shapes{pram::Backend::kSerial};
  for (const Instance* inst : probe) {
    // The first solve on a session allocates its tables; keep it untimed.
    (void)shapes.get(inst->n).solve(*inst->problem);
  }
  CoreTiming timing;
  std::vector<double> residuals;
  double wall_sum_ms = 0;
  for (std::size_t round = 0; round < kCoreRounds; ++round) {
    for (const Instance* inst : probe) {
      core::SolveSession& session = shapes.get(inst->n);
      double wall_ms = 0, parts_ms = 0;
      const auto plain = [&] {
        const Clock::time_point t0 = Clock::now();
        const auto r = session.solve(*inst->problem);
        wall_ms = ms_between(t0, Clock::now());
        if (!matches_oracle(inst->oracle, r)) ++report.mismatches;
      };
      const auto stepped = [&] {
        const double before = timing.parts_ms();
        const auto r = stepped_solve(session, *inst->problem, timing, spans,
                                     next_request++);
        parts_ms = timing.parts_ms() - before;
        if (!matches_oracle(inst->oracle, r)) ++report.mismatches;
      };
      if (round % 2 == 0) {
        plain();
        stepped();
      } else {
        stepped();
        plain();
      }
      residuals.push_back((wall_ms - parts_ms) / wall_ms);
      wall_sum_ms += wall_ms;
    }
  }
  const auto s = static_cast<double>(timing.solves);
  const double residual = median(residuals);
  report.set("core.reset_ms", timing.reset_ms / s, "ms");
  report.set("core.step_ms",
             frac(timing.step_ms, static_cast<double>(timing.steps)), "ms");
  report.set("core.finish_ms", timing.finish_ms / s, "ms");
  report.set("core.layer_residual_frac", residual, "frac");
  report.set("core.iterations_per_solve",
             static_cast<double>(timing.steps) / s, "count");
  report.set("core.iterations_over_bound", timing.over_bound_sum / s, "frac");
  report.set("core.pw_bytes", timing.pw_bytes_sum / s, "B");
  report.set("core.plan_build_ms", mean(shapes.build_ms), "ms");

  const bool ok = std::abs(residual) <= kCoreResidualTolerance;
  if (!ok) ++report.reconcile_failures;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "\"core\": {\"pairs\": %zu, \"solve_wall_ms\": %.6f, "
                "\"reset_ms\": %.6f, \"steps_ms\": %.6f, "
                "\"finish_ms\": %.6f, \"residual_frac_median\": %.6f, "
                "\"tolerance\": %.2f, \"ok\": %s}",
                residuals.size(), wall_sum_ms, timing.reset_ms,
                timing.step_ms, timing.finish_ms, residual,
                kCoreResidualTolerance, ok ? "true" : "false");
  report.add_note(buf);
}

/// Engine step profiles and the `f`-evaluation count on `probe` instances,
/// solved serially with `SublinearOptions::profile` on.
void profile_probe(Report& report, const std::vector<const Instance*>& probe) {
  ShapeSessions shapes{pram::Backend::kSerial, /*profile=*/true};
  double visited = 0, split_sites = 0, quads_scanned = 0, quads_total = 0,
         pairs_scanned = 0, pairs_total = 0, marks_incremental = 0,
         marks_rebuilt = 0, log_entries = 0, steps = 0, evals = 0;
  for (const Instance* inst : probe) {
    const CountingProblem counted(*inst->problem);
    core::SolveSession& session = shapes.get(inst->n);
    const auto r = session.solve(counted);
    if (!matches_oracle(inst->oracle, r)) ++report.mismatches;
    evals += static_cast<double>(counted.evals());
    for (const core::StepProfile& p : session.step_profile()) {
      split_sites += static_cast<double>(p.total_split_sites);
      visited += static_cast<double>(
          p.activate_used_frontier ? p.frontier_sites : p.total_split_sites);
      quads_scanned += static_cast<double>(p.square_quads_scanned);
      quads_total += static_cast<double>(p.square_quads_total);
      pairs_scanned += static_cast<double>(p.pebble_pairs_scanned);
      pairs_total += static_cast<double>(p.pebble_pairs_total);
      marks_incremental += static_cast<double>(p.mark_updates_incremental);
      marks_rebuilt += static_cast<double>(p.mark_updates_rebuilt);
      log_entries += static_cast<double>(p.pw_log_entries + p.w_log_entries);
      steps += 1;
    }
  }
  report.set("core.activate_frontier_frac", frac(visited, split_sites),
             "frac");
  report.set("core.square_quads_scanned_frac",
             frac(quads_scanned, quads_total), "frac");
  report.set("core.pebble_pairs_scanned_frac",
             frac(pairs_scanned, pairs_total), "frac");
  report.set("core.marks_incremental_frac",
             frac(marks_incremental, marks_incremental + marks_rebuilt),
             "frac");
  report.set("core.write_log_entries_per_step", frac(log_entries, steps),
             "count");
  report.set("dp.f_evals_per_solve",
             frac(evals, static_cast<double>(probe.size())), "count");
}

/// Serial wall over threads-backend wall on `probe` instances (each shape
/// warmed once per backend first; the two backends alternate per instance).
void speedup_probe(Report& report, const std::vector<const Instance*>& probe) {
  ShapeSessions serial{pram::Backend::kSerial};
  ShapeSessions threads{pram::Backend::kThreadPool};
  for (const Instance* inst : probe) {
    if (serial.sessions.count(inst->n) == 0) {
      (void)serial.get(inst->n).solve(*inst->problem);
      (void)threads.get(inst->n).solve(*inst->problem);
    }
  }
  double serial_ms = 0, threads_ms = 0;
  for (const Instance* inst : probe) {
    Clock::time_point t0 = Clock::now();
    const auto a = serial.get(inst->n).solve(*inst->problem);
    serial_ms += ms_between(t0, Clock::now());
    t0 = Clock::now();
    const auto b = threads.get(inst->n).solve(*inst->problem);
    threads_ms += ms_between(t0, Clock::now());
    if (!matches_oracle(inst->oracle, a) || !matches_oracle(inst->oracle, b)) {
      ++report.mismatches;
    }
  }
  report.set("pram.parallel_speedup", frac(serial_ms, threads_ms), "x");
}

/// One fork-join round of `Machine::run_blocks` with a trivial body on the
/// threads backend: median over batches of rounds.
void fork_join_probe(Report& report) {
  pram::MachineOptions mo;
  mo.backend = pram::Backend::kThreadPool;
  mo.record_costs = false;
  pram::Machine machine(mo);
  const auto n = static_cast<std::int64_t>(
      8 * pram::backend_parallelism(pram::Backend::kThreadPool));
  std::atomic<std::int64_t> sink{0};
  const auto round = [&] {
    machine.run_blocks(n, [&](std::int64_t lo, std::int64_t hi) {
      sink.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  };
  constexpr int kBatch = 100;
  for (int i = 0; i < kBatch; ++i) round();
  std::vector<double> per_round_us;
  for (int b = 0; b < 30; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) round();
    per_round_us.push_back(ms_between(t0, Clock::now()) * 1000.0 / kBatch);
  }
  if (sink.load() != n * kBatch * 31) ++report.mismatches;
  report.set("pram.fork_join_us", median(per_round_us), "us");
}

/// Direct snapshot calls at n in {32, 64, 96}: `encode_plan`,
/// `decode_plan`, image size, and `SnapshotStore::load` (mmap + decode).
/// Returns the mean load time in ms.
double snapshot_probe(Report& report, const std::string& dir) {
  constexpr std::size_t kShapes[] = {32, 64, 96};
  constexpr int kRepeats = 5;
  std::vector<double> encode_ms, decode_ms, load_ms, bytes;
  snapshot::SnapshotStore store(dir);
  const core::SublinearOptions options =
      solver_options(pram::Backend::kSerial);
  for (const std::size_t n : kShapes) {
    const auto plan = core::SolvePlan::create(n, options);
    std::vector<double> enc, dec, load;
    std::shared_ptr<std::vector<std::uint8_t>> image;
    for (int r = 0; r < kRepeats; ++r) {
      Clock::time_point t0 = Clock::now();
      image = std::make_shared<std::vector<std::uint8_t>>(
          snapshot::encode_plan(*plan));
      enc.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      const auto decoded = snapshot::decode_plan(image->data(), image->size(),
                                                 image, n, options);
      dec.push_back(ms_between(t0, Clock::now()));
      if (decoded == nullptr || decoded->n() != n) ++report.mismatches;
    }
    if (!store.save(plan)) ++report.mismatches;
    for (int r = 0; r < kRepeats; ++r) {
      const Clock::time_point t0 = Clock::now();
      const auto loaded = store.load(n, options);
      load.push_back(ms_between(t0, Clock::now()));
      if (loaded == nullptr) ++report.mismatches;
    }
    encode_ms.push_back(median(enc));
    decode_ms.push_back(median(dec));
    load_ms.push_back(median(load));
    bytes.push_back(static_cast<double>(image->size()));
  }
  report.set("snapshot.encode_ms", mean(encode_ms), "ms");
  report.set("snapshot.decode_ms", mean(decode_ms), "ms");
  report.set("snapshot.bytes", mean(bytes), "B");
  return mean(load_ms);
}

// ---- Serve layer -----------------------------------------------------------

double hist_mean_ms(const subdp::obs::HistogramSnapshot& before,
                    const subdp::obs::HistogramSnapshot& after) {
  const auto count = static_cast<double>(after.count - before.count);
  return count > 0 ? ns_to_ms(static_cast<double>(after.sum - before.sum) /
                              count)
                   : 0;
}

/// Serve-stage metrics from two `ServiceStats` taken around the measured
/// traffic (exact means from `count` and `sum` only), plus the serve-stage
/// reconciliation against the benchmark's own submit-to-result samples.
void serve_layer(Report& report, const serve::ServiceStats& a,
                 const serve::ServiceStats& b, const Traffic& traffic,
                 double direct_load_ms, std::uint64_t own_dropped) {
  const double queue = hist_mean_ms(a.queue_wait, b.queue_wait);
  const double solve = hist_mean_ms(a.solve, b.solve);
  const double e2e = hist_mean_ms(a.e2e, b.e2e);
  report.set("serve.queue_wait_ms_mean", queue, "ms");
  report.set("serve.solve_ms_mean", solve, "ms");
  report.set("serve.overhead_ms_mean", e2e - queue - solve, "ms");
  // Lifetime: on a warm workload every build happened during set-up.
  report.set("serve.plan_build_ms_mean", ns_to_ms(b.plan_build.mean()), "ms");
  const auto hits = static_cast<double>(b.plan_cache.hits - a.plan_cache.hits);
  const auto misses =
      static_cast<double>(b.plan_cache.misses - a.plan_cache.misses);
  report.set("serve.plan_hit_frac", frac(hits, hits + misses), "frac");
  report.set("serve.plan_evictions",
             static_cast<double>(b.plan_cache.evictions - a.plan_cache.evictions),
             "count");
  report.set("serve.cold_deferred_frac",
             frac(static_cast<double>(b.jobs_cold_deferred - a.jobs_cold_deferred),
                  static_cast<double>(b.jobs_submitted - a.jobs_submitted)),
             "frac");
  const auto reused = static_cast<double>(b.session_reuses - a.session_reuses);
  const auto created =
      static_cast<double>(b.sessions_created - a.sessions_created);
  report.set("serve.session_reuse_frac", frac(reused, reused + created),
             "frac");
  if (!traffic.submit_us.empty()) {
    report.set("serve.submit_us", median(traffic.submit_us), "us");
  }
  report.set("snapshot.hits",
             static_cast<double>(b.snapshot_hits - a.snapshot_hits), "count");
  // Mean over the service's own snapshot loads; a workload whose service
  // loads none reports the direct `SnapshotStore::load` probe instead.
  report.set("snapshot.load_ms_mean",
             b.snapshot_load.count > 0 ? ns_to_ms(b.snapshot_load.mean())
                                       : direct_load_ms,
             "ms");
  report.set("obs.trace_dropped",
             static_cast<double>(b.trace_dropped + own_dropped), "count");

  std::vector<double> observed;
  for (const RequestRecord& r : traffic.records) {
    if (!r.failed) observed.push_back(r.sent_latency_ms());
  }
  const double bench_mean = mean(observed);
  const double diff = bench_mean > 0 ? (bench_mean - e2e) / bench_mean : 0;
  const bool ok = std::abs(diff) <= kServeE2eTolerance;
  if (!ok) ++report.reconcile_failures;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"serve\": {\"bench_submit_to_result_ms_mean\": %.6f, "
                "\"service_e2e_ms_mean\": %.6f, \"queue_wait_ms_mean\": %.6f, "
                "\"solve_ms_mean\": %.6f, \"overhead_ms_mean\": %.6f, "
                "\"e2e_gap_frac\": %.6f, \"tolerance\": %.2f, \"ok\": %s}",
                bench_mean, e2e, queue, solve, e2e - queue - solve, diff,
                kServeE2eTolerance, ok ? "true" : "false");
  report.add_note(buf);
}

serve::ServiceOptions service_options(std::size_t workers, bool traced,
                                      std::string snapshot_dir) {
  serve::ServiceOptions o;
  o.solver = solver_options(pram::default_backend());
  o.workers = workers;
  o.trace_capacity = traced ? serve::ServiceOptions{}.trace_capacity : 0;
  o.snapshot_dir = std::move(snapshot_dir);
  return o;
}

/// Closed loop: one generator thread keeps `outstanding` requests in flight
/// until `seconds` pass (or `max_requests` were sent), drawing instances
/// from `pool` in a seeded order; latency runs from submit to result.
Traffic closed_loop(serve::SolverService& service,
                    const std::vector<Instance>& pool, Rng& order,
                    double seconds, std::size_t max_requests,
                    std::size_t outstanding, SpanRecorder* spans,
                    std::uint64_t& next_request) {
  Traffic t;
  Collector collector(outstanding, [&](std::size_t tag,
                                       const core::SublinearResult& r) {
    return matches_oracle(pool[tag].oracle, r);
  });
  t.start = Clock::now();
  t.seconds = seconds;
  const Clock::time_point end =
      t.start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  for (std::size_t sent = 0; sent < max_requests; ++sent) {
    const Clock::time_point due = collector.wait_for_slot(outstanding);
    if (Clock::now() >= end) break;
    const auto tag = static_cast<std::size_t>(
        order.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    RequestRecord rec;
    rec.id = next_request++;
    rec.due = due;
    rec.sent = Clock::now();
    std::future<core::SublinearResult> future;
    try {
      future = service.submit(*pool[tag].problem);
    } catch (...) {
      rec.done = Clock::now();
      rec.failed = true;
      collector.add_failed(rec);
      continue;
    }
    const Clock::time_point submitted = Clock::now();
    t.submit_us.push_back(ms_between(rec.sent, submitted) * 1000.0);
    if (spans) spans->add("submit", "serve", rec.id, rec.sent, submitted);
    collector.add(rec, std::move(future), tag);
  }
  t.records = collector.drain();
  if (spans) {
    for (const RequestRecord& r : t.records) {
      spans->add("request", "bench", r.id, r.sent, r.done);
    }
  }
  return t;
}

std::vector<const Instance*> pointers(const std::vector<Instance>& pool) {
  std::vector<const Instance*> out;
  for (const Instance& i : pool) out.push_back(&i);
  return out;
}

template <class Keep>
double p50_ms(const Traffic& t, bool from_due, Keep keep) {
  const auto lat = latencies(t, from_due, keep);
  return lat.empty() ? 0 : quantile(lat, 0.5);
}

// ---- Workloads -----------------------------------------------------------------

struct Run {
  const Args& args;
  Report report;
  SpanRecorder spans;
  std::vector<std::string> service_traces;
  std::uint64_t next_request = 0;
  std::vector<std::string> dirs;  ///< Scratch directories to remove.
  /// Peak RSS once the instance pool and its oracle answers exist; the
  /// run's `peak_rss_mb` is the peak above this.
  double pool_rss_mb = 0;

  Clock::time_point started = Clock::now();

  SpanRecorder* recorder() { return args.trace ? &spans : nullptr; }

  /// Progress on stderr, with the time since the run started.
  void note(const char* what) const {
    std::fprintf(stderr, "[perfbench %s +%.1fs] %s\n", args.workload.c_str(),
                 ms_between(started, Clock::now()) / 1000.0, what);
  }

  /// A fresh, empty directory under the scratch root.
  std::string fresh_dir(const char* what) {
    const std::filesystem::path dir =
        std::filesystem::path(args.scratch) /
        (std::string(what) + "-" + args.workload + "-" +
         std::to_string(args.seed) + "-" + std::to_string(dirs.size()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs.push_back(dir.string());
    return dir.string();
  }

  /// Records the peak RSS once the instance pool exists.
  void pool_ready() {
    pool_rss_mb = peak_rss_mb();
    note("instances generated");
  }

  void set_setup(const std::vector<double>& setup_s) {
    report.set("setup_s", median(setup_s), "s");
    char buf[128];
    std::snprintf(buf, sizeof(buf), "set-up done (%zu: min %.4f s, max %.4f s)",
                  setup_s.size(), quantile(setup_s, 0), quantile(setup_s, 1));
    note(buf);
  }

  /// The traced-run extras every workload shares: PRAM and snapshot
  /// probes, the observability overhead, and the generator lag.
  void common_layers(double untraced_p50, double traced_p50,
                     const Traffic& traced) {
    fork_join_probe(report);
    report.set("obs.trace_overhead_frac",
               untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "frac");
    report.set("bench.generator_late_ms_max", late_max_ms(traced), "ms");
  }
};

/// Builds a service and sends `warm` through it; returns it with the
/// set-up time (construction + warm-up requests) appended to `setup_s`.
std::unique_ptr<serve::SolverService> start_service(
    Run& run, serve::ServiceOptions options,
    const std::vector<const Instance*>& warm,
    const std::vector<serve::PriorityClass>& classes,
    std::vector<double>& setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto service = std::make_unique<serve::SolverService>(std::move(options));
  std::vector<std::future<core::SublinearResult>> futures;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    futures.push_back(service->submit(*warm[i]->problem, classes[i]));
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (!matches_oracle(warm[i]->oracle, futures[i].get())) {
      ++run.report.mismatches;
    }
  }
  setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  return service;
}

void serve_hot(Run& run) {
  const Args& args = run.args;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 2);
  std::vector<Instance> pool;
  for (std::size_t v = 0; v < kHotVariants; ++v) {
    for (const std::size_t n : kHotShapes) {
      for (const char* family : kFamilies) {
        pool.push_back(make_instance(family, n, rng));
      }
    }
  }
  run.pool_ready();
  // Warm-up sends the largest instances first, so the workers finish at
  // about the same time and set-up does not hinge on which worker drew
  // the last large solve.
  std::vector<const Instance*> warm = pointers(pool);
  std::stable_sort(warm.begin(), warm.end(),
                   [](const Instance* a, const Instance* b) {
                     return a->n > b->n;
                   });
  const std::vector<serve::PriorityClass> classes(
      warm.size(), serve::PriorityClass::kInteractive);
  const std::size_t workers = nproc();
  const std::size_t outstanding = 2 * workers;
  const auto keep_all = [](const RequestRecord&) { return true; };

  std::vector<double> setup_s;
  std::unique_ptr<serve::SolverService> service;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    service = start_service(run, service_options(workers, false, ""), warm,
                            classes, setup_s);
  }
  run.set_setup(setup_s);

  Rng order(args.seed + 3);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const Traffic a = closed_loop(*service, pool, order, phase_s, SIZE_MAX,
                                outstanding, nullptr, run.next_request);
  tally(run.report, a);
  service.reset();
  run.note("traffic done");
  if (!args.trace) {
    end_to_end(run.report, a, /*from_due=*/false, kSloHotMs, keep_all);
    return;
  }
  std::vector<double> traced_setup;
  service = start_service(run, service_options(workers, true, ""), warm,
                          classes, traced_setup);
  const serve::ServiceStats before = service->stats();
  const Traffic b = closed_loop(*service, pool, order, phase_s, SIZE_MAX,
                                outstanding, run.recorder(), run.next_request);
  tally(run.report, b);
  const serve::ServiceStats after = service->stats();
  run.service_traces.push_back(service->export_trace());
  service.reset();
  end_to_end(run.report, b, false, kSloHotMs, keep_all);

  const double direct_load_ms =
      snapshot_probe(run.report, run.fresh_dir("snapshot-probe"));
  serve_layer(run.report, before, after, b, direct_load_ms,
              run.spans.dropped());
  core_probe(run.report, warm, run.recorder(), run.next_request);
  profile_probe(run.report, warm);
  speedup_probe(run.report, warm);
  run.common_layers(p50_ms(a, false, keep_all), p50_ms(b, false, keep_all),
                    b);
}

void serve_cold(Run& run) {
  const Args& args = run.args;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
  // pool[n - kColdInteractiveMinN]. The family rotates with n, so every
  // seed has the same mix.
  std::vector<Instance> pool;
  for (std::size_t n = kColdInteractiveMinN; n <= kColdBatchMaxN; ++n) {
    pool.push_back(make_instance(kFamilies[n % std::size(kFamilies)], n, rng));
  }
  run.pool_ready();
  const auto at = [&](std::size_t n) -> Instance& {
    return pool[n - kColdInteractiveMinN];
  };
  // Warm-up: one request at every interactive shape, largest first (as on
  // serve-hot). With only every eighth shape warmed, set-up took about
  // 0.1 s, and its median over a run still spread by a quarter between
  // runs; each set-up's snapshots are removed before they reach the disk.
  std::vector<const Instance*> warm, probe;
  for (std::size_t n = kColdInteractiveMaxN; n >= kColdInteractiveMinN; --n) {
    warm.push_back(&at(n));
  }
  for (std::size_t n = kColdInteractiveMinN; n <= kColdBatchMaxN; n += 8) {
    probe.push_back(&at(n));
  }
  const std::vector<serve::PriorityClass> classes(
      warm.size(), serve::PriorityClass::kInteractive);
  const std::size_t workers = nproc();
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Arrival> schedule =
      make_open_loop_schedule(args.seed, phase_s);

  std::vector<double> setup_s;
  std::unique_ptr<serve::SolverService> service;
  std::string setup_dir;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    // The replaced service's snapshots go at once, before the kernel
    // writes them back: written back during the traffic they would compete
    // with it for the disk, and once written back, removing them is slow
    // (tens of seconds for a few hundred MB on a disk mounted with
    // `discard`).
    if (!setup_dir.empty()) std::filesystem::remove_all(setup_dir);
    setup_dir = run.fresh_dir("snapshots");
    service = start_service(run, service_options(workers, false, setup_dir),
                            warm, classes, setup_s);
  }
  run.set_setup(setup_s);

  const auto drive = [&](serve::SolverService& svc, SpanRecorder* spans) {
    Traffic t;
    Collector collector(64, [&](std::size_t tag,
                                const core::SublinearResult& r) {
      return matches_oracle(pool[tag].oracle, r);
    });
    const std::uint64_t first_id = run.next_request;
    std::uint64_t id = first_id;
    t.start = Clock::now() + std::chrono::milliseconds(1);
    t.seconds = phase_s;
    run.next_request += run_open_loop(
        schedule, t.start, collector,
        [&](const Arrival& a, std::size_t& tag) {
          const std::uint64_t request = id++;
          tag = a.n - kColdInteractiveMinN;
          const Clock::time_point t0 = Clock::now();
          auto future = svc.submit(*pool[tag].problem,
                                   a.batch ? serve::PriorityClass::kBatch
                                           : serve::PriorityClass::kInteractive);
          const Clock::time_point t1 = Clock::now();
          t.submit_us.push_back(ms_between(t0, t1) * 1000.0);
          if (spans) spans->add("submit", "serve", request, t0, t1);
          return future;
        });
    t.records = collector.drain();
    for (RequestRecord& r : t.records) r.id += first_id;
    if (spans) {
      for (const RequestRecord& r : t.records) {
        spans->add("request", "bench", r.id, r.due, r.done);
      }
    }
    return t;
  };
  const auto interactive = [](const RequestRecord& r) { return !r.batch; };

  const Traffic a = drive(*service, nullptr);
  tally(run.report, a);
  service.reset();
  std::filesystem::remove_all(setup_dir);
  run.note("traffic done");
  if (!args.trace) {
    end_to_end(run.report, a, /*from_due=*/true, kSloColdMs, interactive);
    run.report.set("bench.generator_late_ms_max", late_max_ms(a), "ms");
    return;
  }
  std::vector<double> traced_setup;
  service = start_service(
      run, service_options(workers, true, run.fresh_dir("snapshots")), warm,
      classes, traced_setup);
  const serve::ServiceStats before = service->stats();
  const Traffic b = drive(*service, run.recorder());
  tally(run.report, b);
  const serve::ServiceStats after = service->stats();
  run.service_traces.push_back(service->export_trace());
  service.reset();
  end_to_end(run.report, b, true, kSloColdMs, interactive);

  const double direct_load_ms =
      snapshot_probe(run.report, run.fresh_dir("snapshot-probe"));
  serve_layer(run.report, before, after, b, direct_load_ms,
              run.spans.dropped());
  core_probe(run.report, probe, run.recorder(), run.next_request);
  profile_probe(run.report, probe);
  speedup_probe(run.report, probe);
  run.common_layers(p50_ms(a, true, interactive), p50_ms(b, true, interactive),
                    b);
}

// ---- Artifact ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(std::optional<double> v) {
  if (!v.has_value() || !std::isfinite(*v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

/// The CPU brand string from CPUID, or empty where unavailable.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const std::size_t first = s.find_first_not_of(' ');
  const std::size_t last = s.find_last_not_of(' ');
  return first == std::string::npos ? std::string{}
                                    : s.substr(first, last - first + 1);
#else
  return {};
#endif
}

std::string artifact_json(const Run& run) {
  const Args& args = run.args;
  const Report& r = run.report;
  const bool correct =
      r.failed == 0 && r.mismatches == 0 && r.reconcile_failures == 0;
  const std::string cpu = cpu_model();
  std::string out = "{\n  \"schema\": \"perfbench/1\",\n  \"header\": {";
  out += "\"workload\": " + json_string(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + json_number(args.seconds);
  out += std::string(", \"trace\": ") + (args.trace ? "true" : "false");
  out += ", \"cpu_model\": " + (cpu.empty() ? "null" : json_string(cpu));
  out += ", \"nproc\": " + std::to_string(nproc());
  out += ", \"compiler\": " +
         json_string(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  out += ", \"flags\": " + json_string(PERFBENCH_FLAGS);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"git_sha\": " +
         (args.git_sha.empty() ? "null" : json_string(args.git_sha));
  out += ", \"slo_ms\": {\"serve-hot\": " + json_number(kSloHotMs) +
         ", \"serve-cold\": " + json_number(kSloColdMs) + "}";
  out += "},\n  \"correct\": ";
  out += correct ? "true" : "false";
  out += ",\n  \"attempted\": " + std::to_string(r.attempted);
  out += ",\n  \"failed\": " + std::to_string(r.failed);
  out += ",\n  \"oracle_mismatches\": " + std::to_string(r.mismatches);
  out += ",\n  \"reconcile_failures\": " +
         std::to_string(r.reconcile_failures);
  out += ",\n  \"reconcile\": {" + r.notes + "}";
  out += ",\n  \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    out += first ? "\n" : ",\n";
    out += "    " + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-hot|serve-cold> --seed <n> --seconds <s> "
               "--trace <0|1> --artifact <path> [--trace-json <path>] "
               "[--scratch <dir>] [--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--artifact") {
      args.artifact = value;
    } else if (key == "--trace-json") {
      args.trace_json = value;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (args.artifact.empty()) return usage("--artifact is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Run run{args};
  try {
    std::filesystem::create_directories(args.scratch);
    if (args.workload == "serve-hot") {
      serve_hot(run);
    } else if (args.workload == "serve-cold") {
      serve_cold(run);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    if (!args.trace) {
      const double peak = peak_rss_mb();
      run.report.set("peak_rss_mb", peak - run.pool_rss_mb, "MB");
      run.report.set("process_peak_rss_mb", peak, "MB");
      run.report.set("pool_rss_mb", run.pool_rss_mb, "MB");
    }
    run.note("removing scratch directories");
    for (const std::string& dir : run.dirs) std::filesystem::remove_all(dir);
    run.note("done");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace && !args.trace_json.empty() &&
      !write_file(args.trace_json,
                  run.spans.chrome_trace(run.service_traces))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_json.c_str());
    return 1;
  }
  if (!write_file(args.artifact, artifact_json(run))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.artifact.c_str());
    return 1;
  }
  return 0;
}
