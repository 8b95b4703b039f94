#pragma once

/// \file solver_service.hpp
/// The concurrent serving front door: many independent DP instances,
/// overlapped across worker threads, behind one long-lived object —
/// with admission control at the intake.
///
/// Everything below `SolverService` exists to make this safe and cheap:
/// immutable `SolvePlan`s shared across any number of sessions, a bounded
/// `PlanCache` so shape diversity cannot grow memory server-lifetime
/// large, and per-plan `SessionPool`s whose sessions are `reset` in place
/// between instances. The service adds the missing piece named in
/// ROADMAP.md: *instance-level* parallelism. Rather than streaming
/// same-shape instances through one session serially (all parallelism
/// inside a single solve), the service keeps a pool of `workers`
/// long-lived worker threads consuming a shared dispatch queue, each
/// solve running on the caller's backend. (A fork-join dispatch over
/// `pram::ThreadPool` was considered and rejected: a round cannot finish
/// before its longest solve, so async submissions arriving mid-round
/// would head-of-line block behind it; free-running queue consumers have
/// no rounds and no such cliff.) For batch traffic this inverts the
/// parallelism axis: overlapping whole instances scales embarrassingly,
/// needs no barriers per macro-step, and keeps every worker's tables hot
/// in its own cache.
///
/// ## Admission control
///
/// The dispatch queue is bounded (`ServiceOptions::queue_capacity`;
/// 0 = unbounded, the legacy default). When the queue is full,
/// `overload_policy` decides what `submit` does:
///  * `OverloadPolicy::kBlock` — back-pressure: the submitting thread
///    waits until a worker drains a slot, then enqueues. No job is ever
///    turned away; memory stays bounded by `queue_capacity`.
///  * `OverloadPolicy::kReject` — load shedding: `submit` throws
///    `core::AdmissionError` (`Kind::kQueueFull`) synchronously and the
///    job is never queued. The rejection is counted in
///    `ServiceStats::jobs_rejected` (and in `jobs_submitted`, so
///    `jobs_submitted == jobs_completed + jobs_rejected + jobs_expired`
///    holds once the queue drains).
///
/// ## QoS intake: priority classes and EDF dispatch
///
/// The dispatch queue is not FIFO. Every job carries a **priority
/// class** (`PriorityClass::kInteractive` or `kBatch`; `submit`
/// overloads take one explicitly, otherwise
/// `ServiceOptions::default_priority` applies, and `solve_all` traffic
/// is always `kBatch`) and workers dequeue in **EDF order**: jobs are
/// ordered by `(priority class, deadline, submit sequence)` — every
/// interactive job ahead of every batch job, earlier deadlines first
/// within a class (no deadline sorts as "infinitely late"), submission
/// order breaking ties. A wall of `solve_all` batch traffic therefore
/// cannot starve a deadline-carrying interactive job: the interactive
/// job is simply next, however deep the batch backlog. Per-class
/// counters and end-to-end latency histograms
/// (`ServiceStats::interactive` / `::batch`) account each class
/// separately; their sums equal the global counters.
///
/// Jobs may also carry a **deadline** (`submit` overloads taking a
/// `Deadline`, a `std::chrono::steady_clock` time point). There is no
/// timer thread; instead expiry is a **lazy sweep** run at the two
/// points the queue is already locked: when a worker picks up work and
/// when an admission finds the bounded queue full. Within a class,
/// deadline-carrying jobs form a deadline-sorted prefix of the EDF
/// order, so the sweep inspects exactly the expired run plus one
/// non-expired sentinel per class — O(expired + classes), never a full
/// scan. A swept job resolves with `core::AdmissionError`
/// (`Kind::kDeadlineExceeded`) without touching the problem — no
/// session, no plan, not one `f()` call — counts in
/// `ServiceStats::jobs_expired`, and *frees its bounded-queue slot*:
/// a queue full of already-expired jobs admits new work instead of
/// shedding it. All deadline checks go through the injected
/// `obs::Clock` seam, so tests drive expiry deterministically.
///
/// The blocking surface `solve_all` participates differently, by
/// design: its jobs carry **no deadlines** (the call blocks until every
/// instance is solved; per-job expiry would tear the ledger and the
/// input-order result contract) and it **never rejects** — at capacity
/// it back-pressures the *calling* thread while workers drain,
/// whatever the overload policy. So its ledger and its bit-identity to
/// independent solves hold under every service configuration.
///
/// ## Retry-after hints
///
/// A `kReject` shed does not leave the client guessing: the thrown
/// `core::AdmissionError` carries the exact queue depth at rejection
/// and an estimated time until a slot frees, derived from the service's
/// queue-wait histogram snapshot (`p50 wait / depth` — with depth jobs
/// draining in about one typical wait, one slot frees in about that
/// fraction of it). A service that has not yet observed a nonzero
/// queue wait reports the conservative default
/// `kRetryAfterConservativeDefault` instead. Clients back off for the
/// hinted duration instead of spin-retrying (examples/quickstart.cpp
/// demonstrates the loop).
///
/// ## The background builder pool
///
/// A cold shape costs a plan build (O(n^2) closed-form geometry) or a
/// snapshot load, plus its first sessions' table allocation on lease.
/// Workers never build: on dequeueing a job whose `(n, options)` shape
/// is cold (or still mid-build), the worker parks the job with the
/// service's **builder pool**
/// (`ServiceOptions::builders` threads; `ServiceStats::
/// jobs_cold_deferred` counts each parked job) and immediately goes
/// back to draining warm work — one giant cold shape can no longer
/// stall a solve worker. Parked jobs are grouped by `PlanKey`; each
/// idle builder picks the cold shape with the **most waiting
/// requesters** (the hottest shape first), resolves it through
/// `PlanCache::build`, then requeues every waiting job — pool attached,
/// admission not re-run — for any worker to solve. Distinct keys build
/// concurrently across the pool (the cache's per-entry build lock only
/// serialises same-key builds); a shape is claimed by exactly one
/// builder at a time, so concurrent cold jobs for one key still share a
/// single build and count a single cache miss. Plan validation errors
/// surface through every waiting job's future, exactly as they did
/// when workers built inline.
///
/// ## Thread-safety & lifecycle contract
///
///  * `submit`, `solve_all`, `stats`, `plan_for` may be called from any
///    thread, concurrently. `solve_all` must not be called from a job
///    running on this service (the caller would block on capacity its
///    own job occupies).
///  * Lock audit. `queue_mutex_` guards the EDF structure (`queue_`, a
///    `std::multiset` ordered by the `(class, deadline, seq)` rank) and
///    the intake flags; the expiry sweep runs under it at pickup — the
///    worker already holds the lock to dequeue, and the sweep touches
///    only the per-class expired prefixes, so workers stay lock-light
///    (no second locking point, no timer thread, no full-queue scan).
///    `builder_mutex_` guards the cold-shape map (waiting requesters +
///    in-progress claims); builds themselves run with no service lock
///    held (the cache's per-entry lock serialises same-key builds).
///    `stats_mutex_` guards the counters and the per-shape histogram
///    map; histograms record on their own atomics outside it. Lock
///    order: `queue_mutex_` or `builder_mutex_` before `stats_mutex_`;
///    `queue_mutex_` and `builder_mutex_` are never held together.
///  * Plans are immutable and shared; sessions are strictly per-worker
///    (leased for exactly one solve); `dp::Problem` implementations
///    must tolerate concurrent const calls (problem.hpp contract). A
///    submitted problem must stay alive until its future is ready.
///  * Destruction: the destructor first closes intake (late `submit` /
///    `solve_all` calls fail a `SUBDP_REQUIRE`; `kBlock` submitters
///    still waiting for space are woken and fail the same way, while a
///    `solve_all` caught mid-fill stops back-pressuring and finishes
///    queueing — the destructor waits for it, so the call completes
///    normally), then joins the builder pool (each builder keeps
///    claiming and building pending cold shapes until none remain,
///    requeueing every deferred job), then the workers, which drain
///    every queued job — solving admitted work, expiring what is past
///    its deadline. Every future obtained from `submit` is therefore
///    resolved — value, solver error, or `AdmissionError` — and remains
///    valid after destruction; no promise is ever broken.
///  * Determinism: admission decides *whether and when* a job runs,
///    never *what* it computes. A solve is a pure function of
///    `(problem, plan)`, so every admitted job's result is bit-identical
///    to an independent `core::solve` for every worker count, queue
///    capacity, overload policy and submission order (the serve test
///    suite, including the differential fuzz harness, asserts this).
///
/// Every solve keeps the caller's backend, whatever the worker count.
/// On the threads backend (the default) the shared engine pool decides
/// per loop (pram/thread_pool.hpp): while a solve is the only one in
/// flight, its loops spread over the idle cores; while solves overlap,
/// each runs its loops inline on its own worker, so instances cover the
/// cores and no worker waits for the pool. A lightly loaded service
/// thus cuts a request's latency with intra-solve parallelism, and a
/// busy one falls back to instance-level parallelism on its own. The
/// backend is part of the plan key, so requests on different backends
/// hold different plans.
///
/// ```
/// serve::ServiceOptions opts;
/// opts.queue_capacity = 64;                      // bounded intake
/// opts.overload_policy = serve::OverloadPolicy::kReject;
/// serve::SolverService service(opts);
/// auto future = service.submit(problem);         // async; may throw
///                                                // AdmissionError
/// auto timed  = service.submit(problem,          // with a deadline
///     std::chrono::steady_clock::now() + std::chrono::seconds(2));
/// auto batch  = service.solve_all(instances);    // blocking, ordered,
///                                                // never shed
/// auto stats  = service.stats();                 // cache + pool +
///                                                // admission ledger
/// ```

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include <string>

#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "obs/clock.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/session_pool.hpp"
#include "snapshot/snapshot_store.hpp"

namespace subdp::serve {

/// What a full dispatch queue does to `submit`; see the file comment.
enum class OverloadPolicy {
  kBlock,   ///< Back-pressure: the submitter waits for a free slot.
  kReject,  ///< Load shedding: `submit` throws `core::AdmissionError`.
};

[[nodiscard]] constexpr const char* to_string(OverloadPolicy p) noexcept {
  return p == OverloadPolicy::kBlock ? "block" : "reject";
}

/// Per-job deadline: a job not picked up by a worker before this instant
/// resolves with `core::AdmissionError` instead of solving.
using Deadline = std::chrono::steady_clock::time_point;

/// Dispatch class of a job: the EDF queue orders by
/// `(priority class, deadline, submit seq)`, so every interactive job
/// dequeues ahead of every batch job. `solve_all` traffic is always
/// `kBatch`; `submit` jobs default to `ServiceOptions::default_priority`
/// unless an overload names a class. Enumerator values are the queue-rank
/// sort keys (and the per-class accounting indices) — keep `kInteractive`
/// lowest.
enum class PriorityClass : int {
  kInteractive = 0,  ///< Latency-sensitive; dequeued first.
  kBatch = 1,        ///< Throughput traffic; yields to interactive.
};

/// Number of priority classes (per-class counter/histogram arrays).
inline constexpr std::size_t kPriorityClasses = 2;

[[nodiscard]] constexpr const char* to_string(PriorityClass c) noexcept {
  return c == PriorityClass::kInteractive ? "interactive" : "batch";
}

/// Retry-after hint reported on `kQueueFull` rejections when the
/// queue-wait histogram has no signal yet (empty, or every recorded wait
/// was zero): a deliberately small, conservative backoff — long enough to
/// stop a spin loop, short enough that a real drain estimate takes over
/// after the first few completions.
inline constexpr std::chrono::nanoseconds kRetryAfterConservativeDefault =
    std::chrono::milliseconds(1);

/// Configuration of a `SolverService`.
struct ServiceOptions {
  /// Solver configuration applied to `submit(problem)` / `solve_all`
  /// calls that do not carry their own options.
  core::SublinearOptions solver;
  /// Worker threads executing solves (0 = `hardware_concurrency`).
  std::size_t workers = 0;
  /// Builder-pool threads resolving cold plan shapes (0 = 1). Distinct
  /// shapes build concurrently across the pool; same-key builds are
  /// still coalesced into one (one cache miss), whatever the pool size.
  std::size_t builders = 1;
  /// Priority class applied to `submit` calls that do not name one.
  /// `solve_all` traffic is always `PriorityClass::kBatch` regardless.
  PriorityClass default_priority = PriorityClass::kInteractive;
  /// Shapes kept resident in the plan cache (LRU beyond this).
  std::size_t plan_capacity = 32;
  /// Session cap per plan (0 = match the worker count — more can never
  /// run concurrently, so a larger pool would only hold dead tables).
  std::size_t sessions_per_plan = 0;
  /// Maximal jobs *waiting* in the dispatch queue (jobs in flight on
  /// workers or parked at the builder do not count); 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// What `submit` does when the queue is full. `solve_all` always
  /// back-pressures its caller regardless of this policy.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Plan snapshot directory (empty = no persistence). When set, the
  /// service opens a `snapshot::SnapshotStore` there and threads it into
  /// the plan cache: cache misses load verified snapshots instead of
  /// building geometry, fresh builds are written back asynchronously,
  /// and at startup every shape in the store's prewarm manifest
  /// (`prewarm.txt`) is resolved before the first request is accepted —
  /// a restarted replica serves its first requests with zero cold-path
  /// stalls. See snapshot/snapshot_store.hpp.
  std::string snapshot_dir;
  /// Instrumentation/test seam: when set, invoked on a builder-pool
  /// thread once per cold *shape* it claims, just before the build
  /// (admission tests gate this to hold builders busy deterministically;
  /// concurrent cold jobs coalesced into one build trigger it once).
  /// Leave empty in production.
  std::function<void()> cold_build_hook;
  /// Monotonic clock behind deadlines, stage latencies, and trace
  /// timestamps (null = the shared `obs::SteadyClock`). Tests inject an
  /// `obs::ManualClock` to drive expiry and latency deterministically.
  std::shared_ptr<const obs::Clock> clock;
  /// Trace-ring capacity per stripe (the service keeps `workers + 2`
  /// stripes: one per long-lived thread, probabilistically, plus slack
  /// for submitters). 0 disables per-job tracing entirely; overflow
  /// never blocks — excess events are counted in
  /// `ServiceStats::trace_dropped` instead of recorded.
  std::size_t trace_capacity = 8192;
};

/// Per-priority-class slice of the admission ledger plus that class's
/// end-to-end latency distribution. The class slices partition the
/// global counters: summed over `interactive` and `batch`, each field
/// equals its `ServiceStats` counterpart, and the drained invariant
/// `submitted == completed + rejected + expired` holds per class (the
/// QoS and fuzz suites assert both).
struct PriorityClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  /// Submit-to-resolution latency of this class's completed jobs
  /// (`e2e.count == completed` once drained).
  obs::HistogramSnapshot e2e;
};

/// One consistent snapshot of a service's aggregate accounting.
///
/// Admission invariant: once the queue has drained (e.g. after the
/// destructor, or when all outstanding futures are ready),
/// `jobs_submitted == jobs_completed + jobs_rejected + jobs_expired`.
struct ServiceStats {
  std::size_t workers = 0;
  std::size_t builders = 0;  ///< Builder-pool threads (resolved, >= 1).
  std::uint64_t jobs_submitted = 0;  ///< `submit`s (incl. rejected) +
                                     ///< `solve_all` instances.
  std::uint64_t jobs_completed = 0;  ///< Solved, or failed in the solver
                                     ///< (the future carries the error).
  std::uint64_t jobs_rejected = 0;   ///< Turned away at a full queue
                                     ///< under `kReject`.
  std::uint64_t jobs_expired = 0;    ///< Deadline passed before pickup.
  /// Jobs handed to the builder thread because their shape was cold (or
  /// still mid-build). Concurrent cold jobs for one key each count here
  /// but share a single build (one cache miss).
  std::uint64_t jobs_cold_deferred = 0;
  std::uint64_t total_iterations = 0;
  /// Summed PRAM work/depth of the jobs whose options set
  /// `machine.record_costs`; 0 when none did (it is off by default).
  std::uint64_t total_work = 0;
  std::uint64_t total_depth = 0;
  /// Session churn across all plans (service lifetime, eviction-proof).
  std::uint64_t sessions_created = 0;
  std::uint64_t session_reuses = 0;
  /// Snapshot-store accounting; all zero without `snapshot_dir`. With a
  /// store, every plan construction consults it exactly once, so
  /// `snapshot_hits + snapshot_misses >= plan_cache.misses` (prewarm and
  /// post-eviction re-requests consult too) and the admission invariant
  /// is untouched — snapshots change where plans come from, never how
  /// jobs are counted.
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t snapshot_write_failures = 0;
  /// Shapes resolved from the prewarm manifest at startup.
  std::uint64_t shapes_prewarmed = 0;
  PlanCacheStats plan_cache;
  /// Per-stage latency distributions (nanoseconds, service lifetime).
  /// `queue_wait` covers first-enqueue to first-dequeue (cold-deferred
  /// jobs are not re-counted on requeue); `plan_build` and
  /// `snapshot_load` cover real plan materialisations (cache hits record
  /// nothing); `solve` is the session solve alone; `e2e` is submit to
  /// resolution for every completed job — rejected and expired jobs are
  /// excluded, so `e2e.count == jobs_completed` once the queue drains
  /// (the fuzz suite asserts this).
  obs::HistogramSnapshot queue_wait;
  obs::HistogramSnapshot plan_build;
  obs::HistogramSnapshot snapshot_load;
  obs::HistogramSnapshot solve;
  obs::HistogramSnapshot e2e;
  /// End-to-end latency split by plan shape (label "n<N>-<variant>-
  /// <square mode>"), sorted by label.
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> e2e_by_shape;
  /// Per-priority-class admission slices; they partition the global
  /// counters (see `PriorityClassStats`).
  PriorityClassStats interactive;
  PriorityClassStats batch;
  /// Trace events lost to a full ring stripe (0 with tracing disabled).
  std::uint64_t trace_dropped = 0;
};

/// Concurrent plan-cached, session-pooled solver with admission control;
/// see the file comment.
class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});

  /// Drains every queued job (solving or expiring it), then stops the
  /// builder pool and the workers. Futures obtained from `submit` are
  /// all resolved and remain valid after destruction.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Asynchronously solves `problem` under the service options (or the
  /// per-call `options` overload), optionally bounded by `deadline` and
  /// classed by `priority` (`ServiceOptions::default_priority` when no
  /// overload names one — see the file comment's QoS section for the
  /// dequeue order). The problem must stay alive until the future is
  /// ready. Safe from any thread, including concurrently. With a
  /// bounded queue this may block (`kBlock`) or throw
  /// `core::AdmissionError` (`kReject`, carrying a retry-after hint); a
  /// job whose deadline passes before pickup resolves its future with
  /// `core::AdmissionError` instead of solving.
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, const core::SublinearOptions& options);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, Deadline deadline);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, const core::SublinearOptions& options,
      Deadline deadline);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, PriorityClass priority);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, PriorityClass priority,
      Deadline deadline);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, const core::SublinearOptions& options,
      PriorityClass priority);
  [[nodiscard]] std::future<core::SublinearResult> submit(
      const dp::Problem& problem, const core::SublinearOptions& options,
      PriorityClass priority, Deadline deadline);

  /// Solves every instance, blocking until all are done. Groups by shape
  /// for the ledger, dispatches instances across the workers, returns
  /// results in input order, each bit-identical to an independent
  /// `core::solve`. Batch jobs bypass admission shedding:
  /// they carry no deadline and are never rejected (at capacity the
  /// *caller* blocks while workers drain). Safe from any thread; must
  /// not be called from a job running on this service (the caller
  /// blocks on capacity its own job occupies).
  [[nodiscard]] core::BatchResult solve_all(
      std::span<const dp::Problem* const> problems);
  [[nodiscard]] core::BatchResult solve_all(
      std::span<const dp::Problem* const> problems,
      const core::SublinearOptions& options);

  [[nodiscard]] ServiceStats stats() const;

  /// Chrome trace-event JSON (`{"traceEvents": [...]}`, loadable in
  /// Perfetto / chrome://tracing) of every job lifecycle event still in
  /// the trace ring: one complete span per job plus its instant events
  /// (submit, enqueue, dequeue, plan acquired, solve begin/end,
  /// resolution — including reject/expire/fail). Returns an empty trace
  /// when `ServiceOptions::trace_capacity` is 0. Safe from any thread;
  /// typically called after the traffic of interest has drained.
  [[nodiscard]] std::string export_trace() const;

  /// The service's counters and per-stage latency histograms as an
  /// `obs::MetricsRegistry` (every `ServiceStats` field under a
  /// `subdp_` prefix), renderable via `to_prometheus()` / `to_json()`.
  [[nodiscard]] obs::MetricsRegistry metrics() const;

  /// Worker threads executing solves (resolved, >= 1).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Builder-pool threads resolving cold shapes (resolved, >= 1).
  [[nodiscard]] std::size_t builders() const noexcept { return builders_; }

  /// The resident plan for shape `n` under the service options (or the
  /// per-call overload); null when not cached. Does not touch LRU order.
  [[nodiscard]] std::shared_ptr<const core::SolvePlan> plan_for(
      std::size_t n) const;
  [[nodiscard]] std::shared_ptr<const core::SolvePlan> plan_for(
      std::size_t n, const core::SublinearOptions& options) const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

  /// The plan snapshot store, or null without `snapshot_dir` (tests and
  /// benches use this to flush pending write-backs deterministically).
  [[nodiscard]] const std::shared_ptr<snapshot::SnapshotStore>&
  snapshot_store() const noexcept {
    return store_;
  }

 private:
  /// Completion rendezvous for one `solve_all` call: jobs write their
  /// slot, add to the call ledger, and count down; the caller waits.
  struct BatchCall;

  /// One queued instance. Exactly one completion route is armed: the
  /// promise (submit jobs) or the batch-call slot (solve_all jobs).
  struct Job {
    const dp::Problem* problem = nullptr;
    core::SublinearOptions solve_options;
    /// Pre-resolved shape: set by the solve_all caller (which accounted
    /// the cache hit/miss per *group*) or by the builder after a cold
    /// handoff; null for warm-path submit jobs until the worker's
    /// `try_acquire` fills it in.
    std::shared_ptr<SessionPool> pool;
    std::promise<core::SublinearResult> promise;
    bool has_promise = false;
    BatchCall* batch = nullptr;
    std::size_t slot = 0;
    /// EDF rank, major key: interactive dequeues ahead of batch.
    PriorityClass priority = PriorityClass::kInteractive;
    /// Expiry instant; only submit jobs carry one (`has_deadline`).
    bool has_deadline = false;
    Deadline deadline{};
    /// Observability: service-unique id (trace `tid`), the submit and
    /// enqueue instants on the service clock, and whether queue wait was
    /// already recorded (a cold-deferred job is dequeued twice; only the
    /// first wait counts).
    std::uint64_t id = 0;
    obs::Clock::time_point submit_time{};
    obs::Clock::time_point enqueue_time{};
    bool queue_wait_recorded = false;
  };

  /// EDF sort key of a queued job: `(priority class, deadline, submit
  /// seq)`, tuple-compared. A job without a deadline ranks as
  /// "infinitely late" (`Deadline::max()`), so within a class the
  /// deadline-carrying jobs form a deadline-sorted prefix — exactly the
  /// run the expiry sweep walks. `seq` is the service-unique job id,
  /// assigned monotonically at submit, so ties preserve submission
  /// order and no two queued jobs rank equal.
  struct JobRank {
    int cls = 0;
    Deadline deadline = Deadline::max();
    std::uint64_t seq = 0;
  };

  [[nodiscard]] static JobRank rank_of(const Job& job) noexcept {
    return JobRank{static_cast<int>(job.priority),
                   job.has_deadline ? job.deadline : Deadline::max(),
                   job.id};
  }

  /// Strict weak order over queued jobs (and, transparently, bare
  /// `JobRank`s — the sweep seeks a class's first job without
  /// materialising a probe `Job`).
  struct JobOrder {
    using is_transparent = void;
    [[nodiscard]] static bool less(const JobRank& a,
                                   const JobRank& b) noexcept {
      if (a.cls != b.cls) return a.cls < b.cls;
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.seq < b.seq;
    }
    bool operator()(const Job& a, const Job& b) const noexcept {
      return less(rank_of(a), rank_of(b));
    }
    bool operator()(const Job& a, const JobRank& b) const noexcept {
      return less(rank_of(a), b);
    }
    bool operator()(const JobRank& a, const Job& b) const noexcept {
      return less(a, rank_of(b));
    }
  };

  /// One cold plan shape parked at the builder pool: the jobs waiting
  /// on its build plus whether a builder currently owns it. Guarded by
  /// `builder_mutex_`; the build itself runs with the mutex released.
  struct ColdShape {
    std::size_t n = 0;
    core::SublinearOptions options;  ///< The shape's cache-key options.
    std::deque<Job> jobs;
    bool in_progress = false;
  };

  [[nodiscard]] std::future<core::SublinearResult> submit_job(
      const dp::Problem& problem, const core::SublinearOptions& options,
      PriorityClass priority, bool has_deadline, Deadline deadline);

  /// Admission for one submit job: counts the submission, applies the
  /// bounded-queue policy (throws `AdmissionError` under `kReject`,
  /// waits for a slot under `kBlock`), enqueues.
  void enqueue(Job&& job);
  /// Admission for a solve_all group: counts every instance up front,
  /// then enqueues each, back-pressuring the caller at capacity (batch
  /// jobs are never rejected).
  void enqueue(std::deque<Job>&& jobs);
  /// Returns a builder-resolved job to the dispatch queue. No admission
  /// and no counting: the job was admitted when first enqueued.
  void requeue(Job&& job);

  void worker_loop();
  void builder_loop();
  /// Parks a cold job with the builder pool (grouped by plan key);
  /// after the pool has been stopped (destructor drain), the caller
  /// builds inline instead. Returns true when the job was handed off.
  [[nodiscard]] bool defer_to_builder(Job&& job);
  /// Resolves every queued job whose deadline has passed as of `now`
  /// (`queue_mutex_` held by the caller): each is extracted, counted in
  /// `jobs_expired`, and its future fails with `kDeadlineExceeded` —
  /// the problem is never touched. Walks only the per-class expired
  /// prefixes of the EDF order. Returns the number of slots freed (the
  /// caller notifies `queue_not_full_` when nonzero).
  std::size_t sweep_expired_locked(obs::Clock::time_point now);
  /// Drain-time estimate behind the `kQueueFull` retry-after hint:
  /// p50 queue wait / depth, or `kRetryAfterConservativeDefault` when
  /// the histogram has no nonzero signal yet.
  [[nodiscard]] std::chrono::nanoseconds estimate_retry_after(
      std::size_t depth) const;
  void run_job(Job& job);
  /// Resolves a job whose deadline passed before pickup; never solves.
  void expire_job(Job& job);
  /// Completion bookkeeping for a job that failed before/while solving.
  void fail_job(Job& job, std::exception_ptr error);

  /// Records one lifecycle event into the trace ring (no-op with tracing
  /// disabled). Never blocks; overflow is counted, not waited out.
  void trace(std::uint64_t job_id, obs::TraceEventKind kind,
             obs::PlanSource source = obs::PlanSource::kNone);
  /// Records the submit-to-resolution latency of a completed job into
  /// the service-wide and per-shape end-to-end histograms.
  void record_e2e(const Job& job);
  /// Nanoseconds between two instants of the service clock (0 when `b`
  /// precedes `a`, which a `ManualClock` rewind could produce).
  [[nodiscard]] static std::uint64_t elapsed_ns(obs::Clock::time_point a,
                                                obs::Clock::time_point b);

  ServiceOptions options_;
  std::size_t workers_ = 1;
  std::size_t builders_ = 1;
  /// Declared before `cache_`: the cache holds a copy of this pointer
  /// and its builds write through it.
  std::shared_ptr<snapshot::SnapshotStore> store_;
  PlanCache cache_;
  std::uint64_t shapes_prewarmed_ = 0;  ///< Set once in the constructor.

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  /// Signalled when a queue slot frees (worker pickup or expiry sweep;
  /// bounded queue only).
  std::condition_variable queue_not_full_;
  /// The EDF dispatch queue: ordered by `JobRank`, dequeued from
  /// `begin()`. Guarded by `queue_mutex_`.
  std::multiset<Job, JobOrder> queue_;
  /// Intake closed: late submit/solve_all calls fail a SUBDP_REQUIRE.
  bool stopping_ = false;
  /// Workers may exit once the queue is drained (set strictly after the
  /// builder has been joined, so no requeue can arrive afterwards).
  bool workers_exit_ = false;
  /// solve_all callers currently filling the queue. The destructor
  /// waits for this to hit zero (fills stop back-pressuring once
  /// `stopping_` is set, so they finish promptly) before letting
  /// workers exit — every batch job reaches the queue and is drained,
  /// so no BatchCall is ever abandoned mid-call.
  std::size_t batch_fills_ = 0;
  std::condition_variable batch_fills_done_;

  mutable std::mutex builder_mutex_;
  std::condition_variable builder_cv_;
  /// Cold shapes awaiting (or undergoing) a build, with their parked
  /// jobs. Idle builders claim the shape with the most waiting jobs.
  std::map<PlanKey, ColdShape> builder_shapes_;
  bool builder_stop_ = false;

  mutable std::mutex stats_mutex_;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_rejected_ = 0;
  std::uint64_t jobs_expired_ = 0;
  std::uint64_t jobs_cold_deferred_ = 0;
  /// Per-priority-class slices of the admission counters, indexed by
  /// the `PriorityClass` enumerator value; they partition the globals.
  std::array<std::uint64_t, kPriorityClasses> class_submitted_{};
  std::array<std::uint64_t, kPriorityClasses> class_completed_{};
  std::array<std::uint64_t, kPriorityClasses> class_rejected_{};
  std::array<std::uint64_t, kPriorityClasses> class_expired_{};
  std::uint64_t total_iterations_ = 0;
  std::uint64_t total_work_ = 0;
  std::uint64_t total_depth_ = 0;
  std::uint64_t sessions_created_ = 0;
  std::uint64_t session_reuses_ = 0;
  /// Per-shape end-to-end latency, keyed by `shape_label` — guarded by
  /// `stats_mutex_` (the map; each histogram is internally atomic).
  std::map<std::string, std::unique_ptr<obs::LatencyHistogram>>
      e2e_by_shape_;

  /// Observability plumbing. The clock is never null (defaulted in the
  /// constructor); the trace ring is null when tracing is disabled.
  std::shared_ptr<const obs::Clock> clock_;
  std::unique_ptr<obs::TraceRing> trace_ring_;
  std::atomic<std::uint64_t> next_job_id_{1};
  /// Per-stage latency histograms (nanoseconds); lock-free recording.
  obs::LatencyHistogram queue_wait_hist_;
  obs::LatencyHistogram plan_build_hist_;
  obs::LatencyHistogram snapshot_load_hist_;
  obs::LatencyHistogram solve_hist_;
  obs::LatencyHistogram e2e_hist_;
  /// Per-priority-class end-to-end latency, indexed like the class
  /// counters; lock-free recording.
  std::array<obs::LatencyHistogram, kPriorityClasses> e2e_class_hist_;

  /// The cold-plan builder pool; see the file comment.
  std::vector<std::thread> builder_threads_;
  /// Long-lived queue consumers. Last member: joined (and thereby done
  /// touching every other member) before anything else is destroyed.
  std::vector<std::thread> worker_threads_;
};

}  // namespace subdp::serve
