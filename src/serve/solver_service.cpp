#include "serve/solver_service.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace subdp::serve {

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::shared_ptr<snapshot::SnapshotStore> open_store(
    const std::string& snapshot_dir) {
  if (snapshot_dir.empty()) return nullptr;
  return std::make_shared<snapshot::SnapshotStore>(snapshot_dir);
}

obs::PlanSource to_plan_source(BuildSource source) {
  switch (source) {
    case BuildSource::kWarm:
      return obs::PlanSource::kCacheHit;
    case BuildSource::kSnapshot:
      return obs::PlanSource::kSnapshotHit;
    case BuildSource::kBuilt:
      return obs::PlanSource::kColdBuild;
  }
  return obs::PlanSource::kNone;
}

/// Per-shape histogram label: every field that distinguishes latency
/// behaviour at a glance (size, layout, square mode) — not the full
/// PlanKey, which would shard the histograms too finely to read.
std::string shape_label(std::size_t n, const core::SublinearOptions& opts) {
  return "n" + std::to_string(n) + "-" + to_string(opts.variant) + "-" +
         to_string(opts.square_mode);
}

}  // namespace

/// Completion rendezvous for one `solve_all` call.
struct SolverService::BatchCall {
  core::SublinearResult* results = nullptr;  ///< Slot per input index.
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = 0;
  std::uint64_t iterations = 0;
  std::uint64_t work = 0;
  std::uint64_t depth = 0;
  std::exception_ptr error;
};

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      workers_(resolve_workers(options_.workers)),
      store_(open_store(options_.snapshot_dir)),
      cache_(options_.plan_capacity,
             options_.sessions_per_plan != 0 ? options_.sessions_per_plan
                                             : workers_,
             store_) {
  builders_ = options_.builders != 0 ? options_.builders : 1;
  clock_ = options_.clock != nullptr ? options_.clock : obs::default_clock();
  if (options_.trace_capacity != 0) {
    // One stripe per long-lived thread (workers + builder pool), plus
    // one of slack for submitter threads; hashing spreads them well
    // enough.
    trace_ring_ = std::make_unique<obs::TraceRing>(
        workers_ + builders_ + 1, options_.trace_capacity);
  }
  // Installed before the prewarm loop and before any thread starts, so
  // every real plan materialisation — prewarm loads included — feeds the
  // build/load histograms (the observer contract requires single-threaded
  // installation).
  cache_.set_build_observer(clock_, [this](const BuildReport& report) {
    if (report.source == BuildSource::kSnapshot) {
      snapshot_load_hist_.record(report.snapshot_load_ns);
    }
    plan_build_hist_.record(report.total_ns);
  });
  if (store_ != nullptr) {
    // Prewarm: resolve every manifest shape under the service options
    // before any thread starts — the first request of a listed shape hits
    // a warm cache entry, with the plan's geometry loaded from disk (a
    // snapshot hit) instead of rebuilt. A shape that fails to resolve
    // (bad manifest entry, invalid (n, options) combination) is skipped;
    // a damaged manifest degrades prewarming, never startup.
    for (const std::size_t n : store_->read_manifest()) {
      try {
        (void)cache_.acquire(n, options_.solver);
        ++shapes_prewarmed_;
      } catch (...) {
      }
    }
  }
  builder_threads_.reserve(builders_);
  for (std::size_t b = 0; b < builders_; ++b) {
    builder_threads_.emplace_back([this] { builder_loop(); });
  }
  worker_threads_.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
}

SolverService::~SolverService() {
  // Shutdown choreography (see the header's lifecycle contract):
  // 1. close intake — late calls fail loudly, blocked kBlock submitters
  //    wake and fail the same way, and solve_all fills mid-flight stop
  //    back-pressuring and push their remainder (waited for below, so
  //    their jobs are queued before any worker may exit);
  // 2. join the builder pool — each builder keeps claiming and building
  //    pending cold shapes until none remain, requeueing every deferred
  //    job (cold jobs dequeued by workers from here on are built inline
  //    — defer_to_builder refuses after builder_stop_);
  // 3. only then let workers exit on an empty queue, so every admitted
  //    job is drained — solved or expired — before threads die.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    queue_not_full_.notify_all();
    batch_fills_done_.wait(lock, [&] { return batch_fills_ == 0; });
  }
  {
    const std::lock_guard<std::mutex> lock(builder_mutex_);
    builder_stop_ = true;
  }
  builder_cv_.notify_all();
  for (std::thread& builder : builder_threads_) {
    builder.join();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_exit_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : worker_threads_) {
    worker.join();  // workers drain every queued job first
  }
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem) {
  return submit_job(problem, options_.solver, options_.default_priority,
                    false, Deadline{});
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, const core::SublinearOptions& options) {
  return submit_job(problem, options, options_.default_priority, false,
                    Deadline{});
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, Deadline deadline) {
  return submit_job(problem, options_.solver, options_.default_priority,
                    true, deadline);
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, const core::SublinearOptions& options,
    Deadline deadline) {
  return submit_job(problem, options, options_.default_priority, true,
                    deadline);
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, PriorityClass priority) {
  return submit_job(problem, options_.solver, priority, false, Deadline{});
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, PriorityClass priority, Deadline deadline) {
  return submit_job(problem, options_.solver, priority, true, deadline);
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, const core::SublinearOptions& options,
    PriorityClass priority) {
  return submit_job(problem, options, priority, false, Deadline{});
}

std::future<core::SublinearResult> SolverService::submit(
    const dp::Problem& problem, const core::SublinearOptions& options,
    PriorityClass priority, Deadline deadline) {
  return submit_job(problem, options, priority, true, deadline);
}

std::future<core::SublinearResult> SolverService::submit_job(
    const dp::Problem& problem, const core::SublinearOptions& options,
    PriorityClass priority, bool has_deadline, Deadline deadline) {
  Job job;
  job.problem = &problem;
  job.solve_options = options;
  job.has_promise = true;
  job.priority = priority;
  job.has_deadline = has_deadline;
  job.deadline = deadline;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.submit_time = clock_->now();
  trace(job.id, obs::TraceEventKind::kSubmit);
  std::future<core::SublinearResult> future = job.promise.get_future();
  enqueue(std::move(job));
  return future;
}

core::BatchResult SolverService::solve_all(
    std::span<const dp::Problem* const> problems) {
  return solve_all(problems, options_.solver);
}

core::BatchResult SolverService::solve_all(
    std::span<const dp::Problem* const> problems,
    const core::SublinearOptions& options) {
  core::BatchResult out;
  out.results.resize(problems.size());
  out.ledger.instances = problems.size();

  // Group instance indices by shape: the ledger accounts one cache
  // hit/miss per distinct `n`, and same-shape jobs share the resolved
  // pool so workers skip the cache entirely.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t idx = 0; idx < problems.size(); ++idx) {
    SUBDP_REQUIRE(problems[idx] != nullptr,
                  "solve_all: null problem pointer");
    groups[problems[idx]->size()].push_back(idx);
  }
  out.ledger.shape_groups = groups.size();
  if (problems.empty()) return out;

  BatchCall call;
  call.results = out.results.data();
  call.remaining = problems.size();

  std::deque<Job> jobs;
  for (const auto& [n, indices] : groups) {
    bool built = false;
    // Resolving on the caller thread (not per job on a worker) keeps the
    // per-call ledger exact — one hit or miss per shape group — and the
    // builder thread free for async cold traffic.
    std::shared_ptr<SessionPool> pool = cache_.acquire(n, options, &built);
    if (built) {
      ++out.ledger.plans_built;
    } else {
      ++out.ledger.plans_reused;
    }
    for (const std::size_t idx : indices) {
      Job job;
      job.problem = problems[idx];
      job.solve_options = options;
      job.pool = pool;
      job.batch = &call;
      job.slot = idx;
      job.priority = PriorityClass::kBatch;  // batch traffic yields to
                                             // interactive submits
      job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
      job.submit_time = clock_->now();
      trace(job.id, obs::TraceEventKind::kSubmit);
      jobs.push_back(std::move(job));  // no deadline: batch jobs bypass
                                       // expiry by construction
    }
  }
  enqueue(std::move(jobs));

  {
    std::unique_lock<std::mutex> lock(call.mutex);
    call.done.wait(lock, [&] { return call.remaining == 0; });
  }
  if (call.error) std::rethrow_exception(call.error);
  out.ledger.total_iterations = static_cast<std::size_t>(call.iterations);
  out.ledger.total_work = call.work;
  out.ledger.total_depth = call.depth;
  return out;
}

void SolverService::enqueue(Job&& job) {
  const std::size_t cls = static_cast<std::size_t>(job.priority);
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    SUBDP_REQUIRE(!stopping_,
                  "SolverService::submit/solve_all after shutdown began");
    const std::size_t cap = options_.queue_capacity;
    while (cap != 0 && queue_.size() >= cap && !stopping_) {
      // Full: sweep expired jobs first — a queue of already-expired
      // jobs frees its slots and admits new work instead of shedding
      // it. The sweep strictly shrank the queue when it returns > 0,
      // so this loop cannot spin.
      if (sweep_expired_locked(clock_->now()) > 0) {
        queue_not_full_.notify_all();
        continue;
      }
      if (options_.overload_policy == OverloadPolicy::kReject) {
        // Rejected submissions still count as submitted, so the
        // admission invariant (submitted == completed + rejected +
        // expired) holds without a separate denominator.
        const std::size_t depth = queue_.size();
        {
          const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++jobs_submitted_;
          ++jobs_rejected_;
          ++class_submitted_[cls];
          ++class_rejected_[cls];
        }
        trace(job.id, obs::TraceEventKind::kReject);
        throw core::AdmissionError(
            core::AdmissionError::Kind::kQueueFull,
            "SolverService::submit: dispatch queue full (" +
                std::to_string(cap) + " jobs) under OverloadPolicy::kReject",
            depth, estimate_retry_after(depth));
      }
      // kBlock: back-pressure the submitter until a slot frees (worker
      // pickup or a later sweep). A shutdown racing this wait is a
      // lifecycle misuse; fail it with the same diagnostic as a late
      // submit (the loop exit below re-checks `stopping_`).
      queue_not_full_.wait(
          lock, [&] { return queue_.size() < cap || stopping_; });
    }
    SUBDP_REQUIRE(!stopping_,
                  "SolverService::submit/solve_all after shutdown began");
    {
      // Counted *before* the job becomes visible, so `stats()` can never
      // observe jobs_completed > jobs_submitted.
      const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++jobs_submitted_;
      ++class_submitted_[cls];
    }
    job.enqueue_time = clock_->now();
    trace(job.id, obs::TraceEventKind::kEnqueue);
    queue_.insert(std::move(job));
  }
  queue_cv_.notify_one();
}

void SolverService::enqueue(std::deque<Job>&& jobs) {
  const std::size_t count = jobs.size();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  SUBDP_REQUIRE(!stopping_,
                "SolverService::submit/solve_all after shutdown began");
  // Registered in the same critical section as the REQUIRE, so a
  // concurrent destructor either rejects this call up front or waits
  // for the whole fill; see the destructor's choreography.
  ++batch_fills_;
  {
    // Counted *before* the jobs become visible; see the overload above.
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    jobs_submitted_ += count;
    class_submitted_[static_cast<std::size_t>(PriorityClass::kBatch)] +=
        count;
  }
  const std::size_t cap = options_.queue_capacity;
  for (Job& job : jobs) {
    while (cap != 0 && !stopping_ && queue_.size() >= cap) {
      // Batch jobs are never shed: at capacity the solve_all caller
      // blocks here while workers drain ahead of it, whatever the
      // overload policy (the blocking surface is its own back-pressure).
      // Expired jobs free their slots first, exactly as in the submit
      // path. A shutdown racing a mid-batch fill stops back-pressuring
      // and enqueues the remainder: the destructor waits for this fill
      // to finish before workers may exit, so its drain completes every
      // queued job and the caller's BatchCall resolves normally.
      if (sweep_expired_locked(clock_->now()) > 0) {
        queue_not_full_.notify_all();
        continue;
      }
      queue_cv_.notify_all();  // wake workers to drain what is queued
      queue_not_full_.wait(
          lock, [&] { return queue_.size() < cap || stopping_; });
    }
    job.enqueue_time = clock_->now();
    trace(job.id, obs::TraceEventKind::kEnqueue);
    queue_.insert(std::move(job));
  }
  --batch_fills_;
  if (batch_fills_ == 0) batch_fills_done_.notify_all();
  lock.unlock();
  queue_cv_.notify_all();  // the jobs are visible; wake every worker
}

void SolverService::requeue(Job&& job) {
  // Builder-resolved jobs re-enter past the capacity check: they were
  // admitted (and counted) when first enqueued, and blocking the
  // builder on queue space would stall every other cold shape behind an
  // already-admitted job.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.insert(std::move(job));
  }
  queue_cv_.notify_one();
}

void SolverService::worker_loop() {
  for (;;) {
    Job job;
    obs::Clock::time_point picked_up{};
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [&] { return workers_exit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // exiting, and fully drained
      // Expiry sweep at pickup (every pickup, including after a cold
      // handoff): anything past its deadline resolves right here —
      // without touching the problem — before a job is chosen, so the
      // extracted front is never expired. The worker already holds the
      // queue lock; the sweep only walks the per-class expired
      // prefixes, so this adds no locking point.
      picked_up = clock_->now();
      if (sweep_expired_locked(picked_up) > 0) {
        queue_not_full_.notify_all();
        if (queue_.empty()) continue;  // the whole backlog had expired
      }
      auto node = queue_.extract(queue_.begin());  // EDF order: begin()
      job = std::move(node.value());
    }
    if (options_.queue_capacity != 0) {
      // A slot freed: wake every parked submitter/batch-filler — the
      // first through the lock takes it, the rest re-wait.
      queue_not_full_.notify_all();
    }
    trace(job.id, obs::TraceEventKind::kDequeue);
    if (!job.queue_wait_recorded) {
      // Only the first pickup counts: a cold-deferred job's second
      // dequeue would otherwise double-count its wait. (Swept-expired
      // jobs never reach pickup and record no queue wait at all —
      // `queue_wait.count` tracks jobs workers actually picked up.)
      job.queue_wait_recorded = true;
      queue_wait_hist_.record(elapsed_ns(job.enqueue_time, picked_up));
    }
    if (job.pool == nullptr) {
      // submit() path: resolve the shape here, off the caller's thread.
      // Warm shapes attach their pool without blocking; cold (or still
      // mid-build) shapes go to the builder so this worker keeps
      // draining warm work.
      PlanState state = PlanState::kReady;
      std::shared_ptr<SessionPool> pool = cache_.try_acquire(
          job.problem->size(), job.solve_options, &state);
      if (pool == nullptr) {
        if (defer_to_builder(std::move(job))) continue;
        // Builder already stopped (destructor drain): fall through and
        // let run_job build inline — there is no warm traffic left to
        // protect.
      } else {
        job.pool = std::move(pool);
        trace(job.id, obs::TraceEventKind::kPlanAcquired,
              obs::PlanSource::kCacheHit);
      }
    }
    run_job(job);
  }
}

bool SolverService::defer_to_builder(Job&& job) {
  {
    const std::lock_guard<std::mutex> lock(builder_mutex_);
    if (builder_stop_) return false;
    {
      const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++jobs_cold_deferred_;
    }
    trace(job.id, obs::TraceEventKind::kColdDefer);
    // Park the job on its shape's entry (created on first defer). Jobs
    // arriving while a builder already owns the entry's build simply
    // join it and are resolved by that same build.
    ColdShape& shape =
        builder_shapes_[PlanKey::make(job.problem->size(),
                                      job.solve_options)];
    shape.n = job.problem->size();
    shape.options = job.solve_options;
    shape.jobs.push_back(std::move(job));
  }
  builder_cv_.notify_one();
  return true;
}

void SolverService::builder_loop() {
  std::unique_lock<std::mutex> lock(builder_mutex_);
  // The claimable shape with the most waiting requesters (ties break
  // toward the smaller PlanKey — deterministic); end() when every entry
  // is owned by another builder or the map is empty.
  const auto hottest = [this] {
    auto best = builder_shapes_.end();
    for (auto it = builder_shapes_.begin(); it != builder_shapes_.end();
         ++it) {
      if (it->second.in_progress) continue;
      if (best == builder_shapes_.end() ||
          it->second.jobs.size() > best->second.jobs.size()) {
        best = it;
      }
    }
    return best;
  };
  for (;;) {
    builder_cv_.wait(lock, [&] {
      return builder_stop_ || hottest() != builder_shapes_.end();
    });
    const auto claimed = hottest();
    if (claimed == builder_shapes_.end()) {
      // Stopping, and every pending shape is claimed: the owning
      // builders drain their own jobs, so this one is done.
      return;
    }
    // Claim the hottest shape and build with the mutex released — other
    // builders claim *other* shapes concurrently (the cache's per-entry
    // build lock only serialises same-key builds, which a claim already
    // prevents here).
    claimed->second.in_progress = true;
    const PlanKey key = claimed->first;
    const std::size_t n = claimed->second.n;
    const core::SublinearOptions build_options = claimed->second.options;
    lock.unlock();
    // Once per shape build, not per waiting job (see ServiceOptions).
    if (options_.cold_build_hook) options_.cold_build_hook();
    std::shared_ptr<SessionPool> pool;
    std::exception_ptr error;
    BuildSource source = BuildSource::kWarm;
    try {
      // The deferring try_acquire already counted the shape's one cache
      // miss; every job that joined the entry shares this single build.
      pool = cache_.build(n, build_options, &source);
    } catch (...) {
      // Plan validation failed: every waiting job's future carries the
      // error, exactly as when workers built inline.
      error = std::current_exception();
    }
    lock.lock();
    const auto entry = builder_shapes_.find(key);
    SUBDP_ASSERT(entry != builder_shapes_.end());
    // Take *all* waiting jobs — including any that joined mid-build —
    // and retire the entry; late arrivals re-create it and trigger a
    // fresh (now warm) claim.
    std::deque<Job> resolved = std::move(entry->second.jobs);
    builder_shapes_.erase(entry);
    lock.unlock();
    for (Job& job : resolved) {
      if (error != nullptr) {
        fail_job(job, error);
        continue;
      }
      job.pool = pool;
      trace(job.id, obs::TraceEventKind::kPlanReady,
            to_plan_source(source));
      requeue(std::move(job));
    }
    lock.lock();
  }
}

std::size_t SolverService::sweep_expired_locked(obs::Clock::time_point now) {
  std::size_t freed = 0;
  for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
    // Within a class, deadline-carrying jobs are a deadline-sorted
    // prefix (deadline-free jobs rank at Deadline::max()), so the scan
    // stops at the first unexpired job: O(expired + 1) per class.
    auto it = queue_.lower_bound(
        JobRank{static_cast<int>(cls), Deadline::min(), 0});
    while (it != queue_.end() &&
           static_cast<std::size_t>(it->priority) == cls &&
           it->has_deadline && it->deadline <= now) {
      auto node = queue_.extract(it++);
      expire_job(node.value());
      ++freed;
    }
  }
  return freed;
}

std::chrono::nanoseconds SolverService::estimate_retry_after(
    std::size_t depth) const {
  // With `depth` queued jobs draining in about one typical (p50) queue
  // wait, one slot frees in about p50/depth. No signal yet — an empty
  // histogram, or only zero waits — falls back to the documented
  // conservative default rather than advising an instant retry.
  const obs::HistogramSnapshot waits = queue_wait_hist_.snapshot();
  const double p50 = waits.p50();
  if (waits.count == 0 || p50 <= 0.0 || depth == 0) {
    return kRetryAfterConservativeDefault;
  }
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(p50 / static_cast<double>(depth)));
}

void SolverService::run_job(Job& job) {
  try {
    std::shared_ptr<SessionPool> pool = std::move(job.pool);
    if (pool == nullptr) {
      // Shutdown-tail cold job (builder already joined): build inline.
      BuildSource source = BuildSource::kWarm;
      pool = cache_.build(job.problem->size(), job.solve_options, &source);
      trace(job.id, obs::TraceEventKind::kPlanReady,
            to_plan_source(source));
    }
    SessionPool::Lease lease = pool->acquire();
    const bool fresh = lease.fresh();
    trace(job.id, obs::TraceEventKind::kSolveBegin);
    const obs::Clock::time_point solve_begin = clock_->now();
    core::SublinearResult result = lease->solve(*job.problem);
    solve_hist_.record(elapsed_ns(solve_begin, clock_->now()));
    trace(job.id, obs::TraceEventKind::kSolveEnd);
    std::uint64_t work = 0;
    std::uint64_t depth = 0;
    if (job.solve_options.machine.record_costs) {
      work = lease->machine().costs().total_work();
      depth = lease->machine().costs().total_depth();
    }
    lease.release();  // free the session before completion bookkeeping
    const std::uint64_t iterations = result.iterations;

    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++jobs_completed_;
      ++class_completed_[static_cast<std::size_t>(job.priority)];
      total_iterations_ += iterations;
      total_work_ += work;
      total_depth_ += depth;
      if (fresh) {
        ++sessions_created_;
      } else {
        ++session_reuses_;
      }
    }
    record_e2e(job);
    trace(job.id, obs::TraceEventKind::kResolve);

    if (job.batch != nullptr) {
      job.batch->results[job.slot] = std::move(result);  // distinct slots
      // Notify under the lock: once `remaining` hits 0 the waiter may
      // destroy the BatchCall, so the CV must not be touched unlocked.
      const std::lock_guard<std::mutex> lock(job.batch->mutex);
      job.batch->iterations += iterations;
      job.batch->work += work;
      job.batch->depth += depth;
      if (--job.batch->remaining == 0) job.batch->done.notify_all();
    } else if (job.has_promise) {
      job.promise.set_value(std::move(result));
    }
  } catch (...) {
    fail_job(job, std::current_exception());
  }
}

void SolverService::expire_job(Job& job) {
  // solve_all never arms deadlines, so an expiring job always resolves
  // through its promise — the batch ledger cannot be torn by expiry.
  SUBDP_ASSERT(job.batch == nullptr);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++jobs_expired_;
    ++class_expired_[static_cast<std::size_t>(job.priority)];
  }
  trace(job.id, obs::TraceEventKind::kExpire);
  if (job.has_promise) {
    job.promise.set_exception(std::make_exception_ptr(core::AdmissionError(
        core::AdmissionError::Kind::kDeadlineExceeded,
        "SolverService: job deadline passed before a worker picked it "
        "up")));
  }
}

void SolverService::fail_job(Job& job, std::exception_ptr error) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++jobs_completed_;
    ++class_completed_[static_cast<std::size_t>(job.priority)];
  }
  // A failed job still *completed* (its future carries the error), so it
  // still records an end-to-end latency — keeping
  // `e2e.count == jobs_completed` exact.
  record_e2e(job);
  trace(job.id, obs::TraceEventKind::kFail);
  if (job.batch != nullptr) {
    const std::lock_guard<std::mutex> lock(job.batch->mutex);
    if (!job.batch->error) job.batch->error = error;
    if (--job.batch->remaining == 0) job.batch->done.notify_all();
  } else if (job.has_promise) {
    job.promise.set_exception(error);
  }
}

void SolverService::trace(std::uint64_t job_id, obs::TraceEventKind kind,
                          obs::PlanSource source) {
  if (trace_ring_ == nullptr) return;
  obs::TraceEvent event;
  event.job_id = job_id;
  event.timestamp_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_->now().time_since_epoch())
          .count());
  event.kind = kind;
  event.source = source;
  (void)trace_ring_->record(event);  // overflow counted, never waited out
}

void SolverService::record_e2e(const Job& job) {
  const std::uint64_t ns = elapsed_ns(job.submit_time, clock_->now());
  e2e_hist_.record(ns);
  e2e_class_hist_[static_cast<std::size_t>(job.priority)].record(ns);
  obs::LatencyHistogram* shape = nullptr;
  {
    // The mutex guards the map only; recording happens outside it on the
    // histogram's own atomics.
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    std::unique_ptr<obs::LatencyHistogram>& slot =
        e2e_by_shape_[shape_label(job.problem->size(), job.solve_options)];
    if (slot == nullptr) slot = std::make_unique<obs::LatencyHistogram>();
    shape = slot.get();
  }
  shape->record(ns);
}

std::uint64_t SolverService::elapsed_ns(obs::Clock::time_point a,
                                        obs::Clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::string SolverService::export_trace() const {
  return obs::render_chrome_trace(trace_ring_ != nullptr
                                      ? trace_ring_->collect()
                                      : std::vector<obs::TraceEvent>{});
}

ServiceStats SolverService::stats() const {
  ServiceStats out;
  out.workers = workers_;
  out.builders = builders_;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out.jobs_submitted = jobs_submitted_;
    out.jobs_completed = jobs_completed_;
    out.jobs_rejected = jobs_rejected_;
    out.jobs_expired = jobs_expired_;
    out.jobs_cold_deferred = jobs_cold_deferred_;
    PriorityClassStats* const slices[kPriorityClasses] = {&out.interactive,
                                                          &out.batch};
    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
      slices[cls]->submitted = class_submitted_[cls];
      slices[cls]->completed = class_completed_[cls];
      slices[cls]->rejected = class_rejected_[cls];
      slices[cls]->expired = class_expired_[cls];
    }
    out.total_iterations = total_iterations_;
    out.total_work = total_work_;
    out.total_depth = total_depth_;
    out.sessions_created = sessions_created_;
    out.session_reuses = session_reuses_;
    out.e2e_by_shape.reserve(e2e_by_shape_.size());
    for (const auto& [label, hist] : e2e_by_shape_) {
      out.e2e_by_shape.emplace_back(label, hist->snapshot());
    }
  }
  out.queue_wait = queue_wait_hist_.snapshot();
  out.plan_build = plan_build_hist_.snapshot();
  out.snapshot_load = snapshot_load_hist_.snapshot();
  out.solve = solve_hist_.snapshot();
  out.e2e = e2e_hist_.snapshot();
  out.interactive.e2e =
      e2e_class_hist_[static_cast<std::size_t>(PriorityClass::kInteractive)]
          .snapshot();
  out.batch.e2e =
      e2e_class_hist_[static_cast<std::size_t>(PriorityClass::kBatch)]
          .snapshot();
  out.trace_dropped = trace_ring_ != nullptr ? trace_ring_->dropped() : 0;
  if (store_ != nullptr) {
    const snapshot::SnapshotStoreStats s = store_->stats();
    out.snapshot_hits = s.hits;
    out.snapshot_misses = s.misses;
    out.snapshot_write_failures = s.write_failures;
    out.shapes_prewarmed = shapes_prewarmed_;
  }
  out.plan_cache = cache_.stats();
  return out;
}

obs::MetricsRegistry SolverService::metrics() const {
  const ServiceStats s = stats();
  obs::MetricsRegistry reg;
  const auto gauge = [&reg](const char* name, std::uint64_t value) {
    reg.set_gauge(name, static_cast<double>(value));
  };
  gauge("subdp_workers", s.workers);
  gauge("subdp_builders", s.builders);
  gauge("subdp_jobs_submitted", s.jobs_submitted);
  gauge("subdp_jobs_completed", s.jobs_completed);
  gauge("subdp_jobs_rejected", s.jobs_rejected);
  gauge("subdp_jobs_expired", s.jobs_expired);
  gauge("subdp_jobs_cold_deferred", s.jobs_cold_deferred);
  gauge("subdp_total_iterations", s.total_iterations);
  gauge("subdp_total_work", s.total_work);
  gauge("subdp_total_depth", s.total_depth);
  gauge("subdp_sessions_created", s.sessions_created);
  gauge("subdp_session_reuses", s.session_reuses);
  gauge("subdp_snapshot_hits", s.snapshot_hits);
  gauge("subdp_snapshot_misses", s.snapshot_misses);
  gauge("subdp_snapshot_write_failures", s.snapshot_write_failures);
  gauge("subdp_shapes_prewarmed", s.shapes_prewarmed);
  gauge("subdp_plan_cache_capacity", s.plan_cache.capacity);
  gauge("subdp_plan_cache_size", s.plan_cache.size);
  gauge("subdp_plan_cache_hits", s.plan_cache.hits);
  gauge("subdp_plan_cache_misses", s.plan_cache.misses);
  gauge("subdp_plan_cache_evictions", s.plan_cache.evictions);
  gauge("subdp_trace_dropped", s.trace_dropped);
  // Per-priority-class slices: gauges suffixed by class (the registry's
  // gauges carry no labels), histograms labelled like the per-shape ones.
  const auto class_slice = [&](const char* cls,
                               const PriorityClassStats& c) {
    const std::string suffix = std::string("_") + cls;
    gauge(("subdp_jobs_submitted" + suffix).c_str(), c.submitted);
    gauge(("subdp_jobs_completed" + suffix).c_str(), c.completed);
    gauge(("subdp_jobs_rejected" + suffix).c_str(), c.rejected);
    gauge(("subdp_jobs_expired" + suffix).c_str(), c.expired);
    reg.set_histogram("subdp_e2e_class_ns",
                      "class=\"" + std::string(cls) + "\"", c.e2e);
  };
  class_slice(to_string(PriorityClass::kInteractive), s.interactive);
  class_slice(to_string(PriorityClass::kBatch), s.batch);
  reg.set_histogram("subdp_queue_wait_ns", "", s.queue_wait);
  reg.set_histogram("subdp_plan_build_ns", "", s.plan_build);
  reg.set_histogram("subdp_snapshot_load_ns", "", s.snapshot_load);
  reg.set_histogram("subdp_solve_ns", "", s.solve);
  reg.set_histogram("subdp_e2e_ns", "", s.e2e);
  for (const auto& [label, snapshot] : s.e2e_by_shape) {
    reg.set_histogram("subdp_e2e_shape_ns", "shape=\"" + label + "\"",
                      snapshot);
  }
  return reg;
}

std::shared_ptr<const core::SolvePlan> SolverService::plan_for(
    std::size_t n) const {
  return plan_for(n, options_.solver);
}

std::shared_ptr<const core::SolvePlan> SolverService::plan_for(
    std::size_t n, const core::SublinearOptions& options) const {
  return cache_.peek(n, options);
}

}  // namespace subdp::serve
