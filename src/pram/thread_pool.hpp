#pragma once

/// \file thread_pool.hpp
/// A persistent fork-join thread pool.
///
/// The pool keeps `worker_count()` threads parked on a condition variable.
/// `parallel_for` publishes one job (an index range plus a chunked body),
/// wakes the workers, participates from the calling thread, and returns when
/// every chunk has run. Chunks are claimed with a single `fetch_add`, so
/// load imbalance between chunks is absorbed dynamically. Exceptions thrown
/// by the body are captured and rethrown on the calling thread.
///
/// `parallel_for` is a template over the body type: the job is published as
/// a raw `(function pointer, context)` pair, so dispatch costs one indirect
/// call per *chunk* while the per-index loop inside the body inlines into
/// the worker — no `std::function` allocation or per-cell type erasure on
/// the hot path. `std::function` bodies still work (they are callables).
///
/// The engine's inner loops are the pool's caller, through
/// `Machine::run_blocks` / `parallel_for_blocked` on the process-wide
/// `shared()` pool. `serve::SolverService` deliberately does *not* run
/// its dispatch through this pool: a fork-join round cannot return
/// before its longest solve, so async submissions arriving mid-round
/// would head-of-line block behind it — the service keeps free-running
/// queue-consumer threads instead, whose solves issue their loops here
/// like any other caller.
///
/// The pool serves one loop at a time, and only a lone solve. A loop
/// goes to the workers only when no other solve is in flight (fewer than
/// two `SolveGuard`s held process-wide; the caller's own solve is one)
/// and the pool is free (a `try_lock` on the issuer mutex, held for the
/// whole of a multi-chunk loop). Otherwise the loop runs inline on its
/// caller, as one chunk over the whole range, and never waits for the
/// pool. So a solve that has the host to itself spreads over every core,
/// while solves that overlap — a multi-worker service under load, or
/// several callers of `core::solve` — each keep to their own thread
/// instead of queueing for the workers or oversubscribing the cores.
/// Loops that run inline anyway — no workers, or a range within one
/// grain — skip both tests. A body must not issue a loop on the pool
/// that is running it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace subdp::pram {

/// Marks one solve in flight for the length of its scope. The count is
/// process-wide; `ThreadPool::parallel_for` runs a loop inline while more
/// than one guard is held. `core::SolveSession::solve` holds one for the
/// whole call, so `core::solve` and service workers both count.
class SolveGuard {
 public:
  SolveGuard() noexcept { ++in_flight_; }
  ~SolveGuard() { --in_flight_; }

  SolveGuard(const SolveGuard&) = delete;
  SolveGuard& operator=(const SolveGuard&) = delete;

  /// Guards held right now, across all threads.
  [[nodiscard]] static unsigned in_flight() noexcept {
    return in_flight_.load();
  }

 private:
  static inline std::atomic<unsigned> in_flight_{0};
};

/// Fork-join pool; one instance can be reused for any number of loops,
/// issued from any number of threads (one at a time on the workers, the
/// rest inline; see the file comment).
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = `hardware_concurrency`).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute chunks (workers + the caller).
  [[nodiscard]] unsigned parallelism() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs `body(chunk_begin, chunk_end)` over `[begin, end)` split into
  /// chunks of at most `grain` indices (grain 0 = choose automatically),
  /// or inline as one chunk while another solve is in flight or another
  /// loop holds the pool. Blocks until all chunks have completed.
  template <class Body>
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    parallel_for_erased(
        begin, end, grain,
        [](void* ctx, std::int64_t lo, std::int64_t hi) {
          (*static_cast<Fn*>(ctx))(lo, hi);
        },
        const_cast<std::remove_const_t<Fn>*>(std::addressof(body)));
  }

  /// Process-wide shared pool, created on first use.
  static ThreadPool& shared();

 private:
  /// One chunk of the published job: `fn(ctx, lo, hi)`.
  using BlockFn = void (*)(void*, std::int64_t, std::int64_t);

  /// Type-erased core of `parallel_for` (one erased call per chunk).
  void parallel_for_erased(std::int64_t begin, std::int64_t end,
                           std::int64_t grain, BlockFn fn, void* ctx);

  void worker_loop();
  void run_chunks();

  std::vector<std::thread> workers_;
  /// Held by the issuing thread for a whole multi-chunk loop; only ever
  /// try-locked, so an issuer never waits for another.
  std::mutex issuer_mutex_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;

  // Current job, valid while generation_ is odd-stepped per dispatch.
  BlockFn body_fn_ = nullptr;
  void* body_ctx_ = nullptr;
  std::int64_t job_begin_ = 0;
  std::int64_t job_end_ = 0;
  std::int64_t job_grain_ = 1;
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<unsigned> workers_active_{0};
  std::uint64_t generation_ = 0;
  bool shutting_down_ = false;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace subdp::pram
