#include "pram/thread_pool.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace subdp::pram {

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 2;
  // The calling thread participates, so spawn n-1 workers.
  workers_.reserve(n > 0 ? n - 1 : 0);
  for (unsigned i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutting_down_ || generation_ != seen_generation;
      });
      if (shutting_down_) return;
      seen_generation = generation_;
    }
    run_chunks();
    if (workers_active_.fetch_sub(1) == 1) {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::int64_t chunk_begin =
        next_chunk_.fetch_add(job_grain_, std::memory_order_relaxed);
    if (chunk_begin >= job_end_) return;
    const std::int64_t chunk_end = std::min(chunk_begin + job_grain_, job_end_);
    try {
      body_fn_(body_ctx_, chunk_begin, chunk_end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for_erased(std::int64_t begin, std::int64_t end,
                                     std::int64_t grain, BlockFn fn,
                                     void* ctx) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  if (grain <= 0) {
    // Aim for ~8 chunks per thread to smooth imbalance, min grain 1.
    const auto target =
        static_cast<std::int64_t>(parallelism()) * 8;
    grain = std::max<std::int64_t>(1, n / std::max<std::int64_t>(1, target));
  }
  if (workers_.empty() || n <= grain) {
    fn(ctx, begin, end);
    return;
  }

  // The job fields below are shared by every issuer: one loop at a time,
  // and only for a lone solve. Anyone else runs the loop on its own thread.
  std::unique_lock<std::mutex> issuer(issuer_mutex_, std::defer_lock);
  if (SolveGuard::in_flight() > 1 || !issuer.try_lock()) {
    fn(ctx, begin, end);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_fn_ = fn;
    body_ctx_ = ctx;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    next_chunk_.store(begin, std::memory_order_relaxed);
    workers_active_.store(static_cast<unsigned>(workers_.size()),
                          std::memory_order_relaxed);
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();

  run_chunks();  // the calling thread works too

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return workers_active_.load(std::memory_order_acquire) == 0;
    });
    body_fn_ = nullptr;
    body_ctx_ = nullptr;
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace subdp::pram
