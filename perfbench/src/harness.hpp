#pragma once

/// \file harness.hpp
/// Building blocks of the perfbench program, shared with its self-test:
/// sample quantiles, seeded instance generation with a sequential oracle,
/// the open-loop arrival schedule, a completion collector that timestamps
/// every request when it finishes, and an in-memory span recorder that
/// writes Chrome-trace JSON.
///
/// Everything here measures the library from outside: it only calls the
/// public API of `core`, `dp`, `serve` and `trees`.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "dp/tables.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace core = subdp::core;
namespace dp = subdp::dp;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The q-quantile of `values` (q in [0, 1]) by linear interpolation
/// between closest ranks (the "R-7" rule: position q * (size - 1) in the
/// sorted sample). Requires a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Instance families the workloads draw from.
inline constexpr const char* kFamilies[] = {
    "matrix-chain", "optimal-bst", "triangulation",
    "zigzag",       "skewed",      "complete"};

/// One generated instance of recurrence (*) and its sequential answer.
struct Instance {
  std::string family;
  std::size_t n = 0;
  std::unique_ptr<dp::Problem> problem;
  dp::DpResult oracle;  ///< `dp::solve_sequential`, computed at generation.
};

/// Builds an instance of `family` with exactly `n` objects and solves it
/// with the O(n^3) sequential DP.
[[nodiscard]] Instance make_instance(const std::string& family,
                                     std::size_t n, subdp::support::Rng& rng);

/// True when `result` agrees with the oracle on the cost and on every
/// cell of the table: `w(i, j) == c(i, j)` for all `0 <= i < j <= n`.
[[nodiscard]] bool matches_oracle(const dp::DpResult& oracle,
                                  const core::SublinearResult& result);

/// The `serve-cold` traffic mix. The rate is about a sixth of `serve-hot`
/// capacity on an idle 4-vCPU host (~240/s), so the workers rarely queue.
/// On a shared host whose speed drifts, queueing amplifies every slowdown:
/// at 90/s p50 tripled, and at 60/s p50 still spread by a quarter across
/// ten runs.
inline constexpr double kColdRatePerS = 40;
inline constexpr std::size_t kColdBatchOneIn = 16;  ///< 1 arrival in 16.
/// Interactive n is in [16, 72], batch n in [64, 96].
inline constexpr std::size_t kColdInteractiveMinN = 16;
inline constexpr std::size_t kColdInteractiveMaxN = 72;
inline constexpr std::size_t kColdBatchMinN = 64;
inline constexpr std::size_t kColdBatchMaxN = 96;

/// One open-loop arrival: when it is due (offset from the start of the
/// run), its priority class and its instance size.
struct Arrival {
  double offset_s = 0;
  bool batch = false;
  std::size_t n = 0;
};

/// Poisson arrivals of the `serve-cold` mix over `[0, duration_s)`; a pure
/// function of `seed`. One arrival in each block of `kColdBatchOneIn` is
/// batch; sizes are dealt from shuffled decks of every size in range.
[[nodiscard]] std::vector<Arrival> make_open_loop_schedule(
    std::uint64_t seed, double duration_s);

/// The timing of one request. `due` is when the workload meant to send
/// it (the schedule slot, or the instant a closed-loop slot freed),
/// `sent` when `submit` was called, `done` when its result was ready.
struct RequestRecord {
  std::uint64_t id = 0;
  Clock::time_point due{}, sent{}, done{};
  bool batch = false;
  bool failed = false;  ///< Threw, was rejected or expired, or mismatched.
  bool mismatch = false;  ///< Subset of `failed`: oracle disagreement.
  [[nodiscard]] double due_latency_ms() const { return ms_between(due, done); }
  [[nodiscard]] double sent_latency_ms() const {
    return ms_between(sent, done);
  }
  [[nodiscard]] double late_ms() const { return ms_between(due, sent); }
};

/// Waits on submitted futures from a pool of waiter threads, so each
/// request is timestamped the moment its result is ready rather than when
/// one polling thread gets to it. `check` runs on the waiter right after
/// the timestamp (outside the timed interval) and returns whether the
/// result is correct.
class Collector {
 public:
  using Check =
      std::function<bool(std::size_t tag, const core::SublinearResult&)>;

  Collector(std::size_t waiters, Check check);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hands over one in-flight request; `tag` is passed to `check`.
  void add(RequestRecord record,
           std::future<core::SublinearResult> future, std::size_t tag);
  /// Records a request that failed at submit (e.g. a rejection).
  void add_failed(RequestRecord record);

  /// Closed-loop slot: returns once fewer than `limit` requests are in
  /// flight, with the instant the slot became free (now, when one was
  /// already free).
  Clock::time_point wait_for_slot(std::size_t limit);

  /// Waits for every added request, then returns all records (id order).
  std::vector<RequestRecord> drain();

 private:
  struct Pending {
    RequestRecord record;
    std::future<core::SublinearResult> future;
    std::size_t tag = 0;
  };
  void waiter_loop();

  Check check_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Pending> pending_;
  std::vector<RequestRecord> finished_;
  std::size_t in_flight_ = 0;
  Clock::time_point last_release_{};
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< Last: joined before the rest dies.
};

/// Submits every arrival of `schedule` at `t0 + offset` and hands the
/// futures to `collector`. `submit(arrival, tag)` returns the request's
/// future, sets the tag `collector`'s check receives, and may throw (the
/// request is then recorded as failed). `before_send` runs just before
/// each submit (the self-test injects a stall there). Request ids are the
/// schedule indices; returns how many were sent.
template <class Submit>
std::uint64_t run_open_loop(
    const std::vector<Arrival>& schedule, Clock::time_point t0,
    Collector& collector, Submit&& submit,
    const std::function<void(std::size_t)>& before_send = {}) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i, ++id) {
    const Arrival& a = schedule[i];
    RequestRecord rec;
    rec.id = id;
    rec.batch = a.batch;
    rec.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(a.offset_s));
    std::this_thread::sleep_until(rec.due);
    if (before_send) before_send(i);
    rec.sent = Clock::now();
    std::size_t tag = 0;
    std::future<core::SublinearResult> future;
    try {
      future = submit(a, tag);
    } catch (...) {
      rec.done = Clock::now();
      rec.failed = true;
      collector.add_failed(rec);
      continue;
    }
    collector.add(rec, std::move(future), tag);
  }
  return id;
}

/// One recorded span: a named interval of one layer, on one request.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t request = 0;
  Clock::time_point begin{}, end{};
};

/// In-memory span log (the traced run only). Spans are kept until the end
/// of the run and rendered as Chrome-trace events with the same time base
/// and format as `serve::SolverService::export_trace()` (microseconds of
/// the steady clock), under pid 2, so the two merge into one timeline.
class SpanRecorder {
 public:
  void add(const char* name, const char* layer, std::uint64_t request,
           Clock::time_point begin, Clock::time_point end);
  [[nodiscard]] std::uint64_t dropped() const;
  /// `{"traceEvents": [...]}` holding these spans plus the events of
  /// every `export_trace()` document in `service_traces`.
  [[nodiscard]] std::string chrome_trace(
      const std::vector<std::string>& service_traces) const;

 private:
  static constexpr std::size_t kCapacity = 1u << 20;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
