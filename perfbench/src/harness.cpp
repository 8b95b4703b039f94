#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/polygon_triangulation.hpp"
#include "dp/sequential.hpp"
#include "dp/tabulated.hpp"
#include "dp/tree_shaped.hpp"
#include "trees/generators.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Instance make_instance(const std::string& family, std::size_t n,
                       subdp::support::Rng& rng) {
  Instance inst;
  inst.family = family;
  inst.n = n;
  if (family == "matrix-chain") {
    inst.problem = std::make_unique<dp::MatrixChainProblem>(
        dp::MatrixChainProblem::random(n, rng));
  } else if (family == "optimal-bst") {
    // n - 1 keys give n objects (one gap per key boundary).
    inst.problem = std::make_unique<dp::OptimalBstProblem>(
        dp::OptimalBstProblem::random(n - 1, rng));
  } else if (family == "triangulation") {
    inst.problem = std::make_unique<dp::PolygonTriangulationProblem>(
        dp::PolygonTriangulationProblem::random(n, rng));
  } else {
    subdp::trees::TreeShape shape;
    if (family == "zigzag") {
      shape = subdp::trees::TreeShape::kZigzag;
    } else if (family == "skewed") {
      shape = subdp::trees::TreeShape::kLeftSkewed;
    } else if (family == "complete") {
      shape = subdp::trees::TreeShape::kComplete;
    } else {
      throw std::invalid_argument("unknown instance family: " + family);
    }
    auto planted = dp::make_tree_shaped_instance(
        subdp::trees::make_tree(shape, n, &rng), rng);
    inst.problem =
        std::make_unique<dp::TabulatedProblem>(std::move(planted.problem));
  }
  if (inst.problem->size() != n) {
    throw std::logic_error(family + " generator returned the wrong size");
  }
  inst.oracle = dp::solve_sequential(*inst.problem);
  return inst;
}

bool matches_oracle(const dp::DpResult& oracle,
                    const core::SublinearResult& result) {
  if (result.cost != oracle.cost) return false;
  const std::size_t n = oracle.c.rows() - 1;
  if (result.w.rows() < n + 1 || result.w.cols() < n + 1) return false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      if (result.w(i, j) != oracle.c(i, j)) return false;
    }
  }
  return true;
}

namespace {

/// Draws sizes in [lo, hi] from shuffled decks: every size once per deck,
/// so over a run every size is sent equally often (to within one).
class SizeDeck {
 public:
  SizeDeck(std::size_t lo, std::size_t hi) : lo_(lo), hi_(hi) {}
  std::size_t next(subdp::support::Rng& rng) {
    if (deck_.empty()) {
      for (std::size_t n = lo_; n <= hi_; ++n) deck_.push_back(n);
      rng.shuffle(deck_);
    }
    const std::size_t n = deck_.back();
    deck_.pop_back();
    return n;
  }

 private:
  std::size_t lo_, hi_;
  std::vector<std::size_t> deck_;
};

}  // namespace

std::vector<Arrival> make_open_loop_schedule(std::uint64_t seed,
                                             double duration_s) {
  subdp::support::Rng rng(seed ^ 0x6f70656e6c6f6f70ull);
  SizeDeck interactive(kColdInteractiveMinN, kColdInteractiveMaxN);
  SizeDeck batch(kColdBatchMinN, kColdBatchMaxN);
  std::vector<Arrival> out;
  std::size_t batch_slot = 0;
  double t = 0;
  for (std::size_t i = 0;; ++i) {
    // Exponential inter-arrival gaps: 1 - u is in (0, 1].
    t += -std::log(1.0 - rng.uniform01()) / kColdRatePerS;
    if (t >= duration_s) break;
    // Exactly one batch arrival, at a random position, per block of
    // kColdBatchOneIn arrivals.
    if (i % kColdBatchOneIn == 0) {
      batch_slot = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(kColdBatchOneIn) - 1));
    }
    Arrival a;
    a.offset_s = t;
    a.batch = i % kColdBatchOneIn == batch_slot;
    // Sizes come from decks, not independent draws, so the size mix (and
    // with it the latency distribution) is the same for every seed. With
    // 57 interactive shapes against 32 cached plans, about half of the
    // lookups miss.
    a.n = a.batch ? batch.next(rng) : interactive.next(rng);
    out.push_back(a);
  }
  return out;
}

Collector::Collector(std::size_t waiters, Check check)
    : check_(std::move(check)) {
  threads_.reserve(waiters);
  for (std::size_t i = 0; i < waiters; ++i) {
    threads_.emplace_back([this] { waiter_loop(); });
  }
}

Collector::~Collector() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Collector::add(RequestRecord record,
                    std::future<core::SublinearResult> future,
                    std::size_t tag) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Pending{record, std::move(future), tag});
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void Collector::add_failed(RequestRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.push_back(record);
}

Clock::time_point Collector::wait_for_slot(std::size_t limit) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (in_flight_ < limit) return Clock::now();
  done_cv_.wait(lock, [&] { return in_flight_ < limit; });
  return last_release_;
}

std::vector<RequestRecord> Collector::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return in_flight_ == 0; });
  std::vector<RequestRecord> out = std::move(finished_);
  finished_.clear();
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  return out;
}

void Collector::waiter_loop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;
      p = std::move(pending_.front());
      pending_.pop_front();
    }
    p.future.wait();
    p.record.done = Clock::now();
    try {
      const core::SublinearResult result = p.future.get();
      p.record.mismatch = !check_(p.tag, result);
      p.record.failed = p.record.mismatch;
    } catch (...) {
      p.record.failed = true;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      finished_.push_back(p.record);
      --in_flight_;
      last_release_ = p.record.done;
    }
    done_cv_.notify_all();
  }
}

void SpanRecorder::add(const char* name, const char* layer,
                       std::uint64_t request, Clock::time_point begin,
                       Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, layer, request, begin, end});
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

namespace {

double to_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

/// The events inside an `export_trace()` document: everything between the
/// first '[' and the last ']', trimmed; empty when there are none.
std::string trace_events_body(const std::string& doc) {
  const std::size_t open = doc.find('[');
  const std::size_t close = doc.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open) {
    return {};
  }
  std::string body = doc.substr(open + 1, close - open - 1);
  const std::size_t first = body.find_first_not_of(" \n\r\t");
  const std::size_t last = body.find_last_not_of(" \n\r\t");
  return first == std::string::npos ? std::string{}
                                    : body.substr(first, last - first + 1);
}

}  // namespace

std::string SpanRecorder::chrome_trace(
    const std::vector<std::string>& service_traces) const {
  std::string out = "{\n  \"traceEvents\": [\n";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 2, \"tid\": %llu, "
                    "\"args\": {\"request\": %llu}}",
                    first ? "" : ",\n", s.name, s.layer, to_us(s.begin),
                    to_us(s.end) - to_us(s.begin),
                    static_cast<unsigned long long>(s.request),
                    static_cast<unsigned long long>(s.request));
      out += buf;
      first = false;
    }
  }
  for (const std::string& doc : service_traces) {
    const std::string body = trace_events_body(doc);
    if (body.empty()) continue;
    out += first ? "    " : ",\n    ";
    out += body;
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace perfbench
