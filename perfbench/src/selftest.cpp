// perfbench_selftest — checks of the benchmark's own machinery: quantiles,
// the oracle, the open-loop schedule and due-time latency accounting.
// Exits 0 when every check passes; prints each failure otherwise.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void quantiles_on_a_known_sample() {
  // Sorted: 15 20 35 40 50. Position q * 4 in the sorted sample.
  const std::vector<double> sample = {40, 15, 50, 35, 20};
  check(near(quantile(sample, 0.0), 15), "quantile(0) is the minimum");
  check(near(quantile(sample, 0.5), 35), "quantile(0.5) is the median");
  check(near(quantile(sample, 0.9), 46), "quantile(0.9) interpolates 40..50");
  check(near(quantile(sample, 1.0), 50), "quantile(1) is the maximum");
  check(near(median({1, 2, 3, 4}), 2.5), "even-sized median averages");
  check(near(quantile({7}, 0.9), 7), "one-sample quantile");
}

void oracle_rejects_a_corrupted_w_table() {
  subdp::support::Rng rng(11);
  const Instance inst = make_instance("matrix-chain", 14, rng);
  core::SublinearOptions options;
  options.machine.backend = subdp::pram::Backend::kSerial;
  options.machine.record_costs = false;
  core::SolveSession session(core::SolvePlan::create(inst.n, options));
  const core::SublinearResult good = session.solve(*inst.problem);
  check(matches_oracle(inst.oracle, good), "oracle accepts a correct solve");

  core::SublinearResult inner = good;
  inner.w(3, 9) += 1;  // an interior cell: the cost c(0, n) is untouched
  check(inner.cost == inst.oracle.cost && !matches_oracle(inst.oracle, inner),
        "oracle rejects a corrupted interior w cell");

  core::SublinearResult root = good;
  root.cost += 1;
  check(!matches_oracle(inst.oracle, root), "oracle rejects a wrong cost");

  for (const char* family : kFamilies) {
    const Instance other = make_instance(family, 9, rng);
    core::SolveSession s(core::SolvePlan::create(other.n, options));
    check(matches_oracle(other.oracle, s.solve(*other.problem)), family);
  }
}

void schedule_is_deterministic_per_seed() {
  const auto a = make_open_loop_schedule(42, 20.0);
  const auto b = make_open_loop_schedule(42, 20.0);
  const auto c = make_open_loop_schedule(43, 20.0);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].offset_s == b[i].offset_s && a[i].batch == b[i].batch &&
           a[i].n == b[i].n;
  }
  check(same, "same seed gives the same schedule");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].offset_s != c[i].offset_s || a[i].n != c[i].n;
  }
  check(differs, "another seed gives another schedule");

  const double rate = static_cast<double>(a.size()) / 20.0;
  check(std::abs(rate - kColdRatePerS) < 0.1 * kColdRatePerS,
        "arrival rate is within 10% of the target");
  std::size_t batch = 0;
  bool in_range = true, sorted = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    batch += a[i].batch ? 1 : 0;
    const std::size_t lo = a[i].batch ? kColdBatchMinN : kColdInteractiveMinN;
    const std::size_t hi = a[i].batch ? kColdBatchMaxN : kColdInteractiveMaxN;
    in_range = in_range && a[i].n >= lo && a[i].n <= hi && a[i].offset_s < 20.0;
    sorted = sorted && (i == 0 || a[i - 1].offset_s <= a[i].offset_s);
  }
  check(in_range, "every arrival's n is in range");
  check(sorted, "arrivals are in time order");
  const double share = static_cast<double>(batch) / static_cast<double>(a.size());
  check(share > 0.9 / 16 && share < 1.1 / 16, "1 arrival in 16 is batch");

  // Sizes are dealt from decks: every interactive n is sent equally often,
  // to within one.
  std::vector<std::size_t> sent(kColdInteractiveMaxN + 1, 0);
  for (const Arrival& x : a) {
    if (!x.batch) ++sent[x.n];
  }
  std::size_t least = SIZE_MAX, most = 0;
  for (std::size_t n = kColdInteractiveMinN; n <= kColdInteractiveMaxN; ++n) {
    least = std::min(least, sent[n]);
    most = std::max(most, sent[n]);
  }
  check(most - least <= 1, "every interactive n is sent equally often");
}

void stalled_generator_shows_in_due_time_latency() {
  // Arrivals every 2 ms; the generator stalls 40 ms before arrival 5. The
  // service answers instantly, so only due-time accounting sees the stall.
  std::vector<Arrival> schedule;
  for (int i = 0; i < 20; ++i) schedule.push_back(Arrival{0.002 * i});
  Collector collector(4, [](std::size_t, const core::SublinearResult&) {
    return true;
  });
  const auto submit = [](const Arrival&, std::size_t&) {
    std::promise<core::SublinearResult> p;
    p.set_value(core::SublinearResult{});
    return p.get_future();
  };
  static constexpr double kStallMs = 40;
  run_open_loop(schedule, Clock::now() + std::chrono::milliseconds(1),
                collector, submit, [](std::size_t i) {
                  if (i == 5) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(kStallMs));
                  }
                });
  const std::vector<RequestRecord> records = collector.drain();
  check(records.size() == schedule.size(), "every arrival is recorded");
  double late_max = 0;
  for (const RequestRecord& r : records) late_max = std::max(late_max, r.late_ms());
  check(late_max >= kStallMs, "generator lateness covers the stall");
  check(records[5].due_latency_ms() >= kStallMs,
        "the stalled request's due-time latency covers the stall");
  check(records[6].due_latency_ms() >= kStallMs - 2 - 0.5,
        "the next request inherits the stall");
  check(records[5].sent_latency_ms() < kStallMs / 2,
        "submit-time latency alone would hide the stall");
  check(records[2].due_latency_ms() < kStallMs / 2,
        "requests before the stall are unaffected");
}

}  // namespace

int main() {
  quantiles_on_a_known_sample();
  oracle_rejects_a_corrupted_w_table();
  schedule_is_deterministic_per_seed();
  stalled_generator_shows_in_due_time_latency();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
