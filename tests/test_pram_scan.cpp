// Tests for the PRAM prefix-sum primitive (pram/scan.hpp): correctness
// against serial folds, depth accounting, backend independence, CREW
// conformance, and saturation behaviour.

#include "pram/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::pram {
namespace {

std::vector<Cost> serial_inclusive(const std::vector<Cost>& v) {
  std::vector<Cost> out(v.size());
  Cost run = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    run = sat_add(run, v[i]);
    out[i] = run;
  }
  return out;
}

TEST(Scan, EmptyAndSingleton) {
  Machine m;
  EXPECT_TRUE(inclusive_scan(m, {}, "s").empty());
  EXPECT_EQ(inclusive_scan(m, {7}, "s"), std::vector<Cost>{7});
  EXPECT_EQ(exclusive_scan(m, {7}, "s"), std::vector<Cost>{0});
}

TEST(Scan, InclusiveMatchesSerialFold) {
  support::Rng rng(3);
  Machine m;
  for (const std::size_t n : {2u, 3u, 7u, 64u, 100u, 1000u}) {
    std::vector<Cost> v(n);
    for (auto& x : v) x = rng.uniform_int(0, 1000);
    ASSERT_EQ(inclusive_scan(m, v, "s"), serial_inclusive(v)) << "n=" << n;
  }
}

TEST(Scan, ExclusiveIsShiftedInclusive) {
  support::Rng rng(4);
  Machine m;
  std::vector<Cost> v(33);
  for (auto& x : v) x = rng.uniform_int(0, 50);
  const auto inc = inclusive_scan(m, v, "s");
  const auto exc = exclusive_scan(m, v, "s");
  ASSERT_EQ(exc.size(), v.size());
  EXPECT_EQ(exc[0], 0);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_EQ(exc[i], inc[i - 1]);
  }
}

TEST(Scan, DepthIsLogarithmic) {
  Machine m;
  const std::size_t n = 1024;
  (void)inclusive_scan(m, std::vector<Cost>(n, 1), "scan");
  // log2(n) doubling steps, unit depth each.
  EXPECT_EQ(m.costs().step_count(), support::ceil_log2(n));
  EXPECT_EQ(m.costs().total_depth(), support::ceil_log2(n));
}

TEST(Scan, WorkIsNLogNForDoublingScan) {
  Machine m;
  const std::size_t n = 256;
  (void)inclusive_scan(m, std::vector<Cost>(n, 1), "scan");
  const auto work = m.costs().total_work();
  EXPECT_GT(work, (n / 2) * support::ceil_log2(n));
  EXPECT_LE(work, n * support::ceil_log2(n));
}

TEST(Scan, BackendsAgree) {
  support::Rng rng(5);
  std::vector<Cost> v(500);
  for (auto& x : v) x = rng.uniform_int(0, 9);
  std::vector<std::vector<Cost>> results;
  for (const auto b : {Backend::kSerial, Backend::kThreadPool}) {
    MachineOptions opts;
    opts.backend = b;
    Machine m(opts);
    results.push_back(inclusive_scan(m, v, "s"));
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(Scan, IsCrewConformant) {
  MachineOptions opts;
  opts.check_crew = true;
  Machine m(opts);
  (void)exclusive_scan(m, std::vector<Cost>(128, 2), "s");
  ASSERT_NE(m.crew(), nullptr);
  EXPECT_EQ(m.crew()->violation_count(), 0u)
      << m.crew()->first_violation();
}

TEST(Scan, SaturatesAtInfinity) {
  Machine m;
  const std::vector<Cost> v{kInfinity - 5, 10, 1};
  const auto inc = inclusive_scan(m, v, "s");
  EXPECT_EQ(inc[0], kInfinity - 5);
  EXPECT_EQ(inc[1], kInfinity);
  EXPECT_EQ(inc[2], kInfinity);
}

}  // namespace
}  // namespace subdp::pram
