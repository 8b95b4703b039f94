// Experiment E6 (the headline processor-time-product comparison,
// Secs. 1 & 7): measured PRAM work of every solver in the repo, with
// fitted growth exponents.
//
// Reproduces the paper's ranking:
//   sequential / wavefront  ~ n^3   (work-optimal baselines)
//   HLV banded (Sec. 5)     ~ n^4   (= n^3.5/log n procs x sqrt(n) log n)
//   HLV dense  (Sec. 2)     ~ n^5.5 (= n^5/log n procs x sqrt(n) log n)
//   Rytter-style squaring   ~ n^6+  (= n^6/log n procs x log^2 n)
// i.e. this paper's O(n^2 log n) improvement over Rytter and its
// remaining Theta(sqrt n) gap to the sequential bound. The fixed
// 2*ceil(sqrt n) schedule is used so the measurement reflects the
// worst-case product, not early convergence.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "dp/wavefront.hpp"
#include "support/cli.hpp"

using namespace subdp;

namespace {

std::uint64_t sublinear_work(const dp::Problem& problem,
                             core::PwVariant variant,
                             core::SquareMode square_mode) {
  core::SublinearOptions options;
  options.variant = variant;
  options.square_mode = square_mode;
  options.machine.record_costs = true;
  options.termination = core::TerminationMode::kFixedBound;
  if (square_mode == core::SquareMode::kRytterFull) {
    options.termination = core::TerminationMode::kFixedPoint;
  }
  core::SolveSession session(core::SolvePlan::create(problem.size(), options));
  (void)session.solve(problem);
  return session.machine().costs().total_work();
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("E6: measured work (processor-time product)");
  args.add_int("max-n", 96, "largest size for the banded solver");
  args.add_int("max-dense-n", 48, "largest size for the dense solver");
  args.add_int("max-rytter-n", 18, "largest size for Rytter squaring");
  args.add_int("seed", 77, "random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));
  const auto max_dense = static_cast<std::size_t>(args.get_int("max-dense-n"));
  const auto max_rytter =
      static_cast<std::size_t>(args.get_int("max-rytter-n"));

  support::TableWriter table(
      "E6: total PRAM operations per solver (matrix-chain instances, "
      "fixed 2*ceil(sqrt n) schedule)",
      {"n", "sequential", "wavefront", "hlv-banded", "hlv-dense",
       "rytter", "banded/seq", "rytter/banded"});

  std::vector<double> ns, seq_w, banded_w, dense_ns, dense_w, ryt_ns, ryt_w;
  for (std::size_t n = 8; n <= max_n; n = n * 3 / 2) {
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) + n);
    const auto problem = dp::MatrixChainProblem::random(n, rng);

    std::uint64_t seq_ops = 0;
    (void)dp::solve_sequential(problem, &seq_ops);
    pram::Machine machine;
    (void)dp::solve_wavefront(problem, machine);
    const std::uint64_t wavefront = machine.costs().total_work();
    const std::uint64_t banded = sublinear_work(
        problem, core::PwVariant::kBanded, core::SquareMode::kHlvOneLevel);

    std::uint64_t dense = 0;
    if (n <= max_dense) {
      dense = sublinear_work(problem, core::PwVariant::kDense,
                             core::SquareMode::kHlvOneLevel);
      dense_ns.push_back(static_cast<double>(n));
      dense_w.push_back(static_cast<double>(dense));
    }
    std::uint64_t rytter = 0;
    if (n <= max_rytter) {
      rytter = sublinear_work(problem, core::PwVariant::kDense,
                              core::SquareMode::kRytterFull);
      ryt_ns.push_back(static_cast<double>(n));
      ryt_w.push_back(static_cast<double>(rytter));
    }

    table.add_row(
        {static_cast<std::int64_t>(n), static_cast<std::int64_t>(seq_ops),
         static_cast<std::int64_t>(wavefront),
         static_cast<std::int64_t>(banded), static_cast<std::int64_t>(dense),
         static_cast<std::int64_t>(rytter),
         static_cast<double>(banded) / static_cast<double>(seq_ops),
         rytter != 0
             ? static_cast<double>(rytter) / static_cast<double>(banded)
             : 0.0});
    ns.push_back(static_cast<double>(n));
    seq_w.push_back(static_cast<double>(seq_ops));
    banded_w.push_back(static_cast<double>(banded));
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));

  std::printf("\nGrowth fits (work vs n):\n");
  bench::print_power_fit(std::cout, "sequential", ns, seq_w, 3.0);
  bench::print_power_fit(std::cout, "hlv-banded (Sec. 5)", ns, banded_w,
                         4.0);
  bench::print_power_fit(std::cout, "hlv-dense (Sec. 2)", dense_ns, dense_w,
                         5.5);
  bench::print_power_fit(std::cout, "rytter squaring", ryt_ns, ryt_w, 6.0);
  std::printf(
      "\nPaper's claims: ranking sequential < banded < dense < rytter "
      "from moderate n on (constants mask it below n ~ 10); the "
      "banded/sequential gap is the open Theta(sqrt n) factor of Sec. 7; "
      "rytter/banded reproduces the O(n^2 log n) improvement (its "
      "measured ratio grows ~n^2).\n");
  return 0;
}
