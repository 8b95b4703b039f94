// Experiment E11 (Sec. 4, preprocessing remark): "In general, the
// f(i,j,k)'s do not form the timewise-expensive part of the computation."
//
// Measures the accounted work and depth of the parallel f-preparation
// phase (one O(log n)-depth sweep + prefix-sum scans for weight-based
// instances) against the main iteration, per application.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/parallel_setup.hpp"
#include "support/cli.hpp"

using namespace subdp;

int main(int argc, char** argv) {
  support::ArgParser args("E11: Sec. 4 preprocessing vs main iteration");
  args.add_int("max-n", 96, "largest instance size");
  args.add_int("seed", 37, "random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));

  support::TableWriter table(
      "E11: f-preprocessing vs main iteration (banded solver)",
      {"family", "n", "pre work", "main work", "work ratio", "pre depth",
       "main depth", "depth ratio"});

  for (const char* family : {"matrix-chain", "optimal-bst"}) {
    for (std::size_t n = 12; n <= max_n; n *= 2) {
      support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) + n);
      const auto problem = bench::make_instance(family, n, rng);

      pram::Machine pre;
      const auto table_problem = dp::materialize_in_parallel(pre, *problem);

      core::SublinearOptions options;
      options.termination = core::TerminationMode::kFixedBound;
      options.machine.record_costs = true;
      core::SolveSession session(core::SolvePlan::create(n, options));
      (void)session.solve(table_problem);
      const auto& main_costs = session.machine().costs();

      table.add_row(
          {std::string(family), static_cast<std::int64_t>(n),
           static_cast<std::int64_t>(pre.costs().total_work()),
           static_cast<std::int64_t>(main_costs.total_work()),
           static_cast<double>(main_costs.total_work()) /
               static_cast<double>(pre.costs().total_work()),
           static_cast<std::int64_t>(pre.costs().total_depth()),
           static_cast<std::int64_t>(main_costs.total_depth()),
           static_cast<double>(main_costs.total_depth()) /
               static_cast<double>(pre.costs().total_depth())});
    }
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));
  std::printf(
      "\nPaper's claim (Sec. 4): preparing the f values — O(1) time / "
      "O(n^2)-O(n^3) processors (O(log n) with the weight scans) — never "
      "dominates: both ratios must exceed 1 and grow with n (work gap "
      "~n, depth gap ~sqrt(n)).\n");
  return 0;
}
