// Experiment E10 (Sec. 1/2): one engine, all three motivating
// applications (plus the generic user recurrence), with per-application
// statistics and Brent-scheduled times at the paper's processor counts.
//
// Reproduces the applicability claim: every recurrence of family (*) is
// served by the same three parallel operations, and the Brent emulation
// shows how the accounted time collapses as processors approach the
// paper's O(n^3.5/log n) budget.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/cli.hpp"

using namespace subdp;

int main(int argc, char** argv) {
  support::ArgParser args("E10: all applications through one engine");
  args.add_int("n", 48, "instance size");
  args.add_int("seed", 31, "random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const double dn = static_cast<double>(n);
  const auto paper_procs = static_cast<std::uint64_t>(
      std::pow(dn, 3.5) / std::log2(dn > 2 ? dn : 2.0));

  support::TableWriter table(
      "E10: the three applications (+ planted shapes), banded solver, "
      "n = " + std::to_string(n),
      {"family", "cost", "iterations", "bound", "work", "depth",
       "T(p=1)", "T(p=64)", "T(p=n^3.5/log n)", "correct"});

  bool all_correct = true;
  for (const auto& family : bench::instance_families()) {
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
    const auto problem = bench::make_instance(family, n, rng);
    core::SublinearOptions options;
    options.machine.record_costs = true;
    core::SolveSession session(core::SolvePlan::create(n, options));
    const auto result = session.solve(*problem);
    const auto& costs = session.machine().costs();
    const bool correct =
        result.cost == dp::solve_sequential(*problem).cost;
    all_correct &= correct;
    table.add_row({family, static_cast<std::int64_t>(result.cost),
                   static_cast<std::int64_t>(result.iterations),
                   static_cast<std::int64_t>(result.iteration_bound),
                   static_cast<std::int64_t>(costs.total_work()),
                   static_cast<std::int64_t>(costs.total_depth()),
                   static_cast<std::int64_t>(costs.brent_time(1)),
                   static_cast<std::int64_t>(costs.brent_time(64)),
                   static_cast<std::int64_t>(costs.brent_time(paper_procs)),
                   std::string(correct ? "yes" : "NO")});
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));
  std::printf(
      "\nPaper's claim: matrix-chain ordering, optimal BSTs and polygon "
      "triangulation are all instances of recurrence (*) (Sec. 1); at the "
      "paper's processor budget (p = n^3.5/log n = %llu here) the "
      "Brent-scheduled time approaches the pure depth, i.e. the "
      "O(sqrt(n) log n) bound.\n",
      static_cast<unsigned long long>(paper_procs));
  return all_correct ? 0 : 1;
}
