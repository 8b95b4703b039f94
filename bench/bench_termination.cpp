// Experiment E8 (Sec. 7, open problem): termination policies — the fixed
// 2*ceil(sqrt n) schedule vs stopping at a fixed point vs the paper's
// "w' unchanged for two consecutive iterations" heuristic.
//
// Reproduces the simulation claim of Secs. 6-7: on typical instances the
// iteration converges long before the worst-case schedule, so a
// detection-based stop saves a Theta(sqrt(n)/log(n)) factor; on the
// adversarial zigzag family there is nothing to save. Also audits the
// heuristic's correctness (the paper leaves its sufficiency open).

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/cli.hpp"

using namespace subdp;

namespace {

core::SublinearResult run(const dp::Problem& p, core::TerminationMode mode) {
  core::SublinearOptions options;
  options.termination = mode;
  core::SolveSession session(core::SolvePlan::create(p.size(), options));
  return session.solve(p);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("E8: termination policies (Sec. 7)");
  args.add_int("max-n", 96, "largest instance size");
  args.add_int("trials", 3, "random instances per (family, n)");
  args.add_int("seed", 23, "base random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));
  const auto trials = static_cast<int>(args.get_int("trials"));

  support::TableWriter table(
      "E8: iterations by termination policy (banded solver)",
      {"family", "n", "fixed bound", "fixed point", "w-heuristic",
       "saving", "all correct"});

  std::size_t heuristic_errors = 0;
  for (const char* family_name :
       {"matrix-chain", "optimal-bst", "zigzag"}) {
    const std::string family = family_name;
    for (std::size_t n = 12; n <= max_n; n *= 2) {
      support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                       n * 17);
      const bool randomized = family != "zigzag";
      const int reps = randomized ? trials : 1;
      double fp_total = 0, wh_total = 0;
      bool all_correct = true;
      for (int rep = 0; rep < reps; ++rep) {
        const auto problem = bench::make_instance(family, n, rng);
        const Cost optimal = dp::solve_sequential(*problem).cost;
        const auto fixed_point =
            run(*problem, core::TerminationMode::kFixedPoint);
        const auto heuristic =
            run(*problem, core::TerminationMode::kWUnchangedTwice);
        fp_total += static_cast<double>(fixed_point.iterations);
        wh_total += static_cast<double>(heuristic.iterations);
        all_correct &= fixed_point.cost == optimal;
        if (heuristic.cost != optimal) {
          ++heuristic_errors;
          all_correct = false;
        }
      }
      const auto bound = support::two_ceil_sqrt(n);
      const double fp_mean = fp_total / reps;
      table.add_row({family, static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(bound), fp_mean,
                     wh_total / reps,
                     static_cast<double>(bound) / fp_mean,
                     std::string(all_correct ? "yes" : "NO")});
    }
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));
  std::printf(
      "\nPaper's claim (Sec. 7): convergence-detected stops finish in far "
      "fewer iterations than the schedule on typical inputs; the zigzag "
      "family shows no saving. The 'w unchanged twice' heuristic is not "
      "proven sufficient — observed wrong answers: %zu.\n",
      heuristic_errors);
  return heuristic_errors == 0 ? 0 : 1;
}
