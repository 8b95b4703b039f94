// Experiment E5 (Secs. 2+4): iterations-to-convergence of the full
// algorithm against the 2*ceil(sqrt n) worst-case schedule, per instance
// family.
//
// Reproduces: correctness within the bound on every family; O(log n)-ish
// observed iterations on the three applications and on planted
// complete/skewed optima (the Sec. 6 "binary decomposition" effect); the
// planted zigzag optima as the Theta(sqrt n) adversarial family.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/cli.hpp"

using namespace subdp;

int main(int argc, char** argv) {
  support::ArgParser args("E5: solver iterations vs the sqrt-n schedule");
  args.add_int("max-n", 96, "largest instance size");
  args.add_int("trials", 3, "random instances per (family, n)");
  args.add_int("seed", 5, "base random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));
  const auto trials = static_cast<int>(args.get_int("trials"));

  support::TableWriter table(
      "E5: iterations to fixed point (banded solver) vs bound",
      {"family", "n", "iterations(mean)", "bound", "iters/bound",
       "log2(n)", "all correct"});

  std::vector<double> zig_ns, zig_iters, rnd_ns, rnd_iters;
  for (const auto& family : bench::instance_families()) {
    for (std::size_t n = 12; n <= max_n; n *= 2) {
      support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                       n * 131);
      double total_iters = 0;
      bool all_correct = true;
      const bool randomized =
          family == "matrix-chain" || family == "optimal-bst" ||
          family == "triangulation";
      const int reps = randomized ? trials : 1;
      for (int rep = 0; rep < reps; ++rep) {
        const auto problem = bench::make_instance(family, n, rng);
        core::SublinearOptions options;  // banded, fixed-point stop
        core::SolveSession session(core::SolvePlan::create(n, options));
        const auto result = session.solve(*problem);
        total_iters += static_cast<double>(result.iterations);
        all_correct &= result.cost == dp::solve_sequential(*problem).cost;
      }
      const double mean = total_iters / reps;
      const auto bound = support::two_ceil_sqrt(n);
      table.add_row({family, static_cast<std::int64_t>(n), mean,
                     static_cast<std::int64_t>(bound),
                     mean / static_cast<double>(bound),
                     static_cast<std::int64_t>(support::ceil_log2(n)),
                     std::string(all_correct ? "yes" : "NO")});
      if (family == "zigzag") {
        zig_ns.push_back(static_cast<double>(n));
        zig_iters.push_back(mean);
      }
      if (family == "matrix-chain") {
        rnd_ns.push_back(static_cast<double>(n));
        rnd_iters.push_back(mean);
      }
      if (!all_correct) {
        table.print(std::cout);
        std::fprintf(stderr, "CORRECTNESS FAILURE at %s n=%zu\n",
                     family.c_str(), n);
        return 1;
      }
    }
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));

  std::printf("\nGrowth fits (iterations vs n):\n");
  bench::print_power_fit(std::cout, "zigzag (adversarial)", zig_ns,
                         zig_iters, 0.5);
  bench::print_log_fit(std::cout, "matrix-chain (typical)", rnd_ns,
                       rnd_iters);
  std::printf(
      "\nPaper's claims: every family converges within 2*ceil(sqrt n) "
      "iterations (Sec. 4); zigzag needs Theta(sqrt n) of them (Sec. 6) "
      "while typical instances finish in O(log n).\n");
  return 0;
}
