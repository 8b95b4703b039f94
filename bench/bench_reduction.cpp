// Experiment E7a (Sec. 5 ablation): dense (B = n) vs banded (B = 2 ceil sqrt n)
// — identical answers, smaller tables, less square work.
//
// Reproduces: the O(n^4) -> O(n^2 B^2 + n^3) cell reduction and the
// per-step square-work reduction that drives the O(n^5/log n) ->
// O(n^3.5/log n) processor bound.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/pw_banded.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/cli.hpp"

using namespace subdp;

namespace {

// The dense square step's candidate count is data-independent: every quad
// (i,j,p,q) scans (p-i) + (j-q) split positions. Closed-form per
// iteration, so the comparison can extend past the dense memory envelope.
std::uint64_t dense_square_ops_per_iteration(std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len;
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          total += (p - i) + (j - q);
        }
      }
    }
  }
  return total;
}

// Cells of the dense (B = n) table, which stores every slack and needs
// no child-gap side store: sum over root lengths L of (n-L+1) roots of
// C(L+1,2) - 1 gaps. Equals a dense plan's `pw_cell_count()`.
std::size_t dense_cell_count(std::size_t n) {
  std::size_t total = 0;
  for (std::size_t len = 2; len <= n; ++len) {
    total += (n - len + 1) * (len * (len + 1) / 2 - 1);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("E7a: Sec. 5 reduction — dense vs banded");
  args.add_int("max-n", 96, "largest size (banded measured everywhere)");
  args.add_int("max-dense-n", 48, "largest size the dense solver runs at");
  args.add_int("seed", 13, "random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto max_n = static_cast<std::size_t>(args.get_int("max-n"));
  const auto max_dense =
      static_cast<std::size_t>(args.get_int("max-dense-n"));

  support::TableWriter table(
      "E7a: dense (Sec. 2) vs banded (Sec. 5) on matrix-chain instances "
      "(fixed schedule; dense cells and square ops analytic, validated "
      "against the measured run up to the dense memory envelope)",
      {"n", "B", "cells banded", "cells dense", "cell ratio",
       "sq work banded", "sq work dense", "work ratio", "same w"});

  std::vector<double> ns, ratios;
  for (std::size_t n = 8; n <= max_n; n = n * 3 / 2) {
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) + n);
    const auto problem = dp::MatrixChainProblem::random(n, rng);
    const std::size_t band = support::two_ceil_sqrt(n);
    const std::size_t iterations = support::two_ceil_sqrt(n);
    const std::uint64_t dense_square =
        dense_square_ops_per_iteration(n) * iterations;
    const std::size_t dense_cells = dense_cell_count(n);

    core::SublinearOptions banded_opts;
    banded_opts.termination = core::TerminationMode::kFixedBound;
    banded_opts.machine.record_costs = true;
    core::SolveSession banded(core::SolvePlan::create(n, banded_opts));
    const auto banded_result = banded.solve(problem);
    const std::size_t banded_cells = banded.pw_cell_count();
    const std::uint64_t banded_square =
        banded.machine().costs().phase_totals().at("a-square").work;

    std::string same = "n/a";
    if (n <= max_dense) {
      core::SublinearOptions dense_opts;
      dense_opts.variant = core::PwVariant::kDense;
      dense_opts.termination = core::TerminationMode::kFixedBound;
      dense_opts.machine.record_costs = true;
      core::SolveSession dense(core::SolvePlan::create(n, dense_opts));
      const auto dense_result = dense.solve(problem);
      same = dense_result.w == banded_result.w ? "yes" : "NO";
      const std::uint64_t measured =
          dense.machine().costs().phase_totals().at("a-square").work;
      if (measured != dense_square) {
        std::fprintf(stderr,
                     "analytic dense square ops mismatch at n=%zu: "
                     "%llu vs measured %llu\n",
                     n, static_cast<unsigned long long>(dense_square),
                     static_cast<unsigned long long>(measured));
        return 1;
      }
      if (dense.pw_cell_count() != dense_cells) {
        std::fprintf(stderr,
                     "closed-form dense cell count mismatch at n=%zu: "
                     "%zu vs measured %zu\n",
                     n, dense_cells, dense.pw_cell_count());
        return 1;
      }
      if (same == "NO") {
        std::fprintf(stderr, "DENSE/BANDED DISAGREEMENT at n=%zu\n", n);
        return 1;
      }
    }

    const double work_ratio = static_cast<double>(dense_square) /
                              static_cast<double>(banded_square);
    table.add_row({static_cast<std::int64_t>(n),
                   static_cast<std::int64_t>(band),
                   static_cast<std::int64_t>(banded_cells),
                   static_cast<std::int64_t>(dense_cells),
                   static_cast<double>(dense_cells) /
                       static_cast<double>(banded_cells),
                   static_cast<std::int64_t>(banded_square),
                   static_cast<std::int64_t>(dense_square), work_ratio,
                   same});
    ns.push_back(static_cast<double>(n));
    ratios.push_back(work_ratio);
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));

  std::printf("\nSquare-work ratio growth (dense/banded):\n");
  bench::print_power_fit(std::cout, "ratio", ns, ratios, 1.5);
  std::printf(
      "\nPaper's claim: the square step drops from O(n^5) to O(n^3.5) "
      "work per iteration — an n^1.5-factor reduction (the measured "
      "exponent approaches 1.5 from below while B = 2*ceil(sqrt n) is "
      "still comparable to n) — with identical results.\n");
  return 0;
}
