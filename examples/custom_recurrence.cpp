// Plugging a user-defined recurrence into the solver: any cost of the
// family  c(i,j) = min_k { c(i,k) + c(k,j) + f(i,k,j) }  works. Here:
// optimal *ordered file merge* — merging adjacent runs of lengths
// len[i..n-1], where merging two runs costs the total length (the classic
// polyfile merge / "minimum merge cost" problem).
//
//   $ ./custom_recurrence --n=20 --seed=3

#include <cstdio>
#include <numeric>
#include <vector>

#include "core/api.hpp"
#include "dp/sequential.hpp"
#include "dp/tabulated.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  subdp::support::ArgParser args(
      "Custom recurrence demo: optimal ordered merge of adjacent runs");
  args.add_int("n", 20, "number of runs to merge");
  args.add_int("seed", 3, "random seed for run lengths");
  if (!args.parse(argc, argv)) return 2;

  const auto n = static_cast<std::size_t>(args.get_int("n"));
  subdp::support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));

  std::vector<subdp::Cost> run_length(n);
  for (auto& len : run_length) len = rng.uniform_int(1, 100);
  std::vector<subdp::Cost> prefix(n + 1, 0);
  for (std::size_t t = 0; t < n; ++t) {
    prefix[t + 1] = prefix[t] + run_length[t];
  }

  // Merging the runs of interval (i,j) — however parenthesized inside —
  // always ends with one merge touching every element once: f = total
  // length of (i,j), independent of the split.
  const auto problem = subdp::dp::TabulatedProblem::from_functions(
      n, "ordered-merge",
      [](std::size_t) { return subdp::Cost{0}; },
      [&](std::size_t i, std::size_t, std::size_t j) {
        return prefix[j] - prefix[i];
      });

  subdp::core::SublinearOptions options;
  options.machine.record_costs = true;  // keep the PRAM ledger
  const auto solution = subdp::core::solve(problem, options);
  const auto total =
      std::accumulate(run_length.begin(), run_length.end(), subdp::Cost{0});
  std::printf("%zu runs, %lld elements total\n", n,
              static_cast<long long>(total));
  std::printf("optimal merge cost: %lld element moves\n",
              static_cast<long long>(solution.cost));
  std::printf("solved in %zu iterations (bound %zu) with %llu PRAM ops\n",
              solution.iterations, solution.iteration_bound,
              static_cast<unsigned long long>(solution.pram_work));

  // Sanity: the engine-independent O(n^3) DP agrees.
  const auto check = subdp::dp::solve_sequential(problem);
  std::printf("sequential check: %lld\n",
              static_cast<long long>(check.cost));
  return solution.cost == check.cost ? 0 : 1;
}
