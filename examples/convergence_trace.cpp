// Watch the algorithm converge: per-iteration trace of pw'/w' activity
// on a chosen instance family — the view behind the paper's Sec. 6-7
// simulation remarks. Try the adversarial family to see the schedule
// fully consumed:
//
//   $ ./convergence_trace --family=matrix-chain --n=48
//   $ ./convergence_trace --family=zigzag --n=49

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/convergence_report.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "dp/tabulated.hpp"
#include "dp/tree_shaped.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "trees/generators.hpp"

using namespace subdp;

namespace {

std::unique_ptr<dp::Problem> make_family(const std::string& family,
                                         std::size_t n,
                                         support::Rng& rng) {
  if (family == "matrix-chain") {
    return std::make_unique<dp::MatrixChainProblem>(
        dp::MatrixChainProblem::random(n, rng));
  }
  if (family == "optimal-bst") {
    return std::make_unique<dp::OptimalBstProblem>(
        dp::OptimalBstProblem::random(n > 1 ? n - 1 : 1, rng));
  }
  const auto shape = trees::shape_from_string(family);
  if (!shape) {
    throw std::invalid_argument("unknown family " + family);
  }
  auto inst = dp::make_tree_shaped_instance(
      trees::make_tree(*shape, n, &rng), rng);
  return std::make_unique<dp::TabulatedProblem>(std::move(inst.problem));
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Per-iteration convergence trace");
  args.add_string("family", "matrix-chain",
                  "matrix-chain | optimal-bst | zigzag | complete | "
                  "left-skewed | random");
  args.add_int("n", 48, "instance size");
  args.add_int("seed", 9, "random seed");
  args.add_string("termination", "fixed-point",
                  "fixed-point | fixed-bound | w-heuristic");
  if (!args.parse(argc, argv)) return 2;

  support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto problem = make_family(args.get_string("family"), n, rng);

  core::SublinearOptions options;
  const auto& term = args.get_string("termination");
  options.termination = term == "fixed-bound"
                            ? core::TerminationMode::kFixedBound
                        : term == "w-heuristic"
                            ? core::TerminationMode::kWUnchangedTwice
                            : core::TerminationMode::kFixedPoint;
  core::SolveSession session(core::SolvePlan::create(n, options));
  const auto result = session.solve(*problem);

  core::convergence_table(
      result, args.get_string("family") + " (n = " + std::to_string(n) +
                  "), banded solver, termination = " + term)
      .print(std::cout);
  std::printf("\n%s\n", core::summarize_convergence(result).c_str());
  std::printf("cost: %lld\n", static_cast<long long>(result.cost));

  const auto check = dp::solve_sequential(*problem).cost;
  std::printf("sequential check: %lld (%s)\n",
              static_cast<long long>(check),
              check == result.cost ? "match" : "MISMATCH");
  return check == result.cost ? 0 : 1;
}
