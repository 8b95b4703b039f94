#include "core/api.hpp"

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"

namespace subdp::core {

Solution solve(const dp::Problem& problem, const SublinearOptions& options) {
  SolveSession session(SolvePlan::create(problem.size(), options));
  SublinearResult result = session.solve(problem);

  Solution solution;
  solution.cost = result.cost;
  solution.iterations = result.iterations;
  solution.iteration_bound = result.iteration_bound;
  solution.reached_fixed_point = result.reached_fixed_point;
  solution.pram_work = session.machine().costs().total_work();
  solution.pram_depth = session.machine().costs().total_depth();
  solution.tree = problem.size() == 1
                      ? trees::FullBinaryTree::build(1, {})
                      : dp::extract_tree_from_w(problem, result.w);
  return solution;
}

}  // namespace subdp::core
