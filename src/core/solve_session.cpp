#include "core/solve_session.hpp"

#include "pram/thread_pool.hpp"
#include "support/assert.hpp"

namespace subdp::core {

SolveSession::SolveSession(std::shared_ptr<const SolvePlan> plan)
    : plan_(std::move(plan)) {
  SUBDP_REQUIRE(plan_ != nullptr, "SolveSession requires a plan");
  machine_ = std::make_unique<pram::Machine>(plan_->options().machine);
}

void SolveSession::reset(const dp::Problem& problem) {
  SUBDP_REQUIRE(problem.size() == plan_->n(),
                "instance size does not match the session's plan; build a "
                "plan per shape (serve::SolverService keys plans by shape "
                "for you)");
  trace_.clear();
  machine_->reset();
  if (plan_->trivial()) {
    trivial_cost_ = problem.init(0);
  } else if (engine_ != nullptr) {
    engine_->reset(problem);  // in-place: the solve-many hot path
  } else {
    engine_ = plan_->make_engine(problem, *machine_);
  }
  state_ = State::kPrepared;
}

void SolveSession::require_prepared(const char* what) const {
  SUBDP_REQUIRE(state_ != State::kIdle,
                std::string(what) +
                    " requires a prepared session: call reset(problem) "
                    "first");
  SUBDP_REQUIRE(state_ != State::kFinished,
                std::string(what) +
                    " after finish(): the session result was already "
                    "packaged; call reset(problem) to start a new solve");
}

IterationOutcome SolveSession::step() {
  require_prepared("step()");
  SUBDP_REQUIRE(engine_ != nullptr,
                "nothing to step: n == 1 instances solve trivially");
  const IterationOutcome out = engine_->iterate();
  IterationTrace t;
  t.iteration = engine_->iterations_done();
  t.pw_cells_changed = out.activate_changed + out.square_changed;
  t.w_cells_changed = out.pebble_changed;
  t.w_finite = engine_->w_finite_count();
  trace_.push_back(t);
  return out;
}

Cost SolveSession::current_w(std::size_t i, std::size_t j) const {
  require_prepared("current_w()");
  SUBDP_REQUIRE(engine_ != nullptr, "n == 1 instances have no w table");
  return engine_->w_value(i, j);
}

Cost SolveSession::current_pw(std::size_t i, std::size_t j, std::size_t p,
                              std::size_t q) const {
  require_prepared("current_pw()");
  SUBDP_REQUIRE(engine_ != nullptr, "n == 1 instances have no pw table");
  return engine_->pw_value(i, j, p, q);
}

std::size_t SolveSession::iterations_done() const {
  return engine_ != nullptr ? engine_->iterations_done() : 0;
}

std::size_t SolveSession::pw_cell_count() const {
  return plan_->pw_cell_count();
}

const std::vector<StepProfile>& SolveSession::step_profile() const {
  static const std::vector<StepProfile> kEmpty;
  return engine_ != nullptr ? engine_->step_profiles() : kEmpty;
}

SublinearResult SolveSession::finish() {
  require_prepared("finish()");
  SublinearResult result;
  result.iteration_bound = plan_->iteration_bound();
  result.trace = trace_;
  if (engine_ == nullptr) {  // n == 1: the answer is init(0)
    result.cost = trivial_cost_;
    result.iterations = 0;
    result.reached_fixed_point = true;
    result.w = support::Grid2D<Cost>(2, 2, kInfinity);
    result.w(0, 1) = trivial_cost_;
  } else {
    result.iterations = engine_->iterations_done();
    result.w = engine_->w_table();
    result.cost = engine_->w_value(0, plan_->n());
    result.reached_fixed_point =
        !trace_.empty() && trace_.back().pw_cells_changed == 0 &&
        trace_.back().w_cells_changed == 0;
  }
  state_ = State::kFinished;
  return result;
}

SublinearResult SolveSession::solve(const dp::Problem& problem) {
  const pram::SolveGuard in_flight;  // see pram/thread_pool.hpp
  reset(problem);
  if (engine_ == nullptr) return finish();

  const SublinearOptions& options = plan_->options();
  const std::size_t cap = plan_->iteration_cap();
  std::size_t w_unchanged_streak = 0;
  for (std::size_t iter = 0; iter < cap; ++iter) {
    const IterationOutcome out = step();
    switch (options.termination) {
      case TerminationMode::kFixedBound:
        break;  // always run the full schedule
      case TerminationMode::kFixedPoint:
        if (!out.any_changed()) {
          return finish();
        }
        break;
      case TerminationMode::kWUnchangedTwice:
        w_unchanged_streak =
            out.pebble_changed == 0 ? w_unchanged_streak + 1 : 0;
        if (w_unchanged_streak >= 2) {
          return finish();
        }
        break;
    }
  }
  return finish();
}

}  // namespace subdp::core
