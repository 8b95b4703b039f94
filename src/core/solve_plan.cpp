#include "core/solve_plan.hpp"

#include <string>

#include "core/quad.hpp"
#include "support/stats.hpp"

namespace subdp::core {

std::shared_ptr<const SolvePlan> SolvePlan::create(
    std::size_t n, const SublinearOptions& options) {
  SUBDP_REQUIRE(n >= 1, "need at least one object");
  SUBDP_REQUIRE(n <= kMaxPackedN,
                "instance too large: the packed pw-table coordinates "
                "(core::Quad) support n <= 65535");
  SUBDP_REQUIRE(options.variant != PwVariant::kDense ||
                    n <= kMaxDenseN,
                "instance too large for the dense (every-slack) layout; "
                "use the banded variant");
  SUBDP_REQUIRE(!options.windowed_pebble ||
                    options.termination == TerminationMode::kFixedBound,
                "the windowed pebble schedule requires fixed-bound "
                "termination (per-iteration change is not a stopping "
                "signal when most pairs are outside the window)");
  SUBDP_REQUIRE(options.square_mode != SquareMode::kRytterFull ||
                    n <= kMaxRytterN,
                "Rytter's square step performs O(n^6) work per iteration; "
                "restrict SquareMode::kRytterFull to n <= " +
                    std::to_string(kMaxRytterN));

  auto plan = std::shared_ptr<SolvePlan>(new SolvePlan());
  plan->n_ = n;
  plan->options_ = options;
  plan->bound_ = support::two_ceil_sqrt(n);
  plan->band_ = effective_band_for(n, options);

  if (options.max_iterations != 0) {
    plan->cap_ = options.max_iterations;
  } else if (options.square_mode == SquareMode::kRytterFull) {
    plan->cap_ = 4 * support::ceil_log2(n < 2 ? 2 : n) + 8;
  } else {
    plan->cap_ = plan->bound_;
  }
  if (n >= 2) plan->shape_ = detail::EngineShape::build(n, plan->band_);
  return plan;
}

std::size_t SolvePlan::effective_band_for(std::size_t n,
                                         const SublinearOptions& options) {
  // The dense variant is the Sec. 2 table: every slack in band (B = n).
  std::size_t band = n;
  if (options.variant != PwVariant::kDense) {
    band = options.band_width != 0 ? options.band_width
                                   : support::two_ceil_sqrt(n);
  }
  if (band > n) band = n;
  if (band < 1) band = 1;
  return band;
}

std::size_t SolvePlan::pw_cell_count() const noexcept {
  return shape_ != nullptr ? shape_->layout->cell_count() : 0;
}

std::unique_ptr<detail::Engine> SolvePlan::make_engine(
    const dp::Problem& problem, pram::Machine& machine) const {
  SUBDP_REQUIRE(problem.size() == n_,
                "instance size does not match the plan's shape");
  if (trivial()) return nullptr;
  return std::make_unique<detail::Engine>(shape_, problem, options_,
                                          machine);
}

}  // namespace subdp::core
