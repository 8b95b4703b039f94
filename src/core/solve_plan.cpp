#include "core/solve_plan.hpp"

#include <string>

#include "core/quad.hpp"
#include "support/stats.hpp"

namespace subdp::core {

std::shared_ptr<SolvePlan> SolvePlan::make_validated(
    std::size_t n, const SublinearOptions& options) {
  SUBDP_REQUIRE(n >= 1, "need at least one object");
  SUBDP_REQUIRE(n <= kMaxPackedN,
                "instance too large: the packed pw-table coordinates "
                "(core::Quad) support n <= 65535");
  SUBDP_REQUIRE(options.variant != PwVariant::kDense ||
                    n <= DensePwTable::kMaxDenseN,
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
  plan->band_ = options.band_width != 0 ? options.band_width
                                        : support::two_ceil_sqrt(n);
  if (plan->band_ > n) plan->band_ = n;
  if (plan->band_ < 1) plan->band_ = 1;

  if (options.max_iterations != 0) {
    plan->cap_ = options.max_iterations;
  } else if (options.square_mode == SquareMode::kRytterFull) {
    plan->cap_ = 4 * support::ceil_log2(n < 2 ? 2 : n) + 8;
  } else {
    plan->cap_ = plan->bound_;
  }
  return plan;
}

std::shared_ptr<const SolvePlan> SolvePlan::create(
    std::size_t n, const SublinearOptions& options) {
  auto plan = make_validated(n, options);
  if (n >= 2) {
    if (options.variant == PwVariant::kDense) {
      plan->dense_shape_ =
          detail::EngineShape<DensePwTable>::build(n, plan->band_);
    } else {
      plan->banded_shape_ =
          detail::EngineShape<BandedPwTable>::build(n, plan->band_);
    }
  }
  return plan;
}

std::shared_ptr<const SolvePlan> SolvePlan::restore(
    std::size_t n, const SublinearOptions& options,
    std::shared_ptr<const detail::EngineShape<BandedPwTable>> banded_shape,
    std::shared_ptr<const detail::EngineShape<DensePwTable>> dense_shape) {
  auto plan = make_validated(n, options);
  if (n >= 2) {
    if (options.variant == PwVariant::kDense) {
      SUBDP_REQUIRE(dense_shape != nullptr && banded_shape == nullptr,
                    "restoring a dense plan requires exactly the dense "
                    "engine shape");
      SUBDP_REQUIRE(dense_shape->n == n && dense_shape->band == plan->band_,
                    "restored engine shape disagrees with the plan's "
                    "(n, band)");
      plan->dense_shape_ = std::move(dense_shape);
    } else {
      SUBDP_REQUIRE(banded_shape != nullptr && dense_shape == nullptr,
                    "restoring a banded plan requires exactly the banded "
                    "engine shape");
      SUBDP_REQUIRE(banded_shape->n == n && banded_shape->band == plan->band_,
                    "restored engine shape disagrees with the plan's "
                    "(n, band)");
      SUBDP_REQUIRE(banded_shape->layout->band() == plan->band_,
                    "restored layout band disagrees with the plan's band");
      plan->banded_shape_ = std::move(banded_shape);
    }
  } else {
    SUBDP_REQUIRE(banded_shape == nullptr && dense_shape == nullptr,
                  "trivial plans carry no engine shape");
  }
  return plan;
}

std::size_t SolvePlan::pw_cell_count() const noexcept {
  if (banded_shape_ != nullptr) return banded_shape_->layout->cell_count();
  if (dense_shape_ != nullptr) return dense_shape_->layout->cell_count();
  return 0;
}

std::unique_ptr<detail::IEngine> SolvePlan::make_engine(
    const dp::Problem& problem, pram::Machine& machine) const {
  SUBDP_REQUIRE(problem.size() == n_,
                "instance size does not match the plan's shape");
  if (trivial()) return nullptr;
  if (options_.variant == PwVariant::kDense) {
    return std::make_unique<detail::Engine<DensePwTable>>(
        dense_shape_, problem, options_, machine);
  }
  return std::make_unique<detail::Engine<BandedPwTable>>(
      banded_shape_, problem, options_, machine);
}

}  // namespace subdp::core
