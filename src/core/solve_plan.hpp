#pragma once

/// \file solve_plan.hpp
/// The immutable, shareable half of a solve: everything the algorithm
/// precomputes for a *shape* `(n, SublinearOptions)` before it has seen a
/// single instance cost.
///
/// A `SolvePlan` owns, behind `shared_ptr`s:
///  * the validated option set (size caps, dense-variant cap, windowed-
///    pebble/termination compatibility, band clamping) and the derived
///    scalars — the `2*ceil(sqrt n)` iteration schedule, the effective
///    band `B` (`n` for `PwVariant::kDense`, the Sec. 2 every-slack
///    table), and the iteration cap;
///  * the pw storage layout (`BandedPwLayout`, the one layout both
///    variants share): two O(n) offset tables and the cell counts, with
///    every cell's quadruple recovered in closed form (`quad_at`);
///  * the engine shape (`detail::EngineShape`): length-major pair lists
///    and their prefix offsets, the root blocks of the tiled square
///    sweep, and the frontier density cutoff.
///
/// Thread-safety (audited for the concurrent serving subsystem): plans
/// are immutable and thread-agnostic once `create` returns — every member
/// is set before the `shared_ptr<const SolvePlan>` escapes, all accessors
/// are const reads of that state, and `make_engine` only *reads* the plan
/// while constructing engine state owned by the caller's session. So any
/// number of `SolveSession`s (each with its own mutable tables, write
/// logs and PRAM machine) can share one plan from any number of threads
/// with no synchronisation; `serve::SessionPool` relies on exactly this.
/// `serve::SolverService` builds one plan per distinct `(n, options)` and
/// runs every same-shape instance through it; `core::solve` is a thin
/// facade that builds a throwaway plan per call. Building a plan is
/// O(n^2) closed-form geometry (under a millisecond at banded n = 192);
/// what prepare-once/solve-many amortises is mostly the per-session
/// table allocation, which a `SessionPool` reuses across solves.

#include <cstddef>
#include <memory>

#include "core/engine.hpp"
#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "pram/machine.hpp"

namespace subdp::core {

/// Immutable per-shape solve preparation; see the file comment.
class SolvePlan {
 public:
  /// Largest `n` a `SquareMode::kRytterFull` plan accepts: each Rytter
  /// square step reads O(n^2) candidates per stored quadruple.
  static constexpr std::size_t kMaxRytterN = 24;

  /// Largest `n` a `PwVariant::kDense` plan accepts. The every-slack table
  /// holds ~n^4/24 cells, so 192 keeps one table within ~0.45 GB; the
  /// layout additionally overflow-checks its cell arithmetic, so the cap
  /// is a memory policy, not a correctness guard.
  static constexpr std::size_t kMaxDenseN = 192;

  /// Validates `options` for instances of `n` objects and precomputes the
  /// shape-dependent state. Throws `std::invalid_argument` on invalid
  /// combinations (n out of the packed-coordinate range, the dense
  /// variant above `kMaxDenseN`, Rytter squaring above
  /// `kMaxRytterN`, windowed pebble without fixed-bound termination).
  [[nodiscard]] static std::shared_ptr<const SolvePlan> create(
      std::size_t n, const SublinearOptions& options = {});

  /// Adopts a prebuilt engine shape instead of constructing one — the
  /// plan snapshot rehydration path (snapshot/plan_snapshot.hpp). Runs
  /// exactly `create`'s validation and derived-scalar computation, then
  /// requires the shape (null for trivial `n == 1` plans) to agree on
  /// `n` and band; throws on any mismatch. The returned plan is
  /// indistinguishable from a `create`d one.
  [[nodiscard]] static std::shared_ptr<const SolvePlan> restore(
      std::size_t n, const SublinearOptions& options,
      std::shared_ptr<const detail::EngineShape> shape);

  /// Instance size this plan serves; sessions reject anything else.
  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  [[nodiscard]] const SublinearOptions& options() const noexcept {
    return options_;
  }

  /// The worst-case iteration schedule `2*ceil(sqrt n)`.
  [[nodiscard]] std::size_t iteration_bound() const noexcept {
    return bound_;
  }

  /// Effective band width `B` (clamped to `[1, n]`; `n` for the dense
  /// variant).
  [[nodiscard]] std::size_t effective_band() const noexcept { return band_; }

  /// The effective band a plan for `(n, options)` gets, without building
  /// it: `n` for the dense variant, else `band_width` (or the default
  /// `2*ceil(sqrt n)` when 0) clamped to `[1, n]`. Plan caches key on it,
  /// so requests that differ only in an ignored or clamped `band_width`
  /// share one plan.
  [[nodiscard]] static std::size_t effective_band_for(
      std::size_t n, const SublinearOptions& options);

  /// Iterations a `solve` runs at most (the bound, the Rytter log
  /// schedule, or `options.max_iterations` when set).
  [[nodiscard]] std::size_t iteration_cap() const noexcept { return cap_; }

  /// True for `n == 1`: no iterations, the answer is `init(0)`.
  [[nodiscard]] bool trivial() const noexcept { return n_ == 1; }

  /// pw cells a session of this plan allocates (experiment E7 metric).
  [[nodiscard]] std::size_t pw_cell_count() const noexcept;

  /// Binds the plan's precomputed shape to a concrete instance on the
  /// given machine. Returns null for trivial plans (`n == 1`). Sessions
  /// call this once and `Engine::reset` for every further instance.
  [[nodiscard]] std::unique_ptr<detail::Engine> make_engine(
      const dp::Problem& problem, pram::Machine& machine) const;

  /// The precomputed engine shape (null for trivial `n == 1` plans);
  /// snapshot serialisation reads through it.
  [[nodiscard]] const std::shared_ptr<const detail::EngineShape>& shape()
      const noexcept {
    return shape_;
  }

 private:
  SolvePlan() = default;

  /// Shared validation + derived-scalar computation behind both factories.
  [[nodiscard]] static std::shared_ptr<SolvePlan> make_validated(
      std::size_t n, const SublinearOptions& options);

  std::size_t n_ = 0;
  std::size_t bound_ = 0;
  std::size_t band_ = 0;
  std::size_t cap_ = 0;
  SublinearOptions options_;
  /// Set when `n >= 2`.
  std::shared_ptr<const detail::EngineShape> shape_;
};

}  // namespace subdp::core
