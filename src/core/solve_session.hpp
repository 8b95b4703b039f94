#pragma once

/// \file solve_session.hpp
/// The mutable, per-worker half of a solve: a `SolveSession` binds an
/// immutable `SolvePlan` to one instance at a time.
///
/// The session owns everything a solve mutates — the pw/w tables, the
/// write logs, the frontier marks, the iteration trace and the PRAM
/// machine with its work/depth ledger. `reset(problem)` swaps the
/// bound instance by re-initialising those tables *in place*: no
/// reallocation, no entry-list or offset rebuild, which is what makes
/// solve-many cheap after prepare-once (see solve_plan.hpp). Any number of
/// sessions can share one plan, one per worker thread in a serving setup.
///
/// Thread-safety (audited for the concurrent serving subsystem): a
/// session is strictly *single-threaded* — it has no internal locking,
/// and `reset`/`step`/`finish`/`solve` mutate its tables and ledger
/// freely. Distinct sessions over one shared plan are fully independent
/// (the plan is immutable, the engine only reads it), so concurrency is
/// achieved by giving each worker its own session — which is what
/// `serve::SessionPool` leases enforce by construction. The bound
/// `dp::Problem` is only read through its const interface, but it is read
/// *during* the solve, so a problem solved on several sessions at once
/// must tolerate concurrent const calls (see dp/problem.hpp).
///
/// Lifecycle: a session starts *idle*; `reset(problem)` makes it
/// *prepared* (tables initialised, ledger cleared); `step()` /
/// `current_*()` observe the prepared iteration state; `finish()`
/// packages the result and moves the session to *finished*, after which
/// stepping or reading requires another `reset`. Misordered calls fail
/// with a `SUBDP_REQUIRE` diagnostic instead of touching a dangling or
/// stale engine. `solve(problem)` is the whole cycle in one call and may
/// be repeated ad libitum — that is the `serve::SolverService` worker's
/// hot loop.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "pram/machine.hpp"

namespace subdp::core {

/// Reusable per-instance solving state bound to a shared `SolvePlan`.
class SolveSession {
 public:
  /// Binds the plan and creates the session's machine from the plan's
  /// `options().machine`.
  explicit SolveSession(std::shared_ptr<const SolvePlan> plan);

  /// Prepares the session for `problem` (which must outlive the stepping
  /// and match the plan's `n`). Re-initialises tables in place and clears
  /// the ledger; cheap after the first call.
  void reset(const dp::Problem& problem);

  /// Runs one iteration; requires a prepared (and not finished) session.
  IterationOutcome step();

  /// Current `w'(i,j)` / `pw'(i,j,p,q)` values of the prepared instance.
  [[nodiscard]] Cost current_w(std::size_t i, std::size_t j) const;
  [[nodiscard]] Cost current_pw(std::size_t i, std::size_t j, std::size_t p,
                                std::size_t q) const;

  /// Iterations run since the last `reset` (0 before the first one; the
  /// count of the last solve remains readable after `finish`).
  [[nodiscard]] std::size_t iterations_done() const;

  /// Packages the current state into a result and finishes the session;
  /// stepping again requires another `reset`.
  [[nodiscard]] SublinearResult finish();

  /// The full cycle: `reset(problem)`, iterate under the plan's
  /// termination mode, `finish()`. Repeatable across instances. Counts
  /// as a solve in flight (`pram::SolveGuard`) for the whole call: on
  /// the threads backend its loops use the shared pool only while no
  /// other solve is in flight, and run inline otherwise.
  [[nodiscard]] SublinearResult solve(const dp::Problem& problem);

  [[nodiscard]] const SolvePlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] std::shared_ptr<const SolvePlan> plan_ptr() const noexcept {
    return plan_;
  }

  /// pw cells a solve of this shape allocates (the plan's count; 0 for
  /// trivial plans).
  [[nodiscard]] std::size_t pw_cell_count() const;

  /// One `StepProfile` per iteration run since the last `reset`, in
  /// order — empty unless the plan's options set
  /// `SublinearOptions::profile` (and always empty for trivial n == 1
  /// plans, which run no iterations). Readable mid-stepping and after
  /// `finish`.
  [[nodiscard]] const std::vector<StepProfile>& step_profile() const;

  /// The PRAM simulator carrying the work/depth ledger and (optionally)
  /// the CREW conformance checker.
  [[nodiscard]] const pram::Machine& machine() const noexcept {
    return *machine_;
  }
  [[nodiscard]] pram::Machine& machine() noexcept { return *machine_; }

 private:
  enum class State { kIdle, kPrepared, kFinished };

  void require_prepared(const char* what) const;

  std::shared_ptr<const SolvePlan> plan_;
  /// Never null; heap-held so the engine's reference survives a move.
  std::unique_ptr<pram::Machine> machine_;
  std::unique_ptr<detail::Engine> engine_;
  std::vector<IterationTrace> trace_;
  State state_ = State::kIdle;
  Cost trivial_cost_ = kInfinity;  ///< Used when n == 1 (no iterations).
};

}  // namespace subdp::core
