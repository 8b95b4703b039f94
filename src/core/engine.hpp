#pragma once

/// \file engine.hpp
/// The iteration engine behind `SolveSession` (implementation detail).
///
/// Template on the partial-weight table type so dense (Sec. 2) and banded
/// (Sec. 5) variants share one implementation of the three macro-steps:
///
///   a-activate (eq. 1a/1b):
///     pw'(i,j,i,k) <- min(pw'(i,j,i,k), f(i,k,j) + w'(k,j))
///     pw'(i,j,k,j) <- min(pw'(i,j,k,j), f(i,k,j) + w'(i,k))
///   a-square (eq. 2c, HLV mode):
///     pw'(i,j,p,q) <- min over r in [max(i, p-B), p):
///                        pw'(i,j,r,q) + pw'(r,q,p,q)
///                     and over s in (q, min(j, q+B)]:
///                        pw'(i,j,p,s) + pw'(p,s,p,q)
///     (Rytter mode: min over all intermediate gaps (r,s) ⊇ (p,q))
///   a-pebble (eq. 3):
///     w'(i,j) <- min over stored gaps (p,q): pw'(i,j,p,q) + w'(p,q)
///
/// Synchronous CREW semantics and the write-log scheme
/// ---------------------------------------------------
/// a-square and a-pebble both read and write the same array, so every read
/// within a step must observe the *previous* step's state regardless of
/// execution backend. Instead of double-buffering (a full table copy per
/// step), the step records a write log of `(cell, new value)` pairs while
/// scanning and applies it only after the step's barrier: reads during the
/// step see pre-step state by construction, and since each cell is written
/// by exactly one logical processor per step (owner-computes, CREW), the
/// apply order is immaterial. The log doubles as the change count and —
/// for a-pebble — as the next iteration's frontier. a-activate writes
/// cells nobody reads within the step and updates in place.
///
/// Two execution paths
/// -------------------
/// Each macro-step runs one of two implementations, chosen by
/// `machine.instrumented()` (cost ledger or CREW checker on):
///  * the *oracle* (`Machine::step`, `std::function` body): full sweeps
///    over every pair / quad, operands read through the layout's general
///    `get` (`square_scan`, `pebble_scan`), per-processor op counts and
///    `note_write` conformance reports — exactly the paper's accounting.
///    This is the reference every other configuration is tested against,
///    and the ledger `test_golden` pins.
///  * the *fast path* (`Machine::run_blocks`, templated body): the
///    kernels inline into the worker loop with no op counting, and the
///    sweeps are frontier-driven (except under the windowed pebble
///    schedule, which pebbles a different pair window each iteration):
///     - a-activate re-evaluates only the sites reading a `w(i,j)` the
///       last pebble moved (falling back to the full sweep when that
///       frontier is dense);
///     - a-square (HLV mode) runs *root-major*: the entry list is walked
///       as contiguous per-root blocks, a 2-D containment count over the
///       moved roots answers "did any pw entry inside `(i,j)` move?" in
///       O(1) and skips the whole block when not, and surviving quads
///       test their HLV windows against per-endpoint prefix sums;
///     - a-pebble skips pairs with no root `pw` movement since their last
///       rescan and no moved `w` among their gaps;
///     - the mark grids behind both skip tests (containment counts and
///       per-endpoint prefix sums over the moved marks) are built from
///       scratch, serially, right before each skipping sweep: O(n^2)
///       plain loops, a small share of the sweeps they prune.
/// Monotonicity of both tables makes every skipped site provably a no-op
/// (its candidates are unchanged and were already min-applied), so
/// results, change counts and iteration schedules are identical to the
/// oracle's — tests/test_core_fastpath.cpp verifies this per iteration.
///
/// Storage policy and the in-band read path
/// ----------------------------------------
/// `Table` must model `core::PwStoragePolicy` (pw_layout.hpp): the kernels
/// below are instantiated once per layout with that layout's addressing
/// inlined, not dispatched per call. On the fast path the HLV square scan
/// (`square_scan_fast`) exploits a structural fact: every candidate
/// operand of an in-band target is itself in band (first operands share
/// the target's root with strictly smaller slack; second operands `(r,q,
/// p,q)` / `(p,s,p,q)` have slack `p-r` / `s-q <= B` by the window
/// bounds), except the single identity operand `pw(i,j,i,j)`, whose
/// candidate equals the target's old value and is skipped as a provable
/// no-op. So the inner loops read through the layout's incremental window
/// cursors and unchecked `in_band_slot` instead of the general `get`,
/// eliminating the identity / slack / child-gap branches per read. The
/// a-pebble gap scan gets the same treatment through `for_each_gap_run`:
/// the layout emits every stored gap of a root as arithmetic-progression
/// runs over raw `pw` slots paired with strided `w` slots (`PwGapRun`),
/// so `pebble_scan_fast` is a pointer walk with no per-read addressing
/// branches.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pw_layout.hpp"
#include "core/quad.hpp"
#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "pram/machine.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace subdp::core::detail {

/// Distinguishes pw-table addresses from w-table addresses in CREW checks.
inline constexpr std::uint64_t kWAddressTag = std::uint64_t{1} << 62;

/// Abstract stepping interface so the public solver can hold either
/// table variant behind one pointer.
class IEngine {
 public:
  virtual ~IEngine() = default;
  virtual IterationOutcome iterate() = 0;
  /// Re-initialises every per-instance table and counter in place for a
  /// new problem of the same shape — no reallocation, no geometry rebuild
  /// (the `SolveSession::reset` hot path).
  virtual void reset(const dp::Problem& problem) = 0;
  [[nodiscard]] virtual std::size_t iterations_done() const = 0;
  [[nodiscard]] virtual Cost w_value(std::size_t i, std::size_t j) const = 0;
  [[nodiscard]] virtual Cost pw_value(std::size_t i, std::size_t j,
                                      std::size_t p, std::size_t q) const = 0;
  [[nodiscard]] virtual const support::Grid2D<Cost>& w_table() const = 0;
  [[nodiscard]] virtual std::uint64_t w_finite_count() const = 0;
  [[nodiscard]] virtual std::size_t pw_cell_count() const = 0;
  /// One StepProfile per completed iteration when
  /// `SublinearOptions::profile` is on; empty otherwise.
  [[nodiscard]] virtual const std::vector<StepProfile>& step_profiles()
      const = 0;
};

/// One pair `(i,j)` of the pebble/activate sweeps. 32-bit fields: unlike
/// the packed `Quad` (whose tables cap `n` anyway), pair lists are cheap
/// enough to exist for `n` far beyond 65535, so they must not truncate.
struct Pair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
};

/// One root's contiguous run `[begin, end)` of the square-entry list,
/// plus the root's index into the pair list (root-major sweep unit).
struct RootBlock {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t pair = 0;
};

/// Everything the engine precomputes that depends only on the *shape*
/// `(n, band)` — never on a concrete instance's costs: the shared
/// storage layout, the length-major pair list and its offsets, the write-
/// log slot of every square entry, the root-block runs of the root-major
/// sweep, and the activate-site total the frontier density test compares
/// against. A `SolvePlan` builds one `EngineShape` per pw layout and every
/// engine (session) of that shape shares it, so per-instance preparation
/// is a table fill instead of an O(n^2 B^2) rebuild.
template <class Table>
struct EngineShape {
  static_assert(PwStoragePolicy<Table>,
                "EngineShape requires a pw storage policy");

  std::shared_ptr<const typename Table::Layout> layout;
  std::size_t n = 0;
  std::size_t band = 0;
  /// Pairs with length >= 2, grouped by length ascending.
  ShapeArray<Pair> pairs;
  /// Prefix offsets addressing a window of lengths in `pairs`.
  ShapeArray<std::size_t> pairs_offset_by_length;
  /// Storage slot per square entry (write-log apply).
  ShapeArray<std::uint32_t> entry_slots;
  /// Per-root runs of the entry list (root-major square sweep).
  ShapeArray<RootBlock> root_blocks;
  /// Total (pair, split) activate sites — the frontier density cutoff.
  std::uint64_t total_split_sites = 0;

  /// Index of pair `(i,j)` in `pairs` (groups are length-major, then `i`).
  [[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j) const {
    return pairs_offset_by_length[j - i] + i;
  }

  [[nodiscard]] static std::shared_ptr<const EngineShape> build(
      std::size_t n, std::size_t band) {
    auto shape = std::make_shared<EngineShape>();
    shape->layout = Table::make_layout(n, band);
    shape->n = n;
    shape->band = band;

    std::vector<Pair> pairs;
    std::vector<std::size_t> pairs_offset_by_length(n + 2, 0);
    for (std::size_t len = 2; len <= n; ++len) {
      pairs_offset_by_length[len] = pairs.size();
      for (std::size_t i = 0; i + len <= n; ++i) {
        pairs.push_back(Pair{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(i + len)});
      }
    }
    pairs_offset_by_length[n + 1] = pairs.size();
    // Lengths below 2 alias the first real group.
    pairs_offset_by_length[0] = 0;
    pairs_offset_by_length[1] = 0;

    for (const Pair pr : pairs) {
      shape->total_split_sites += pr.j - pr.i - 1;
    }

    const auto& quads = shape->layout->entries();
    SUBDP_REQUIRE(shape->layout->cell_count() <= UINT32_MAX,
                  "pw table too large for 32-bit write-log slots");
    std::vector<std::uint32_t> entry_slots;
    entry_slots.reserve(quads.size());
    for (const Quad& t : quads) {
      entry_slots.push_back(static_cast<std::uint32_t>(
          shape->layout->entry_slot(t.i, t.j, t.p, t.q)));
    }
    // Per-root runs of the entry list (both layouts emit the quads of a
    // root contiguously) — the unit of the root-major square sweep.
    std::vector<RootBlock> blocks;
    for (std::size_t idx = 0; idx < quads.size(); ++idx) {
      const Quad& t = quads[idx];
      if (blocks.empty() || pairs[blocks.back().pair].i != t.i ||
          pairs[blocks.back().pair].j != t.j) {
        if (!blocks.empty()) {
          blocks.back().end = static_cast<std::uint32_t>(idx);
        }
        blocks.push_back(RootBlock{
            static_cast<std::uint32_t>(idx), 0,
            static_cast<std::uint32_t>(pairs_offset_by_length[t.j - t.i] +
                                       t.i)});
      }
    }
    if (!blocks.empty()) {
      blocks.back().end = static_cast<std::uint32_t>(quads.size());
    }
    shape->pairs = std::move(pairs);
    shape->pairs_offset_by_length = std::move(pairs_offset_by_length);
    shape->entry_slots = std::move(entry_slots);
    shape->root_blocks = std::move(blocks);
    return shape;
  }

  /// Rehydrates a shape around snapshot-backed arrays (the mmap load path;
  /// see snapshot/plan_snapshot.hpp). Array *contents* are vouched for by
  /// the snapshot checksum; this factory re-derives everything cheap — the
  /// O(n) pair offsets and the split-site total — verifies it against the
  /// stored copy, and checks every array count against what `build` would
  /// produce, throwing on any disagreement so a corrupt file can never
  /// yield a structurally inconsistent shape.
  [[nodiscard]] static std::shared_ptr<const EngineShape> restore(
      std::shared_ptr<const typename Table::Layout> layout, std::size_t n,
      std::size_t band, ShapeArray<Pair> pairs,
      ShapeArray<std::size_t> pairs_offset_by_length,
      ShapeArray<std::uint32_t> entry_slots, ShapeArray<RootBlock> root_blocks,
      std::uint64_t total_split_sites) {
    auto shape = std::make_shared<EngineShape>();
    shape->layout = std::move(layout);
    shape->n = n;
    shape->band = band;

    SUBDP_REQUIRE(pairs.size() == (n >= 2 ? n * (n - 1) / 2 : 0),
                  "snapshot pair count disagrees with n");
    SUBDP_REQUIRE(pairs_offset_by_length.size() == n + 2,
                  "snapshot pair-offset count disagrees with n");
    std::size_t at = 0;
    std::uint64_t split_sites = 0;
    for (std::size_t len = 2; len <= n; ++len) {
      SUBDP_REQUIRE(pairs_offset_by_length[len] == at,
                    "snapshot pair offsets disagree with n");
      at += n - len + 1;
      split_sites += static_cast<std::uint64_t>(n - len + 1) * (len - 1);
    }
    SUBDP_REQUIRE(pairs_offset_by_length[n + 1] == at &&
                      pairs_offset_by_length[0] == 0 &&
                      pairs_offset_by_length[1] == 0,
                  "snapshot pair offsets disagree with n");
    SUBDP_REQUIRE(total_split_sites == split_sites,
                  "snapshot split-site total disagrees with n");

    const std::size_t quad_count = shape->layout->entries().size();
    SUBDP_REQUIRE(shape->layout->cell_count() <= UINT32_MAX,
                  "pw table too large for 32-bit write-log slots");
    SUBDP_REQUIRE(entry_slots.size() == quad_count,
                  "snapshot entry-slot count disagrees with the layout");
    // Both layouts give every root of length >= 2 at least one quad, so
    // the per-root runs must be one block per pair and end at the list.
    SUBDP_REQUIRE(root_blocks.size() == (quad_count > 0 ? pairs.size() : 0),
                  "snapshot root-block count disagrees with the pair list");
    SUBDP_REQUIRE(root_blocks.empty() ||
                      (root_blocks.front().begin == 0 &&
                       root_blocks.back().end == quad_count),
                  "snapshot root-block runs do not cover the entry list");

    shape->pairs = std::move(pairs);
    shape->pairs_offset_by_length = std::move(pairs_offset_by_length);
    shape->entry_slots = std::move(entry_slots);
    shape->root_blocks = std::move(root_blocks);
    shape->total_split_sites = total_split_sites;
    return shape;
  }
};

template <class Table>
class Engine final : public IEngine {
  static_assert(PwStoragePolicy<Table>,
                "Engine requires a pw storage policy (see pw_layout.hpp)");

 public:
  Engine(std::shared_ptr<const EngineShape<Table>> shape,
         const dp::Problem& problem, const SublinearOptions& options,
         pram::Machine& machine)
      : shape_(std::move(shape)),
        problem_(&problem),
        options_(options),
        machine_(machine),
        n_(shape_->n),
        pw_(shape_->layout),
        w_(n_ + 1, n_ + 1, kInfinity),
        pairs_(shape_->pairs),
        pairs_offset_by_length_(shape_->pairs_offset_by_length),
        entry_slots_(shape_->entry_slots),
        root_blocks_(shape_->root_blocks),
        total_split_sites_(shape_->total_split_sites) {
    SUBDP_ASSERT(problem.size() == n_);
    pw_log_.resize(pw_.entries().size());
    w_log_.resize(pairs_.size());
    frontier_enabled_ = !options_.windowed_pebble && !machine_.instrumented();
    profile_ = options_.profile;
    if (frontier_enabled_) {
      // Value-initialised (zeroed) atomic flag arrays.
      root_dirty_ =
          std::make_unique<std::atomic<std::uint8_t>[]>(pairs_.size());
      pw_root_moved_ =
          std::make_unique<std::atomic<std::uint8_t>[]>(pairs_.size());
      const std::size_t grid = (n_ + 1) * (n_ + 1);
      w_moved_.assign(grid, 0);
      contained_.assign(grid, 0);
      root_mark_grid_.assign(grid, 0);
      root_contained_.assign(grid, 0);
      mark_left_pre_.assign(grid, 0);
      mark_right_pre_.assign(grid, 0);
      frontier_.reserve(n_);
    }
    bind_instance(problem, /*fresh_tables=*/true);
  }

  /// Rebinds the engine to a new same-shape instance: fills both tables
  /// back to their initial state in place and clears every per-instance
  /// counter and frontier mark. Geometry (layout, pair lists, entry
  /// slots, root blocks) is shape-owned and untouched.
  void reset(const dp::Problem& problem) override {
    SUBDP_REQUIRE(problem.size() == n_,
                  "engine reset requires an instance of the plan's size");
    pw_.reset();
    w_.fill(kInfinity);
    bind_instance(problem, /*fresh_tables=*/false);
  }

  IterationOutcome iterate() override {
    ++iteration_;
    if (profile_) begin_profile();
    IterationOutcome out;
    out.activate_changed = run_activate();
    out.square_changed = run_square();
    out.pebble_changed = run_pebble();
    if (profile_) end_profile();
    return out;
  }

  [[nodiscard]] std::size_t iterations_done() const override {
    return iteration_;
  }

  [[nodiscard]] Cost w_value(std::size_t i, std::size_t j) const override {
    SUBDP_REQUIRE(i < j && j <= n_, "w index out of range");
    return w_(i, j);
  }

  [[nodiscard]] Cost pw_value(std::size_t i, std::size_t j, std::size_t p,
                              std::size_t q) const override {
    SUBDP_REQUIRE(i <= p && p < q && q <= j && j <= n_,
                  "pw index out of range");
    return pw_.get(i, j, p, q);
  }

  [[nodiscard]] const support::Grid2D<Cost>& w_table() const override {
    return w_;
  }

  [[nodiscard]] std::uint64_t w_finite_count() const override {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j <= n_; ++j) {
        if (is_finite(w_(i, j))) ++count;
      }
    }
    return count;
  }

  [[nodiscard]] std::size_t pw_cell_count() const override {
    return pw_.cell_count();
  }

  [[nodiscard]] const std::vector<StepProfile>& step_profiles()
      const override {
    return profiles_;
  }

 private:
  /// One deferred write of a step's log: for a-square, `index` is into
  /// `entries()`; for a-pebble, into `pairs_`.
  struct Delta {
    std::uint32_t index = 0;
    Cost value = 0;
  };

  /// The HLV square window of quad `t`: admissible intermediates
  /// `r in [r_lo, p)` and `s in (q, s_hi]`. Shared by the candidate scan
  /// and the frontier skip test, which must agree on the operand set.
  struct HlvWindow {
    std::size_t r_lo = 0;
    std::size_t s_hi = 0;
  };
  [[nodiscard]] HlvWindow hlv_window(const Quad& t) const {
    const std::size_t maxs = pw_.max_slack();
    const std::size_t i = t.i, j = t.j, p = t.p, q = t.q;
    return {p > maxs && p - maxs > i ? p - maxs : i,
            q + maxs < j ? q + maxs : j};
  }

  /// Per-instance (re)initialisation shared by the constructor and
  /// `reset`: base-row costs, iteration counter, and frontier marks.
  /// `fresh_tables` skips the flag clears that a fresh allocation has
  /// already zero-initialised.
  void bind_instance(const dp::Problem& problem, bool fresh_tables) {
    problem_ = &problem;
    iteration_ = 0;
    profiles_.clear();
    prof_ = nullptr;
    for (std::size_t i = 0; i < n_; ++i) {
      w_(i, i + 1) = problem.init(i);
    }
    if (frontier_enabled_) {
      if (!fresh_tables) {
        for (std::size_t k = 0; k < pairs_.size(); ++k) {
          root_dirty_[k].store(0, std::memory_order_relaxed);
          pw_root_moved_[k].store(0, std::memory_order_relaxed);
        }
      }
      square_frontier_ready_ = false;
      // The initial frontier: every base entry w(i, i+1) was just set.
      frontier_.clear();
      for (std::size_t i = 0; i < n_; ++i) {
        frontier_.push_back(Pair{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(i + 1)});
      }
    }
  }

  /// Index of pair `(i,j)` in `pairs_` (groups are length-major, then `i`).
  [[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j) const {
    return pairs_offset_by_length_[j - i] + i;
  }

  /// Sec. 5 window for iteration `t` (1-based): `l = ceil(t/2)`, lengths
  /// `(l-1)^2 < L <= l^2`. Returns the pair-index range to pebble.
  [[nodiscard]] std::pair<std::size_t, std::size_t> pebble_window() const {
    if (!options_.windowed_pebble) return {0, pairs_.size()};
    const std::size_t l = (iteration_ + 1) / 2;
    std::size_t lo_len = (l - 1) * (l - 1) + 1;
    std::size_t hi_len = l * l;
    if (lo_len < 2) lo_len = 2;
    if (hi_len > n_) hi_len = n_;
    if (lo_len > n_ || hi_len < 2 || lo_len > hi_len) {
      return {0, 0};  // nothing to pebble this iteration
    }
    return {pairs_offset_by_length_[lo_len],
            pairs_offset_by_length_[hi_len + 1]};
  }

  // ---- Per-cell kernels --------------------------------------------------
  // Templated on `Instr`: with Instr = false, op counting and CREW
  // reporting vanish at compile time and the kernel inlines into the
  // worker loop of the fast path. `pebble_scan` is oracle-only: the fast
  // path pebbles through `pebble_scan_fast` and squares through
  // `square_scan_fast` (HLV) or `square_scan<false>` (Rytter).

  /// Full a-activate scan of one pair: both eq. 1a/1b targets for every
  /// split `k`. In-place writes (activate targets are read by nobody
  /// within the step). Returns the number of cells improved.
  template <bool Instr>
  std::uint64_t activate_pair(std::size_t i, std::size_t j,
                              std::uint64_t& ops) {
    std::uint64_t local_changed = 0;
    // Both tables store every child gap (eq. 1a/1b write targets): the
    // banded layout keeps out-of-band child gaps in a dedicated side
    // store because the terminal pebble of a balanced node needs them
    // (see pw_banded.hpp).
    for (std::size_t k = i + 1; k <= j - 1; ++k) {
      if constexpr (Instr) ops += 2;
      const Cost fv = problem_->f(i, k, j);
      const Cost w_right = w_(k, j);
      if (is_finite(w_right)) {
        const Cost cand = sat_add(fv, w_right);
        if (cand < pw_.get(i, j, i, k)) {
          pw_.set(i, j, i, k, cand);
          if constexpr (Instr) machine_.note_write(pw_.address(i, j, i, k));
          ++local_changed;
        }
      }
      const Cost w_left = w_(i, k);
      if (is_finite(w_left)) {
        const Cost cand = sat_add(fv, w_left);
        if (cand < pw_.get(i, j, k, j)) {
          pw_.set(i, j, k, j, cand);
          if constexpr (Instr) machine_.note_write(pw_.address(i, j, k, j));
          ++local_changed;
        }
      }
    }
    return local_changed;
  }

  /// a-square candidate scan for one stored quadruple; returns the best
  /// composition (callers write only if it beats `old_value`).
  template <bool Instr>
  Cost square_scan(const Quad& t, Cost old_value, std::uint64_t& ops) {
    const std::size_t i = t.i, j = t.j, p = t.p, q = t.q;
    Cost best = old_value;
    if (options_.square_mode == SquareMode::kRytterFull) {
      // Rytter: all intermediate gaps (r,s) with (p,q) ⊆ (r,s) ⊆ (i,j),
      // excluding the two identities.
      for (std::size_t r = i; r <= p; ++r) {
        for (std::size_t s = q; s <= j; ++s) {
          if (r == i && s == j) continue;
          if (r == p && s == q) continue;
          if constexpr (Instr) ++ops;
          const Cost a = pw_.get(i, j, r, s);
          if (!is_finite(a)) continue;
          const Cost b = pw_.get(r, s, p, q);
          best = sat_min(best, sat_add(a, b));
        }
      }
    } else {
      // HLV eq. (2c): intermediate shares the gap's row or column.
      // Out-of-band operands are infinite, so r (resp. s) may be
      // restricted to the B-window without changing the result.
      const HlvWindow win = hlv_window(t);
      for (std::size_t r = win.r_lo; r < p; ++r) {
        if constexpr (Instr) ++ops;
        const Cost a = pw_.get(i, j, r, q);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(r, q, p, q);
        best = sat_min(best, sat_add(a, b));
      }
      for (std::size_t s = q + 1; s <= win.s_hi; ++s) {
        if constexpr (Instr) ++ops;
        const Cost a = pw_.get(i, j, p, s);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(p, s, p, q);
        best = sat_min(best, sat_add(a, b));
      }
    }
    return best;
  }

  /// Fast-path HLV candidate scan: same candidate set, arithmetic and
  /// min-fold as `square_scan`, but every operand is read through the
  /// layout's incremental window cursors and unchecked `in_band_slot`
  /// instead of the general `get` (see the file comment for why all
  /// operands are provably in band). The lone identity operand — `r == i`
  /// with `q == j`, or `s == j` with `p == i` — pairs `pw(i,j,i,j) = 0`
  /// with the target's own old value and can never improve it, so it is
  /// skipped rather than branch-tested on every read.
  Cost square_scan_fast(const Quad& t, Cost old_value) const {
    const std::size_t i = t.i, j = t.j, p = t.p, q = t.q;
    Cost best = old_value;
    const HlvWindow win = hlv_window(t);
    const Cost* raw = pw_.raw_cells();
    std::size_t r = win.r_lo;
    if (r == i && q == j) ++r;  // identity operand: provable no-op
    if (r < p) {
      PwWindowCursor cur = pw_.r_window_cursor(i, j, r, q);
      for (; r < p; ++r) {
        const Cost a = cur.value();
        cur.advance();
        if (!is_finite(a)) continue;
        const Cost b = raw[pw_.in_band_slot(r, q, p, q)];
        best = sat_min(best, sat_add(a, b));
      }
    }
    std::size_t s_hi = win.s_hi;
    if (p == i && s_hi == j) --s_hi;  // identity operand: provable no-op
    if (q < s_hi) {
      PwWindowCursor cur = pw_.s_window_cursor(i, j, p, q + 1);
      for (std::size_t s = q + 1; s <= s_hi; ++s) {
        const Cost a = cur.value();
        cur.advance();
        if (!is_finite(a)) continue;
        const Cost b = raw[pw_.in_band_slot(p, s, p, q)];
        best = sat_min(best, sat_add(a, b));
      }
    }
    return best;
  }

  /// Oracle a-pebble gap scan for one pair; returns the best pebbled cost
  /// (callers write only if it beats `old_value`).
  Cost pebble_scan(std::size_t i, std::size_t j, Cost old_value,
                   std::uint64_t& ops) {
    Cost best = old_value;
    pw_.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
      ++ops;
      const Cost a = pw_.get(i, j, p, q);
      if (!is_finite(a)) return;
      best = sat_min(best, sat_add(a, w_(p, q)));
    });
    return best;
  }

  /// Fast-path a-pebble gap scan: same gap set, arithmetic and min-fold
  /// as `pebble_scan`, but the gaps arrive as the layout's
  /// arithmetic-progression `PwGapRun`s — a raw `pw` pointer advanced by
  /// a (possibly decaying) step, paired with a `w` slot advanced by a
  /// fixed stride — so the per-read identity / slack / child-gap
  /// branching of the general `get` vanishes from the inner loop.
  Cost pebble_scan_fast(std::size_t i, std::size_t j, Cost old_value) const {
    Cost best = old_value;
    const Cost* wraw = w_.data();
    pw_.for_each_gap_run(i, j, [&](const PwGapRun& run) {
      const Cost* cell = run.cell;
      std::ptrdiff_t step = run.cell_step;
      const Cost* wp = wraw + run.w_slot;
      for (std::size_t k = 0; k < run.count; ++k) {
        const Cost a = *cell;
        cell += step;
        step += run.cell_dstep;
        const Cost wv = *wp;
        wp += run.w_step;
        if (is_finite(a)) best = sat_min(best, sat_add(a, wv));
      }
    });
    return best;
  }

  // ---- Frontier bookkeeping ----------------------------------------------

  /// Records that some `pw` entry of root `pair_idx` moved, for both
  /// consumers: `root_dirty_` (read by a-pebble, sticky until the pair is
  /// rescanned) and `pw_root_moved_` (read by the next a-square, cleared
  /// at every square apply).
  void mark_root_dirty(std::size_t pair_idx) {
    root_dirty_[pair_idx].store(1, std::memory_order_relaxed);
    pw_root_moved_[pair_idx].store(1, std::memory_order_relaxed);
  }

  /// 2-D containment counts over interval marks: `out(i,j)` = #marked
  /// `(a,b)` with `i <= a < b <= j` (shared by the pebble's moved-w test
  /// and the square's root-block test). Computed as a row-prefix pass
  /// then a column-suffix pass — `out(i,j)` becomes the dominance count
  /// #marked `(a,b)` with `a >= i, b <= j`, which equals the containment
  /// count at every cell since marks only exist at `a < b`.
  void accumulate_containment(const std::vector<std::uint8_t>& marks,
                              std::vector<std::uint32_t>& out) const {
    const std::size_t stride = n_ + 1;
    for (std::size_t a = 0; a <= n_; ++a) {
      std::uint32_t run = 0;
      for (std::size_t j = 0; j <= n_; ++j) {
        run += marks[a * stride + j];
        out[a * stride + j] = run;
      }
    }
    for (std::size_t i = n_; i-- > 0;) {
      for (std::size_t j = 0; j <= n_; ++j) {
        out[i * stride + j] += out[(i + 1) * stride + j];
      }
    }
  }

  /// Builds the 2-D containment counts of the last pebble's moved
  /// `w` entries: `contained_(i,j)` = #moved `(p,q)` with `i<=p<q<=j`.
  void build_contained_counts() {
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    std::fill(w_moved_.begin(), w_moved_.end(), std::uint8_t{0});
    for (const Pair e : frontier_) w_moved_[e.i * (n_ + 1) + e.j] = 1;
    accumulate_containment(w_moved_, contained_);
  }

  /// Snapshots `pw_root_moved_` into grid form for the root-major square
  /// sweep: containment counts (`root_contained_`, the whole-block skip
  /// test) and per-endpoint prefix sums (`mark_left_pre_(q,r)` = #moved
  /// roots `(a,q)` with `a <= r`; `mark_right_pre_(p,s)` = #moved roots
  /// `(p,b)` with `b <= s`) for the O(1) per-quad window tests.
  void build_square_prefixes() {
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    const std::size_t stride = n_ + 1;
    std::fill(root_mark_grid_.begin(), root_mark_grid_.end(),
              std::uint8_t{0});
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      if (pw_root_moved_[k].load(std::memory_order_relaxed) != 0) {
        root_mark_grid_[pairs_[k].i * stride + pairs_[k].j] = 1;
      }
    }
    accumulate_containment(root_mark_grid_, root_contained_);
    for (std::size_t q = 0; q <= n_; ++q) {
      std::uint32_t run = 0;
      for (std::size_t r = 0; r <= n_; ++r) {
        run += root_mark_grid_[r * stride + q];
        mark_left_pre_[q * stride + r] = run;
      }
    }
    for (std::size_t p = 0; p <= n_; ++p) {
      std::uint32_t run = 0;
      for (std::size_t s = 0; s <= n_; ++s) {
        run += root_mark_grid_[p * stride + s];
        mark_right_pre_[p * stride + s] = run;
      }
    }
  }

  /// Hoisted root-block test: true iff any moved root lies inside `(i,j)`
  /// — a superset of every operand root of every quad of the block, so a
  /// false answer proves the whole block clean.
  [[nodiscard]] bool root_block_moved(const Pair root) const {
    return root_contained_[root.i * (n_ + 1) + root.j] != 0;
  }

  /// O(1) window test replacing the O(B) per-quad root walk: true iff a
  /// second-operand root `(r,q)` with `r` in `[r_lo, p)` or `(p,s)` with
  /// `s` in `(q, s_hi]` moved — exactly the set the scan would read. The
  /// quad's own root is tested separately (hoisted per block).
  [[nodiscard]] bool square_window_moved(const Quad& t) const {
    const std::size_t stride = n_ + 1;
    const std::size_t p = t.p, q = t.q;
    const HlvWindow win = hlv_window(t);
    if (win.r_lo < p) {
      const std::uint32_t hi = mark_left_pre_[q * stride + (p - 1)];
      const std::uint32_t lo =
          win.r_lo == 0 ? 0 : mark_left_pre_[q * stride + (win.r_lo - 1)];
      if (hi != lo) return true;
    }
    if (win.s_hi > q) {
      if (mark_right_pre_[p * stride + win.s_hi] !=
          mark_right_pre_[p * stride + q]) {
        return true;
      }
    }
    return false;
  }

  /// Index of the first root block whose entry range contains `entry_idx`
  /// (the blocks partition the entry list in order).
  [[nodiscard]] std::size_t block_at(std::size_t entry_idx) const {
    const auto it = std::upper_bound(
        root_blocks_.begin(), root_blocks_.end(), entry_idx,
        [](std::size_t v, const RootBlock& blk) { return v < blk.end; });
    return static_cast<std::size_t>(it - root_blocks_.begin());
  }

  /// True iff some moved `w(p,q)` is a proper sub-interval of `(i,j)` —
  /// i.e. a (potential) stored gap whose weight the last pebble changed.
  [[nodiscard]] bool gap_w_moved(std::size_t i, std::size_t j) const {
    const std::size_t at = i * (n_ + 1) + j;
    return contained_[at] > w_moved_[at];
  }

  // ---- Step drivers ------------------------------------------------------

  std::uint64_t run_activate() {
    if (frontier_enabled_) {
      // Frontier-driven activate touches one site per (moved entry,
      // affected root); a full sweep touches every (pair, split) twice.
      // Fall back to the full sweep when the frontier is dense.
      std::uint64_t frontier_sites = 0;
      for (const Pair e : frontier_) frontier_sites += e.i + (n_ - e.j);
      const bool use_frontier = frontier_sites < total_split_sites_;
      if (prof_ != nullptr) {
        prof_->frontier_sites = frontier_sites;
        prof_->total_split_sites = total_split_sites_;
        prof_->activate_used_frontier = use_frontier;
      }
      if (use_frontier) return run_activate_frontier();
    }
    std::atomic<std::uint64_t> changed{0};
    if (machine_.instrumented()) {
      machine_.step(
          "a-activate", static_cast<std::int64_t>(pairs_.size()),
          [&](std::int64_t idx) -> std::uint64_t {
            const Pair pr = pairs_[static_cast<std::size_t>(idx)];
            std::uint64_t ops = 0;
            const std::uint64_t local = activate_pair<true>(pr.i, pr.j, ops);
            if (local > 0) {
              changed.fetch_add(local, std::memory_order_relaxed);
            }
            return ops;
          });
    } else {
      machine_.run_blocks(
          static_cast<std::int64_t>(pairs_.size()),
          [&](std::int64_t lo, std::int64_t hi) {
            std::uint64_t block_changed = 0;
            std::uint64_t ops = 0;
            for (std::int64_t idx = lo; idx < hi; ++idx) {
              const Pair pr = pairs_[static_cast<std::size_t>(idx)];
              const std::uint64_t local =
                  activate_pair<false>(pr.i, pr.j, ops);
              if (local > 0 && frontier_enabled_) {
                mark_root_dirty(static_cast<std::size_t>(idx));
              }
              block_changed += local;
            }
            if (block_changed > 0) {
              changed.fetch_add(block_changed, std::memory_order_relaxed);
            }
          });
    }
    return changed.load();
  }

  /// Fast-path activate driven by the moved-`w` frontier: each moved
  /// entry (a,b) re-evaluates only the sites that read it — as the right
  /// child of roots (i,b) for i < a (target pw(i,b,i,a)) and as the left
  /// child of roots (a,j) for j > b (target pw(a,j,b,j)). All other
  /// sites' candidates are unchanged and, by monotonicity, already
  /// applied. Two logical processors per moved entry; the targets are
  /// pairwise distinct, so the step stays CREW.
  std::uint64_t run_activate_frontier() {
    std::atomic<std::uint64_t> changed{0};
    const std::size_t m = frontier_.size();
    machine_.run_blocks(
        static_cast<std::int64_t>(2 * m),
        [&](std::int64_t lo, std::int64_t hi) {
          std::uint64_t block_changed = 0;
          for (std::int64_t idx = lo; idx < hi; ++idx) {
            const Pair e = frontier_[static_cast<std::size_t>(idx >> 1)];
            const std::size_t a = e.i, b = e.j;
            const Cost wv = w_(a, b);  // finite: it just moved
            if ((idx & 1) == 0) {
              for (std::size_t i = a; i-- > 0;) {
                const Cost cand = sat_add(problem_->f(i, a, b), wv);
                if (cand < pw_.get(i, b, i, a)) {
                  pw_.set(i, b, i, a, cand);
                  mark_root_dirty(pair_index(i, b));
                  ++block_changed;
                }
              }
            } else {
              for (std::size_t j = b + 1; j <= n_; ++j) {
                const Cost cand = sat_add(problem_->f(a, b, j), wv);
                if (cand < pw_.get(a, j, b, j)) {
                  pw_.set(a, j, b, j, cand);
                  mark_root_dirty(pair_index(a, j));
                  ++block_changed;
                }
              }
            }
          }
          if (block_changed > 0) {
            changed.fetch_add(block_changed, std::memory_order_relaxed);
          }
        });
    return changed.load();
  }

  std::uint64_t run_square() {
    const auto& quads = pw_.entries();
    // Reads see pre-step state because all writes are deferred to the
    // post-barrier apply below.
    pw_log_count_.store(0, std::memory_order_relaxed);
    if (machine_.instrumented()) {
      machine_.step(
          "a-square", static_cast<std::int64_t>(quads.size()),
          [&](std::int64_t idx) -> std::uint64_t {
            const Quad t = quads[static_cast<std::size_t>(idx)];
            const Cost old_value = pw_.get(t.i, t.j, t.p, t.q);
            std::uint64_t ops = 0;
            const Cost best = square_scan<true>(t, old_value, ops);
            if (best < old_value) {
              pw_log_[pw_log_count_.fetch_add(1, std::memory_order_relaxed)] =
                  Delta{static_cast<std::uint32_t>(idx), best};
              machine_.note_write(pw_.address(t.i, t.j, t.p, t.q));
            }
            return ops;
          });
    } else {
      // Fast path: HLV scans run the unchecked in-band kernel, and — once
      // operand-movement marks exist (every square after the first) — the
      // sweep is root-major: whole root blocks are skipped via the
      // containment test, surviving quads via the O(1) window test.
      const bool hlv = options_.square_mode == SquareMode::kHlvOneLevel;
      const bool skip_clean =
          frontier_enabled_ && square_frontier_ready_ && hlv;
      if (skip_clean) build_square_prefixes();
      const Cost* raw_read = pw_.raw_cells();
      const bool prof = prof_ != nullptr;
      if (prof) prof_->square_quads_total += quads.size();
      machine_.run_blocks(
          static_cast<std::int64_t>(quads.size()),
          [&](std::int64_t lo64, std::int64_t hi64) {
            const std::size_t lo = static_cast<std::size_t>(lo64);
            const std::size_t hi = static_cast<std::size_t>(hi64);
            std::uint64_t ops = 0;
            const auto scan_one = [&](const Quad& t, std::size_t idx) {
              const Cost old_value = raw_read[entry_slots_[idx]];
              const Cost best = hlv ? square_scan_fast(t, old_value)
                                    : square_scan<false>(t, old_value, ops);
              if (best < old_value) {
                pw_log_[pw_log_count_.fetch_add(
                    1, std::memory_order_relaxed)] =
                    Delta{static_cast<std::uint32_t>(idx), best};
              }
            };
            if (!skip_clean) {
              for (std::size_t idx = lo; idx < hi; ++idx) {
                scan_one(quads[idx], idx);
              }
              if (prof) {
                prof_quads_scanned_.fetch_add(hi - lo,
                                              std::memory_order_relaxed);
              }
              return;
            }
            std::uint64_t blocks_scanned = 0, blocks_skipped = 0;
            std::uint64_t quads_scanned = 0, quads_skipped = 0;
            std::uint64_t quads_block_skipped = 0;
            for (std::size_t bi = block_at(lo); bi < root_blocks_.size();
                 ++bi) {
              const RootBlock& rb = root_blocks_[bi];
              if (rb.begin >= hi) break;
              const std::size_t b = rb.begin < lo ? lo : rb.begin;
              const std::size_t e = rb.end < hi ? rb.end : hi;
              if (!root_block_moved(pairs_[rb.pair])) {
                if (prof) {
                  ++blocks_skipped;
                  quads_block_skipped += e > b ? e - b : 0;
                }
                continue;
              }
              if (prof) ++blocks_scanned;
              const bool root_moved =
                  pw_root_moved_[rb.pair].load(std::memory_order_relaxed) !=
                  0;
              for (std::size_t idx = b; idx < e; ++idx) {
                const Quad t = quads[idx];
                if (!root_moved && !square_window_moved(t)) {
                  if (prof) ++quads_skipped;
                  continue;
                }
                if (prof) ++quads_scanned;
                scan_one(t, idx);
              }
            }
            if (prof) {
              prof_blocks_scanned_.fetch_add(blocks_scanned,
                                             std::memory_order_relaxed);
              prof_blocks_skipped_.fetch_add(blocks_skipped,
                                             std::memory_order_relaxed);
              prof_quads_scanned_.fetch_add(quads_scanned,
                                            std::memory_order_relaxed);
              prof_quads_skipped_.fetch_add(quads_skipped,
                                            std::memory_order_relaxed);
              prof_quads_block_skipped_.fetch_add(quads_block_skipped,
                                                  std::memory_order_relaxed);
            }
          });
    }
    // Apply after the barrier: one write per improved cell, all distinct.
    const std::size_t logged = pw_log_count_.load(std::memory_order_relaxed);
    if (prof_ != nullptr) prof_->pw_log_entries = logged;
    if (frontier_enabled_) {
      // This square consumed all accumulated movement marks; the next one
      // must see only its own applies plus the next activate's writes.
      for (std::size_t k = 0; k < pairs_.size(); ++k) {
        pw_root_moved_[k].store(0, std::memory_order_relaxed);
      }
      square_frontier_ready_ = true;
    }
    Cost* raw = pw_.raw_cells();
    for (std::size_t k = 0; k < logged; ++k) {
      const Delta rec = pw_log_[k];
      raw[entry_slots_[rec.index]] = rec.value;
      if (frontier_enabled_) {
        const Quad t = quads[rec.index];
        mark_root_dirty(pair_index(t.i, t.j));
      }
    }
    return logged;
  }

  std::uint64_t run_pebble() {
    const auto [w_begin, w_end] = pebble_window();
    if (w_begin == w_end) {
      if (frontier_enabled_) frontier_.clear();
      return 0;
    }
    w_log_count_.store(0, std::memory_order_relaxed);
    if (machine_.instrumented()) {
      machine_.step(
          "a-pebble", static_cast<std::int64_t>(w_end - w_begin),
          [&, w_begin = w_begin](std::int64_t idx) -> std::uint64_t {
            const std::size_t at = w_begin + static_cast<std::size_t>(idx);
            const Pair pr = pairs_[at];
            const Cost old_value = w_(pr.i, pr.j);
            std::uint64_t ops = 0;
            const Cost best = pebble_scan(pr.i, pr.j, old_value, ops);
            if (best < old_value) {
              w_log_[w_log_count_.fetch_add(1, std::memory_order_relaxed)] =
                  Delta{static_cast<std::uint32_t>(at), best};
              machine_.note_write(
                  kWAddressTag |
                  (static_cast<std::uint64_t>(pr.i) * (n_ + 1) + pr.j));
            }
            return ops;
          });
    } else {
      const bool use_frontier = frontier_enabled_;
      if (use_frontier) build_contained_counts();
      const bool prof = prof_ != nullptr;
      if (prof) prof_->pebble_pairs_total += w_end - w_begin;
      machine_.run_blocks(
          static_cast<std::int64_t>(w_end - w_begin),
          [&, w_begin = w_begin](std::int64_t lo, std::int64_t hi) {
            std::uint64_t pairs_scanned = 0, pairs_skipped = 0;
            for (std::int64_t idx = lo; idx < hi; ++idx) {
              const std::size_t at = w_begin + static_cast<std::size_t>(idx);
              const Pair pr = pairs_[at];
              if (use_frontier) {
                // Skip unless some input moved: a pw entry of this root
                // (activate/square this iteration, sticky until rescanned)
                // or the w of a contained gap (last pebble).
                const bool pw_moved =
                    root_dirty_[at].load(std::memory_order_relaxed) != 0;
                if (!pw_moved && !gap_w_moved(pr.i, pr.j)) {
                  if (prof) ++pairs_skipped;
                  continue;
                }
                if (pw_moved) {
                  root_dirty_[at].store(0, std::memory_order_relaxed);
                }
              }
              if (prof) ++pairs_scanned;
              const Cost old_value = w_(pr.i, pr.j);
              const Cost best = pebble_scan_fast(pr.i, pr.j, old_value);
              if (best < old_value) {
                w_log_[w_log_count_.fetch_add(1, std::memory_order_relaxed)] =
                    Delta{static_cast<std::uint32_t>(at), best};
              }
            }
            if (prof) {
              prof_pairs_scanned_.fetch_add(pairs_scanned,
                                            std::memory_order_relaxed);
              prof_pairs_skipped_.fetch_add(pairs_skipped,
                                            std::memory_order_relaxed);
            }
          });
    }
    // Apply after the barrier; the logged pairs are the next frontier.
    const std::size_t logged = w_log_count_.load(std::memory_order_relaxed);
    if (prof_ != nullptr) prof_->w_log_entries = logged;
    if (frontier_enabled_) frontier_.clear();
    Cost* wraw = w_.data();
    for (std::size_t k = 0; k < logged; ++k) {
      const Delta rec = w_log_[k];
      const Pair pr = pairs_[rec.index];
      wraw[pr.i * (n_ + 1) + pr.j] = rec.value;
      if (frontier_enabled_) frontier_.push_back(pr);
    }
    return logged;
  }

  // ---- Per-step profiling (options_.profile) -----------------------------
  // Parallel sweep lambdas accumulate block-local counters and flush them
  // to these relaxed atomics; `end_profile` loads the totals into the
  // iteration's StepProfile after the last barrier. Serial call sites
  // (the activate density decision, the mark-grid builds, the
  // post-barrier log totals) write `prof_` directly.

  void begin_profile() {
    profiles_.emplace_back();
    prof_ = &profiles_.back();
    prof_->iteration = iteration_;
    prof_blocks_scanned_.store(0, std::memory_order_relaxed);
    prof_blocks_skipped_.store(0, std::memory_order_relaxed);
    prof_quads_scanned_.store(0, std::memory_order_relaxed);
    prof_quads_skipped_.store(0, std::memory_order_relaxed);
    prof_quads_block_skipped_.store(0, std::memory_order_relaxed);
    prof_pairs_scanned_.store(0, std::memory_order_relaxed);
    prof_pairs_skipped_.store(0, std::memory_order_relaxed);
  }

  void end_profile() {
    prof_->square_blocks_scanned =
        prof_blocks_scanned_.load(std::memory_order_relaxed);
    prof_->square_blocks_skipped =
        prof_blocks_skipped_.load(std::memory_order_relaxed);
    prof_->square_quads_scanned =
        prof_quads_scanned_.load(std::memory_order_relaxed);
    prof_->square_quads_skipped =
        prof_quads_skipped_.load(std::memory_order_relaxed);
    prof_->square_quads_block_skipped =
        prof_quads_block_skipped_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_scanned =
        prof_pairs_scanned_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_skipped =
        prof_pairs_skipped_.load(std::memory_order_relaxed);
    prof_ = nullptr;
  }

  std::shared_ptr<const EngineShape<Table>> shape_;
  const dp::Problem* problem_;
  SublinearOptions options_;
  pram::Machine& machine_;
  std::size_t n_;
  Table pw_;
  support::Grid2D<Cost> w_;

  // Shape-owned geometry — immutable aliases into `*shape_`.
  const ShapeArray<Pair>& pairs_;
  const ShapeArray<std::size_t>& pairs_offset_by_length_;
  const ShapeArray<std::uint32_t>& entry_slots_;  ///< Slot per entry.
  const ShapeArray<RootBlock>& root_blocks_;      ///< Per-root runs.
  std::uint64_t total_split_sites_ = 0;

  // Write logs of the current step (see the file comment).
  std::vector<Delta> pw_log_;
  std::vector<Delta> w_log_;
  std::atomic<std::size_t> pw_log_count_{0};
  std::atomic<std::size_t> w_log_count_{0};

  // Frontier state (frontier_enabled_ == true).
  bool frontier_enabled_ = false;
  bool square_frontier_ready_ = false;  ///< First square has no marks yet.
  std::unique_ptr<std::atomic<std::uint8_t>[]> root_dirty_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> pw_root_moved_;
  std::vector<Pair> frontier_;  ///< w entries moved by the last pebble.
  std::vector<std::uint8_t> w_moved_;
  std::vector<std::uint32_t> contained_;
  // Root-major square sweep snapshots (see build_square_prefixes).
  std::vector<std::uint8_t> root_mark_grid_;
  std::vector<std::uint32_t> root_contained_;
  std::vector<std::uint32_t> mark_left_pre_;
  std::vector<std::uint32_t> mark_right_pre_;

  // Profiling state (see begin_profile / end_profile above). `prof_` is
  // non-null only inside a profiled iterate(); every hot-path counter
  // increment is guarded by a hoisted `prof` bool, so the default
  // (profile off) takes no extra work.
  bool profile_ = false;
  std::vector<StepProfile> profiles_;
  StepProfile* prof_ = nullptr;
  std::atomic<std::uint64_t> prof_blocks_scanned_{0};
  std::atomic<std::uint64_t> prof_blocks_skipped_{0};
  std::atomic<std::uint64_t> prof_quads_scanned_{0};
  std::atomic<std::uint64_t> prof_quads_skipped_{0};
  std::atomic<std::uint64_t> prof_quads_block_skipped_{0};
  std::atomic<std::uint64_t> prof_pairs_scanned_{0};
  std::atomic<std::uint64_t> prof_pairs_skipped_{0};

  std::size_t iteration_ = 0;
};

}  // namespace subdp::core::detail
