#pragma once

/// \file engine.hpp
/// The iteration engine behind `SolveSession` (implementation detail).
///
/// One implementation of the three macro-steps over the one `pw'` layout,
/// `BandedPwTable` (pw_banded.hpp); the Sec. 2 variant is that layout at
/// band `B = n`, the Sec. 5 variant at `B = 2*ceil(sqrt n)` by default:
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
/// step), the oracle's a-square and both paths' a-pebble record a write
/// log of `(cell, new value)` pairs while scanning and apply it only
/// after the step's barrier: reads during the step see pre-step state by
/// construction, and since each cell is written by exactly one logical
/// processor per step (owner-computes, CREW), the apply order is
/// immaterial. The log doubles as the change count and — for a-pebble —
/// as the next iteration's frontier. a-activate writes only cells no
/// other processor reads within the step, in place. The fast path's
/// a-square needs no log: it writes in place, tile by tile (below).
///
/// Two execution paths
/// -------------------
/// The engine picks one of two implementations once, at construction
/// (`oracle_`), and every macro-step follows it:
///  * the *oracle* (`Machine::step`, `std::function` body): full sweeps
///    over every pair / quad, operands read through the layout's general
///    `get` (`square_scan`, `pebble_scan`), per-processor op counts and
///    `note_write` conformance reports — exactly the paper's accounting.
///    It runs whenever the machine is instrumented (cost ledger or CREW
///    checker on) and for every Rytter square, a comparison baseline
///    that needs no fast path; without a ledger, `Machine::step` keeps
///    no costs. This is the reference every other configuration is
///    tested against, and the ledger `test_golden` pins.
///  * the *fast path* (`Machine::run_blocks`, templated body; HLV square
///    only): the kernels inline into the worker loop with no op
///    counting, and the sweeps skip provable no-ops:
///     - a-activate evaluates, per root, only the sites reading a `w(i,j)`
///       the last pebble moved (`bucket_frontier`), then snapshots the
///       root's edges for the tiled square (below);
///     - a-square runs one tile per root, and visits a root
///       only when a candidate of its tile has a moved operand; a visited
///       root evaluates only those candidates (semi-naive evaluation,
///       below);
///     - a-pebble skips pairs with no root `pw` movement since their last
///       rescan and no moved `w` among their gaps;
///     - the tests behind both skips (the square's visit bytes, the
///       pebble's moved-`w` containment grid) are built from scratch,
///       serially, right before each skipping sweep: O(n^2) plain loops,
///       a small share of the sweeps they prune.
///    Only the pebble skip is off under the windowed pebble schedule.
///    It reads just the last pebble's moved `w`s, but the window pebbles
///    a different pair range each iteration, so a pair coming back into
///    it would miss the moves made while it was out. The activate
///    frontier holds on every schedule: a `w` moves only through a
///    pebble write, and the pebble logs every one, whatever its window.
/// Monotonicity of both tables makes every skipped site provably a no-op
/// (its candidates are unchanged and were already min-applied), so
/// results, change counts and iteration schedules are identical to the
/// oracle's — tests/test_core_fastpath.cpp verifies this per iteration.
///
/// The tiled a-square
/// ------------------
/// The kernels below are compiled once, against the one layout, with its
/// addressing inlined. In root `(i,j)`, write target `pw(i,j,i+l,j-r)` as
/// `V[r][l]`: the root's stored cells are the slack triangle `l + r <= m`,
/// `m = min(B, j-i-1)`, one contiguous block of the layout, minus the
/// identity `V[0][0] = pw(i,j,i,j) = 0`. Eq. 2c then reads
///
///   row:    V[r][l] <- min over l' < l of  V[r][l'] + E_(i+l', j-r)[l-l']
///   column: V[r][l] <- min over r' < r of  V[r'][l] + F_(i+l, j-r')[r-r']
///
/// with the two edges of a root `(a,b)`, `E_(a,b)[d] = pw(a,b,a+d,b)` and
/// `F_(a,b)[d] = pw(a,b,a,b-d)`, `1 <= d <= B`. Every operand is in band,
/// and the identity candidate (`V[0][0]` plus the target's own old value)
/// is a provable no-op, so the tile holds `V[0][0] = kInfinity`.
///  - *Edges.* Each root's a-activate processor, after its writes, copies
///    the root's two edges into its slots of the stepping thread's
///    `edge_scratch` (`snapshot_edges`), never session state: only the
///    same step's square reads them.
///  - *Tiles.* Each visited root folds its candidates into one square
///    accumulator tile in the worker's `tile_scratch`, which starts at
///    `kInfinity`. One pass walks the block in storage order: cell
///    `V[r][l]`, at slack `o = r + l`, is the first operand of a row
///    segment over the `E` edge and a column segment over the `F` edge of
///    the same sub-root `(i+l, j-r)`, whose targets are the `m - o` cells
///    to its right (contiguous) and below it (stride `m + 1`). The
///    write-back stores the accumulator cells that beat the block's and
///    resets the tile to `kInfinity` for the next root.
///  - *Moved bytes.* One byte per in-band cell says "changed since the
///    last square's pre-step state": a-activate sets it on its in-band
///    writes, and the write-back sets it on improvements and clears the
///    rest of its block. The edge snapshot derives each root's moved-edge
///    slack ranges `[lo, hi]` from these bytes. A (row, first operand)
///    segment is evaluated over the whole row if the first operand moved,
///    over the partner edge's moved range otherwise, and not at all when
///    the first operand is `kInfinity`. Every candidate left out has two
///    unmoved operands, so the previous square (or, before any square,
///    the all-infinite reset state) already applied it: results are the
///    oracle's, bit for bit.
///  - *Visits.* A root's tile evaluates something only if a cell of its
///    own block moved (`pw_root_moved_`, set by in-band writes alone) or
///    a proper sub-root at offset `o` has a moved edge cell at a slack
///    `d` with `o + d <= m`. One serial length-major pass before the sweep
///    (`build_root_visits`) computes `reach(i,j)`, the least `o + d` over
///    the sub-roots of `(i,j)` itself included, from its two children's,
///    and visits exactly the roots that pass: a skipped root would have
///    evaluated no candidate. A root whose own flag is set is visited
///    even if it evaluates nothing, so that its write-back clears its
///    moved bytes.
///  - *CREW without a log.* A tile reads other roots only through the
///    pre-sweep edge snapshot and writes only its own block, its own moved
///    bytes and its own root flags, so in-place write-back races with no
///    read: every read of the sweep sees pre-step state, and each cell
///    has one writer. The snapshot's slots come from a-activate's
///    per-root processors, ordered before the tiles by its barrier.
/// Both operands lie in `[0, kInfinity]`, so the fold is a plain
/// `min(acc, a + b)`, with no `is_finite` branch or `sat_add` (cost.hpp
/// asserts the sum cannot overflow). The a-pebble gap scan streams too,
/// through `for_each_gap_run`: the layout emits every stored gap of a
/// root as arithmetic-progression runs over raw `pw` slots paired with
/// strided `w` slots (`PwGapRun`), so `pebble_scan_fast` is a pointer walk
/// with no per-read addressing branches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/pw_banded.hpp"
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

/// Adds the wall time of its scope to `*field` in steady-clock
/// nanoseconds. A null `field` reads no clock, so profile-off runs take
/// no timing cost beyond the null test.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::uint64_t* field) : field_(field) {
    if (field_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (field_ != nullptr) {
      *field_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::uint64_t* field_;
  std::chrono::steady_clock::time_point start_{};
};

/// One root's moved-edge slack ranges for a tiled a-square sweep: the
/// `E` (left edge) and `F` (right edge) cells with slack in `[lo, hi]`
/// include every one that moved since the last square; `lo > hi` when
/// none did.
struct EdgeMoves {
  std::uint16_t e_lo = 0;
  std::uint16_t e_hi = 0;
  std::uint16_t f_lo = 0;
  std::uint16_t f_hi = 0;
};

/// The a-square edge snapshot: per root, its `E` and `F` edges and their
/// moved ranges (see the file comment).
struct EdgeScratch {
  std::vector<Cost> edges;
  std::vector<EdgeMoves> moves;
};

/// The calling thread's edge snapshot, grown to `roots` roots of `stride`
/// slots per edge. Each step's a-activate rewrites every root's slots and
/// the same step's tiled square reads them, so one buffer per solving
/// thread serves every session that thread steps. Pool workers write the
/// caller's snapshot in the activate sweep and read it in the square's;
/// each sweep's fork-join orders the two.
inline EdgeScratch& edge_scratch(std::size_t roots, std::size_t stride) {
  thread_local EdgeScratch scratch;
  if (scratch.edges.size() < roots * 2 * stride) {
    scratch.edges.resize(roots * 2 * stride);
  }
  if (scratch.moves.size() < roots) scratch.moves.resize(roots);
  return scratch;
}

/// One worker's a-square tile buffers: the candidate accumulator `V[r][l]`
/// at `r * (m+1) + l`, and the targets that had a candidate evaluated
/// (profiling only). Between tiles they hold only `kInfinity` and `0`:
/// a tile writes nothing but its triangle, and its write-back resets
/// every triangle cell. So any tile of any session may reuse them.
struct TileScratch {
  std::vector<Cost> best;
  std::vector<std::uint8_t> touched;
};

inline TileScratch& tile_scratch() {
  thread_local TileScratch scratch;
  return scratch;
}

/// One pair `(i,j)` of the pebble/activate sweeps. 32-bit fields: unlike
/// the packed `Quad` (whose tables cap `n` anyway), pair lists are cheap
/// enough to exist for `n` far beyond 65535, so they must not truncate.
struct Pair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
};

/// One root's contiguous block `[begin, end)` of in-band cell slots (the
/// tiled square's sweep unit). Blocks follow the pair list: block `k`
/// belongs to pair `k`.
struct RootBlock {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Everything the engine precomputes that depends only on the *shape*
/// `(n, band)` — never on a concrete instance's costs: the shared
/// storage layout, the length-major pair list and its offsets, the root
/// blocks of the tiled square sweep, and the activate-site total the step
/// profile reports against the frontier's. All of it is O(n^2). A
/// `SolvePlan` builds one `EngineShape` and every engine (session) of
/// that shape shares it, so per-instance preparation is a table fill.
struct EngineShape {
  std::shared_ptr<const BandedPwLayout> layout;
  std::size_t n = 0;
  std::size_t band = 0;
  /// Pairs with length >= 2, grouped by length ascending.
  std::vector<Pair> pairs;
  /// Prefix offsets addressing a window of lengths in `pairs`.
  std::vector<std::size_t> pairs_offset_by_length;
  /// Per-root blocks of in-band cells (tiled square sweep), one per pair.
  std::vector<RootBlock> root_blocks;
  /// Total (pair, split) activate sites of a full sweep.
  std::uint64_t total_split_sites = 0;

  [[nodiscard]] static std::shared_ptr<const EngineShape> build(
      std::size_t n, std::size_t band) {
    auto shape = std::make_shared<EngineShape>();
    shape->layout = std::make_shared<const BandedPwLayout>(n, band);
    shape->n = n;
    shape->band = band;

    std::vector<Pair>& pairs = shape->pairs;
    // Lengths below 2 alias the first real group.
    shape->pairs_offset_by_length.assign(n + 2, 0);
    for (std::size_t len = 2; len <= n; ++len) {
      shape->pairs_offset_by_length[len] = pairs.size();
      for (std::size_t i = 0; i + len <= n; ++i) {
        pairs.push_back(Pair{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(i + len)});
      }
    }
    shape->pairs_offset_by_length[n + 1] = pairs.size();

    for (const Pair pr : pairs) {
      shape->total_split_sites += pr.j - pr.i - 1;
    }

    // Root `(i, i+len)` owns the `block_size(len)` slots from
    // `flat(i, i+len, i, 1)`, in pair order.
    const BandedPwLayout& layout = *shape->layout;
    SUBDP_REQUIRE(layout.cell_count() <= UINT32_MAX,
                  "pw table too large for 32-bit slot indices");
    shape->root_blocks.reserve(pairs.size());
    for (const Pair pr : pairs) {
      const std::size_t begin = layout.flat(pr.i, pr.j, pr.i, 1);
      shape->root_blocks.push_back(RootBlock{
          static_cast<std::uint32_t>(begin),
          static_cast<std::uint32_t>(begin + layout.block_size(pr.j - pr.i))});
    }
    return shape;
  }
};

/// The per-session solving state over one shared `EngineShape`; the
/// stepping interface `SolveSession` drives.
class Engine {
 public:
  Engine(std::shared_ptr<const EngineShape> shape,
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
        root_blocks_(shape_->root_blocks),
        edge_stride_(std::min(pw_.max_slack(), n_ - 1) + 1) {
    SUBDP_ASSERT(problem.size() == n_);
    oracle_ = machine_.instrumented() ||
              options_.square_mode == SquareMode::kRytterFull;
    pebble_skip_ = !oracle_ && !options_.windowed_pebble;
    // The tiled square writes in place; only the oracle's square logs.
    if (oracle_) pw_log_.resize(pw_.layout().band_cell_count());
    w_log_.resize(pairs_.size());
    profile_ = options_.profile;
    if (!oracle_) {
      moved_.assign(pw_.layout().band_cell_count(), 0);
      pw_root_moved_.assign(pairs_.size(), 0);
      reach_.assign(pairs_.size(), kNoReach);
      visit_.assign(pairs_.size(), 0);
      frontier_.reserve(n_);
      row_start_.assign(n_ + 2, 0);
      col_start_.assign(n_ + 2, 0);
    }
    if (pebble_skip_) {
      root_dirty_.assign(pairs_.size(), 0);
      w_moved_.assign((n_ + 1) * (n_ + 1), 0);
      contained_.assign((n_ + 1) * (n_ + 1), 0);
    }
    bind_instance(problem, /*fresh_tables=*/true);
  }

  /// Rebinds the engine to a new same-shape instance: fills both tables
  /// back to their initial state in place and clears every per-instance
  /// counter and frontier mark — no reallocation, no geometry rebuild (the
  /// `SolveSession::reset` hot path). Geometry (layout, pair lists, root
  /// blocks) is shape-owned and untouched.
  void reset(const dp::Problem& problem) {
    SUBDP_REQUIRE(problem.size() == n_,
                  "engine reset requires an instance of the plan's size");
    pw_.reset();
    w_.fill(kInfinity);
    bind_instance(problem, /*fresh_tables=*/false);
  }

  IterationOutcome iterate() {
    ++iteration_;
    if (profile_) begin_profile();
    IterationOutcome out;
    out.activate_changed = run_activate();
    out.square_changed = run_square();
    out.pebble_changed = run_pebble();
    if (profile_) end_profile();
    return out;
  }

  [[nodiscard]] std::size_t iterations_done() const {
    return iteration_;
  }

  [[nodiscard]] Cost w_value(std::size_t i, std::size_t j) const {
    SUBDP_REQUIRE(i < j && j <= n_, "w index out of range");
    return w_(i, j);
  }

  [[nodiscard]] Cost pw_value(std::size_t i, std::size_t j, std::size_t p,
                              std::size_t q) const {
    SUBDP_REQUIRE(i <= p && p < q && q <= j && j <= n_,
                  "pw index out of range");
    return pw_.get(i, j, p, q);
  }

  [[nodiscard]] const support::Grid2D<Cost>& w_table() const {
    return w_;
  }

  [[nodiscard]] std::uint64_t w_finite_count() const {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j <= n_; ++j) {
        if (is_finite(w_(i, j))) ++count;
      }
    }
    return count;
  }

  /// One StepProfile per completed iteration when
  /// `SublinearOptions::profile` is on; empty otherwise.
  [[nodiscard]] const std::vector<StepProfile>& step_profiles() const {
    return profiles_;
  }

 private:
  /// One deferred write of a step's log: for a-square, `index` is the
  /// cell's storage slot (`BandedPwLayout::quad_at` names its quadruple);
  /// for a-pebble, an index into `pairs_`.
  struct Delta {
    std::uint32_t index = 0;
    Cost value = 0;
  };

  /// The HLV square window of quad `t`: admissible intermediates
  /// `r in [r_lo, p)` and `s in (q, s_hi]` (the oracle's candidate scan).
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
    if (!fresh_tables) {
      std::fill(root_dirty_.begin(), root_dirty_.end(), std::uint8_t{0});
      std::fill(moved_.begin(), moved_.end(), std::uint8_t{0});
      std::fill(pw_root_moved_.begin(), pw_root_moved_.end(), 0);
    }
    if (!oracle_) {
      // The initial frontier: every base entry w(i, i+1) was just set.
      frontier_.clear();
      for (std::size_t i = 0; i < n_; ++i) {
        frontier_.push_back(Pair{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(i + 1)});
      }
    }
  }

  /// `reach_` of a root with no moved edge cell at or inside it.
  static constexpr std::uint16_t kNoReach = UINT16_MAX;

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
  // `activate_pair`, `square_scan` and `pebble_scan` are the oracle's,
  // with per-op counting; the fast path runs `activate_root`,
  // `square_tile` and `pebble_scan_fast`, which count nothing.

  /// Oracle a-activate scan of root `root`: both eq. 1a/1b targets for
  /// every split `k`. In-place writes (activate targets are read by nobody
  /// within the step). Returns the number of cells improved.
  std::uint64_t activate_pair(std::size_t root, std::uint64_t& ops) {
    const std::size_t i = pairs_[root].i, j = pairs_[root].j;
    std::uint64_t local_changed = 0;
    // The table stores every child gap (eq. 1a/1b write targets): the
    // layout keeps out-of-band child gaps in a dedicated side store
    // because the terminal pebble of a balanced node needs them (see
    // pw_banded.hpp).
    for (std::size_t k = i + 1; k <= j - 1; ++k) {
      ops += 2;
      const Cost fv = problem_->f(i, k, j);
      const Cost w_right = w_(k, j);
      if (is_finite(w_right)) {
        const Cost cand = sat_add(fv, w_right);
        if (cand < pw_.get(i, j, i, k)) {
          pw_.set(i, j, i, k, cand);
          machine_.note_write(pw_.address(i, j, i, k));
          ++local_changed;
        }
      }
      const Cost w_left = w_(i, k);
      if (is_finite(w_left)) {
        const Cost cand = sat_add(fv, w_left);
        if (cand < pw_.get(i, j, k, j)) {
          pw_.set(i, j, k, j, cand);
          machine_.note_write(pw_.address(i, j, k, j));
          ++local_changed;
        }
      }
    }
    return local_changed;
  }

  /// Fast a-activate of root `root = (i,j)`, in place. Evaluates only
  /// the sites reading a `w` the last pebble moved: `(a,j)`, `a > i`, as
  /// right child (target `pw(i,j,i,a)`) and `(i,b)`, `b < j`, as left
  /// child (target `pw(i,j,b,j)`). Every other candidate is unchanged
  /// and, by monotonicity, already applied. Returns the number of cells
  /// improved.
  std::uint64_t activate_root(std::size_t root) {
    const std::size_t i = pairs_[root].i, j = pairs_[root].j;
    const std::size_t m = root_slacks(root);
    // Locals, so the opaque `f` calls force no reloads.
    const std::size_t begin = root_blocks_[root].begin;
    Cost* const cells = pw_.raw_cells() + begin;
    std::uint8_t* const moved = moved_.data() + begin;
    const Cost* const w = w_.data();
    const std::size_t stride = n_ + 1;
    std::uint64_t changed = 0;
    // Offers `f + w(k,j)` to `pw(i,j,i,k)` (`left`: `F` at slack `j-k`)
    // or `f + w(i,k)` to `pw(i,j,k,j)` (`E` at slack `k-i`). Child gaps
    // past the band are never square operands and set no moved byte.
    const auto offer = [&](Cost fv, std::size_t k, bool left) {
      const Cost wv = left ? w[k * stride + j] : w[i * stride + k];
      if (!is_finite(wv)) return;
      const Cost cand = sat_add(fv, wv);
      const std::size_t s = left ? j - k : k - i;
      if (s <= m) {
        const std::size_t slot =
            BandedPwLayout::slack_offset(s) + (left ? 0 : s);
        if (cand >= cells[slot]) return;
        cells[slot] = cand;
        moved[slot] = 1;
        pw_root_moved_[root] = 1;
      } else {
        const std::size_t p = left ? i : k, q = left ? k : j;
        if (cand >= pw_.get(i, j, p, q)) return;
        pw_.set(i, j, p, q, cand);
      }
      ++changed;
    };
    // The sites: a suffix of column `j`, a prefix of row `i`.
    const std::uint32_t* const col = col_a_.data();
    const std::uint32_t* const row = row_b_.data();
    for (std::size_t at = col_start_[j + 1], lo = col_start_[j];
         at > lo && col[at - 1] > i; --at) {
      offer(problem_->f(i, col[at - 1], j), col[at - 1], true);
    }
    for (std::size_t at = row_start_[i], hi = row_start_[i + 1];
         at < hi && row[at] < j; ++at) {
      offer(problem_->f(i, row[at], j), row[at], false);
    }
    if (changed > 0) mark_root_dirty(root);
    return changed;
  }

  /// Oracle a-square candidate scan for one stored quadruple; returns the
  /// best composition (callers write only if it beats `old_value`).
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
          ++ops;
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
        ++ops;
        const Cost a = pw_.get(i, j, r, q);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(r, q, p, q);
        best = sat_min(best, sat_add(a, b));
      }
      for (std::size_t s = q + 1; s <= win.s_hi; ++s) {
        ++ops;
        const Cost a = pw_.get(i, j, p, s);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(p, s, p, q);
        best = sat_min(best, sat_add(a, b));
      }
    }
    return best;
  }

  /// The target of oracle square processor `slot`. `Machine::step` runs
  /// each worker's processors in ascending order, so a target usually
  /// follows the thread's previous one (`next_quad`, O(1)); any other
  /// slot is inverted by `quad_at`. `(n, band)` fixes the geometry, so
  /// the memo keyed on it holds across engines.
  [[nodiscard]] static Quad square_target(const BandedPwLayout& geometry,
                                          std::size_t slot) {
    thread_local std::size_t last_n = 0, last_band = 0, last_slot = 0;
    thread_local Quad last;
    const bool follows = last_n == geometry.n() &&
                         last_band == geometry.band() && last_slot + 1 == slot;
    last = follows ? geometry.next_quad(last) : geometry.quad_at(slot);
    last_n = geometry.n();
    last_band = geometry.band();
    last_slot = slot;
    return last;
  }

  /// Slacks stored in root `k`'s block: `min(B, j - i - 1)`.
  [[nodiscard]] std::size_t root_slacks(std::size_t k) const {
    return std::min(pw_.max_slack(),
                    static_cast<std::size_t>(pairs_[k].j - pairs_[k].i) - 1);
  }

  /// Copies root `k = (a,b)`'s two edges, `E[d] = pw(a,b,a+d,b)` at
  /// `edges[k * 2 * edge_stride_ + d]` and `F[d] = pw(a,b,a,b-d)` at
  /// `edges[(2k + 1) * edge_stride_ + d]` for `d = 1 .. min(B, b-a-1)`,
  /// and derives its moved-edge ranges from the moved bytes (see the file
  /// comment). Within slack `d` of a root block, `F[d]` is the first cell
  /// and `E[d]` the last. Run by `k`'s activate processor after its writes.
  void snapshot_edges(std::size_t k, EdgeScratch& scratch) const {
    const std::size_t m = root_slacks(k);
    const Cost* const cells = pw_.raw_cells();
    const std::uint8_t* const moved = moved_.data();
    Cost* const e = scratch.edges.data() + k * 2 * edge_stride_;
    Cost* const f = e + edge_stride_;
    EdgeMoves em{UINT16_MAX, 0, UINT16_MAX, 0};
    std::size_t at = root_blocks_[k].begin;
    for (std::size_t d = 1; d <= m; at += d + 1, ++d) {
      f[d] = cells[at];
      e[d] = cells[at + d];
      if (moved[at] != 0) {
        if (em.f_lo == UINT16_MAX) em.f_lo = static_cast<std::uint16_t>(d);
        em.f_hi = static_cast<std::uint16_t>(d);
      }
      if (moved[at + d] != 0) {
        if (em.e_lo == UINT16_MAX) em.e_lo = static_cast<std::uint16_t>(d);
        em.e_hi = static_cast<std::uint16_t>(d);
      }
    }
    scratch.moves[k] = em;
  }

  /// Per-chunk profile tallies of the tiled sweep.
  struct TileCounts {
    std::uint64_t quads_scanned = 0;
    std::uint64_t quads_skipped = 0;
    std::uint64_t candidates = 0;
  };

  /// Semi-naive tiled a-square of root block `k` (see the file comment):
  /// one pass over the block's first operands folds each one's row
  /// candidates over its sub-root's `E` and its column candidates over
  /// its `F` edge snapshot into the accumulator tile, then the improved
  /// cells are written back in place. First operands and old values are
  /// read straight from the root's own block, which nothing else writes
  /// during the sweep and this tile writes only after its last read.
  /// Returns the number of cells improved. `Prof` additionally tallies the
  /// evaluated candidates and the targets that had any.
  template <bool Prof>
  std::uint64_t square_tile(std::size_t k, const EdgeScratch& snapshot,
                            TileScratch& tile, TileCounts& counts) {
    const std::size_t i = pairs_[k].i;
    const std::size_t len = pairs_[k].j - i;
    const std::size_t m = root_slacks(k);
    const std::size_t t = m + 1;  // tile stride: V[r][l] at r * t + l
    if (tile.best.size() < t * t) tile.best.resize(t * t, kInfinity);
    if constexpr (Prof) {
      if (tile.touched.size() < t * t) tile.touched.resize(t * t, 0);
    }
    Cost* const best = tile.best.data();
    std::uint8_t* const touched = tile.touched.data();
    // Block-relative: V[r][l] sits at slack_offset(r + l) + l.
    Cost* const cells = pw_.raw_cells() + root_blocks_[k].begin;
    std::uint8_t* const moved = moved_.data() + root_blocks_[k].begin;
    const Cost* const edges = snapshot.edges.data();
    const EdgeMoves* const moves = snapshot.moves.data();

    // First operand V[o-l][l], at block slot `at`, reads sub-root
    // (i+l, j-(o-l)): row target V[o-l][l+d] adds E[d], column target
    // V[o-l+d][l] adds F[d], for d = 1 .. m-o. Slack-m cells have no
    // targets, and the identity V[0][0] is a provable no-op.
    std::size_t at = 0;
    for (std::size_t o = 1; o < m; ++o) {
      const std::size_t span = m - o;
      const std::size_t sub0 = pairs_offset_by_length_[len - o] + i;
      for (std::size_t l = 0; l <= o; ++l, ++at) {
        const Cost a = cells[at];
        if (!is_finite(a)) continue;
        const std::size_t sub = sub0 + l;
        std::size_t e_lo = 1, e_hi = span, f_lo = 1, f_hi = span;
        if (moved[at] == 0) {
          const EdgeMoves em = moves[sub];
          e_lo = em.e_lo;
          e_hi = std::min<std::size_t>(em.e_hi, span);
          f_lo = em.f_lo;
          f_hi = std::min<std::size_t>(em.f_hi, span);
        }
        const Cost* const e = edges + sub * 2 * edge_stride_;
        const Cost* const f = e + edge_stride_;
        Cost* const out = best + (o - l) * t + l;
        for (std::size_t d = e_lo; d <= e_hi; ++d) {
          out[d] = std::min(out[d], a + e[d]);
        }
        for (std::size_t d = f_lo; d <= f_hi; ++d) {
          out[d * t] = std::min(out[d * t], a + f[d]);
        }
        if constexpr (Prof) {
          std::uint8_t* const hit = touched + (o - l) * t + l;
          for (std::size_t d = e_lo; d <= e_hi; ++d, ++counts.candidates) {
            hit[d] = 1;
          }
          for (std::size_t d = f_lo; d <= f_hi; ++d, ++counts.candidates) {
            hit[d * t] = 1;
          }
        }
      }
    }

    // Write-back: this root's cells, moved bytes and flags have no other
    // writer in the sweep, and no other tile reads them.
    std::uint64_t improved = 0;
    at = 0;
    for (std::size_t s = 1; s <= m; ++s) {
      for (std::size_t l = 0; l <= s; ++l, ++at) {
        const std::size_t tv = (s - l) * t + l;
        const bool better = best[tv] < cells[at];
        if (better) {
          cells[at] = best[tv];
          ++improved;
        }
        best[tv] = kInfinity;
        moved[at] = better ? 1 : 0;
        if constexpr (Prof) {
          if (touched[tv] != 0) {
            ++counts.quads_scanned;
            touched[tv] = 0;
          } else {
            ++counts.quads_skipped;
          }
        }
      }
    }
    if (improved > 0) {
      mark_root_dirty(k);
      pw_root_moved_[k] = 1;
    }
    return improved;
  }

  /// HLV candidates of a root block with `m` slacks in a full sweep,
  /// identities excluded: sum over slacks `s` of `(s+1) s`, less the `2m`
  /// identity candidates of the edge targets.
  [[nodiscard]] static std::uint64_t block_candidates(std::size_t m) {
    return static_cast<std::uint64_t>(m) * (m + 1) * (m + 2) / 3 - 2 * m;
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
  /// as `pebble_scan`, but the gaps arrive as the layout's `PwGapRun`s —
  /// consecutive `pw` cells paired with a `w` slot advanced by a fixed
  /// stride — so the per-read identity / slack / child-gap branching of
  /// the general `get` vanishes from the inner loop.
  Cost pebble_scan_fast(std::size_t i, std::size_t j, Cost old_value) const {
    Cost best = old_value;
    const Cost* wraw = w_.data();
    pw_.for_each_gap_run(i, j, [&](const PwGapRun& run) {
      const Cost* wp = wraw + run.w_slot;
      for (std::size_t k = 0; k < run.count; ++k) {
        const Cost a = run.cell[k];
        const Cost wv = *wp;
        wp += run.w_step;
        if (is_finite(a)) best = sat_min(best, sat_add(a, wv));
      }
    });
    return best;
  }

  // ---- Frontier bookkeeping ----------------------------------------------

  /// Records that some `pw` entry of root `pair_idx` moved, for the
  /// pebble skip (`root_dirty_`, sticky until rescanned; absent when the
  /// skip is off). Every fast-path write flags it, in band or not. Each
  /// sweep gives the flag one writer, the root's own processor:
  /// `activate_root(k)`, then `square_tile(k)`, then pebble pair `k`,
  /// ordered by the fork-joins between the sweeps.
  void mark_root_dirty(std::size_t pair_idx) {
    if (pebble_skip_) root_dirty_[pair_idx] = 1;
  }

  /// Buckets the moved `w` entries `(a,b)` by counting sorts, O(|frontier|
  /// + n): row `a` lists their `b`, ascending, in `row_b_[row_start_[a] ..
  /// row_start_[a+1])`, column `b` their `a` likewise in `col_a_`. Returns
  /// the frontier's activate sites: `a` left and `n - b` right per entry.
  std::uint64_t bucket_frontier() {
    std::fill(row_start_.begin(), row_start_.end(), 0u);
    std::fill(col_start_.begin(), col_start_.end(), 0u);
    std::uint64_t sites = 0;
    for (const Pair e : frontier_) {
      ++row_start_[e.i + 1];
      ++col_start_[e.j + 1];
      sites += e.i + (n_ - e.j);
    }
    std::partial_sum(row_start_.begin(), row_start_.end(), row_start_.begin());
    std::partial_sum(col_start_.begin(), col_start_.end(), col_start_.begin());
    row_b_.resize(frontier_.size());
    col_a_.resize(frontier_.size());
    bucket_at_.assign(col_start_.begin(), col_start_.end());
    for (const Pair e : frontier_) col_a_[bucket_at_[e.j]++] = e.i;
    // Walking one side's buckets in key order fills the other's sorted.
    const auto regroup = [&](const auto& from_start, const auto& from,
                             const auto& to_start, auto& to) {
      bucket_at_.assign(to_start.begin(), to_start.end());
      for (std::uint32_t x = 0; x <= n_; ++x) {
        for (std::size_t at = from_start[x]; at < from_start[x + 1]; ++at) {
          to[bucket_at_[from[at]]++] = x;
        }
      }
    };
    regroup(col_start_, col_a_, row_start_, row_b_);
    regroup(row_start_, row_b_, col_start_, col_a_);
    return sites;
  }

  /// Builds the 2-D containment counts of the last pebble's moved
  /// `w` entries: `contained_(i,j)` = #moved `(p,q)` with `i<=p<q<=j`.
  /// A row-prefix pass then a column-suffix pass make `contained_(i,j)`
  /// the dominance count #moved `(a,b)` with `a >= i, b <= j`, which is
  /// the containment count at every cell since marks only exist at
  /// `a < b`.
  void build_contained_counts() {
    const PhaseTimer timer = phase_timer(&StepProfile::mark_grid_ns);
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    const std::size_t stride = n_ + 1;
    std::fill(w_moved_.begin(), w_moved_.end(), std::uint8_t{0});
    for (const Pair e : frontier_) w_moved_[e.i * stride + e.j] = 1;
    for (std::size_t a = 0; a <= n_; ++a) {
      std::uint32_t run = 0;
      for (std::size_t j = 0; j <= n_; ++j) {
        run += w_moved_[a * stride + j];
        contained_[a * stride + j] = run;
      }
    }
    for (std::size_t i = n_; i-- > 0;) {
      for (std::size_t j = 0; j <= n_; ++j) {
        contained_[i * stride + j] += contained_[(i + 1) * stride + j];
      }
    }
  }

  /// Decides which roots the next tiled sweep visits (see the file
  /// comment) from the snapshot's edge ranges, and clears `pw_root_moved_`,
  /// which the sweep's own write-backs then set afresh for the next
  /// square. `reach_[k]` is the least `o + d` over the moved edge cells,
  /// at slack `d`, of root `k`'s sub-roots at offset `o` (itself at
  /// `o = 0`), saturated at `kNoReach`; length-major order computes each
  /// root after its two children `(i+1, j)` and `(i, j-1)`.
  void build_root_visits(const EdgeScratch& snapshot) {
    const PhaseTimer timer = phase_timer(&StepProfile::mark_grid_ns);
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    for (std::size_t len = 2; len <= n_; ++len) {
      const std::size_t m = std::min(pw_.max_slack(), len - 1);
      const std::size_t first = pairs_offset_by_length_[len];
      const std::size_t children = pairs_offset_by_length_[len - 1];
      for (std::size_t k = first, i = 0; i + len <= n_; ++k, ++i) {
        // Sub-roots of length 1 hold no cells.
        const std::uint32_t inner =
            len == 2 ? kNoReach
                     : std::min(reach_[children + i],
                                reach_[children + i + 1]) + 1u;
        const EdgeMoves em = snapshot.moves[k];
        reach_[k] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
            {inner, em.e_lo, em.f_lo, kNoReach}));
        visit_[k] = pw_root_moved_[k] != 0 || inner <= m;
        pw_root_moved_[k] = 0;
      }
    }
  }

  /// True iff some moved `w(p,q)` is a proper sub-interval of `(i,j)` —
  /// i.e. a (potential) stored gap whose weight the last pebble changed.
  [[nodiscard]] bool gap_w_moved(std::size_t i, std::size_t j) const {
    const std::size_t at = i * (n_ + 1) + j;
    return contained_[at] > w_moved_[at];
  }

  // ---- Step drivers ------------------------------------------------------

  /// a-activate, one processor per root: a root's cells, moved bytes,
  /// flags and edge snapshot slots have one writer.
  std::uint64_t run_activate() {
    const PhaseTimer timer = phase_timer(&StepProfile::activate_ns);
    std::atomic<std::uint64_t> changed{0};
    if (oracle_) {
      machine_.step(
          "a-activate", static_cast<std::int64_t>(pairs_.size()),
          [&](std::int64_t idx) -> std::uint64_t {
            std::uint64_t ops = 0;
            const std::uint64_t local =
                activate_pair(static_cast<std::size_t>(idx), ops);
            if (local > 0) {
              changed.fetch_add(local, std::memory_order_relaxed);
            }
            return ops;
          });
      return changed.load();
    }
    const std::uint64_t frontier_sites = bucket_frontier();
    if (prof_ != nullptr) {
      prof_->frontier_sites = frontier_sites;
      prof_->total_split_sites = shape_->total_split_sites;
      prof_->activate_used_frontier = true;
    }
    EdgeScratch& snapshot = edge_scratch(root_blocks_.size(), edge_stride_);
    machine_.run_blocks(
        static_cast<std::int64_t>(pairs_.size()),
        [&](std::int64_t lo, std::int64_t hi) {
          std::uint64_t block_changed = 0;
          for (std::size_t k = static_cast<std::size_t>(lo);
               k < static_cast<std::size_t>(hi); ++k) {
            block_changed += activate_root(k);
            snapshot_edges(k, snapshot);
          }
          if (block_changed > 0) {
            changed.fetch_add(block_changed, std::memory_order_relaxed);
          }
        });
    return changed.load();
  }

  std::uint64_t run_square() {
    if (!oracle_) return run_square_tiled();
    // Oracle: one logical processor per in-band slot, targeting its
    // quadruple. Reads see pre-step state because all writes are deferred
    // to the post-barrier apply below.
    const BandedPwLayout& geometry = pw_.layout();
    pw_log_count_.store(0, std::memory_order_relaxed);
    {
      const PhaseTimer timer = phase_timer(&StepProfile::square_ns);
      machine_.step(
          "a-square", static_cast<std::int64_t>(geometry.band_cell_count()),
          [&](std::int64_t idx) -> std::uint64_t {
            const Quad t =
                square_target(geometry, static_cast<std::size_t>(idx));
            const Cost old_value = pw_.get(t.i, t.j, t.p, t.q);
            std::uint64_t ops = 0;
            const Cost best = square_scan(t, old_value, ops);
            if (best < old_value) {
              pw_log_[pw_log_count_.fetch_add(1, std::memory_order_relaxed)] =
                  Delta{static_cast<std::uint32_t>(idx), best};
              machine_.note_write(pw_.address(t.i, t.j, t.p, t.q));
            }
            return ops;
          });
    }
    // Apply after the barrier: one write per improved cell, all distinct.
    const PhaseTimer timer = phase_timer(&StepProfile::log_apply_ns);
    const std::size_t logged = pw_log_count_.load(std::memory_order_relaxed);
    if (prof_ != nullptr) prof_->pw_log_entries = logged;
    Cost* raw = pw_.raw_cells();
    for (std::size_t k = 0; k < logged; ++k) {
      raw[pw_log_[k].index] = pw_log_[k].value;
    }
    return logged;
  }

  /// Fast-path HLV a-square: one semi-naive tile per root that
  /// `build_root_visits` selects, written back in place (see the file
  /// comment). Every square, the first included, skips: before any
  /// square, a cell that no write has moved holds `kInfinity`.
  std::uint64_t run_square_tiled() {
    // This step's a-activate snapshotted the edges on this thread.
    const EdgeScratch& snapshot =
        edge_scratch(root_blocks_.size(), edge_stride_);
    build_root_visits(snapshot);
    const bool prof = prof_ != nullptr;
    if (prof) prof_->square_quads_total = pw_.layout().band_cell_count();
    const PhaseTimer timer = phase_timer(&StepProfile::square_ns);
    const std::size_t roots = root_blocks_.size();
    std::atomic<std::uint64_t> changed{0};
    machine_.run_blocks(
        static_cast<std::int64_t>(roots),
        [&](std::int64_t lo, std::int64_t hi) {
          TileScratch& tile = tile_scratch();
          TileCounts counts;
          std::uint64_t block_changed = 0;
          std::uint64_t blocks_scanned = 0, blocks_skipped = 0;
          std::uint64_t quads_block_skipped = 0, candidates_total = 0;
          for (std::size_t k = static_cast<std::size_t>(lo);
               k < static_cast<std::size_t>(hi); ++k) {
            const RootBlock& rb = root_blocks_[k];
            if (prof) candidates_total += block_candidates(root_slacks(k));
            if (visit_[k] == 0) {
              if (prof) {
                ++blocks_skipped;
                quads_block_skipped += rb.end - rb.begin;
              }
              continue;
            }
            if (prof) {
              ++blocks_scanned;
              block_changed += square_tile<true>(k, snapshot, tile, counts);
            } else {
              block_changed += square_tile<false>(k, snapshot, tile, counts);
            }
          }
          if (block_changed > 0) {
            changed.fetch_add(block_changed, std::memory_order_relaxed);
          }
          if (prof) {
            prof_blocks_scanned_.fetch_add(blocks_scanned,
                                           std::memory_order_relaxed);
            prof_blocks_skipped_.fetch_add(blocks_skipped,
                                           std::memory_order_relaxed);
            prof_quads_scanned_.fetch_add(counts.quads_scanned,
                                          std::memory_order_relaxed);
            prof_quads_skipped_.fetch_add(counts.quads_skipped,
                                          std::memory_order_relaxed);
            prof_quads_block_skipped_.fetch_add(quads_block_skipped,
                                                std::memory_order_relaxed);
            prof_candidates_evaluated_.fetch_add(counts.candidates,
                                                 std::memory_order_relaxed);
            prof_candidates_total_.fetch_add(candidates_total,
                                             std::memory_order_relaxed);
          }
        });
    return changed.load(std::memory_order_relaxed);
  }

  std::uint64_t run_pebble() {
    const auto [w_begin, w_end] = pebble_window();
    if (w_begin == w_end) {
      frontier_.clear();
      return 0;
    }
    w_log_count_.store(0, std::memory_order_relaxed);
    if (oracle_) {
      const PhaseTimer timer = phase_timer(&StepProfile::pebble_ns);
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
      const bool skip = pebble_skip_;
      if (skip) build_contained_counts();
      const bool prof = prof_ != nullptr;
      if (prof) prof_->pebble_pairs_total += w_end - w_begin;
      const PhaseTimer timer = phase_timer(&StepProfile::pebble_ns);
      machine_.run_blocks(
          static_cast<std::int64_t>(w_end - w_begin),
          [&, w_begin = w_begin](std::int64_t lo, std::int64_t hi) {
            std::uint64_t pairs_scanned = 0, pairs_skipped = 0;
            for (std::int64_t idx = lo; idx < hi; ++idx) {
              const std::size_t at = w_begin + static_cast<std::size_t>(idx);
              const Pair pr = pairs_[at];
              if (skip) {
                // Skip unless some input moved: a pw entry of this root
                // (activate/square this iteration, sticky until rescanned)
                // or the w of a contained gap (last pebble).
                const bool pw_moved = root_dirty_[at] != 0;
                if (!pw_moved && !gap_w_moved(pr.i, pr.j)) {
                  if (prof) ++pairs_skipped;
                  continue;
                }
                root_dirty_[at] = 0;
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
    const PhaseTimer timer = phase_timer(&StepProfile::log_apply_ns);
    const std::size_t logged = w_log_count_.load(std::memory_order_relaxed);
    if (prof_ != nullptr) prof_->w_log_entries = logged;
    frontier_.clear();
    Cost* wraw = w_.data();
    for (std::size_t k = 0; k < logged; ++k) {
      const Delta rec = w_log_[k];
      const Pair pr = pairs_[rec.index];
      wraw[pr.i * (n_ + 1) + pr.j] = rec.value;
      if (!oracle_) frontier_.push_back(pr);
    }
    return logged;
  }

  // ---- Per-step profiling (options_.profile) -----------------------------
  // Parallel sweep lambdas accumulate block-local counters and flush them
  // to these relaxed atomics; `end_profile` loads the totals into the
  // iteration's StepProfile after the last barrier. Serial call sites
  // (the frontier bucketing, the skip-test builds, the
  // post-barrier log totals) write `prof_` directly.

  /// Times the enclosing scope into `prof_->*field` when profiling; reads
  /// no clock otherwise.
  [[nodiscard]] PhaseTimer phase_timer(
      std::uint64_t StepProfile::*field) const {
    return PhaseTimer(prof_ != nullptr ? &(prof_->*field) : nullptr);
  }

  void begin_profile() {
    profiles_.emplace_back();
    prof_ = &profiles_.back();
    prof_->iteration = iteration_;
    prof_blocks_scanned_.store(0, std::memory_order_relaxed);
    prof_blocks_skipped_.store(0, std::memory_order_relaxed);
    prof_quads_scanned_.store(0, std::memory_order_relaxed);
    prof_quads_skipped_.store(0, std::memory_order_relaxed);
    prof_quads_block_skipped_.store(0, std::memory_order_relaxed);
    prof_candidates_evaluated_.store(0, std::memory_order_relaxed);
    prof_candidates_total_.store(0, std::memory_order_relaxed);
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
    prof_->square_candidates_evaluated =
        prof_candidates_evaluated_.load(std::memory_order_relaxed);
    prof_->square_candidates_total =
        prof_candidates_total_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_scanned =
        prof_pairs_scanned_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_skipped =
        prof_pairs_skipped_.load(std::memory_order_relaxed);
    prof_ = nullptr;
  }

  std::shared_ptr<const EngineShape> shape_;
  const dp::Problem* problem_;
  SublinearOptions options_;
  pram::Machine& machine_;
  std::size_t n_;
  BandedPwTable pw_;
  support::Grid2D<Cost> w_;

  // Shape-owned geometry — immutable aliases into `*shape_`.
  const std::vector<Pair>& pairs_;
  const std::vector<std::size_t>& pairs_offset_by_length_;
  const std::vector<RootBlock>& root_blocks_;  ///< Per-root runs.

  // Slots per edge in the a-square edge snapshot: slack 1 .. min(B, n-1)
  // at its own index (slot 0 unused).
  std::size_t edge_stride_ = 0;

  // The one path flag: instrumented or Rytter runs the oracle's
  // `Machine::step` sweeps, anything else the fast path (file comment).
  bool oracle_ = false;

  // Write logs of the current step (see the file comment); `pw_log_` is
  // empty on the fast path, whose square is tiled.
  std::vector<Delta> pw_log_;
  std::vector<Delta> w_log_;
  std::atomic<std::size_t> pw_log_count_{0};
  std::atomic<std::size_t> w_log_count_{0};

  // Fast-path movement state, all empty on the oracle: the frontier,
  // moved bytes and per-root moved and visit state exist on every fast
  // path; the pebble skip's dirty flags and moved-`w` grids need the
  // per-iteration pebble (`pebble_skip_`).
  bool pebble_skip_ = false;
  std::vector<std::uint8_t> pw_root_moved_;
  std::vector<Pair> frontier_;  ///< w entries moved by the last pebble.
  // The frontier by row and by column, and a cursor (`bucket_frontier`).
  std::vector<std::uint32_t> row_start_, row_b_, col_start_, col_a_;
  std::vector<std::uint32_t> bucket_at_;
  std::vector<std::uint8_t> root_dirty_;
  std::vector<std::uint8_t> w_moved_;
  std::vector<std::uint32_t> contained_;
  std::vector<std::uint8_t> moved_;  ///< Per in-band cell (see above).
  std::vector<std::uint16_t> reach_;  ///< Per root (`build_root_visits`).
  std::vector<std::uint8_t> visit_;   ///< Per root: the sweep visits it.

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
  std::atomic<std::uint64_t> prof_candidates_evaluated_{0};
  std::atomic<std::uint64_t> prof_candidates_total_{0};
  std::atomic<std::uint64_t> prof_pairs_scanned_{0};
  std::atomic<std::uint64_t> prof_pairs_skipped_{0};

  std::size_t iteration_ = 0;
};

}  // namespace subdp::core::detail
