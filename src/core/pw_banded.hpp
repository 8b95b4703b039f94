#pragma once

/// \file pw_banded.hpp
/// Slack-banded partial-weight table: the one `pw'` layout, serving both
/// the Sec. 5 processor reduction (`B = 2*ceil(sqrt n)`) and, at `B = n`,
/// the Sec. 2 algorithm's every-slack table.
///
/// Section 5 observes that the square step only ever needs partial weights
/// whose *slack* `s = (j-i) - (q-p)` — the number of leaves of the root
/// interval missing from the gap interval — is at most `B = 2*ceil(sqrt n)`:
/// the Fig. 1 chain decomposition peels at most `2*sqrt(n)` leaves off a
/// subtree before reaching a node `y` whose children are both small.
/// Storing only those entries shrinks the square step's input from O(n^4)
/// to O(n^2 B^2) cells, and the admissible split positions `r`/`s` per
/// entry to an O(B) window.
///
/// One subtlety the paper glosses: the terminal node `y` of the chain has
/// *both* children of size up to `i^2`, so pebbling `y` uses the
/// activate-form entries `pw(y, child)` whose slack is the sibling's
/// size — potentially far above `B`. The paper's own pebble-step bound
/// (O(n^{1.5}) pairs x O(n^2) gap candidates) implicitly keeps those
/// entries available; we store them in a dedicated child-gap side table
/// (written by a-activate, read by a-pebble and as square operands) —
/// without it, instances whose optimal trees contain balanced splits wider
/// than `B` converge to a wrong fixed point, which
/// `test_core_sublinear.cpp` demonstrates via the band-sensitivity tests.
///
/// The side store holds exactly the out-of-band child gaps: root `(i,j)`
/// of length `L` has `c = max(0, L - 1 - B)` of them per family — left
/// gaps `(i,k)` and right gaps `(k,j)` at slacks `B+1 .. L-1` — stored
/// as one contiguous block of `2c` cells (left family, then right, each
/// by ascending slack). Blocks run by root length, then `i`, from a
/// per-length base, so a root's child gaps are two unit-stride runs
/// and nothing in band is stored twice.
///
/// Layout of the banded part: for root length `L` and left end `i`, the
/// block holds slacks `s = 1 .. min(B, L-1)` contiguously, each with its
/// `s + 1` gap offsets `o = p - i ∈ [0, s]`; all offsets have closed
/// forms, so addressing is O(1).
///
/// At `B >= n - 1` every slack is in band: the layout then stores the
/// Sec. 2 algorithm's full table (`PwVariant::kDense` is this layout at
/// `B = n`), `sum_L (n-L+1) (L(L+1)/2 - 1)` cells with no identity slot,
/// and the child-gap side store is empty, since no child gap can leave
/// the band.
///
/// Plan/instance split: everything above is a function of `(n, B)` only,
/// so it lives in an immutable `BandedPwLayout` — two O(n) offset tables
/// and the cell counts. Nothing is tabulated per cell: a slot's
/// quadruple is recovered in closed form (`quad_at`), so a layout builds
/// in O(n). A `BandedPwTable` binds a (shared) layout to its own
/// mutable cell vectors; `SolvePlan` builds the layout once per shape and
/// every `SolveSession` table of that shape shares it, so per-instance
/// setup is a fill, not a rebuild.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pw_layout.hpp"
#include "core/quad.hpp"
#include "support/cost.hpp"

namespace subdp::core {

/// Immutable banded-layout geometry for one `(n, band)` shape: offset
/// tables and cell counts. Instances share one layout via `shared_ptr`;
/// only cell values are per-instance.
class BandedPwLayout {
 public:
  BandedPwLayout(std::size_t n, std::size_t band);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t band() const noexcept { return band_; }

  /// Banded (square-target) cells: the slots `quad_at` accepts.
  [[nodiscard]] std::size_t band_cell_count() const noexcept {
    return band_cell_count_;
  }

  /// Cells of the child-gap side store (both families), summed from the
  /// per-length bases: 0 when `band + 1 >= n` (no child gap leaves the
  /// band).
  [[nodiscard]] std::size_t child_cell_count() const noexcept {
    return child_cell_count_;
  }

  /// Child gaps whose slack exceeds the band, in closed form: with `M =
  /// max(0, n - 1 - B)`, `sum_m 2 m (M + 1 - m) = M (M+1) (M+2) / 3`.
  /// The side store holds exactly these, so it equals
  /// `child_cell_count()`.
  [[nodiscard]] std::size_t out_of_band_child_count() const noexcept {
    const std::size_t m = n_ > band_ + 1 ? n_ - 1 - band_ : 0;
    return m * (m + 1) * (m + 2) / 3;
  }

  /// Total cells a table of this shape allocates (both stores).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return band_cell_count_ + child_cell_count_;
  }

  /// Storage slot of an in-band square-step entry (index into a table's
  /// `raw_cells`); the inverse of `quad_at`.
  [[nodiscard]] std::size_t entry_slot(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
    return flat(i, j, p, (j - i) - (q - p));
  }

  /// The square-step target (in-band quadruple) stored in `slot <
  /// band_cell_count()`, the inverse of `entry_slot`. Slots run by root
  /// length ascending, then `i`, then slack, then gap offset, so the
  /// length is a binary search over `length_base`, `i` a division by
  /// `block_size`, and the slack an inverted `slack_offset`: O(log n).
  [[nodiscard]] Quad quad_at(std::size_t slot) const;

  /// The quadruple of the slot after `t`'s (`t` must not be the last):
  /// `quad_at(k + 1)` from `quad_at(k)` in O(1), for sweeps over slots.
  [[nodiscard]] Quad next_quad(Quad t) const {
    const std::size_t len = t.j - t.i;
    const std::size_t s = len - (t.q - t.p);
    if (static_cast<std::size_t>(t.p - t.i) < s) {  // next gap offset
      ++t.p;
      ++t.q;
    } else if (s < band_ && s + 1 < len) {  // next slack
      t.p = t.i;
      t.q = static_cast<std::uint16_t>(t.j - s - 1);
    } else if (t.j < n_) {  // next root of this length
      ++t.i;
      ++t.j;
      t.p = t.i;
      t.q = static_cast<std::uint16_t>(t.j - 1);
    } else {  // first root of the next length
      t = Quad{0, static_cast<std::uint16_t>(len + 1), 0,
               static_cast<std::uint16_t>(len)};
    }
    return t;
  }

  /// Cells for one `(L, i)` block: sum over s of (s+1) slots.
  [[nodiscard]] std::size_t block_size(std::size_t len) const {
    const std::size_t m = len - 1 < band_ ? len - 1 : band_;
    return m * (m + 3) / 2;
  }

  /// Offset of slack `s >= 1` inside a root's block:
  /// `sum_{s'=1..s-1} (s'+1)`; its gap offsets `p - i` follow in order.
  [[nodiscard]] static constexpr std::size_t slack_offset(std::size_t s) {
    return (s - 1) * (s + 2) / 2;
  }

  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j, std::size_t p,
                                 std::size_t s) const {
    const std::size_t len = j - i;
    SUBDP_ASSERT(len >= 2 && s >= 1 && s <= band_ && s <= len - 1);
    SUBDP_ASSERT(p >= i && p - i <= s);
    return length_base_[len] + (i * block_size(len)) + slack_offset(s) +
           (p - i);
  }

  /// First cell of root `(i,j)`'s child block: its `c = L - 1 - B`
  /// left-family cells, then its `c` right-family cells, each family by
  /// ascending slack. Only roots with `L >= B + 2` have one.
  [[nodiscard]] std::size_t child_block(std::size_t i, std::size_t j) const {
    const std::size_t len = j - i;
    SUBDP_ASSERT(len >= band_ + 2 && j <= n_);
    return child_base_[len] + i * 2 * (len - 1 - band_);
  }

  /// Cell of the left child gap `(i,k)` of root `(i,j)`, at slack `j - k`
  /// past the band.
  [[nodiscard]] std::size_t left_child_flat(std::size_t i, std::size_t j,
                                            std::size_t k) const {
    SUBDP_ASSERT(i < k && k + band_ < j);
    return child_block(i, j) + (j - k - band_ - 1);
  }

  /// Cell of the right child gap `(k,j)` of root `(i,j)`, at slack
  /// `k - i` past the band. For long roots both families are out of band
  /// at the same `k`, so they must not share cells.
  [[nodiscard]] std::size_t right_child_flat(std::size_t i, std::size_t j,
                                             std::size_t k) const {
    SUBDP_ASSERT(i + band_ < k && k < j);
    return child_block(i, j) + (j - i - 1 - band_) + (k - i - band_ - 1);
  }

 private:
  std::size_t n_;
  std::size_t band_;
  std::size_t band_cell_count_ = 0;
  std::size_t child_cell_count_ = 0;
  std::vector<std::size_t> length_base_;  ///< Cumulative block offsets.
  /// Cumulative child-block offsets; empty when the side store is.
  std::vector<std::size_t> child_base_;
};

/// Banded `pw'` storage; in-band entries plus child-gap entries of any
/// slack. Reads of anything else yield `kInfinity`.
class BandedPwTable {
 public:
  /// `band` = maximal stored slack `B >= 1` for general gaps. Builds a
  /// private layout (one-shot use; plans share layouts instead).
  BandedPwTable(std::size_t n, std::size_t band)
      : BandedPwTable(std::make_shared<const BandedPwLayout>(n, band)) {}

  /// Binds a shared layout; allocates only this instance's cells.
  explicit BandedPwTable(std::shared_ptr<const BandedPwLayout> layout);

  [[nodiscard]] const BandedPwLayout& layout() const noexcept {
    return *layout_;
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// The slack bound `B` (square-step candidates stay within it).
  [[nodiscard]] std::size_t max_slack() const noexcept { return band_; }

  /// Reads `pw'(i,j,p,q)`: 0 for identity gaps; the banded cell when the
  /// slack is within the band; the child-gap cell when the gap shares an
  /// endpoint with the root (`p == i` or `q == j`); `kInfinity` otherwise.
  [[nodiscard]] Cost get(std::size_t i, std::size_t j, std::size_t p,
                         std::size_t q) const {
    SUBDP_ASSERT(i <= p && p < q && q <= j && j <= n_);
    if (p == i && q == j) return 0;
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) return cells_[layout_->flat(i, j, p, s)];
    if (p == i) return child_cells_[layout_->left_child_flat(i, j, q)];
    if (q == j) return child_cells_[layout_->right_child_flat(i, j, p)];
    return kInfinity;
  }

  /// Writes a stored entry; `stores(i,j,p,q)` must hold.
  void set(std::size_t i, std::size_t j, std::size_t p, std::size_t q,
           Cost value) {
    SUBDP_ASSERT(stores(i, j, p, q));
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) {
      cells_[layout_->flat(i, j, p, s)] = value;
    } else if (p == i) {
      child_cells_[layout_->left_child_flat(i, j, q)] = value;
    } else {
      child_cells_[layout_->right_child_flat(i, j, p)] = value;
    }
  }

  /// True iff the entry is materialised: in band, or a child gap.
  [[nodiscard]] bool stores(std::size_t i, std::size_t j, std::size_t p,
                            std::size_t q) const {
    if (!(i <= p && p < q && q <= j)) return false;
    if (p == i && q == j) return false;
    if ((j - i) - (q - p) <= band_) return true;
    return p == i || q == j;
  }

  /// Linearised address for CREW-conformance reporting.
  [[nodiscard]] std::uint64_t address(std::size_t i, std::size_t j,
                                      std::size_t p, std::size_t q) const {
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) {
      return static_cast<std::uint64_t>(layout_->flat(i, j, p, s));
    }
    const std::size_t child = p == i ? layout_->left_child_flat(i, j, q)
                                     : layout_->right_child_flat(i, j, p);
    return kChildTag | static_cast<std::uint64_t>(child);
  }

  /// Direct in-band cell storage (write-log applies, the fast a-activate
  /// and the tiled square).
  [[nodiscard]] Cost* raw_cells() noexcept { return cells_.data(); }
  [[nodiscard]] const Cost* raw_cells() const noexcept {
    return cells_.data();
  }

  /// Allocated cells across both stores (E7 memory metric).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size() + child_cells_.size();
  }

  /// Meaningful stored entries: banded cells plus out-of-band child gaps.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return cells_.size() + layout_->out_of_band_child_count();
  }

  /// Enumerates the stored gaps `(p,q)` of root `(i,j)` (pebble step):
  /// all in-band gaps, plus the out-of-band child gaps.
  template <class Fn>
  void for_each_gap(std::size_t i, std::size_t j, Fn&& fn) const {
    const std::size_t len = j - i;
    const std::size_t max_s = len - 1 < band_ ? len - 1 : band_;
    for (std::size_t s = 1; s <= max_s; ++s) {
      const std::size_t gap_len = len - s;
      for (std::size_t o = 0; o <= s; ++o) {
        fn(i + o, i + o + gap_len);
      }
    }
    for (std::size_t s = band_ + 1; s <= len - 1; ++s) {
      fn(i, j - s);      // left child gap (i, k) with slack s = j - k
      fn(i + s, j);      // right child gap (k, j) with slack s = k - i
    }
  }

  /// Enumerates the stored gaps of root `(i,j)` as unit-stride runs (the
  /// fast pebble scan's reader; same gap set as `for_each_gap`). The
  /// banded block of a root is one contiguous cell range — slack `s`
  /// holds offsets `o = p - i in [0, s]` at consecutive slots — so each
  /// slack becomes a run; the gaps `(i+o, i+o+len-s)` put the matching
  /// `w` slots on stride `n+2`. Past the band, the root's child block
  /// contributes one run per family, by ascending slack: left gaps
  /// `(i, k)` with `k` descending (`w` stride -1), then right gaps
  /// `(k, j)` with `k` ascending (`w` stride `n+1`).
  template <class Fn>
  void for_each_gap_run(std::size_t i, std::size_t j, Fn&& fn) const {
    const std::size_t len = j - i;
    const std::size_t stride = n_ + 1;
    const std::size_t max_s = len - 1 < band_ ? len - 1 : band_;
    const Cost* block = cells_.data() + layout_->flat(i, j, i, 1);
    std::size_t w0 = i * stride + (j - 1);  // gap (i, j-1): s = 1, o = 0
    for (std::size_t s = 1; s <= max_s; ++s) {
      fn(PwGapRun{block, w0, static_cast<std::ptrdiff_t>(stride + 1),
                  s + 1});
      block += s + 1;
      --w0;  // next slack starts at gap (i, j-s-1)
    }
    if (max_s >= len - 1) return;
    const std::size_t child_count = (len - 1) - band_;
    const Cost* left = child_cells_.data() + layout_->child_block(i, j);
    fn(PwGapRun{left, i * stride + (j - band_ - 1), -1, child_count});
    fn(PwGapRun{left + child_count, (i + band_ + 1) * stride + j,
                static_cast<std::ptrdiff_t>(stride), child_count});
  }

  /// Resets every stored entry to `kInfinity` (in place, no reallocation).
  void reset();

 private:
  static constexpr std::uint64_t kChildTag = std::uint64_t{1} << 60;

  std::shared_ptr<const BandedPwLayout> layout_;
  std::size_t n_;     ///< Cached from the layout (hot-path locality).
  std::size_t band_;  ///< Cached from the layout (hot-path locality).
  std::vector<Cost> cells_;
  std::vector<Cost> child_cells_;
};

}  // namespace subdp::core
