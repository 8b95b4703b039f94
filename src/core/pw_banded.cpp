#include "core/pw_banded.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace subdp::core {

void BandedPwLayout::init_geometry(std::vector<std::size_t>& length_base,
                                   std::vector<std::size_t>& tetra_base) {
  SUBDP_REQUIRE(n_ >= 1, "need at least one object");
  SUBDP_REQUIRE(band_ >= 1, "band width must be at least 1");

  length_base.assign(n_ + 2, 0);
  std::size_t total = 0;
  for (std::size_t len = 2; len <= n_; ++len) {
    length_base[len] = total;
    total = checked_size_add(total,
                             checked_size_mul(n_ - len + 1, block_size(len)));
  }
  length_base[n_ + 1] = total;
  band_cell_count_ = total;

  // Child-gap side tables: tetrahedral addressing over the triples
  // (i, k, j) with i < k < j <= n — C(n+1, 3) cells per family instead of
  // a flat (n+1)^3 cube (~6x smaller), still O(1) access. Only slacks past
  // the band need them: at band + 1 >= n every gap is in band, so the
  // stores (and their offset table) stay empty.
  if (band_ >= n_ - 1) return;
  tetra_base.assign(n_ + 1, 0);
  std::size_t tetra_total = 0;
  for (std::size_t i = 0; i + 2 <= n_; ++i) {
    tetra_base[i] = tetra_total;
    tetra_total += (n_ - i) * (n_ - i - 1) / 2;
  }
  child_cell_count_ = tetra_total;
  for (std::size_t len = band_ + 2; len <= n_; ++len) {
    // Out-of-band slacks s in (B, len-1]: two child gaps per slack.
    out_of_band_child_count_ += (n_ - len + 1) * 2 * (len - 1 - band_);
  }
}

BandedPwLayout::BandedPwLayout(std::size_t n, std::size_t band)
    : n_(n), band_(band) {
  std::vector<std::size_t> length_base;
  std::vector<std::size_t> tetra_base;
  init_geometry(length_base, tetra_base);
  length_base_ = std::move(length_base);
  tetra_base_ = std::move(tetra_base);

  std::vector<Quad> entries;
  entries.reserve(band_cell_count_);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len;
      const std::size_t max_s = len - 1 < band_ ? len - 1 : band_;
      for (std::size_t s = 1; s <= max_s; ++s) {
        const std::size_t gap_len = len - s;
        for (std::size_t o = 0; o <= s; ++o) {
          entries.push_back(Quad{static_cast<std::uint16_t>(i),
                                 static_cast<std::uint16_t>(j),
                                 static_cast<std::uint16_t>(i + o),
                                 static_cast<std::uint16_t>(i + o +
                                                            gap_len)});
        }
      }
    }
  }
  SUBDP_ASSERT(entries.size() == band_cell_count_);
  entries_ = std::move(entries);
}

BandedPwLayout::BandedPwLayout(std::size_t n, std::size_t band,
                               ShapeArray<std::size_t> length_base,
                               ShapeArray<std::size_t> tetra_base,
                               ShapeArray<Quad> entries)
    : n_(n), band_(band) {
  std::vector<std::size_t> expected_length_base;
  std::vector<std::size_t> expected_tetra_base;
  init_geometry(expected_length_base, expected_tetra_base);
  SUBDP_REQUIRE(length_base.size() == expected_length_base.size() &&
                    std::equal(length_base.begin(), length_base.end(),
                               expected_length_base.begin()),
                "banded snapshot offset table disagrees with (n, band)");
  SUBDP_REQUIRE(tetra_base.size() == expected_tetra_base.size() &&
                    std::equal(tetra_base.begin(), tetra_base.end(),
                               expected_tetra_base.begin()),
                "banded snapshot child-store offsets disagree with (n, band)");
  SUBDP_REQUIRE(entries.size() == band_cell_count_,
                "banded snapshot entry count disagrees with (n, band)");
  length_base_ = std::move(length_base);
  tetra_base_ = std::move(tetra_base);
  entries_ = std::move(entries);
}

BandedPwTable::BandedPwTable(std::shared_ptr<const BandedPwLayout> layout)
    : layout_(std::move(layout)),
      n_(layout_->n()),
      band_(layout_->band()),
      cells_(layout_->band_cell_count(), kInfinity),
      left_child_cells_(layout_->child_cell_count(), kInfinity),
      right_child_cells_(layout_->child_cell_count(), kInfinity) {}

void BandedPwTable::reset() {
  cells_.assign(cells_.size(), kInfinity);
  left_child_cells_.assign(left_child_cells_.size(), kInfinity);
  right_child_cells_.assign(right_child_cells_.size(), kInfinity);
}

}  // namespace subdp::core
