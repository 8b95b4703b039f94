#include "core/pw_banded.hpp"

#include <cmath>
#include <utility>

#include "support/assert.hpp"

namespace subdp::core {

BandedPwLayout::BandedPwLayout(std::size_t n, std::size_t band)
    : n_(n), band_(band) {
  SUBDP_REQUIRE(n_ >= 1, "need at least one object");
  SUBDP_REQUIRE(band_ >= 1, "band width must be at least 1");

  length_base_.assign(n_ + 2, 0);
  std::size_t total = 0;
  for (std::size_t len = 2; len <= n_; ++len) {
    length_base_[len] = total;
    total = checked_size_add(total,
                             checked_size_mul(n_ - len + 1, block_size(len)));
  }
  length_base_[n_ + 1] = total;
  band_cell_count_ = total;

  // Child-gap side store: `2 (L - 1 - B)` cells per root of length
  // `L >= B + 2`, exactly its out-of-band child gaps. At band + 1 >= n
  // every gap is in band, so the store (and its offset table) stay empty.
  if (band_ + 1 >= n_) return;
  child_base_.assign(n_ + 2, 0);
  std::size_t child_total = 0;
  for (std::size_t len = 2; len <= n_; ++len) {
    child_base_[len] = child_total;
    if (len >= band_ + 2) {
      child_total = checked_size_add(
          child_total,
          checked_size_mul(n_ - len + 1, 2 * (len - 1 - band_)));
    }
  }
  child_base_[n_ + 1] = child_total;
  child_cell_count_ = child_total;
}

Quad BandedPwLayout::quad_at(std::size_t slot) const {
  SUBDP_ASSERT(slot < band_cell_count_);
  // Every length 2..n owns a nonempty run, so `length_base_[2..n+1]` is
  // strictly increasing: the last base <= slot names the length. The
  // search is branch-free (the oracle calls this once per processor, and
  // a mispredicted probe costs more than the rest of the inversion).
  const std::size_t* base = length_base_.data() + 2;
  std::size_t lo = 0;
  for (std::size_t count = n_ - 1; count > 1;) {
    const std::size_t half = count / 2;
    lo = base[lo + half] <= slot ? lo + half : lo;
    count -= half;
  }
  const std::size_t len = lo + 2;
  const std::size_t block = block_size(len);
  const std::size_t rest = slot - length_base_[len];
  const std::size_t i = rest / block;
  const std::size_t in_block = rest % block;
  // slack_offset(s) = (s^2 + s - 2) / 2 <= in_block solves to
  // s = floor((sqrt(8 in_block + 9) - 1) / 2); the floating-point root
  // can be off by one either way, which one step per side corrects.
  std::size_t s = static_cast<std::size_t>(
      (std::sqrt(static_cast<double>(8 * in_block + 9)) - 1.0) / 2.0);
  if (slack_offset(s + 1) <= in_block) ++s;
  if (slack_offset(s) > in_block) --s;
  const std::size_t p = i + (in_block - slack_offset(s));
  return Quad{static_cast<std::uint16_t>(i),
              static_cast<std::uint16_t>(i + len),
              static_cast<std::uint16_t>(p),
              static_cast<std::uint16_t>(p + len - s)};
}

BandedPwTable::BandedPwTable(std::shared_ptr<const BandedPwLayout> layout)
    : layout_(std::move(layout)),
      n_(layout_->n()),
      band_(layout_->band()),
      cells_(layout_->band_cell_count(), kInfinity),
      child_cells_(layout_->child_cell_count(), kInfinity) {}

void BandedPwTable::reset() {
  cells_.assign(cells_.size(), kInfinity);
  child_cells_.assign(child_cells_.size(), kInfinity);
}

}  // namespace subdp::core
