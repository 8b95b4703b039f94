#include "core/pw_dense.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace subdp::core {

std::size_t DensePwLayout::init_geometry(
    std::vector<std::size_t>& length_base) {
  SUBDP_REQUIRE(n_ >= 1, "need at least one object");
  SUBDP_REQUIRE(n_ <= DensePwTable::kMaxDenseN,
                "dense pw table would exceed the memory envelope; "
                "use the banded variant");

  length_base.assign(n_ + 2, 0);
  std::size_t total = 0;
  std::size_t roots = 0;
  for (std::size_t len = 2; len <= n_; ++len) {
    length_base[len] = total;
    total = checked_size_add(
        total, checked_size_mul(n_ - len + 1, cells_per_root(len)));
    roots += n_ - len + 1;
  }
  length_base[n_ + 1] = total;
  cell_count_ = total;
  return roots;
}

DensePwLayout::DensePwLayout(std::size_t n) : n_(n) {
  std::vector<std::size_t> length_base;
  const std::size_t roots = init_geometry(length_base);
  length_base_ = std::move(length_base);

  // Group by root length ascending so windowed sweeps see short roots
  // first; within a root, gaps in (p,q) lexicographic order (which is also
  // ascending slot order). Every cell except one identity slot per root
  // backs a meaningful entry.
  std::vector<Quad> entries;
  entries.reserve(cell_count_ - roots);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len;
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          entries.push_back(Quad{static_cast<std::uint16_t>(i),
                                 static_cast<std::uint16_t>(j),
                                 static_cast<std::uint16_t>(p),
                                 static_cast<std::uint16_t>(q)});
        }
      }
    }
  }
  SUBDP_ASSERT(entries.size() + roots == cell_count_);
  entries_ = std::move(entries);
}

DensePwLayout::DensePwLayout(std::size_t n,
                             ShapeArray<std::size_t> length_base,
                             ShapeArray<Quad> entries)
    : n_(n) {
  std::vector<std::size_t> expected_length_base;
  const std::size_t roots = init_geometry(expected_length_base);
  SUBDP_REQUIRE(length_base.size() == expected_length_base.size() &&
                    std::equal(length_base.begin(), length_base.end(),
                               expected_length_base.begin()),
                "dense snapshot offset table disagrees with n");
  SUBDP_REQUIRE(entries.size() + roots == cell_count_,
                "dense snapshot entry count disagrees with n");
  length_base_ = std::move(length_base);
  entries_ = std::move(entries);
}

DensePwTable::DensePwTable(std::shared_ptr<const DensePwLayout> layout)
    : layout_(std::move(layout)),
      n_(layout_->n()),
      cells_(layout_->cell_count(), kInfinity) {}

void DensePwTable::reset() {
  cells_.assign(cells_.size(), kInfinity);
}

}  // namespace subdp::core
