// Tests for the pw-table layout (core/pw_banded.hpp): addressing, band
// semantics, the Sec. 5 cell-count reduction, the full-band table that
// serves the Sec. 2 algorithm, and the read machinery (pw_layout.hpp) —
// overflow-checked sizing and the gap runs the engine's fast a-pebble
// streams through.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pw_banded.hpp"
#include "core/pw_layout.hpp"
#include "support/stats.hpp"

namespace subdp::core {
namespace {

/// Entries of the Sec. 2 table: per root of length L, C(L+1,2) - 1 gaps.
std::size_t full_table_entries(std::size_t n) {
  std::size_t total = 0;
  for (std::size_t len = 2; len <= n; ++len) {
    total += (n - len + 1) * (len * (len + 1) / 2 - 1);
  }
  return total;
}

/// The in-band quadruples in plain length-major order (length, then `i`,
/// then slack, then gap offset), written out independently of the
/// layout's closed forms: slot `k` must hold element `k`.
std::vector<Quad> length_major_quads(std::size_t n, std::size_t band) {
  std::vector<Quad> quads;
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      for (std::size_t s = 1; s <= std::min(band, len - 1); ++s) {
        for (std::size_t o = 0; o <= s; ++o) {
          quads.push_back(Quad{static_cast<std::uint16_t>(i),
                               static_cast<std::uint16_t>(i + len),
                               static_cast<std::uint16_t>(i + o),
                               static_cast<std::uint16_t>(i + o + len - s)});
        }
      }
    }
  }
  return quads;
}

/// The shapes the closed-form geometry is checked at: the smallest band,
/// narrow and full bands (`band == n` is the dense variant), and a
/// serving-sized banded shape.
const std::vector<std::pair<std::size_t, std::size_t>> kGeometryShapes = {
    {2, 1}, {7, 7}, {9, 3}, {12, 5}, {17, 17}, {64, 16}};

TEST(PwLayout, CheckedSizeArithmeticThrowsInsteadOfWrapping) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(checked_size_mul(3, 7), 21u);
  EXPECT_EQ(checked_size_mul(kMax, 0), 0u);
  EXPECT_EQ(checked_size_add(kMax - 1, 1), kMax);
  EXPECT_THROW((void)checked_size_mul(kMax / 2, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_size_add(kMax, 1), std::invalid_argument);
}

// ---- Gap runs (the fast pebble scan's reader) ----

/// Fills every stored cell with a distinct value, then — root by root —
/// walks `for_each_gap_run`, decoding each run's `w` slots back to gap
/// coordinates (`w_slot = p*(n+1)+q`, advanced by `w_step`) and its
/// stored values through the arithmetic-progression cell cursor, and
/// compares the collected `(p, q, value)` triples against the reference
/// `for_each_gap` + `get` enumeration. Equality of the sorted triple sets
/// proves the runs cover exactly the stored gaps, address the right cells
/// and pair each with the right `w` slot.
void expect_gap_runs_match_for_each_gap(BandedPwTable& t) {
  const std::size_t n = t.n();
  Cost v = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          t.set(i, j, p, q, v++);
        }
      }
    }
  }
  using GapTriple = std::tuple<std::size_t, std::size_t, Cost>;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      std::vector<GapTriple> ref;
      t.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
        ref.emplace_back(p, q, t.get(i, j, p, q));
      });
      std::vector<GapTriple> runs;
      t.for_each_gap_run(i, j, [&](const PwGapRun& run) {
        std::ptrdiff_t w = static_cast<std::ptrdiff_t>(run.w_slot);
        for (std::size_t k = 0; k < run.count; ++k) {
          const std::size_t slot = static_cast<std::size_t>(w);
          runs.emplace_back(slot / (n + 1), slot % (n + 1), run.cell[k]);
          w += run.w_step;
        }
      });
      std::sort(ref.begin(), ref.end());
      std::sort(runs.begin(), runs.end());
      ASSERT_EQ(runs, ref) << "root (" << i << "," << j << ")";
    }
  }
}

TEST(PwGapRuns, BandedRunsMatchForEachGap) {
  BandedPwTable t(13, 4);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, BandedWideBandRunsMatchForEachGap) {
  // band >= n - 1: every gap in band, no child-gap side runs anywhere.
  BandedPwTable t(10, 10);
  expect_gap_runs_match_for_each_gap(t);
  BandedPwTable full(11, 11);
  expect_gap_runs_match_for_each_gap(full);
}

TEST(PwGapRuns, BandedNarrowestBandRunsMatchForEachGap) {
  // band = 1: the slack runs degenerate to one per root and nearly every
  // child gap lives in the side store.
  BandedPwTable t(9, 1);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, EdgeSizesMatchForEachGap) {
  // Smallest meaningful tables: a single root (n = 2) and the first size
  // with length-3 roots.
  BandedPwTable b2(2, 1), b2w(2, 2), b3(3, 1), b3w(3, 3);
  expect_gap_runs_match_for_each_gap(b2);
  expect_gap_runs_match_for_each_gap(b2w);
  expect_gap_runs_match_for_each_gap(b3);
  expect_gap_runs_match_for_each_gap(b3w);
}

TEST(PwGapRuns, PaperBandMatchesForEachGap) {
  // The band the solver actually uses (B = 2 ceil(sqrt n)).
  const std::size_t n = 17;
  BandedPwTable t(n, support::two_ceil_sqrt(n));
  expect_gap_runs_match_for_each_gap(t);
}

TEST(BandedPwTable, ResetRestoresInfinity) {
  BandedPwTable full(5, 5);
  full.set(0, 5, 1, 3, 9);
  full.reset();
  EXPECT_EQ(full.get(0, 5, 1, 3), kInfinity);
  // Narrow band: the child-gap side store is reset too.
  BandedPwTable t(10, 2);
  t.set(0, 10, 0, 5, 21);
  t.set(0, 10, 5, 10, 22);
  t.reset();
  EXPECT_EQ(t.get(0, 10, 0, 5), kInfinity);
  EXPECT_EQ(t.get(0, 10, 5, 10), kInfinity);
}

// ---- Banded ----

TEST(BandedPwTable, InBandBehavesLikeDense) {
  for (const std::size_t band : {4u, 10u}) {  // 10: the full (Sec. 2) table
    BandedPwTable t(10, band);
    EXPECT_EQ(t.get(0, 10, 0, 10), 0);        // identity
    EXPECT_EQ(t.get(2, 3, 2, 3), 0);          // leaf identity
    EXPECT_EQ(t.get(2, 8, 3, 7), kInfinity);  // slack 2, unwritten
    t.set(2, 8, 3, 7, 55);                    // slack 2 <= band
    EXPECT_EQ(t.get(2, 8, 3, 7), 55);
    EXPECT_EQ(t.get(2, 8, 3, 6), kInfinity);  // neighbours untouched
  }
}

TEST(BandedPwTable, OutOfBandInteriorReadsAreInfinite) {
  BandedPwTable t(10, 2);
  // slack (10-0)-(4-3) = 9 > 2 and the gap touches neither endpoint.
  EXPECT_FALSE(t.stores(0, 10, 3, 4));
  EXPECT_EQ(t.get(0, 10, 3, 4), kInfinity);
}

TEST(BandedPwTable, OutOfBandChildGapsAreStored) {
  // The terminal pebble of a balanced node needs activate-form entries of
  // any slack: gaps sharing an endpoint with the root stay materialised.
  BandedPwTable t(10, 2);
  EXPECT_TRUE(t.stores(0, 10, 0, 5));  // left child gap, slack 5 > B
  EXPECT_TRUE(t.stores(0, 10, 5, 10));  // right child gap, slack 5 > B
  t.set(0, 10, 0, 5, 21);
  t.set(0, 10, 5, 10, 22);  // same split, different family: no collision
  EXPECT_EQ(t.get(0, 10, 0, 5), 21);
  EXPECT_EQ(t.get(0, 10, 5, 10), 22);
}

TEST(BandedPwTable, StoresBandPlusChildGaps) {
  // At band >= n - 1 every gap is stored (the Sec. 2 table).
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {9, 3}, {2, 2}, {3, 3}, {5, 5}, {9, 9}};
  for (const auto& [n, band] : shapes) {
    BandedPwTable t(n, band);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t p = i; p < j; ++p) {
          for (std::size_t q = p + 1; q <= j; ++q) {
            if (p == i && q == j) continue;
            const bool in_band = (j - i) - (q - p) <= band;
            const bool child_gap = p == i || q == j;
            EXPECT_EQ(t.stores(i, j, p, q), in_band || child_gap);
            if (in_band || child_gap) ++expected;
          }
        }
      }
    }
    EXPECT_EQ(t.entry_count(), expected) << "n=" << n << " band=" << band;
  }
}

TEST(BandedPwTable, AddressingIsInjective) {
  const std::size_t n = 12, band = 5;
  BandedPwTable t(n, band);
  std::set<std::uint64_t> seen;
  // Every stored entry (in-band plus child gaps) has a distinct address.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          if (!t.stores(i, j, p, q)) continue;
          EXPECT_TRUE(seen.insert(t.address(i, j, p, q)).second)
              << "(" << i << "," << j << "," << p << "," << q << ")";
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), t.entry_count());
}

TEST(BandedPwTable, RoundTripsEveryStoredEntry) {
  for (const auto& [n, band] :
       std::vector<std::pair<std::size_t, std::size_t>>{{11, 4}, {8, 8}}) {
    BandedPwTable t(n, band);
    Cost v = 1;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t p = i; p < j; ++p) {
          for (std::size_t q = p + 1; q <= j; ++q) {
            if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
            t.set(i, j, p, q, v++);
          }
        }
      }
    }
    v = 1;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t p = i; p < j; ++p) {
          for (std::size_t q = p + 1; q <= j; ++q) {
            if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
            ASSERT_EQ(t.get(i, j, p, q), v++);
          }
        }
      }
    }
  }
}

TEST(BandedPwTable, ForEachGapEnumeratesExactlyTheStoredGaps) {
  const std::size_t n = 10, band = 3;
  BandedPwTable t(n, band);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      std::set<std::pair<std::size_t, std::size_t>> enumerated;
      t.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
        EXPECT_TRUE(enumerated.emplace(p, q).second)
            << "duplicate gap (" << p << "," << q << ")";
        EXPECT_TRUE(t.stores(i, j, p, q));
      });
      std::size_t stored = 0;
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          ++stored;
        }
      }
      EXPECT_EQ(enumerated.size(), stored) << "(" << i << "," << j << ")";
    }
  }
}

TEST(BandedPwTable, CellCountIsQuadraticallySmallerThanDense) {
  // Sec. 5: O(n^2 B^2) vs O(n^4) meaningful entries. Compare against the
  // closed-form full-table count so we do not have to allocate it.
  const std::size_t n = 128;
  BandedPwTable banded(n, support::two_ceil_sqrt(n));
  EXPECT_LT(banded.entry_count() * 3, full_table_entries(n));
  // The ratio widens with n (~ n/B^2-fold):
  const std::size_t m = 48;
  BandedPwTable banded_small(m, support::two_ceil_sqrt(m));
  const double ratio_small =
      static_cast<double>(full_table_entries(m)) /
      static_cast<double>(banded_small.entry_count());
  const double ratio_large = static_cast<double>(full_table_entries(n)) /
                             static_cast<double>(banded.entry_count());
  EXPECT_GT(ratio_large, ratio_small);
}

TEST(BandedPwTable, EntriesAreUniqueAndValid) {
  for (const auto& [n, band] : kGeometryShapes) {
    BandedPwTable t(n, band);
    std::set<std::uint64_t> seen;
    for (std::size_t k = 0; k < t.layout().band_cell_count(); ++k) {
      const Quad e = t.layout().quad_at(k);
      EXPECT_LE(e.i, e.p);
      EXPECT_LT(e.p, e.q);
      EXPECT_LE(e.q, e.j);
      EXPECT_FALSE(e.p == e.i && e.q == e.j);
      EXPECT_TRUE(seen.insert(t.address(e.i, e.j, e.p, e.q)).second);
    }
  }
}

TEST(BandedPwTable, FullBandCellCountIsTheEntryCount) {
  // At band >= n - 1 no child gap leaves the band, so the child-gap side
  // stores are empty and every allocated cell backs a Sec. 2 entry.
  for (const std::size_t n : {2u, 3u, 9u, 17u, 64u}) {
    const BandedPwLayout layout(n, n);
    EXPECT_EQ(layout.cell_count(), full_table_entries(n)) << "n=" << n;
    EXPECT_EQ(layout.child_cell_count(), 0u) << "n=" << n;
  }
  EXPECT_EQ(BandedPwLayout(64, 64).cell_count(), 764400u);
  EXPECT_EQ(BandedPwLayout(9, 8).child_cell_count(), 0u);  // band = n - 1
  EXPECT_GT(BandedPwLayout(9, 7).child_cell_count(), 0u);  // band = n - 2
}

TEST(BandedPwLayout, ChildStoreHoldsExactlyTheOutOfBandChildGaps) {
  // Each root of length L keeps 2 max(0, L - 1 - B) child cells, so the
  // per-length bases sum to the closed-form out-of-band count.
  for (const std::size_t n : {3u, 9u, 17u, 64u, 72u, 192u}) {
    const BandedPwLayout layout(n, support::two_ceil_sqrt(n));
    EXPECT_EQ(layout.child_cell_count(), layout.out_of_band_child_count())
        << "n=" << n;
    EXPECT_EQ(layout.cell_count(),
              layout.band_cell_count() + layout.child_cell_count());
  }
  EXPECT_EQ(BandedPwLayout(64, support::two_ceil_sqrt(64)).child_cell_count(),
            36848u);
  EXPECT_EQ(
      BandedPwLayout(192, support::two_ceil_sqrt(192)).child_cell_count(),
      1470260u);
  for (const std::size_t n : {9u, 64u, 192u}) {
    EXPECT_EQ(BandedPwLayout(n, n).child_cell_count(), 0u) << "n=" << n;
    EXPECT_EQ(BandedPwLayout(n, n).out_of_band_child_count(), 0u);
  }
  EXPECT_EQ(BandedPwLayout(9, 1).child_cell_count(),
            BandedPwLayout(9, 1).out_of_band_child_count());
}

TEST(BandedPwTable, ChildCellsAreDenselyAddressed) {
  // Every child-store cell backs exactly one out-of-band child gap.
  for (const auto& [n, band] :
       std::vector<std::pair<std::size_t, std::size_t>>{{9, 1}, {13, 4}}) {
    const BandedPwLayout layout(n, band);
    std::vector<int> hits(layout.child_cell_count(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + band + 2; j <= n; ++j) {
        for (std::size_t k = i + 1; k < j; ++k) {
          if (j - k > band) ++hits.at(layout.left_child_flat(i, j, k));
          if (k - i > band) ++hits.at(layout.right_child_flat(i, j, k));
        }
      }
    }
    for (std::size_t c = 0; c < hits.size(); ++c) {
      EXPECT_EQ(hits[c], 1) << "n=" << n << " band=" << band << " cell " << c;
    }
  }
}

TEST(BandedPwLayout, EntriesAreEmittedInStorageOrder) {
  // The oracle and the Rytter square name a processor's target by its
  // slot, so `quad_at` must be the plain length-major enumeration and
  // invert `entry_slot`, and `next_quad` must step it by one slot, at
  // every band, full band included.
  const auto same = [](Quad a, Quad b) {
    return a.i == b.i && a.j == b.j && a.p == b.p && a.q == b.q;
  };
  for (const auto& [n, band] : kGeometryShapes) {
    const BandedPwLayout layout(n, band);
    const std::vector<Quad> expected = length_major_quads(n, band);
    ASSERT_EQ(expected.size(), layout.band_cell_count())
        << "n=" << n << " band=" << band;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const Quad e = layout.quad_at(k);
      ASSERT_TRUE(same(e, expected[k]))
          << "n=" << n << " band=" << band << " slot " << k;
      ASSERT_EQ(layout.entry_slot(e.i, e.j, e.p, e.q), k)
          << "n=" << n << " band=" << band;
      if (k + 1 < expected.size()) {
        ASSERT_TRUE(same(layout.next_quad(e), expected[k + 1]))
            << "n=" << n << " band=" << band << " after slot " << k;
      }
    }
  }
}

TEST(BandedPwTable, RejectsZeroBand) {
  EXPECT_THROW(BandedPwTable(5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace subdp::core
