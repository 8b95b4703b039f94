#pragma once

/// \file pw_layout.hpp
/// The unchecked read machinery the engine's fast a-pebble streams the
/// `pw'` table through, and the overflow-checked size arithmetic behind
/// the table's layout.
///
/// There is one layout, `BandedPwTable` (pw_banded.hpp): slack-banded
/// cells plus a child-gap side store. The Sec. 2 table, which stores every
/// slack, is that layout at `B = n`. `PwGapRun` walks the stored gaps of
/// one root `(i,j)` without re-deriving addresses: they partition into
/// runs of consecutive pw cells inside which the flat `w(p,q)` slot
/// (stride `n+1`) advances by a constant step. A root decomposes into one
/// run per slack `s` (w slots striding `n+2`) plus, past the band, one
/// run per child-gap family in the root's side block. The engine's fast
/// pebble kernel streams these runs instead of calling the general `get`
/// per gap; `for_each_gap` remains the reference enumeration, and the two
/// cover exactly the same `(p,q)` set with identical cell values.
///
/// Table shapes are products of four instance dimensions, and a silent
/// `std::size_t` wrap would turn "too big" into a small, wrong
/// allocation, so the layout sizes itself through `checked_size_mul` /
/// `checked_size_add`.

#include <cstddef>
#include <limits>

#include "support/assert.hpp"
#include "support/cost.hpp"

namespace subdp::core {

/// Overflow-checked multiply for table sizing; throws std::invalid_argument
/// instead of wrapping.
[[nodiscard]] constexpr std::size_t checked_size_mul(std::size_t a,
                                                     std::size_t b) {
  SUBDP_REQUIRE(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
                "pw table size arithmetic overflows std::size_t");
  return a * b;
}

/// Overflow-checked add for table sizing; throws std::invalid_argument
/// instead of wrapping.
[[nodiscard]] constexpr std::size_t checked_size_add(std::size_t a,
                                                     std::size_t b) {
  SUBDP_REQUIRE(a <= std::numeric_limits<std::size_t>::max() - b,
                "pw table size arithmetic overflows std::size_t");
  return a + b;
}

/// One run of a root's stored gaps (a-pebble fast scan). Enumerates
/// `count` gaps `(p,q)` whose pw cells are consecutive from `cell`, while
/// the matching `w(p,q)` slot — flattened as `p * (n+1) + q` — starts at
/// `w_slot` and advances by the constant `w_step`. A run never contains
/// the identity gap `(i,j)`.
struct PwGapRun {
  const Cost* cell = nullptr;
  std::size_t w_slot = 0;
  std::ptrdiff_t w_step = 0;
  std::size_t count = 0;
};

}  // namespace subdp::core
