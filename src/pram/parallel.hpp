#pragma once

/// \file parallel.hpp
/// Backend-dispatched parallel loops.
///
/// `parallel_for_blocked` is the primitive every PRAM step compiles down
/// to: the index range is split into blocks and the body is invoked once
/// per block on some host thread. Blocks never overlap and jointly cover
/// the range exactly once, whatever the backend.
///
/// Both loops are templates over the body type so the per-block (and, for
/// `parallel_for_each`, per-index) code inlines into the executing loop;
/// dispatch is type-erased only once per block, never per element.

#include <cstdint>
#include <utility>

#include "pram/backend.hpp"
#include "pram/thread_pool.hpp"

namespace subdp::pram {

/// Runs `body(block_begin, block_end)` over `[begin, end)` on `backend`.
/// `grain` caps the block size (0 = automatic).
template <class BlockBody>
void parallel_for_blocked(Backend backend, std::int64_t begin,
                          std::int64_t end, std::int64_t grain,
                          BlockBody&& body) {
  if (begin >= end) return;
  switch (backend) {
    case Backend::kSerial:
      body(begin, end);
      return;
    case Backend::kThreadPool:
      ThreadPool::shared().parallel_for(begin, end, grain,
                                        std::forward<BlockBody>(body));
      return;
  }
}

/// Element-wise convenience: `body(i)` for each `i` in `[begin, end)`.
template <class Body>
void parallel_for_each(Backend backend, std::int64_t begin, std::int64_t end,
                       Body&& body) {
  parallel_for_blocked(backend, begin, end, 0,
                       [&](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) body(i);
                       });
}

}  // namespace subdp::pram
