#include "serve/plan_cache.hpp"

#include <chrono>
#include <utility>

#include "snapshot/snapshot_store.hpp"
#include "support/assert.hpp"

namespace subdp::serve {

PlanKey PlanKey::make(std::size_t n,
                      const core::SublinearOptions& options) {
  PlanKey key;
  key.n = n;
  key.variant = options.variant;
  key.square_mode = options.square_mode;
  key.termination = options.termination;
  key.band_width = core::SolvePlan::effective_band_for(n, options);
  key.max_iterations = options.max_iterations;
  key.windowed_pebble = options.windowed_pebble;
  key.profile = options.profile;
  key.backend = options.machine.backend;
  key.check_crew = options.machine.check_crew;
  key.record_costs = options.machine.record_costs;
  return key;
}

PlanCache::PlanCache(std::size_t capacity, std::size_t sessions_per_plan,
                     std::shared_ptr<snapshot::SnapshotStore> store)
    : capacity_(capacity),
      sessions_per_plan_(sessions_per_plan),
      store_(std::move(store)) {
  SUBDP_REQUIRE(capacity_ >= 1, "PlanCache requires a capacity of at least 1");
  SUBDP_REQUIRE(sessions_per_plan_ >= 1,
                "PlanCache requires at least one session per plan");
}

std::shared_ptr<SessionPool> PlanCache::acquire(
    std::size_t n, const core::SublinearOptions& options, bool* built,
    BuildSource* source) {
  const PlanKey key = PlanKey::make(n, options);
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      if (built != nullptr) *built = false;
      lru_.splice(lru_.begin(), lru_, it->second);  // MRU bump
      slot = it->second->slot;
    } else {
      ++misses_;
      if (built != nullptr) *built = true;
      slot = std::make_shared<Slot>();
      insert_mru(key, slot);
    }
  }
  return finish_build(key, slot, n, options, source);
}

std::shared_ptr<SessionPool> PlanCache::try_acquire(
    std::size_t n, const core::SublinearOptions& options, PlanState* state) {
  const PlanKey key = PlanKey::make(n, options);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->slot->pool != nullptr) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // MRU bump
      if (state != nullptr) *state = PlanState::kReady;
      return it->second->slot->pool;
    }
    // Mid-build: the placeholder's insertion already counted the miss.
    if (state != nullptr) *state = PlanState::kBuilding;
    return nullptr;
  }
  ++misses_;
  insert_mru(key, std::make_shared<Slot>());
  if (state != nullptr) *state = PlanState::kBuilding;
  return nullptr;
}

std::shared_ptr<SessionPool> PlanCache::build(
    std::size_t n, const core::SublinearOptions& options,
    BuildSource* source) {
  const PlanKey key = PlanKey::make(n, options);
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      slot = it->second->slot;
    } else {
      // The placeholder this call owes its existence to was dropped (a
      // failed same-key build) or evicted at capacity. Re-insert without
      // counting: the deferring `try_acquire` already recorded the miss.
      slot = std::make_shared<Slot>();
      insert_mru(key, slot);
    }
  }
  return finish_build(key, slot, n, options, source);
}

void PlanCache::set_build_observer(
    std::shared_ptr<const obs::Clock> clock,
    std::function<void(const BuildReport&)> observer) {
  observer_clock_ = std::move(clock);
  build_observer_ = std::move(observer);
}

std::shared_ptr<SessionPool> PlanCache::finish_build(
    const PlanKey& key, const std::shared_ptr<Slot>& slot, std::size_t n,
    const core::SublinearOptions& options, BuildSource* source) {
  // The build (or snapshot load) happens here, with the cache-wide
  // lock released: only same-key requesters block (on build_mutex) and
  // then share the finished pool.
  const std::lock_guard<std::mutex> build_lock(slot->build_mutex);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (slot->pool != nullptr) {
      if (source != nullptr) *source = BuildSource::kWarm;
      return slot->pool;
    }
  }
  const bool timing =
      build_observer_ != nullptr && observer_clock_ != nullptr;
  const auto elapsed_ns = [](const obs::Clock::time_point a,
                             const obs::Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  BuildReport report;
  std::shared_ptr<SessionPool> pool;
  try {
    // Persistence tier first: a verified snapshot replaces the O(n^2)
    // geometry build outright; a fresh build is queued for write-back so
    // the *next* process (or a post-eviction re-request) loads instead.
    const obs::Clock::time_point t0 =
        timing ? observer_clock_->now() : obs::Clock::time_point();
    std::shared_ptr<const core::SolvePlan> plan;
    if (store_ != nullptr) plan = store_->load(n, options);
    const bool loaded = plan != nullptr;
    if (timing && loaded) {
      report.snapshot_load_ns = elapsed_ns(t0, observer_clock_->now());
    }
    if (!loaded) plan = core::SolvePlan::create(n, options);
    pool = std::make_shared<SessionPool>(std::move(plan), sessions_per_plan_);
    if (store_ != nullptr && !loaded) store_->save_async(pool->plan_ptr());
    report.source = loaded ? BuildSource::kSnapshot : BuildSource::kBuilt;
    if (timing) report.total_ns = elapsed_ns(t0, observer_clock_->now());
    if (source != nullptr) *source = report.source;
  } catch (...) {
    // Plan validation failed: drop the placeholder so a dead entry does
    // not occupy capacity (a retry is a fresh miss).
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end() && it->second->slot == slot) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    throw;
  }
  if (build_observer_ != nullptr) build_observer_(report);
  const std::lock_guard<std::mutex> lock(mutex_);
  slot->pool = pool;
  // The placeholder may be gone by now — dropped by a failed same-key
  // build we waited behind, or evicted at capacity mid-build. Re-insert
  // (as most-recently-used: it was just requested) so the successful
  // build is actually cached, not orphaned.
  if (index_.find(key) == index_.end()) insert_mru(key, slot);
  return pool;
}

void PlanCache::insert_mru(const PlanKey& key, std::shared_ptr<Slot> slot) {
  lru_.push_front(Entry{key, std::move(slot)});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();  // in-flight leases keep the evicted pool alive
    ++evictions_;
  }
}

std::shared_ptr<const core::SolvePlan> PlanCache::peek(
    std::size_t n, const core::SublinearOptions& options) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(PlanKey::make(n, options));
  if (it == index_.end()) return nullptr;
  const auto& pool = it->second->slot->pool;  // null while still building
  return pool != nullptr ? pool->plan_ptr() : nullptr;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats out;
  out.capacity = capacity_;
  out.size = lru_.size();
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  return out;
}

SessionPoolStats PlanCache::pooled_session_stats() const {
  std::vector<std::shared_ptr<SessionPool>> pools;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pools.reserve(lru_.size());
    for (const Entry& entry : lru_) {
      if (entry.slot->pool != nullptr) pools.push_back(entry.slot->pool);
    }
  }
  // Pool locks are taken outside the cache lock (stable order, no cycles).
  SessionPoolStats sum;
  for (const auto& pool : pools) {
    const SessionPoolStats s = pool->stats();
    sum.capacity += s.capacity;
    sum.sessions_created += s.sessions_created;
    sum.in_use += s.in_use;
    sum.peak_in_use += s.peak_in_use;
    sum.checkouts += s.checkouts;
    sum.reuses += s.reuses;
  }
  return sum;
}

}  // namespace subdp::serve
