// Service-level tests of plan snapshot persistence
// (`ServiceOptions::snapshot_dir`): a cold service writes its built plans
// back to the store, a restarted service prewarms from the manifest and
// serves its first requests with zero cold-path work, post-eviction
// re-requests reload from disk instead of rebuilding, corrupt snapshots
// degrade to a rebuild that repairs the file, and every result a
// snapshot-backed service produces is bit-identical to a fresh-built one.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "serve/solver_service.hpp"
#include "snapshot/snapshot_store.hpp"
#include "support/rng.hpp"

namespace subdp::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("subdp-serve-snap-" + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

dp::MatrixChainProblem chain(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return dp::MatrixChainProblem::random(n, rng);
}

ServiceOptions snapshot_options(const std::string& dir) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.snapshot_dir = dir;
  return opts;
}

void expect_identical(const core::SublinearResult& ref,
                      const core::SublinearResult& got,
                      const std::string& label) {
  EXPECT_EQ(ref.cost, got.cost) << label;
  EXPECT_EQ(ref.iterations, got.iterations) << label;
  EXPECT_TRUE(ref.w == got.w) << label << ": w tables differ";
}

std::vector<fs::path> snapshot_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") files.push_back(entry.path());
  }
  return files;
}

TEST(ServeSnapshot, ColdServicePopulatesStoreRestartPrewarms) {
  TempDir dir("prewarm");
  const auto p16 = chain(16, 7);
  const auto p20 = chain(20, 8);
  core::SublinearResult cold16, cold20;

  {
    // Generation 1: empty store, both shapes are snapshot misses that
    // build geometry and write back asynchronously.
    SolverService service(snapshot_options(dir.str()));
    ASSERT_NE(service.snapshot_store(), nullptr);
    cold16 = service.submit(p16).get();
    cold20 = service.submit(p20).get();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shapes_prewarmed, 0u);
    EXPECT_EQ(stats.snapshot_hits, 0u);
    EXPECT_EQ(stats.snapshot_misses, 2u);
    EXPECT_EQ(stats.snapshot_write_failures, 0u);
    service.snapshot_store()->flush();
    EXPECT_EQ(service.snapshot_store()->stats().writes_completed, 2u);
    service.snapshot_store()->write_manifest({16, 20});
  }
  EXPECT_EQ(cold16.cost, dp::solve_sequential(p16).cost);
  EXPECT_EQ(cold20.cost, dp::solve_sequential(p20).cost);
  EXPECT_EQ(snapshot_files(dir.path()).size(), 2u);

  {
    // Generation 2: the manifest prewarms both shapes from disk before
    // the first request — no geometry build, no cold deferral.
    SolverService service(snapshot_options(dir.str()));
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shapes_prewarmed, 2u);
    EXPECT_EQ(stats.snapshot_hits, 2u);
    EXPECT_EQ(stats.snapshot_misses, 0u);
    EXPECT_EQ(stats.plan_cache.misses, 2u);  // prewarm resolves = misses
    EXPECT_EQ(stats.plan_cache.size, 2u);

    const auto warm16 = service.submit(p16).get();
    const auto warm20 = service.submit(p20).get();
    expect_identical(cold16, warm16, "n=16 prewarmed");
    expect_identical(cold20, warm20, "n=20 prewarmed");

    stats = service.stats();
    EXPECT_EQ(stats.plan_cache.hits, 2u);    // warm entries, no rebuild
    EXPECT_EQ(stats.jobs_cold_deferred, 0u); // zero cold-path stalls
    EXPECT_GE(stats.snapshot_hits + stats.snapshot_misses,
              stats.plan_cache.misses);
    EXPECT_EQ(stats.jobs_submitted, stats.jobs_completed);
  }
}

TEST(ServeSnapshot, EvictionReloadIsASnapshotHit) {
  // PlanCache eviction drops only the in-memory entry; the disk tier
  // keeps the file, so a re-requested evicted shape reloads instead of
  // rebuilding.
  TempDir dir("evict");
  ServiceOptions opts = snapshot_options(dir.str());
  opts.plan_capacity = 1;
  SolverService service(opts);
  const auto pa = chain(14, 3);
  const auto pb = chain(18, 4);

  const auto a1 = service.submit(pa).get();
  service.snapshot_store()->flush();  // shape-14 snapshot installed
  const auto b1 = service.submit(pb).get();  // capacity 1: evicts shape 14
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.plan_cache.evictions, 1u);
  EXPECT_EQ(stats.snapshot_hits, 0u);

  const auto a2 = service.submit(pa).get();  // cache miss, snapshot hit
  stats = service.stats();
  EXPECT_GE(stats.snapshot_hits, 1u);
  expect_identical(a1, a2, "post-eviction reload");
  EXPECT_EQ(b1.cost, dp::solve_sequential(pb).cost);
}

TEST(ServeSnapshot, CorruptSnapshotDegradesToRebuildAndRepairs) {
  TempDir dir("corrupt");
  const auto p = chain(16, 9);
  core::SublinearResult cold;
  {
    SolverService service(snapshot_options(dir.str()));
    cold = service.submit(p).get();
    service.snapshot_store()->flush();
    service.snapshot_store()->write_manifest({16});
  }
  // Flip one byte inside the installed snapshot (an image is an 80-byte
  // header; byte 40 is its variant field).
  const auto files = snapshot_files(dir.path());
  ASSERT_EQ(files.size(), 1u);
  {
    std::fstream f(files.front(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char byte = 0;
    ASSERT_TRUE(f.get(byte));
    f.seekp(40);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  ASSERT_EQ(fs::file_size(files.front()), 80u);
  {
    // Generation 2: the prewarm load rejects the corrupt file, rebuilds
    // from scratch (prewarm still succeeds), and the write-back repairs
    // the file.
    SolverService service(snapshot_options(dir.str()));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shapes_prewarmed, 1u);
    EXPECT_EQ(stats.snapshot_hits, 0u);
    EXPECT_EQ(stats.snapshot_misses, 1u);
    EXPECT_EQ(service.snapshot_store()->stats().rejected, 1u);
    const auto rebuilt = service.submit(p).get();
    expect_identical(cold, rebuilt, "rebuild after corruption");
    service.snapshot_store()->flush();
  }
  {
    // Generation 3: the repaired file loads cleanly.
    SolverService service(snapshot_options(dir.str()));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.snapshot_hits, 1u);
    EXPECT_EQ(service.snapshot_store()->stats().rejected, 0u);
    const auto warm = service.submit(p).get();
    expect_identical(cold, warm, "repaired snapshot");
  }
}

TEST(ServeSnapshot, SolveAllThroughSnapshotBackedService) {
  // The blocking batch surface takes the same snapshot-backed build path
  // as submit: generation 2 resolves every shape from disk.
  TempDir dir("batch");
  const auto p12 = chain(12, 1);
  const auto p15 = chain(15, 2);
  const auto p12b = chain(12, 5);
  const std::vector<const dp::Problem*> problems{&p12, &p15, &p12b};
  core::BatchResult cold;
  {
    SolverService service(snapshot_options(dir.str()));
    cold = service.solve_all(problems);
    service.snapshot_store()->flush();
    service.snapshot_store()->write_manifest({12, 15});
  }
  {
    SolverService service(snapshot_options(dir.str()));
    EXPECT_EQ(service.stats().snapshot_hits, 2u);
    const core::BatchResult warm = service.solve_all(problems);
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (std::size_t i = 0; i < warm.results.size(); ++i) {
      expect_identical(cold.results[i], warm.results[i],
                       "batch instance " + std::to_string(i));
    }
    EXPECT_EQ(service.stats().plan_cache.misses, 2u);  // prewarm only
  }
}

TEST(ServeSnapshot, NoStoreMeansZeroSnapshotCounters) {
  // Without `snapshot_dir` the persistence tier does not exist: every
  // snapshot counter stays zero however much the service works.
  SolverService service(ServiceOptions{});
  EXPECT_EQ(service.snapshot_store(), nullptr);
  const auto p = chain(12, 6);
  EXPECT_EQ(service.submit(p).get().cost, dp::solve_sequential(p).cost);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_hits, 0u);
  EXPECT_EQ(stats.snapshot_misses, 0u);
  EXPECT_EQ(stats.snapshot_write_failures, 0u);
  EXPECT_EQ(stats.shapes_prewarmed, 0u);
}

TEST(ServeSnapshot, PlanCacheConsultsStoreExactlyOncePerBuild) {
  // The accounting invariant from the ServiceStats doc: with a store,
  // every plan construction consults it exactly once, so
  // hits + misses >= plan_cache.misses, and admission accounting is
  // untouched by where plans come from.
  TempDir dir("accounting");
  SolverService service(snapshot_options(dir.str()));
  const auto p10 = chain(10, 11);
  const auto p13 = chain(13, 12);
  (void)service.submit(p10).get();
  (void)service.submit(p13).get();
  (void)service.submit(p10).get();  // warm: no store consultation
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_hits + stats.snapshot_misses,
            stats.plan_cache.misses);
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_completed, 3u);
  EXPECT_EQ(stats.jobs_rejected + stats.jobs_expired, 0u);
}

}  // namespace
}  // namespace subdp::serve
