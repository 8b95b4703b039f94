// Equivalence tests for the engine's two execution paths
// (core/engine.hpp). The oracle is the instrumented engine (the default,
// `record_costs = true`): `Machine::step`, full sweeps, operands read
// through the layout's general `get`, with the PRAM ledger whose values
// test_golden pins. The fast path (`record_costs = false`) runs
// frontier-driven sweeps, in-band cursors, `PwGapRun` pebble scans and
// the mark grids behind its skip tests. Every fast configuration — serial
// or thread pool, profiled or not — and the counted engine on the thread
// pool must produce output identical to the serial oracle: the same w
// table, cost, iteration count, and per-iteration change counts, across
// every instance family in bench/common.hpp and both pw-table layouts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/pw_dense.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"

namespace subdp::core {
namespace {

struct EngineConfig {
  std::string name;
  bool record_costs = false;  ///< true selects the instrumented oracle.
  pram::Backend backend = pram::Backend::kSerial;
  // Per-step engine profiling: on or off, the solver output must be
  // bit-identical — profiling only ever records.
  bool profile = false;
};

SublinearResult run_config(const dp::Problem& problem,
                           const EngineConfig& config, PwVariant variant) {
  SublinearOptions options;
  options.variant = variant;
  options.profile = config.profile;
  options.machine.record_costs = config.record_costs;
  options.machine.backend = config.backend;
  SolveSession session(SolvePlan::create(problem.size(), options));
  return session.solve(problem);
}

void expect_identical(const SublinearResult& ref, const SublinearResult& got,
                      const std::string& label) {
  EXPECT_EQ(ref.cost, got.cost) << label;
  EXPECT_EQ(ref.iterations, got.iterations) << label;
  EXPECT_TRUE(ref.w == got.w) << label << ": w tables differ";
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << label;
  for (std::size_t t = 0; t < ref.trace.size(); ++t) {
    EXPECT_EQ(ref.trace[t].pw_cells_changed, got.trace[t].pw_cells_changed)
        << label << " iteration " << t + 1;
    EXPECT_EQ(ref.trace[t].w_cells_changed, got.trace[t].w_cells_changed)
        << label << " iteration " << t + 1;
  }
}

// The reference configuration is the instrumented serial oracle.
EngineConfig reference_config() {
  return {"oracle(counted,serial)", true, pram::Backend::kSerial};
}

std::vector<EngineConfig> variant_configs() {
  return {
      {"fast,serial", false, pram::Backend::kSerial},
      {"fast,threads", false, pram::Backend::kThreadPool},
      {"counted,threads", true, pram::Backend::kThreadPool},
      // Observability: per-step profiling on must be bit-identical to the
      // oracle — recording never steers a sweep, serial or threaded.
      {"fast,serial,profiled", false, pram::Backend::kSerial, true},
      {"fast,threads,profiled", false, pram::Backend::kThreadPool, true},
  };
}

TEST(FastPath, AllConfigurationsAgreeOnEveryFamilyBanded) {
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(2024);
    const auto problem = bench::make_instance(family, 33, rng);
    const auto ref =
        run_config(*problem, reference_config(), PwVariant::kBanded);
    EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost) << family;
    for (const EngineConfig& config : variant_configs()) {
      const auto got = run_config(*problem, config, PwVariant::kBanded);
      expect_identical(ref, got, family + " / " + config.name);
    }
  }
}

TEST(FastPath, AllConfigurationsAgreeOnEveryFamilyDense) {
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(77);
    const auto problem = bench::make_instance(family, 18, rng);
    const auto ref =
        run_config(*problem, reference_config(), PwVariant::kDense);
    for (const EngineConfig& config : variant_configs()) {
      const auto got = run_config(*problem, config, PwVariant::kDense);
      expect_identical(ref, got, family + " / " + config.name);
    }
  }
}

TEST(FastPath, PwTablesMatchCellByCell) {
  // Beyond the w table: step the oracle and the fast path side by side
  // and compare every stored pw entry after each iteration.
  support::Rng rng(99);
  const std::size_t n = 20;
  const auto problem = bench::make_instance("matrix-chain", n, rng);

  SublinearOptions ref_options;  // instrumented oracle
  SublinearOptions fast_options;
  fast_options.machine.record_costs = false;

  SolveSession ref(SolvePlan::create(n, ref_options));
  SolveSession fast(SolvePlan::create(n, fast_options));
  ref.reset(*problem);
  fast.reset(*problem);
  ASSERT_EQ(ref.plan().effective_band(), fast.plan().effective_band());
  const std::size_t band = ref.plan().effective_band();

  for (std::size_t iter = 0; iter < ref.plan().iteration_bound(); ++iter) {
    (void)ref.step();
    (void)fast.step();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t p = i; p < j; ++p) {
          for (std::size_t q = p + 1; q <= j; ++q) {
            if (p == i && q == j) continue;
            const bool stored =
                (j - i) - (q - p) <= band || p == i || q == j;
            if (!stored) continue;
            ASSERT_EQ(ref.current_pw(i, j, p, q), fast.current_pw(i, j, p, q))
                << "iteration " << iter + 1 << " pw(" << i << "," << j << ","
                << p << "," << q << ")";
          }
        }
      }
    }
  }
}

TEST(FastPath, WriteLogOracleIsCrewConformantAndMatchesFastPath) {
  // The write-log scheme defers all square/pebble writes past the
  // barrier; the CREW checker must still see exactly one reported write
  // per improved cell and no conflicts, and the checked oracle must agree
  // with the fast path.
  support::Rng rng(13);
  const auto problem = bench::make_instance("triangulation", 21, rng);
  SublinearOptions options;
  options.machine.check_crew = true;
  options.machine.backend = pram::Backend::kThreadPool;
  SolveSession session(SolvePlan::create(21, options));
  const auto result = session.solve(*problem);
  EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost);
  ASSERT_NE(session.machine().crew(), nullptr);
  EXPECT_EQ(session.machine().crew()->violation_count(), 0u)
      << session.machine().crew()->first_violation();

  SublinearOptions fast_options;
  fast_options.machine.record_costs = false;
  fast_options.machine.backend = pram::Backend::kThreadPool;
  SolveSession fast(SolvePlan::create(21, fast_options));
  expect_identical(result, fast.solve(*problem), "checked oracle vs fast");
}

TEST(FastPath, WindowedPebbleMatchesReferenceEngine) {
  // The windowed schedule disables frontier sweeps internally; the fast
  // path's full sweeps must still match the oracle.
  support::Rng rng(55);
  const auto problem = bench::make_instance("zigzag", 30, rng);
  SublinearOptions base;
  base.windowed_pebble = true;
  base.termination = TerminationMode::kFixedBound;

  SublinearOptions ref_options = base;  // instrumented oracle
  SublinearOptions fast_options = base;
  fast_options.machine.record_costs = false;

  SolveSession ref(SolvePlan::create(30, ref_options));
  SolveSession fast(SolvePlan::create(30, fast_options));
  const auto a = ref.solve(*problem);
  const auto b = fast.solve(*problem);
  expect_identical(a, b, "windowed");
}

// ---- Cross-layout equivalence ----------------------------------------------
// The storage-policy refactor must leave semantics untouched: layouts that
// store the same entry set are bit-identical in every observable, and all
// layouts agree on the converged tables.

TEST(CrossLayout, DenseAndWideBandAgreeBitForBitOnEveryFamily) {
  // The entries-indexed dense layout and a banded table with band = n
  // store exactly the same entry set (only the addressing differs), so
  // costs, w tables, iteration schedules and per-iteration change counts
  // must match bit for bit — oracle and fast path alike.
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(4242);
    const std::size_t n = 21;
    const auto problem = bench::make_instance(family, n, rng);

    const auto ref =
        run_config(*problem, reference_config(), PwVariant::kDense);
    EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost) << family;

    const auto dense_fast = run_config(
        *problem, {"dense,fast", false, pram::Backend::kSerial},
        PwVariant::kDense);
    expect_identical(ref, dense_fast, family + " / dense fast");

    for (const bool fast : {false, true}) {
      SublinearOptions options;
      options.variant = PwVariant::kBanded;
      options.band_width = n;  // wide band: stores every slack, like dense
      options.machine.record_costs = !fast;
      SolveSession session(SolvePlan::create(n, options));
      const auto got = session.solve(*problem);
      expect_identical(ref, got,
                       family + (fast ? " / wide-band fast"
                                      : " / wide-band oracle"));
    }
  }
}

TEST(CrossLayout, DenseAndBandedConvergeToTheSameTables) {
  // Different stored sets (Sec. 2 vs Sec. 5) take different iteration
  // paths, but both fixed points are the full optimum: final w tables and
  // costs agree with each other and with sequential DP.
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(911);
    const auto problem = bench::make_instance(family, 26, rng);
    SublinearOptions fast;
    fast.machine.record_costs = false;

    SublinearOptions dense_opts = fast;
    dense_opts.variant = PwVariant::kDense;
    SolveSession dense_session(SolvePlan::create(26, dense_opts));
    const auto dense = dense_session.solve(*problem);

    SublinearOptions banded_opts = fast;
    banded_opts.variant = PwVariant::kBanded;
    SolveSession banded_session(SolvePlan::create(26, banded_opts));
    const auto banded = banded_session.solve(*problem);

    EXPECT_EQ(dense.cost, dp::solve_sequential(*problem).cost) << family;
    EXPECT_EQ(dense.cost, banded.cost) << family;
    EXPECT_TRUE(dense.w == banded.w) << family << ": w tables differ";
  }
}

TEST(CrossLayout, DensePastTheOldCubeCapSolvesCorrectly) {
  // n = 80 would have needed a 330-MB (n+1)^4 cube (rejected at 64); the
  // entries-indexed layout handles it in ~14 MB and still matches
  // sequential DP and the banded layout.
  support::Rng rng(8080);
  const std::size_t n = 80;
  const auto problem = bench::make_instance("matrix-chain", n, rng);
  SublinearOptions dense_opts;
  dense_opts.variant = PwVariant::kDense;
  dense_opts.machine.record_costs = false;
  SolveSession dense_session(SolvePlan::create(n, dense_opts));
  const auto dense = dense_session.solve(*problem);
  EXPECT_EQ(dense.cost, dp::solve_sequential(*problem).cost);

  SublinearOptions banded_opts;
  banded_opts.machine.record_costs = false;
  SolveSession banded_session(SolvePlan::create(n, banded_opts));
  const auto banded = banded_session.solve(*problem);
  EXPECT_EQ(dense.cost, banded.cost);
  EXPECT_TRUE(dense.w == banded.w);
}

TEST(CrossLayout, PlanEnforcesTheNewDenseLimit) {
  class SizedProblem final : public dp::Problem {
   public:
    explicit SizedProblem(std::size_t n) : n_(n) {}
    [[nodiscard]] std::size_t size() const override { return n_; }
    [[nodiscard]] Cost init(std::size_t) const override { return 0; }
    [[nodiscard]] Cost f(std::size_t, std::size_t, std::size_t) const
        override {
      return 0;
    }
    [[nodiscard]] std::string name() const override { return "sized"; }

   private:
    std::size_t n_;
  };

  SublinearOptions dense_opts;
  dense_opts.variant = PwVariant::kDense;

  // Rejected up front (before any table allocation).
  EXPECT_THROW((void)SolvePlan::create(DensePwTable::kMaxDenseN + 1,
                                       dense_opts),
               std::invalid_argument);

  // Accepted well past the old 64 cube cap.
  const SizedProblem past_old_cap(80);
  SolveSession session(SolvePlan::create(80, dense_opts));
  session.reset(past_old_cap);
  EXPECT_GT(session.pw_cell_count(), 0u);
}

// ---- Step profiles (observability) -----------------------------------------
// `SublinearOptions::profile` records one StepProfile per iteration. The
// bit-identical guarantee is covered by the profiled configs above; here
// the counters themselves must reconcile: every quad and pair the sweep
// owns is either scanned or accounted to a skip, exactly once.

TEST(StepProfiles, CountersReconcilePerStepOnEveryFamily) {
  for (const std::string& family : bench::instance_families()) {
    for (const PwVariant variant : {PwVariant::kBanded, PwVariant::kDense}) {
      support::Rng rng(606);
      const auto problem = bench::make_instance(family, 24, rng);
      SublinearOptions options;
      options.variant = variant;
      options.profile = true;
      options.machine.record_costs = false;  // engage the fast sweeps
      const auto plan = SolvePlan::create(problem->size(), options);
      SolveSession session(plan);
      const auto result = session.solve(*problem);
      EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost) << family;

      const std::vector<StepProfile>& profiles = session.step_profile();
      ASSERT_EQ(profiles.size(), result.iterations) << family;
      for (std::size_t t = 0; t < profiles.size(); ++t) {
        const StepProfile& p = profiles[t];
        const std::string label = family + " iteration " + std::to_string(t);
        EXPECT_EQ(p.iteration, t + 1) << label;
        EXPECT_EQ(p.square_quads_scanned + p.square_quads_skipped +
                      p.square_quads_block_skipped,
                  p.square_quads_total)
            << label;
        EXPECT_EQ(p.pebble_pairs_scanned + p.pebble_pairs_skipped,
                  p.pebble_pairs_total)
            << label;
        // Skipping a whole block accounts all of its quads at once.
        if (p.square_blocks_skipped > 0) {
          EXPECT_GT(p.square_quads_block_skipped, 0u) << label;
        }
        // Frontier density accounting is a subset relation.
        EXPECT_LE(p.frontier_sites, p.total_split_sites) << label;
        // One from-scratch grid build per skipping sweep: the frontier
        // pebble skips from iteration 1, the root-major square (HLV,
        // non-windowed) from iteration 2 on, once movement marks exist.
        EXPECT_EQ(p.mark_updates_incremental, 0u) << label;
        EXPECT_EQ(p.mark_updates_rebuilt, t == 0 ? 1u : 2u) << label;
      }
      // The sweeps genuinely ran: some work is attributed somewhere.
      std::uint64_t total_quads = 0;
      std::uint64_t total_pairs = 0;
      for (const StepProfile& p : profiles) {
        total_quads += p.square_quads_total;
        total_pairs += p.pebble_pairs_total;
      }
      EXPECT_GT(total_quads, 0u) << family;
      EXPECT_GT(total_pairs, 0u) << family;
    }
  }
}

TEST(StepProfiles, EmptyWhenProfilingIsOff) {
  support::Rng rng(607);
  const auto problem = bench::make_instance("matrix-chain", 18, rng);
  SublinearOptions options;  // profile defaults to false
  options.machine.record_costs = false;
  const auto plan = SolvePlan::create(problem->size(), options);
  SolveSession session(plan);
  const auto result = session.solve(*problem);
  EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost);
  EXPECT_TRUE(session.step_profile().empty());
}

TEST(StepProfiles, SurvivesSessionResetAndRepeatedSolves) {
  // A pooled session is reset across jobs; each solve's profile must
  // describe that solve alone, not accumulate across resets.
  support::Rng rng(608);
  const auto a = bench::make_instance("matrix-chain", 20, rng);
  const auto b = bench::make_instance("optimal-bst", 20, rng);
  SublinearOptions options;
  options.profile = true;
  options.machine.record_costs = false;
  const auto plan = SolvePlan::create(20, options);
  SolveSession session(plan);
  const auto ra = session.solve(*a);
  EXPECT_EQ(session.step_profile().size(), ra.iterations);
  const auto rb = session.solve(*b);
  EXPECT_EQ(session.step_profile().size(), rb.iterations);
}

TEST(FastPath, OversizedInstancesAreRejectedUpFront) {
  // Pair/quad packing must not silently truncate huge n: plans reject
  // sizes past the packed-coordinate cap.
  EXPECT_THROW((void)SolvePlan::create(kMaxPackedN + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace subdp::core
