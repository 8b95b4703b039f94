// Equivalence tests for the engine's two execution paths
// (core/engine.hpp). The oracle is the instrumented engine, asked for
// with `record_costs = true` (and run by every Rytter session):
// `Machine::step`, full sweeps, operands read through the layout's
// general `get`, with the PRAM ledger whose values test_golden pins. The
// fast path, which default options take (`record_costs = false`), runs
// frontier-driven sweeps, the semi-naive tiled square, `PwGapRun` pebble
// scans and the visit and containment tests behind its skips. Every fast
// configuration — the untouched defaults, serial or thread pool,
// profiled or not — and the counted engine on the thread pool must
// produce output identical to the serial oracle: the same w table, cost,
// iteration count, and per-iteration change counts, across every
// instance family in bench/common.hpp and both pw-table layouts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
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
  /// true leaves every option but the variant as `SublinearOptions{}`
  /// has it, ignoring the fields above.
  bool defaults = false;
};

SublinearResult run_config(const dp::Problem& problem,
                           const EngineConfig& config, PwVariant variant) {
  SublinearOptions options;
  options.variant = variant;
  if (!config.defaults) {
    options.profile = config.profile;
    options.machine.record_costs = config.record_costs;
    options.machine.backend = config.backend;
  }
  SolveSession session(SolvePlan::create(problem.size(), options));
  SublinearResult result = session.solve(problem);
  if (config.defaults) {
    // Default options take the fast path: no ledger unless asked for.
    EXPECT_FALSE(session.machine().instrumented()) << config.name;
    EXPECT_EQ(session.machine().costs().total_work(), 0u) << config.name;
    EXPECT_EQ(session.machine().costs().total_depth(), 0u) << config.name;
    EXPECT_EQ(session.machine().costs().step_count(), 0u) << config.name;
  }
  return result;
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
      {"defaults", false, pram::Backend::kSerial, false, true},
      {"fast,serial", false, pram::Backend::kSerial},
      {"fast,threads", false, pram::Backend::kThreadPool},
      {"counted,threads", true, pram::Backend::kThreadPool},
      // Observability: per-step profiling on must be bit-identical to the
      // oracle — recording never steers a sweep, serial or threaded.
      {"fast,serial,profiled", false, pram::Backend::kSerial, true},
      {"fast,threads,profiled", false, pram::Backend::kThreadPool, true},
  };
}

/// Every w cell, then every stored pw cell, in a fixed order.
std::vector<Cost> capture_cells(const SolveSession& session) {
  const std::size_t n = session.plan().n();
  const std::size_t band = session.plan().effective_band();  // n if dense
  std::vector<Cost> cells;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      cells.push_back(session.current_w(i, j));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          if ((j - i) - (q - p) <= band || p == i || q == j) {
            cells.push_back(session.current_pw(i, j, p, q));
          }
        }
      }
    }
  }
  return cells;
}

/// One step's observable result: its change counts and the cells after.
struct StepRecord {
  IterationOutcome outcome;
  std::vector<Cost> cells;
};

StepRecord step_and_capture(SolveSession& session) {
  const IterationOutcome outcome = session.step();
  return {outcome, capture_cells(session)};
}

/// The oracle's per-iteration records for `problem` under `options`.
std::vector<StepRecord> oracle_steps(const dp::Problem& problem,
                                     SublinearOptions options) {
  options.machine.record_costs = true;
  options.machine.backend = pram::Backend::kSerial;
  SolveSession session(SolvePlan::create(problem.size(), options));
  session.reset(problem);
  std::vector<StepRecord> steps;
  for (std::size_t t = 0; t < session.plan().iteration_bound(); ++t) {
    steps.push_back(step_and_capture(session));
  }
  return steps;
}

void expect_step_matches(const StepRecord& ref, const StepRecord& got,
                         const std::string& label) {
  EXPECT_EQ(ref.outcome.activate_changed, got.outcome.activate_changed)
      << label;
  EXPECT_EQ(ref.outcome.square_changed, got.outcome.square_changed)
      << label;
  EXPECT_EQ(ref.outcome.pebble_changed, got.outcome.pebble_changed)
      << label;
  EXPECT_TRUE(ref.cells == got.cells) << label << ": cells differ";
}

SublinearOptions fast_options(PwVariant variant, pram::Backend backend,
                              std::size_t band_width = 0) {
  SublinearOptions options;
  options.variant = variant;
  options.band_width = band_width;
  options.machine.record_costs = false;
  options.machine.backend = backend;
  return options;
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
  const SublinearOptions options =
      fast_options(PwVariant::kBanded, pram::Backend::kSerial);
  const auto ref = oracle_steps(*problem, options);
  SolveSession fast(SolvePlan::create(n, options));
  fast.reset(*problem);
  for (std::size_t t = 0; t < ref.size(); ++t) {
    expect_step_matches(ref[t], step_and_capture(fast),
                        "iteration " + std::to_string(t + 1));
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
  // The windowed schedule disables frontier sweeps internally: its fast
  // a-activate sweeps every split of every root and takes the tiled
  // square's edge snapshot in the same pass. Both must match the oracle
  // per iteration, serial and on the pool.
  const std::size_t n = 30;
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(55);
    const auto problem = bench::make_instance(family, n, rng);
    for (const pram::Backend backend :
         {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
      SublinearOptions options = fast_options(PwVariant::kBanded, backend);
      options.windowed_pebble = true;
      options.termination = TerminationMode::kFixedBound;
      const auto ref = oracle_steps(*problem, options);
      SolveSession session(SolvePlan::create(n, options));
      session.reset(*problem);
      for (std::size_t t = 0; t < ref.size(); ++t) {
        expect_step_matches(ref[t], step_and_capture(session),
                            family + " windowed " + pram::to_string(backend) +
                                " iteration " + std::to_string(t + 1));
      }
      EXPECT_EQ(session.current_w(0, n), dp::solve_sequential(*problem).cost)
          << family << " " << pram::to_string(backend);
    }
  }
}

TEST(FastPath, LedgerFreeRytterSessionMatchesTheCountedOraclePerIteration) {
  // A Rytter session always runs the oracle's sweeps; without a ledger
  // `Machine::step` keeps no costs, and the results must still be the
  // counted serial oracle's, per iteration, serial and on the pool.
  support::Rng rng(2020);
  const std::size_t n = 12;
  const auto problem = bench::make_instance("optimal-bst", n, rng);
  for (const pram::Backend backend :
       {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
    SublinearOptions options = fast_options(PwVariant::kDense, backend);
    options.square_mode = SquareMode::kRytterFull;
    const auto ref = oracle_steps(*problem, options);
    SolveSession session(SolvePlan::create(n, options));
    session.reset(*problem);
    for (std::size_t t = 0; t < ref.size(); ++t) {
      expect_step_matches(ref[t], step_and_capture(session),
                          std::string(pram::to_string(backend)) +
                              " iteration " + std::to_string(t + 1));
    }
    EXPECT_EQ(session.machine().costs().step_count(), 0u);
  }
}

// ---- Narrow bands and the edge snapshot ------------------------------------
// The tiled HLV square reads its second operands from the root edges that
// the step's a-activate snapshots into the stepping thread's scratch
// buffer. These tests pin the short edges (B = 1-3, and roots near the
// table ends, whose edges stop at slack j - i - 1) and the buffer's
// lifetime (rewritten every step, never stale across sessions, shapes or
// threads), per iteration against the oracle.

TEST(FastPath, NarrowBandsMatchTheOraclePerIteration) {
  // B = 1 leaves only identity candidates; B = 2, 3 exercise one- and
  // two-cell edges and tiles. Bands this narrow need not reach the
  // optimum within the iteration bound, so the check is bit-identity to
  // the oracle, not to sequential DP.
  const std::size_t n = 19;
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(1903);
    const auto problem = bench::make_instance(family, n, rng);
    for (const std::size_t band : {1, 2, 3}) {
      const auto ref = oracle_steps(
          *problem, fast_options(PwVariant::kBanded,
                                 pram::Backend::kSerial, band));
      for (const pram::Backend backend :
           {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
        SolveSession session(SolvePlan::create(
            n, fast_options(PwVariant::kBanded, backend, band)));
        ASSERT_EQ(session.plan().effective_band(), band);
        session.reset(*problem);
        for (std::size_t t = 0; t < ref.size(); ++t) {
          expect_step_matches(
              ref[t], step_and_capture(session),
              family + " B=" + std::to_string(band) + " " +
                  pram::to_string(backend) + " iteration " +
                  std::to_string(t + 1));
        }
      }
    }
  }
}

TEST(FastPath, OperandScratchIsRegatheredAcrossSessionsOfTwoShapes) {
  // One thread steps a banded and a dense session of different n in
  // turn, so its edge buffer alternates between two shapes (the larger
  // leaves stale slots past the smaller's extent) and each step must
  // snapshot before its square reads.
  support::Rng rng(31);
  const auto banded_problem = bench::make_instance("zigzag", 30, rng);
  const auto dense_problem = bench::make_instance("optimal-bst", 17, rng);
  for (const pram::Backend backend :
       {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
    const auto banded_options = fast_options(PwVariant::kBanded, backend);
    const auto dense_options = fast_options(PwVariant::kDense, backend);
    const auto banded_ref = oracle_steps(*banded_problem, banded_options);
    const auto dense_ref = oracle_steps(*dense_problem, dense_options);
    SolveSession banded(SolvePlan::create(30, banded_options));
    SolveSession dense(SolvePlan::create(17, dense_options));
    banded.reset(*banded_problem);
    dense.reset(*dense_problem);
    const std::size_t steps = std::max(banded_ref.size(), dense_ref.size());
    for (std::size_t t = 0; t < steps; ++t) {
      const std::string at = std::string(pram::to_string(backend)) +
                             " iteration " + std::to_string(t + 1);
      if (t < banded_ref.size()) {
        expect_step_matches(banded_ref[t], step_and_capture(banded),
                            "banded " + at);
      }
      if (t < dense_ref.size()) {
        expect_step_matches(dense_ref[t], step_and_capture(dense),
                            "dense " + at);
      }
    }
  }
}

TEST(FastPath, OperandScratchFollowsTheSteppingThread) {
  // One session is stepped by two threads in strict turns, so each step
  // runs on a thread whose buffer was last written two steps earlier:
  // reading it without a fresh snapshot would fold stale operands.
  support::Rng rng(32);
  const std::size_t n = 28;
  const auto problem = bench::make_instance("matrix-chain", n, rng);
  for (const pram::Backend backend :
       {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
    const auto options = fast_options(PwVariant::kBanded, backend);
    const auto ref = oracle_steps(*problem, options);
    SolveSession session(SolvePlan::create(n, options));
    session.reset(*problem);

    std::vector<StepRecord> got(ref.size());
    std::mutex mu;
    std::condition_variable turn_changed;
    std::size_t turn = 0;
    const auto stepper = [&](std::size_t parity) {
      for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        turn_changed.wait(lock, [&] {
          return turn >= ref.size() || turn % 2 == parity;
        });
        if (turn >= ref.size()) return;
        got[turn] = step_and_capture(session);
        ++turn;
        turn_changed.notify_all();
      }
    };
    std::thread even(stepper, 0);
    std::thread odd(stepper, 1);
    even.join();
    odd.join();
    for (std::size_t t = 0; t < ref.size(); ++t) {
      expect_step_matches(ref[t], got[t],
                          std::string(pram::to_string(backend)) +
                              " iteration " + std::to_string(t + 1));
    }
  }
}

// ---- Cross-variant equivalence ---------------------------------------------
// Both variants run the one layout: plans that store the same entry set are
// bit-identical in every observable, and every band agrees on the
// converged tables.

TEST(CrossLayout, DenseAndWideBandAgreeBitForBitOnEveryFamily) {
  // A dense plan is the layout at band n, so a banded plan asking for
  // band_width = n stores exactly the same entry set: costs, w tables,
  // iteration schedules and per-iteration change counts must match bit for
  // bit — oracle and fast path alike.
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
  // full-band layout handles it in ~14 MB and still matches sequential DP
  // and the paper's band.
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
  EXPECT_THROW((void)SolvePlan::create(SolvePlan::kMaxDenseN + 1,
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
// owns is either scanned or accounted to a skip, exactly once, and the
// semi-naive square evaluates fewer candidates than a full sweep.

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
        EXPECT_LE(p.square_candidates_evaluated, p.square_candidates_total)
            << label;
        if (t > 0) {
          // From the second square on, only candidates with an operand
          // that moved since the last one are evaluated.
          EXPECT_LT(p.square_candidates_evaluated, p.square_candidates_total)
              << label;
        }
        EXPECT_EQ(p.pebble_pairs_scanned + p.pebble_pairs_skipped,
                  p.pebble_pairs_total)
            << label;
        // Skipping a whole block accounts all of its quads at once.
        if (p.square_blocks_skipped > 0) {
          EXPECT_GT(p.square_quads_block_skipped, 0u) << label;
        }
        // Frontier density accounting is a subset relation.
        EXPECT_LE(p.frontier_sites, p.total_split_sites) << label;
        // One from-scratch grid build per skipping sweep: the tiled
        // square and the frontier pebble both skip from iteration 1.
        EXPECT_EQ(p.mark_updates_incremental, 0u) << label;
        EXPECT_EQ(p.mark_updates_rebuilt, 2u) << label;
      }
      // The sweeps genuinely ran: some work is attributed somewhere.
      std::uint64_t total_quads = 0;
      std::uint64_t total_pairs = 0;
      std::uint64_t evaluated = 0;
      for (const StepProfile& p : profiles) {
        total_quads += p.square_quads_total;
        total_pairs += p.pebble_pairs_total;
        evaluated += p.square_candidates_evaluated;
      }
      EXPECT_GT(total_quads, 0u) << family;
      EXPECT_GT(total_pairs, 0u) << family;
      EXPECT_GT(evaluated, 0u) << family;
    }
  }
}

/// Per-iteration a-square ledger of one seeded solve:
/// `{square_candidates_evaluated, square_blocks_scanned}` per iteration.
struct SquareLedgerPin {
  std::string family;
  PwVariant variant;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steps;
};

// Seed 606, n = 24, recorded with the two-pass tile and the 2-D
// containment skip over moved roots. Semi-naive evaluation fixes the
// candidate count exactly, whatever the tile's loop order or visit test:
// a skipped tile that had a candidate lowers it, and a candidate
// evaluated twice raises it. The visit test may only visit fewer blocks.
const std::vector<SquareLedgerPin> kSquareLedgerPins = {
    {"matrix-chain", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {39645, 231}, {33435, 210}, {6016, 173},
      {98, 112}}},
    {"matrix-chain", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {61625, 231}, {122851, 210}, {74614, 173},
      {14447, 112}, {368, 52}, {20, 5}}},
    {"optimal-bst", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {37221, 231}, {21549, 210}, {894, 172},
      {12, 126}, {0, 74}}},
    {"optimal-bst", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {58463, 231}, {107285, 210}, {41622, 172},
      {5872, 126}, {186, 78}, {0, 30}}},
    {"triangulation", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {39932, 231}, {34244, 210}, {6083, 172},
      {72, 116}}},
    {"triangulation", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {61924, 231}, {123802, 210}, {75231, 172},
      {13421, 116}, {264, 34}}},
    {"zigzag", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {37461, 231}, {21435, 179}, {4031, 124},
      {1886, 113}, {850, 102}, {310, 92}, {78, 78}, {0, 69}}},
    {"zigzag", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {59035, 231}, {106600, 179}, {60204, 126},
      {33963, 113}, {22894, 102}, {16858, 92}, {12442, 82}, {9116, 73}}},
    {"skewed", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {36977, 231}, {14881, 173}, {660, 24},
      {0, 14}}},
    {"skewed", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {58351, 231}, {91878, 173}, {19756, 54},
      {4060, 14}, {140, 6}}},
    {"complete", PwVariant::kBanded,
     {{6276, 276}, {14000, 253}, {37014, 231}, {16516, 210}, {240, 177},
      {8, 121}}},
    {"complete", PwVariant::kDense,
     {{8096, 276}, {18550, 253}, {58256, 231}, {96891, 210}, {18719, 177},
      {2048, 121}, {44, 61}, {0, 8}}},
};

TEST(StepProfiles, SquareLedgerMatchesThePinnedCandidateCounts) {
  for (const SquareLedgerPin& pin : kSquareLedgerPins) {
    support::Rng rng(606);
    const auto problem = bench::make_instance(pin.family, 24, rng);
    SublinearOptions options;
    options.variant = pin.variant;
    options.profile = true;
    options.machine.record_costs = false;
    SolveSession session(SolvePlan::create(problem->size(), options));
    const auto result = session.solve(*problem);
    const std::string label =
        pin.family +
        (pin.variant == PwVariant::kBanded ? " banded" : " dense");
    EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost) << label;
    const std::vector<StepProfile>& profiles = session.step_profile();
    ASSERT_EQ(profiles.size(), pin.steps.size()) << label;
    for (std::size_t t = 0; t < profiles.size(); ++t) {
      EXPECT_EQ(profiles[t].square_candidates_evaluated, pin.steps[t].first)
          << label << " iteration " << t + 1;
      EXPECT_LE(profiles[t].square_blocks_scanned, pin.steps[t].second)
          << label << " iteration " << t + 1;
    }
  }
}

TEST(StepProfiles, PhaseTimersCoverTheStepsThatRanAndFitInsideIt) {
  // Each phase timer is positive whenever its phase ran, and the phases
  // are disjoint slices of the step, so they sum to at most the step's
  // externally timed wall time.
  using Clock = std::chrono::steady_clock;
  for (const std::string& family : bench::instance_families()) {
    for (const PwVariant variant : {PwVariant::kBanded, PwVariant::kDense}) {
      for (const bool oracle : {false, true}) {
        support::Rng rng(609);
        const auto problem = bench::make_instance(family, 22, rng);
        SublinearOptions options;
        options.variant = variant;
        options.profile = true;
        options.machine.record_costs = oracle;
        options.machine.backend = pram::Backend::kThreadPool;
        SolveSession session(SolvePlan::create(problem->size(), options));
        session.reset(*problem);
        std::vector<std::uint64_t> step_ns;
        for (std::size_t t = 0; t < session.plan().iteration_bound(); ++t) {
          const auto t0 = Clock::now();
          (void)session.step();
          step_ns.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count()));
        }
        const std::vector<StepProfile>& profiles = session.step_profile();
        ASSERT_EQ(profiles.size(), step_ns.size());
        for (std::size_t t = 0; t < profiles.size(); ++t) {
          const StepProfile& p = profiles[t];
          const std::string label = family + (oracle ? " oracle" : " fast") +
                                    " " + to_string(variant) +
                                    " iteration " + std::to_string(t + 1);
          // A frontier activate over an empty frontier does no work.
          if (!p.activate_used_frontier || p.frontier_sites > 0) {
            EXPECT_GT(p.activate_ns, 0u) << label;
          }
          EXPECT_GT(p.square_ns, 0u) << label;
          EXPECT_GT(p.pebble_ns, 0u) << label;  // no pebble window
          if (p.pw_log_entries + p.w_log_entries > 0) {
            EXPECT_GT(p.log_apply_ns, 0u) << label;
          }
          if (oracle) {
            EXPECT_EQ(p.mark_grid_ns, 0u) << label;
          } else {
            EXPECT_EQ(p.mark_grid_ns > 0, p.mark_updates_rebuilt > 0)
                << label;
          }
          EXPECT_LE(p.activate_ns + p.square_ns + p.pebble_ns +
                        p.mark_grid_ns + p.log_apply_ns,
                    step_ns[t])
              << label;
        }
      }
    }
  }
}

/// Counts `f` evaluations (atomically: pool workers call it concurrently).
class CountingProblem final : public dp::Problem {
 public:
  explicit CountingProblem(const dp::Problem& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] Cost init(std::size_t i) const override {
    return inner_.init(i);
  }
  [[nodiscard]] Cost f(std::size_t i, std::size_t k,
                       std::size_t j) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return inner_.f(i, k, j);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t evals() const { return evals_.load(); }

 private:
  const dp::Problem& inner_;
  mutable std::atomic<std::uint64_t> evals_{0};
};

TEST(StepProfiles, FrontierActivateEvaluatesExactlyTheFrontierSites) {
  // `f` is called only by a-activate, so on the fast path each
  // iteration's calls are its frontier sweep's work: one per site that
  // reads a moved `w`, no more (a sweep that evaluated extra sites) and
  // no less (one that dropped a site would also fail the bit-identity
  // tests above).
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(610);
    const auto inner = bench::make_instance(family, 26, rng);
    const CountingProblem problem(*inner);
    for (const pram::Backend backend :
         {pram::Backend::kSerial, pram::Backend::kThreadPool}) {
      SublinearOptions options = fast_options(PwVariant::kBanded, backend);
      options.profile = true;
      SolveSession session(SolvePlan::create(problem.size(), options));
      session.reset(problem);
      std::uint64_t sites_total = 0;
      for (std::size_t t = 0; t < session.plan().iteration_bound(); ++t) {
        const std::uint64_t before = problem.evals();
        (void)session.step();
        const StepProfile& p = session.step_profile().back();
        const std::string label = family + " " + pram::to_string(backend) +
                                  " iteration " + std::to_string(t + 1);
        EXPECT_TRUE(p.activate_used_frontier) << label;
        EXPECT_EQ(problem.evals() - before, p.frontier_sites) << label;
        sites_total += p.frontier_sites;
      }
      EXPECT_GT(sites_total, 0u) << family;
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
