// Experiment E9: real multicore wall-clock times.
//
// A google-benchmark micro-suite: the sequential DP against the
// diagonal-parallel wavefront and the sublinear solver on the serial and
// thread-pool backends, the sublinear solver's two engine paths
// ("reference", the instrumented oracle with the PRAM ledger on, and
// "fast", the ledger off) at the paper's band, the dense variant (band n)
// on the fast path, and the raw pebbling game. Each solver iteration builds a
// fresh plan, so the timings include plan construction.
//
// The PRAM results are about operation counts; this suite grounds the
// simulator on actual hardware. On a machine with few cores the
// backend speedups are correspondingly modest — the *shape* to check is
// that parallel backends do not lose to serial on the larger sizes and
// that the fast path beats the reference engine. End-to-end serving
// performance is measured by perfbench (perfbench/README.md).

#include <benchmark/benchmark.h>

#include <string>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "dp/wavefront.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"
#include "trees/pebble_game.hpp"

namespace {

using namespace subdp;

dp::MatrixChainProblem make_chain(std::size_t n) {
  support::Rng rng(1234 + n);
  return dp::MatrixChainProblem::random(n, rng);
}

void BM_SequentialDp(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::solve_sequential(problem).cost);
  }
}
BENCHMARK(BM_SequentialDp)->Arg(64)->Arg(128)->Arg(256);

void BM_Wavefront(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  const auto backend = static_cast<pram::Backend>(state.range(1));
  pram::MachineOptions opts;
  opts.backend = backend;
  opts.record_costs = false;
  for (auto _ : state) {
    pram::Machine machine(opts);
    benchmark::DoNotOptimize(dp::solve_wavefront(problem, machine).cost);
  }
  state.SetLabel(pram::to_string(backend));
}
BENCHMARK(BM_Wavefront)
    ->Args({256, static_cast<int>(pram::Backend::kSerial)})
    ->Args({256, static_cast<int>(pram::Backend::kThreadPool)});

// range(2) selects the engine path: 0 = reference (the instrumented
// oracle), 1 = fast (ledger off, frontier-driven sweeps).
void BM_SublinearBanded(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  const auto backend = static_cast<pram::Backend>(state.range(1));
  const bool fast = state.range(2) != 0;
  for (auto _ : state) {
    core::SublinearOptions options;
    options.machine.backend = backend;
    options.machine.record_costs = !fast;
    core::SolveSession session(
        core::SolvePlan::create(problem.size(), options));
    benchmark::DoNotOptimize(session.solve(problem).cost);
  }
  state.SetLabel(std::string(pram::to_string(backend)) +
                 (fast ? "/fast" : "/reference"));
}
BENCHMARK(BM_SublinearBanded)
    ->Args({32, static_cast<int>(pram::Backend::kSerial), 0})
    ->Args({32, static_cast<int>(pram::Backend::kSerial), 1})
    ->Args({32, static_cast<int>(pram::Backend::kThreadPool), 1})
    ->Args({64, static_cast<int>(pram::Backend::kSerial), 0})
    ->Args({64, static_cast<int>(pram::Backend::kSerial), 1})
    ->Args({64, static_cast<int>(pram::Backend::kThreadPool), 1});

void BM_SublinearDense(benchmark::State& state) {
  const auto problem = make_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::SublinearOptions options;
    options.variant = core::PwVariant::kDense;
    options.machine.record_costs = false;
    core::SolveSession session(
        core::SolvePlan::create(problem.size(), options));
    benchmark::DoNotOptimize(session.solve(problem).cost);
  }
}
BENCHMARK(BM_SublinearDense)->Arg(32)->Arg(48)->Arg(96);

void BM_PebbleGame(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tree = trees::make_tree(trees::TreeShape::kZigzag, n);
  for (auto _ : state) {
    trees::PebbleGame game(tree);
    game.run_until_root(support::two_ceil_sqrt(n));
    benchmark::DoNotOptimize(game.moves_made());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.node_count()));
}
BENCHMARK(BM_PebbleGame)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
