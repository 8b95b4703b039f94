// Experiment E7b (Sec. 5 sensitivity): how small can the slack band B be?
//
// Reproduces: B = 2*ceil(sqrt n) (the paper's choice) is always safe
// within the fixed schedule; much smaller bands break the adversarial
// zigzag family (they cannot carry the chain compositions fast enough)
// while typical instances tolerate smaller bands. Costs only ever
// *overshoot* when the band is too small — relaxation never undershoots.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "dp/sequential.hpp"
#include "support/cli.hpp"

using namespace subdp;

int main(int argc, char** argv) {
  support::ArgParser args("E7b: band-width sensitivity");
  args.add_int("n", 49, "instance size");
  args.add_int("seed", 19, "random seed");
  args.add_string("csv", "", "optional CSV output path");
  if (!args.parse(argc, argv)) return 2;

  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const std::size_t paper_band = support::two_ceil_sqrt(n);

  support::TableWriter table(
      "E7b: result quality vs band width B (fixed 2*ceil(sqrt n) "
      "schedule; n = " + std::to_string(n) + ", paper B = " +
          std::to_string(paper_band) + ")",
      {"family", "B", "iterations", "cost/optimal", "correct",
       "square work"});

  for (const std::string family : {"zigzag", "matrix-chain"}) {
    support::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
    const auto problem = bench::make_instance(family, n, rng);
    const Cost optimal = dp::solve_sequential(*problem).cost;
    for (std::size_t band = 1; band <= paper_band + 2; band += 2) {
      core::SublinearOptions options;
      options.band_width = band;
      options.termination = core::TerminationMode::kFixedBound;
      options.machine.record_costs = true;
      core::SolveSession session(core::SolvePlan::create(n, options));
      const auto result = session.solve(*problem);
      const bool correct = result.cost == optimal;
      const double rel =
          optimal > 0 ? static_cast<double>(result.cost) /
                            static_cast<double>(optimal)
                      : (result.cost == 0 ? 1.0 : -1.0);
      table.add_row({family, static_cast<std::int64_t>(band),
                     static_cast<std::int64_t>(result.iterations),
                     is_finite(result.cost) ? rel : -1.0,
                     std::string(correct ? "yes" : "no"),
                     static_cast<std::int64_t>(
                         session.machine()
                             .costs()
                             .phase_totals()
                             .at("a-square")
                             .work)});
      if (result.cost < optimal) {
        std::fprintf(stderr, "UNDERSHOOT at %s B=%zu — impossible for a "
                     "relaxation\n", family.c_str(), band);
        return 1;
      }
    }
  }

  table.print(std::cout);
  bench::maybe_write_csv(table, args.get_string("csv"));
  std::printf(
      "\nPaper's claim: B = 2*ceil(sqrt n) suffices for every instance "
      "within the fixed schedule. Expected shape: zigzag rows become "
      "correct only once B (together with the schedule) can carry its "
      "chains; matrix-chain rows tolerate much smaller bands; cost is "
      "never below optimal.\n");
  return 0;
}
