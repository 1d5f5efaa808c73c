// Autotuning the replication factor — the paper's Section V future work:
// "the question of how to select the replication factor c ... can be
// autotuned at runtime by trying multiple factors."
//
// The Autotuner evaluates every valid c on phantom payloads against a
// machine model (exactly the schedules and ledgers a real trial timestep
// would produce) and picks the modeled-fastest. Here we tune the paper's
// own configurations and show where the optimum lands on each machine.
//
// Run: ./examples/autotune_replication [--p=24576] [--n=196608]
#include <iostream>

#include "core/autotuner.hpp"
#include "machine/presets.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace canb;

void tune_and_print(const std::string& title, core::Autotuner::Config cfg) {
  std::cout << "\n" << banner(title) << "\n\n";
  const auto result = core::Autotuner(std::move(cfg)).tune();
  Table t({{"c", 5}, {"time/step", 12, 5}, {"comm", 12, 5}, {"memory", 8}, {"", 4}});
  for (const auto& cand : result.candidates) {
    t.add_row({static_cast<long long>(cand.c), cand.seconds, cand.comm_seconds,
               std::string(std::to_string(cand.c) + "x"),
               std::string(cand.c == result.best_c ? "<--" : "")});
  }
  t.print(std::cout);
  std::cout << "  chosen: c=" << result.best_c << " at "
            << format_seconds(result.best_seconds) << "/step\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"p", "n"});
  const int p = static_cast<int>(args.get_int("p", 24576));
  const auto n = static_cast<std::uint64_t>(args.get_int("n", 196608));

  std::cout << "Replication-factor autotuning (paper Section V)\n";

  tune_and_print("All-pairs on Hopper, p=" + std::to_string(p) + ", n=" + std::to_string(n),
                 {p, n, machine::hopper(), 0, 0.0, 1});
  tune_and_print("All-pairs on Intrepid, p=32768, n=262144",
                 {32768, 262144, machine::intrepid(), 0, 0.0, 1});
  tune_and_print("1D cutoff (rc=l/4) on Hopper, p=" + std::to_string(p),
                 {p, n, machine::hopper(), 0, 0.25, 1});
  tune_and_print("2D cutoff (rc=l/4) on Intrepid, p=32768",
                 {32768, 262144, machine::intrepid(false, false), 0, 0.25, 2});

  std::cout << "\nThe paper's observation holds: the best c sits well inside (1, sqrt(p)),\n"
               "and differs per machine — hence 'c should be treated as a tuning\n"
               "parameter'. A memory cap (max_c) restricts the search to what fits.\n";
  return 0;
}
