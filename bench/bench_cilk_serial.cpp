// E4 — Fig. 5(a): relative serial execution time of the asymmetric runtime
// (ACilk-5: victim pays a compiler fence, i.e. the l-mfence software
// prototype) against the symmetric baseline (Cilk-5: mfence per pop), for
// the 12 benchmarks of Fig. 4.
//
// Expected shape (paper): every bar below 1; the uncoarsened spawn-bound
// benchmarks (fib, fibx, knapsack) gain the most — fib's spawn overhead is
// roughly halved — while coarsened benchmarks hover just below 1.
//
// Usage: bench_cilk_serial [--test] [reps]

#include <cstdio>
#include <cstring>
#include <string>

#include "lbmf/cilkbench/registry.hpp"
#include "lbmf/model/cost_model.hpp"
#include "lbmf/util/timing.hpp"

using namespace lbmf;
using cilkbench::Benchmark;
using cilkbench::Scale;

namespace {

/// Best wall time of `reps` runs; `spawns` gets the spawns of one run.
template <FencePolicy P>
double best_of(ws::Scheduler<P>& sched, const Benchmark& b, int reps,
               std::uint64_t* checksum, std::uint64_t* spawns) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t before = sched.stats().spawns;
    Stopwatch sw;
    *checksum = cilkbench::run_on(sched, b);
    best = std::min(best, sw.seconds());
    *spawns = sched.stats().spawns - before;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Scale scale = Scale::kBench;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--test") == 0) scale = Scale::kTest;
    else reps = std::atoi(argv[i]);
  }

  const auto sym_list = cilkbench::all_benchmarks<SymmetricFence>(scale);
  const auto asym_list =
      cilkbench::all_benchmarks<AsymmetricSignalFence>(scale);
  const auto base_list = cilkbench::all_benchmarks<UnsafeNoFence>(scale);

  ws::Scheduler<SymmetricFence> sym(1);
  ws::Scheduler<AsymmetricSignalFence> asym(1);
  ws::Scheduler<UnsafeNoFence> base(1);

  const model::CostTable table;

  std::printf("Fig. 5(a) — relative SERIAL execution time, asym/sym "
              "(< 1: l-mfence wins)\n\n");
  std::printf("%-10s %9s %9s %9s | %8s %8s %8s | %10s\n", "benchmark",
              "sym(ms)", "asym(ms)", "base(ms)", "measured", "mdl:sig",
              "mdl:lest", "spawns");

  for (std::size_t i = 0; i < sym_list.size(); ++i) {
    std::uint64_t cs_sym = 0, cs_asym = 0, cs_base = 0;
    std::uint64_t spawns_sym = 0, spawns_asym = 0, spawns_base = 0;
    const double t_sym =
        best_of(sym, sym_list[i], reps, &cs_sym, &spawns_sym);
    const double t_asym =
        best_of(asym, asym_list[i], reps, &cs_asym, &spawns_asym);
    const double t_base =
        best_of(base, base_list[i], reps, &cs_base, &spawns_base);
    if (cs_sym != cs_asym || cs_sym != cs_base) {
      std::fprintf(stderr, "checksum mismatch on %s\n",
                   sym_list[i].name.c_str());
      return 1;
    }
    model::WsCounts counts;
    counts.spawns = spawns_base;
    counts.steal_attempts = 0;  // serial: no thieves exist
    counts.steals_success = 0;
    counts.work_cycles = t_base * tsc_hz();
    const double mdl_sig =
        model::ws_relative_time(counts, 1, model::FenceImpl::kSignal, table);
    const double mdl_lest =
        model::ws_relative_time(counts, 1, model::FenceImpl::kLest, table);

    std::printf("%-10s %9.2f %9.2f %9.2f | %8.3f %8.3f %8.3f | %10llu\n",
                sym_list[i].name.c_str(), t_sym * 1e3, t_asym * 1e3,
                t_base * 1e3, t_sym > 0 ? t_asym / t_sym : 0.0, mdl_sig,
                mdl_lest, static_cast<unsigned long long>(spawns_base));
  }

  std::printf(
      "\nmeasured: asym/sym wall time on this host (1 worker).\n"
      "mdl:sig / mdl:lest: cost-model prediction from event counts with the\n"
      "paper's constants (mfence 100cy; signal victim-free; LE/ST ~3cy).\n");
  return 0;
}
