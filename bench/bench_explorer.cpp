// E14 — explorer engine throughput: the rebuilt explorer (fingerprint
// dedup, iterative DFS with reusable frame slots, partial-order reduction,
// plus the Machine snapshot/fingerprint optimizations that came with it)
// against the seed engine it replaced, at equal max_states. The baseline
// is the *complete* seed stack — the seed-commit Machine (std::map memory,
// heap-vector cache lines, allocating canonical_state()/check_coherence())
// compiled verbatim from seed_baseline.{hpp,cpp}, driven by the seed's
// recursive DFS over a std::set of full canonical keys with one Machine
// copy per transition.
//
// Workload: two independent instances of the bundled asymmetric-Dekker
// protocol (l-mfence vs mfence) on one 4-CPU machine. A single pair's
// interleaving graph is only ~560 states — far too small for the visited
// set's asymptotics to matter — so the bench composes two pairs on disjoint
// flag addresses, giving the ~product graph (~310k states) where per-state
// costs dominate, exactly as they would on any non-toy model.
// Mutual-exclusion checking is off in BOTH engines (the two pairs
// legitimately occupy their critical sections concurrently); coherence
// checking stays on in both.
//
// E20 — explorer scale-up: the same binary also measures the three
// reductions that make the big-protocol inferences tractable.
//   symmetry    — three byte-identical Dekker sides; the canonical graph
//                 (states modulo CPU permutation) vs the exact graph, with
//                 equal verdicts (gate: >= 1.3x fewer states).
//   spill       — the exact run re-done under a 64 KiB visited-set budget:
//                 identical state/transition counts, but the cold
//                 fingerprints frozen into mmap'd segments (gate: >= 1
//                 segment, counters unchanged).
//   incremental — a holey Dekker swept over a freq x roundtrip grid, cold
//                 (every verification from the initial state) vs warm
//                 (verifications resume from the persisted hole-independent
//                 prefix region), with bit-identical optima (gate: warm
//                 total explorer work, prefix included, strictly below
//                 cold).
//
//   bench_explorer            # full measurement (120k-state budget)
//   bench_explorer --quick    # CI smoke mode (60k-state budget)
//
// Emits BENCH_explorer.json (states/sec and peak RSS of the default engine,
// the speedup and memory ratios vs the seed baseline, plus the E20
// symmetry/spill/incremental section) in the working directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define LBMF_BENCH_HAVE_RUSAGE 1
#endif

#include "lbmf/infer/infer.hpp"
#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/util/json.hpp"
#include "seed_baseline.hpp"

using namespace lbmf::sim;
namespace seedsim = lbmf::seedsim;

namespace seed {

struct Result {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminals = 0;
  std::uint64_t visited_bytes = 0;  // keys + per-node tree overhead
  bool violation = false;
  bool hit_limit = false;
};

// The seed driver, verbatim in structure: recursion per transition, a
// std::set of full canonical-state strings for dedup, a value-semantic
// Machine snapshot copied for every explored edge, and coherence checked on
// every transition (not once per state), as the seed did.
class Explorer {
 public:
  Explorer(std::uint64_t max_states, bool check_mutex)
      : max_states_(max_states), check_mutex_(check_mutex) {}

  Result run(const seedsim::Machine& m) {
    result_ = Result{};
    visited_.clear();
    done_ = false;
    dfs(m);
    for (const std::string& key : visited_) {
      // string payload + red-black node overhead (3 pointers + color,
      // rounded) + the string header itself.
      result_.visited_bytes +=
          key.size() + 4 * sizeof(void*) + sizeof(std::string);
    }
    return result_;
  }

 private:
  void dfs(const seedsim::Machine& m) {
    if (done_) return;
    if (result_.states >= max_states_) {
      result_.hit_limit = true;
      done_ = true;
      return;
    }
    if (!visited_.insert(m.canonical_state()).second) return;
    ++result_.states;

    bool any_transition = false;
    for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
      for (Action a : {Action::Execute, Action::Drain}) {
        if (!m.action_enabled(cpu, a)) continue;
        any_transition = true;
        seedsim::Machine next = m;  // snapshot per transition
        next.step(cpu, a);
        ++result_.transitions;
        std::optional<std::string> violation = next.check_coherence();
        if (!violation && check_mutex_ && next.cpus_in_cs() > 1) {
          violation = "mutex";
        }
        if (violation) {
          result_.violation = true;
          done_ = true;
          return;
        }
        dfs(next);
        if (done_) return;
      }
    }
    if (!any_transition) ++result_.terminals;
  }

  std::uint64_t max_states_;
  bool check_mutex_;
  std::set<std::string> visited_;
  Result result_;
  bool done_ = false;
};

}  // namespace seed

namespace {

// Disjoint flag pair for the second Dekker instance.
constexpr Addr kPairBFlag0 = 4;
constexpr Addr kPairBFlag1 = 5;

struct Row {
  const char* label;
  std::uint64_t states = 0;
  std::uint64_t visited_bytes = 0;
  double states_per_sec = 0;
  std::uint64_t peak_rss_kib = 0;  // process high-water mark after the row
};

// Process peak resident set size in KiB (monotone: each row reports the
// high-water mark up to and including itself). 0 where getrusage is
// unavailable.
std::uint64_t peak_rss_kib() {
#ifdef LBMF_BENCH_HAVE_RUSAGE
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // bytes there
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // already KiB on Linux
#endif
  }
#endif
  return 0;
}

SimConfig workload_config() {
  SimConfig cfg;
  cfg.num_cpus = 4;
  cfg.sb_capacity = 4;
  cfg.cache_capacity = 8;
  return cfg;
}

// The four dekker_side programs of the two independent pairs, loaded into
// either engine's Machine (the program/ISA layer is shared between the
// seed snapshot and the live simulator).
template <typename MachineT>
MachineT workload() {
  MachineT m(workload_config());
  m.load_program(0,
                 dekker_side(addr::kFlag0, addr::kFlag1, FenceKind::kLmfence));
  m.load_program(1, dekker_side(addr::kFlag1, addr::kFlag0, FenceKind::kMfence));
  m.load_program(2, dekker_side(kPairBFlag0, kPairBFlag1, FenceKind::kLmfence));
  m.load_program(3, dekker_side(kPairBFlag1, kPairBFlag0, FenceKind::kMfence));
  return m;
}

// Repeat `run` until `min_seconds` of wall clock is spent and report the
// best per-repetition rate (noise on a shared box only ever slows a rep
// down, so the max is the least-perturbed estimate of the engine's speed).
template <typename Run>
Row measure(const char* label, double min_seconds, Run run) {
  Row row;
  row.label = label;
  double best = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    const auto r0 = std::chrono::steady_clock::now();
    run(&row);
    const auto r1 = std::chrono::steady_clock::now();
    const double rep = std::chrono::duration<double>(r1 - r0).count();
    best = std::max(best, static_cast<double>(row.states) / rep);
    elapsed = std::chrono::duration<double>(r1 - t0).count();
  } while (elapsed < min_seconds);
  row.states_per_sec = best;
  row.peak_rss_kib = peak_rss_kib();
  return row;
}

// E20 symmetry/spill workload: three byte-identical copies of the hot
// (l-mfence) Dekker side contending on one flag pair. auto_symmetry()
// groups all three, so the canonical graph identifies states up to any of
// the 3! CPU permutations — and the exact graph stays small enough to
// enumerate fully in CI.
Machine symmetric_workload() {
  SimConfig cfg = workload_config();
  cfg.num_cpus = 3;
  Machine m(cfg);
  for (std::size_t cpu = 0; cpu < 3; ++cpu) {
    m.load_program(cpu,
                   dekker_side(addr::kFlag0, addr::kFlag1, FenceKind::kLmfence));
  }
  return m;
}

// E20 incremental workload: a holey Dekker behind a hole-independent
// warm-up prefix (the private [V]/[W] traffic), so the persisted prefix
// region — which every verification of every candidate re-explores when
// run cold — is a substantial share of each check.
constexpr const char* kHoleyDekker = R"(cpu 0:
  freq 1000
  store [V], 1
  store [V], 2
  load r2, [V]
  store [V], 3
  ?fence [A], 1
  load r0, [B]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  store [A], 0
  halt
cpu 1:
  store [W], 1
  store [W], 2
  load r2, [W]
  store [W], 3
  ?fence [B], 1
  load r0, [A]
  bne r0, 0, skip
  cs_enter
  cs_exit
skip:
  store [B], 0
  halt
)";

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // Equal state budget for every engine; the full product graph (~310k
  // states) exceeds both budgets, so each row explores exactly this many
  // distinct states and states/sec compares like against like.
  const std::uint64_t max_states = quick ? 60'000 : 120'000;
  const double min_seconds = quick ? 0.5 : 1.0;
  const seedsim::Machine seed_m = workload<seedsim::Machine>();
  const Machine new_m = workload<Machine>();

  std::vector<Row> rows;
  rows.push_back(measure("seed (recursive, std::set, copy/edge)", min_seconds,
                         [&](Row* r) {
                           seed::Explorer ex(max_states, /*check_mutex=*/false);
                           const seed::Result sr = ex.run(seed_m);
                           r->states = sr.states;
                           r->visited_bytes = sr.visited_bytes;
                         }));
  const auto new_engine = [&](bool por) {
    return [&, por](Row* r) {
      Explorer::Options opts;
      opts.max_states = max_states;
      opts.por = por;
      opts.check_mutual_exclusion = false;  // two pairs share the machine
      const ExploreResult er = explore_all(new_m, opts);
      r->states = er.states_explored;
      r->visited_bytes = er.visited_bytes;
    };
  };
  rows.push_back(measure("fingerprint dedup", min_seconds, new_engine(false)));
  rows.push_back(measure("fingerprint + POR", min_seconds, new_engine(true)));

  std::printf(
      "two independent asymmetric-Dekker pairs (l-mfence/mfence), 4 CPUs,\n"
      "max_states=%llu for every engine, %s measurement\n\n",
      static_cast<unsigned long long>(max_states), quick ? "quick" : "full");
  std::printf("%-34s %8s %12s %14s %12s\n", "engine", "states", "visited-B",
              "states/sec", "peak-RSS-KiB");
  for (const Row& r : rows) {
    std::printf("%-34s %8llu %12llu %14.0f %12llu\n", r.label,
                static_cast<unsigned long long>(r.states),
                static_cast<unsigned long long>(r.visited_bytes),
                r.states_per_sec,
                static_cast<unsigned long long>(r.peak_rss_kib));
  }

  const Row& base = rows[0];
  const Row& fp = rows[1];   // same full graph as the seed: apples-to-apples
  const Row& def = rows[2];  // the default engine configuration
  const double speedup = fp.states_per_sec / base.states_per_sec;
  const double mem_ratio = static_cast<double>(base.visited_bytes) /
                           static_cast<double>(fp.visited_bytes);
  std::printf("\nvs seed engine (equal %llu-state budget):\n",
              static_cast<unsigned long long>(fp.states));
  std::printf("  states/sec speedup : %.1fx   (target >= 5x)\n", speedup);
  std::printf("  visited-set memory : %.1fx smaller   (target >= 4x)\n",
              mem_ratio);
  std::printf("  POR                : same budget spent on the reduced graph "
              "(%llu states)\n",
              static_cast<unsigned long long>(def.states));

  // ---- E20: symmetry reduction, spillable visited set, incremental ----

  // Symmetry: the exact graph vs the canonical (mod CPU permutation) graph
  // of four byte-identical Dekker sides. Equal verdicts, fewer states.
  Explorer::Options e20;
  e20.max_states = 2'000'000;
  e20.check_mutual_exclusion = false;  // all four sides share one CS
  const ExploreResult sym_off = explore_all(symmetric_workload(), e20);
  Machine sym_m = symmetric_workload();
  sym_m.auto_symmetry();
  const ExploreResult sym_on = explore_all(sym_m, e20);
  const double sym_ratio =
      sym_on.states_explored == 0
          ? 0.0
          : static_cast<double>(sym_off.states_explored) /
                static_cast<double>(sym_on.states_explored);
  const bool sym_ok = !sym_off.hit_limit && !sym_on.hit_limit &&
                      sym_off.violation.has_value() ==
                          sym_on.violation.has_value() &&
                      sym_ratio >= 1.3;
  std::printf("\nE20 symmetry (3 identical Dekker sides, orbit %llu):\n"
              "  exact %llu states vs canonical %llu states: %.1fx fewer "
              "(target >= 1.3x), verdicts %s\n",
              static_cast<unsigned long long>(sym_on.symmetry_orbit),
              static_cast<unsigned long long>(sym_off.states_explored),
              static_cast<unsigned long long>(sym_on.states_explored),
              sym_ratio,
              sym_off.violation.has_value() == sym_on.violation.has_value()
                  ? "equal"
                  : "DIFFER");

  // Spill: the exact run again under a 64 KiB visited-set budget. Same
  // graph, same counters; the cold fingerprints land in mmap'd segments.
  Explorer::Options spill_opts = e20;
  spill_opts.visited_budget_bytes = 64 * 1024;
  const ExploreResult spilled = explore_all(symmetric_workload(), spill_opts);
  const bool spill_ok = spilled.states_explored == sym_off.states_explored &&
                        spilled.transitions == sym_off.transitions &&
                        spilled.spill_segments >= 1;
  std::printf("E20 spill (64 KiB budget): %llu states (%s), %.1f KiB in %u "
              "segment(s), %.1f KiB resident\n",
              static_cast<unsigned long long>(spilled.states_explored),
              spilled.states_explored == sym_off.states_explored
                  ? "counters unchanged"
                  : "COUNTERS CHANGED",
              static_cast<double>(spilled.spill_bytes) / 1024.0,
              spilled.spill_segments,
              static_cast<double>(spilled.visited_bytes) / 1024.0);

  // Incremental: sweep the holey Dekker over a freq x roundtrip grid, cold
  // vs warm. Warm verifications resume from the one-time prefix region;
  // the optima must be bit-identical.
  namespace infer = lbmf::infer;
  const infer::ProblemParse parsed = infer::problem_from_source(kHoleyDekker);
  std::uint64_t inc_cold = 0, inc_warm = 0;
  bool inc_ok = false;
  double inc_ratio = 0.0;
  if (parsed.ok()) {
    infer::SweepOptions so;
    so.victim_freqs = {1, 1'000, 100'000};
    so.roundtrips = {150, 1'500};
    so.engine.incremental = false;
    const infer::SweepResult cold = infer::run_sweep(*parsed.problem, so);
    so.engine.incremental = true;
    const infer::SweepResult warm = infer::run_sweep(*parsed.problem, so);
    inc_cold = cold.states_total;
    // Total explorer work including the one-time prefix build, so the
    // comparison cannot hide the region cost.
    inc_warm = warm.states_total + warm.prefix_states;
    bool same_optima = cold.points.size() == warm.points.size();
    for (std::size_t i = 0; same_optima && i < cold.points.size(); ++i) {
      same_optima = cold.points[i].status == warm.points[i].status &&
                    cold.points[i].best.kinds == warm.points[i].best.kinds &&
                    cold.points[i].best_cost == warm.points[i].best_cost;
    }
    inc_ratio = inc_warm == 0 ? 0.0
                              : static_cast<double>(inc_cold) /
                                    static_cast<double>(inc_warm);
    inc_ok = same_optima && warm.incremental_reuses > 0 && inc_warm < inc_cold;
    std::printf("E20 incremental (6-point sweep): cold %llu states vs warm "
                "%llu (+%llu-state prefix, %llu reuses): %.2fx less work, "
                "optima %s\n",
                static_cast<unsigned long long>(inc_cold),
                static_cast<unsigned long long>(warm.states_total),
                static_cast<unsigned long long>(warm.prefix_states),
                static_cast<unsigned long long>(warm.incremental_reuses),
                inc_ratio, same_optima ? "bit-identical" : "DIFFER");
  } else {
    std::printf("E20 incremental: holey workload failed to parse\n");
  }
  const std::uint64_t rss_kib = peak_rss_kib();

  lbmf::JsonWriter json;
  json.begin_object();
  json.key("bench").string("explorer");
  json.key("workload").string("asymmetric_dekker_x2");
  json.key("max_states").integer(max_states);
  json.key("states_per_sec").fixed(def.states_per_sec, 0);
  json.key("peak_rss_kib").integer(rss_kib);
  json.key("speedup_vs_seed").fixed(speedup, 2);
  json.key("memory_ratio_vs_seed").fixed(mem_ratio, 2);
  json.key("symmetry").begin_object();
  json.key("orbit").integer(sym_on.symmetry_orbit);
  json.key("states_exact").integer(sym_off.states_explored);
  json.key("states_canonical").integer(sym_on.states_explored);
  json.key("ratio").fixed(sym_ratio, 2);
  json.end_object();
  json.key("spill").begin_object();
  json.key("segments").integer(spilled.spill_segments);
  json.key("spill_bytes").integer(spilled.spill_bytes);
  json.key("counters_unchanged").boolean(spill_ok);
  json.end_object();
  json.key("incremental").begin_object();
  json.key("states_cold").integer(inc_cold);
  json.key("states_warm").integer(inc_warm);
  json.key("ratio").fixed(inc_ratio, 2);
  json.key("optima_equal").boolean(inc_ok);
  json.end_object();
  json.key("quick").boolean(quick);
  json.end_object();
  if (std::FILE* f = std::fopen("BENCH_explorer.json", "w")) {
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_explorer.json\n");
  }
  const bool pass =
      speedup >= 5.0 && mem_ratio >= 4.0 && sym_ok && spill_ok && inc_ok;
  if (!pass) {
    std::printf("FAIL:%s%s%s%s\n",
                speedup >= 5.0 && mem_ratio >= 4.0 ? "" : " seed-ratios",
                sym_ok ? "" : " symmetry", spill_ok ? "" : " spill",
                inc_ok ? "" : " incremental");
  } else {
    std::printf("PASS\n");
  }
  return pass ? 0 : 1;
}
