// E10 (application ablation) — the paper's fourth motivating example
// (Sec. 1): a packet-processing thread owns its flow table; other threads
// occasionally update rules in it. Sweeps the remote-update rate and
// compares owner throughput under the symmetric discipline (mfence per
// packet) against the asymmetric one (l-mfence announce per packet,
// remote updates serialize the owner).
//
// Expected shape: the asymmetric table wins clearly while updates are rare
// (the common case the paper targets) and the gap narrows as the update
// rate grows — the same benefit-vs-communication tradeoff as E9, on a
// realistic workload.
//
//   bench_flowtable [window_seconds]   # sweep only, no gate
//   bench_flowtable --quick            # CI mode: short windows, gated
//
// Emits BENCH_flowtable.json. Exit 0 (gated modes) requires asym/sym >= 1
// at the rare-update point (1 updater / 10ms) — the paper's claimed regime;
// the tighter >= 1.3x latency/throughput acceptance lives in bench_serve
// (E19), which measures the full serving tier rather than one bare table.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "lbmf/flowtable/pipeline.hpp"
#include "lbmf/util/json.hpp"

using namespace lbmf;
using namespace lbmf::flowtable;

int main(int argc, char** argv) {
  bool quick = false;
  double window = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      window = std::atof(argv[i]);
    }
  }
  if (quick) window = 0.15;

  struct Config {
    std::size_t updaters;
    std::uint64_t interval_us;
    const char* label;
    const char* key;  // JSON field name
    bool gated;       // participates in the rare-update gate
  };
  const Config configs[] = {
      {0, 0, "no remote updates", "none", false},
      {1, 10'000, "1 updater / 10ms", "rare_10ms", true},
      {1, 1'000, "1 updater / 1ms", "mid_1ms", false},
      {1, 100, "1 updater / 100us", "frequent_100us", false},
      {2, 100, "2 updaters / 100us", "frequent_2x100us", false},
  };

  std::printf("E10 — flow-table owner throughput (packets/s), window %.2fs\n\n",
              window);
  std::printf("%-22s %14s %14s %8s %10s\n", "remote update rate", "sym pps",
              "asym pps", "asym/sym", "updates");

  JsonWriter json;
  json.begin_object();
  json.key("bench").string("flowtable");
  json.key("quick").boolean(quick);
  json.key("window_seconds").fixed(window, 2);
  double rare_ratio = 0.0;
  for (const Config& c : configs) {
    const PipelineResult sym = run_pipeline<SymmetricFence>(
        window, c.updaters, c.interval_us);
    const PipelineResult asym = run_pipeline<AsymmetricSignalFence>(
        window, c.updaters, c.interval_us);
    const double ratio = sym.packets_per_second() > 0
                             ? asym.packets_per_second() /
                                   sym.packets_per_second()
                             : 0.0;
    if (c.gated) rare_ratio = ratio;
    std::printf("%-22s %14.0f %14.0f %8.2f %10llu\n", c.label,
                sym.packets_per_second(), asym.packets_per_second(), ratio,
                static_cast<unsigned long long>(asym.remote_updates));
    json.key(c.key).begin_object();
    json.key("sym_pps").fixed(sym.packets_per_second(), 0);
    json.key("asym_pps").fixed(asym.packets_per_second(), 0);
    json.key("ratio").fixed(ratio, 3);
    json.key("updates").integer(asym.remote_updates);
    json.end_object();
  }
  json.key("rare_update_ratio").fixed(rare_ratio, 3);
  json.end_object();

  if (std::FILE* f = std::fopen("BENCH_flowtable.json", "w")) {
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_flowtable.json\n");
  }

  std::printf(
      "\nasym/sym > 1: the owner's per-packet fence elimination outweighs\n"
      "the serialization cost charged to the (rare) remote updaters.\n");

  const bool pass = rare_ratio >= 1.0;
  std::printf("%s (rare-update asym/sym = %.2f, gate >= 1.0)\n",
              pass ? "PASS" : "FAIL", rare_ratio);
  return pass ? 0 : 1;
}
