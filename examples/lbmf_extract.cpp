// lbmf_extract — litmus extraction from annotated runtime code: replay a
// structure's LBMF_* annotation recording (lbmf::extract), emit the
// canonical holey `.lit` with `#@ file:line` provenance comments, drift-
// diff it against the committed hand-written litmus file, and run
// lbmf::infer over the *generated* text, reporting the placement as
// runtime source locations ("lbmf/ws/deque.hpp:NN: l-mfence").
//
// This binary is compiled with -DLBMF_EXTRACT=1, so the annotated spec
// functions in the runtime headers record; every other target in the
// repo compiles the same annotations away to nothing.
//
// Usage:
//   lbmf_extract --list                     # registered protocols
//   lbmf_extract the-deque                  # emit the generated .lit to stdout
//   lbmf_extract the-deque --emit=out.lit   # write it to a file
//   lbmf_extract the-deque --check=examples/litmus/the_deque_holes.lit
//                                           # semantic drift diff (CI gate)
//   lbmf_extract the-deque --infer          # infer over the generated litmus
//   lbmf_extract the-deque --infer --json=report.json --graph-cache=g.bin
//   lbmf_extract the-deque --no-provenance  # drop the #@ comments
//   lbmf_extract the-deque --infer --max-states=N --batch=K
//
// Exit codes: 0 = success (drift clean, inference SAT+SAFE), 1 = drift
// detected or UNSAT, 2 = usage/recording error, 3 = inference
// inconclusive (budget hit).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#define LBMF_EXTRACT 1
#include "infer_cli.hpp"
#include "lbmf/extract/extract.hpp"
#include "lbmf/infer/infer.hpp"

using namespace lbmf;
using cli::bad_flag;

namespace {

struct CliOptions {
  std::string protocol;
  std::string emit_path;
  std::string check_path;
  std::string json_path;
  std::string graph_cache_path;
  infer::InferenceEngine::Options engine;
  bool list = false;
  bool run_infer = false;
  bool provenance = true;
};

CliOptions parse_flags(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (!cli.protocol.empty()) bad_flag(a);
      cli.protocol = a;
    } else if (a == "--list") {
      cli.list = true;
    } else if (a == "--infer") {
      cli.run_infer = true;
    } else if (a == "--no-provenance") {
      cli.provenance = false;
    } else if (a.rfind("--emit=", 0) == 0) {
      cli.emit_path = a.substr(7);
      if (cli.emit_path.empty()) bad_flag(a);
    } else if (a.rfind("--check=", 0) == 0) {
      cli.check_path = a.substr(8);
      if (cli.check_path.empty()) bad_flag(a);
    } else if (a.rfind("--json=", 0) == 0) {
      cli.json_path = a.substr(7);
      if (cli.json_path.empty()) bad_flag(a);
    } else if (a.rfind("--graph-cache=", 0) == 0) {
      cli.graph_cache_path = a.substr(14);
      if (cli.graph_cache_path.empty()) bad_flag(a);
    } else if (!infer_cli::parse_engine_flag(a, cli.engine)) {
      bad_flag(a);
    }
  }
  return cli;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int run_inference(const CliOptions& cli_in, const std::string& lit) {
  CliOptions cli = cli_in;
  infer::ProblemParse parsed = infer::problem_from_source(lit);
  if (!parsed.ok()) {
    std::fprintf(stderr, "generated litmus does not assemble — %s\n",
                 parsed.error->to_string().c_str());
    return 2;
  }
  infer::InferProblem& p = *parsed.problem;
  std::printf("inference: %zu cpu(s), %zu hole(s)\n", p.programs.size(),
              p.sites.size());

  // The cache key covers programs/sites/config (not source text), so a
  // cache built over the committed litmus answers for the generated one —
  // that identity is itself a consequence of a clean drift gate.
  infer::PrefixGraph cached_graph;
  infer_cli::use_prefix_cache(p, cli.graph_cache_path, cli.engine,
                              cached_graph);

  infer::InferenceEngine engine(p, cli.engine);
  const infer::InferResult r = engine.run();

  if (!cli.json_path.empty()) {
    std::ofstream jf(cli.json_path);
    if (!jf) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 2;
    }
    jf << infer::result_to_json(p, r, cli.protocol) << "\n";
    std::printf("report written to %s\n", cli.json_path.c_str());
  }

  if (r.status == infer::InferStatus::kUnsat) {
    std::printf("UNSAT: no fence placement makes this protocol safe\n");
    return 1;
  }
  if (r.status == infer::InferStatus::kLimit) {
    std::printf("INCONCLUSIVE: budget hit (raise --max-states=N)\n");
    return 3;
  }

  std::printf("minimum-cost placement (cost %.0f, re-check %s): %s\n",
              r.best_cost, r.recheck_safe ? "SAFE" : "FAILED",
              infer::to_string(r.best).c_str());
  std::printf("%s", extract::format_source_placements(
                        extract::map_back(p, r.best))
                        .c_str());
  return r.recheck_safe ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_flags(argc, argv);

  const std::vector<extract::RegisteredProtocol> registry =
      extract::protocol_registry();
  if (cli.list) {
    for (const extract::RegisteredProtocol& rp : registry) {
      std::printf("%-14s (committed: examples/litmus/%s)\n", rp.key,
                  rp.committed);
    }
    return 0;
  }
  if (cli.protocol.empty()) {
    std::fprintf(stderr,
                 "usage: lbmf_extract <protocol | --list> [--emit=FILE] "
                 "[--check=COMMITTED.lit] [--infer] [--json=FILE] "
                 "[--graph-cache=FILE] [--no-provenance]\n");
    return 2;
  }

  const extract::RegisteredProtocol* proto = nullptr;
  for (const extract::RegisteredProtocol& rp : registry) {
    if (cli.protocol == rp.key) proto = &rp;
  }
  if (proto == nullptr) {
    std::fprintf(stderr, "unknown protocol '%s' (try --list)\n",
                 cli.protocol.c_str());
    return 2;
  }

  const extract::Spec spec = extract::record_protocol(*proto);
  extract::EmitOptions eo;
  eo.provenance = cli.provenance;
  eo.banner_note = std::string("examples/litmus/") + proto->committed;
  const extract::EmitResult emitted = extract::emit_lit(spec, eo);
  if (!emitted.ok()) {
    std::fprintf(stderr, "recording for '%s' is malformed:\n%s\n", proto->key,
                 emitted.error_string().c_str());
    return 2;
  }

  if (!cli.emit_path.empty()) {
    std::ofstream out(cli.emit_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.emit_path.c_str());
      return 2;
    }
    out << emitted.text;
    std::printf("generated litmus written to %s\n", cli.emit_path.c_str());
  } else if (!cli.run_infer && cli.check_path.empty()) {
    std::printf("%s", emitted.text.c_str());
  }

  if (!cli.check_path.empty()) {
    const std::string committed = read_file(cli.check_path);
    const extract::DriftReport drift =
        extract::compare_litmus(emitted.text, committed);
    if (!drift.clean()) {
      std::printf("DRIFT between annotations and %s:\n%s",
                  cli.check_path.c_str(), drift.to_string().c_str());
      return 1;
    }
    std::printf("drift check: clean against %s\n", cli.check_path.c_str());
  }

  if (cli.run_infer) return run_inference(cli, emitted.text);
  return 0;
}
