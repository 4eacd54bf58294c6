#pragma once

// What the two inference CLIs, fence_inferencer and lbmf_extract, share
// beyond cli.hpp: the engine's numeric flags and the persisted
// prefix-graph cache.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "lbmf/infer/infer.hpp"

namespace lbmf::infer_cli {

/// Parse `--max-states=N` or `--batch=K` (K <= 64) into `engine`; every
/// value must be a positive integer. Returns false when `a` is neither;
/// exits 2 on a bad value.
inline bool parse_engine_flag(const std::string& a,
                              infer::InferenceEngine::Options& engine) {
  auto value = [&a](std::size_t skip, unsigned long long max) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(a.c_str() + skip, &end, 10);
    if (end == nullptr || *end != '\0' || v == 0 || v > max) {
      cli::bad_flag(a);
    }
    return v;
  };
  if (a.rfind("--max-states=", 0) == 0) {
    engine.max_states_per_check = value(13, ULLONG_MAX);
  } else if (a.rfind("--batch=", 0) == 0) {
    engine.batch = value(8, 64);
  } else {
    return false;
  }
  return true;
}

/// The persisted reached-state prefix graph (`--graph-cache=PATH`): reuse
/// it when its key still matches `p` (programs/sites/config/property, not
/// costs), otherwise rebuild it under the engine's explorer options and
/// save it, printing one "prefix cache: hit/miss/unusable" line. A valid
/// graph is attached to `engine`, so `graph` must outlive the run. Does
/// nothing without a path, with incremental search off, or without holes.
inline void use_prefix_cache(const infer::InferProblem& p,
                             const std::string& path,
                             infer::InferenceEngine::Options& engine,
                             infer::PrefixGraph& graph) {
  if (path.empty() || !engine.incremental || p.sites.empty()) return;
  const lbmf::Hash128 key = infer::problem_graph_key(p);
  if (infer::load_prefix_graph(graph, path, key)) {
    std::printf("prefix cache: hit — %s (%llu region states, %zu seeds)\n",
                path.c_str(),
                static_cast<unsigned long long>(graph.base.states_explored),
                graph.seeds.size());
  } else {
    graph = infer::build_prefix_graph(
        p, infer::InferenceEngine::explorer_options_for(p, engine));
    if (graph.valid && infer::save_prefix_graph(graph, path)) {
      std::printf(
          "prefix cache: miss — built %llu region states, %zu seeds, "
          "saved to %s\n",
          static_cast<unsigned long long>(graph.base.states_explored),
          graph.seeds.size(), path.c_str());
    } else {
      std::printf("prefix cache: unusable (region over budget or "
                  "unwritable path)\n");
    }
  }
  if (graph.valid) engine.prefix_graph = &graph;
}

}  // namespace lbmf::infer_cli
