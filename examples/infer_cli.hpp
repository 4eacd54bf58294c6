#pragma once

// What the two inference CLIs, fence_inferencer and lbmf_extract, share
// beyond cli.hpp: the engine's numeric flags.

#include <climits>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "lbmf/infer/engine.hpp"

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

}  // namespace lbmf::infer_cli
