#pragma once

/// The lbmf::extract map-back pass: lift an lbmf::infer placement over an
/// extracted litmus file back onto the runtime source it was recorded
/// from. Each `?fence` hole in a generated `.lit` carries a
/// `#@ file:line` provenance comment; the assembler parses it onto the
/// hole, problem_from_source copies it onto the FenceSite, and this pass
/// renders the winning assignment as compiler-style source diagnostics
/// ("lbmf/ws/deque.hpp:84: l-mfence"). The machine-readable form is the
/// `source_map` of infer::result_to_json's report.

#include <string>
#include <vector>

#include "lbmf/infer/engine.hpp"
#include "lbmf/infer/sites.hpp"

namespace lbmf::extract {

/// One inferred fence decision, located in the runtime source.
struct SourcePlacement {
  std::size_t site = 0;       // index into InferProblem::sites
  std::string site_label;     // e.g. "cpu0@0[T]=0"
  std::string source;         // "lbmf/ws/deque.hpp:84", empty if unknown
  std::string fence;          // "none" | "mfence" | "l-mfence"
  std::size_t lit_line = 0;   // 1-based line in the generated .lit
};

/// Map an assignment's per-site fence kinds back to source locations.
/// Sites without provenance get an empty `source` (the .lit line still
/// identifies them).
std::vector<SourcePlacement> map_back(const infer::InferProblem& p,
                                      const infer::Assignment& a);

/// Compiler-diagnostic rendering, one line per site:
///   lbmf/ws/deque.hpp:84: l-mfence  (cpu0@0[T]=0)
std::string format_source_placements(
    const std::vector<SourcePlacement>& placements);

}  // namespace lbmf::extract
