#include "lbmf/extract/mapback.hpp"

#include <sstream>

namespace lbmf::extract {

std::vector<SourcePlacement> map_back(const infer::InferProblem& p,
                                      const infer::Assignment& a) {
  std::vector<SourcePlacement> out;
  out.reserve(p.sites.size());
  for (std::size_t s = 0; s < p.sites.size(); ++s) {
    SourcePlacement sp;
    sp.site = s;
    sp.site_label = p.describe_site(s);
    sp.source = p.sites[s].provenance;
    sp.fence = sim::to_string(a.kinds[s]);
    sp.lit_line = p.sites[s].src_line;
    out.push_back(std::move(sp));
  }
  return out;
}

std::string format_source_placements(
    const std::vector<SourcePlacement>& placements) {
  std::ostringstream out;
  for (const SourcePlacement& sp : placements) {
    if (!sp.source.empty()) {
      out << sp.source << ": " << sp.fence << "  (" << sp.site_label << ")\n";
    } else {
      out << "<litmus line " << sp.lit_line << ">: " << sp.fence << "  ("
          << sp.site_label << ")\n";
    }
  }
  return out.str();
}

}  // namespace lbmf::extract
