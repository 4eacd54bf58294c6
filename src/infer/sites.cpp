#include "lbmf/infer/sites.hpp"

#include <algorithm>
#include <tuple>

#include "lbmf/util/check.hpp"

namespace lbmf::infer {

using sim::Addr;
using sim::Instr;
using sim::Op;
using sim::Word;

int strength(FenceKind k) noexcept {
  switch (k) {
    case FenceKind::kNone: return 0;
    case FenceKind::kLmfence: return 1;
    case FenceKind::kMfence: return 2;
  }
  return 0;
}

bool weaker_equal(const Assignment& a, const Assignment& b) noexcept {
  if (a.kinds.size() != b.kinds.size()) return false;
  for (std::size_t i = 0; i < a.kinds.size(); ++i) {
    if (strength(a.kinds[i]) > strength(b.kinds[i])) return false;
  }
  return true;
}

std::string to_string(const Assignment& a) {
  std::string out = "{";
  for (std::size_t i = 0; i < a.kinds.size(); ++i) {
    if (i > 0) out += ", ";
    out += sim::to_string(a.kinds[i]);
  }
  return out + "}";
}

Assignment InferProblem::uniform(FenceKind k) const {
  return Assignment{std::vector<FenceKind>(sites.size(), k)};
}

double InferProblem::cpu_freq(std::size_t cpu) const noexcept {
  return cpu < cpu_freqs.size() ? cpu_freqs[cpu] : 1.0;
}

std::string InferProblem::location_name(Addr a) const {
  for (const auto& [name, addr] : symbols) {
    if (addr == a) return name;
  }
  // Built by append (not operator+ on a literal): GCC 12's -Wrestrict
  // false-positives on literal + temporary-string concatenations.
  std::string out;
  out += '[';
  out += std::to_string(a);
  out += ']';
  return out;
}

std::string InferProblem::describe_site(std::size_t site) const {
  const FenceSite& s = sites[site];
  return "cpu" + std::to_string(s.cpu) + "@" + std::to_string(s.instr_index) +
         "[" + location_name(s.addr) + "]=" +
         (s.is_reg_store ? "r?" : std::to_string(s.value));
}

ProblemParse problem_from_source(std::string_view source, sim::SimConfig cfg) {
  ProblemParse out;
  sim::AssembleResult r = sim::assemble(source);
  if (!r.ok()) {
    out.error = std::move(r.error);
    return out;
  }
  InferProblem p;
  cfg.num_cpus = r.programs.size();
  p.config = cfg;
  p.programs = std::move(r.programs);
  p.cpu_freqs = std::move(r.cpu_freqs);
  p.initial_memory = std::move(r.initial_memory);
  p.symbols = std::move(r.symbols);
  p.final_allowed = std::move(r.final_allowed);
  p.sites.reserve(r.holes.size());
  for (const sim::LitHole& h : r.holes) {
    FenceSite s;
    s.cpu = h.cpu;
    s.instr_index = h.instr_index;
    s.addr = h.addr;
    s.value = h.value;
    s.is_reg_store = false;  // the ?fence grammar takes an immediate
    s.src_line = h.line;
    s.provenance = h.provenance;
    p.sites.push_back(std::move(s));
  }
  p.symmetric_groups = detect_symmetric_groups(p);
  out.problem = std::move(p);
  return out;
}

std::vector<std::vector<std::uint8_t>> detect_symmetric_groups(
    const InferProblem& p) {
  auto sites_of = [&p](std::size_t cpu) {
    std::vector<std::tuple<std::size_t, Addr, Word, bool>> v;
    for (const FenceSite& s : p.sites) {
      if (s.cpu == cpu) {
        v.emplace_back(s.instr_index, s.addr, s.value, s.is_reg_store);
      }
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::vector<std::uint8_t>> groups;
  std::vector<bool> used(p.programs.size(), false);
  for (std::size_t i = 0; i < p.programs.size(); ++i) {
    if (used[i]) continue;
    std::vector<std::uint8_t> g{static_cast<std::uint8_t>(i)};
    const auto lead_sites = sites_of(i);
    for (std::size_t j = i + 1; j < p.programs.size(); ++j) {
      if (used[j]) continue;
      if (p.programs[j].code == p.programs[i].code &&
          p.cpu_freq(j) == p.cpu_freq(i) && sites_of(j) == lead_sites) {
        g.push_back(static_cast<std::uint8_t>(j));
        used[j] = true;
      }
    }
    if (g.size() >= 2) groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<std::vector<std::vector<std::size_t>>> group_sites(
    const InferProblem& p) {
  std::vector<std::vector<std::vector<std::size_t>>> out;
  out.reserve(p.symmetric_groups.size());
  for (const auto& g : p.symmetric_groups) {
    std::vector<std::vector<std::size_t>> members;
    for (const std::uint8_t cpu : g) {
      std::vector<std::size_t> sites;
      for (std::size_t s = 0; s < p.sites.size(); ++s) {
        if (p.sites[s].cpu == cpu) sites.push_back(s);
      }
      std::sort(sites.begin(), sites.end(),
                [&p](std::size_t a, std::size_t b) {
                  return p.sites[a].instr_index < p.sites[b].instr_index;
                });
      members.push_back(std::move(sites));
    }
    out.push_back(std::move(members));
  }
  return out;
}

Assignment canonicalize_assignment(const InferProblem& p,
                                   const Assignment& a) {
  if (p.symmetric_groups.empty()) return a;
  Assignment out = a;
  for (const auto& members : group_sites(p)) {
    std::vector<std::vector<FenceKind>> tuples;
    tuples.reserve(members.size());
    for (const auto& sites : members) {
      std::vector<FenceKind> t;
      for (const std::size_t s : sites) t.push_back(a.kinds[s]);
      tuples.push_back(std::move(t));
    }
    std::sort(tuples.begin(), tuples.end());
    for (std::size_t k = 0; k < members.size(); ++k) {
      for (std::size_t j = 0; j < members[k].size(); ++j) {
        out.kinds[members[k][j]] = tuples[k][j];
      }
    }
  }
  return out;
}

std::vector<FenceSite> discover_sites(
    const std::vector<sim::Program>& programs) {
  std::vector<FenceSite> sites;
  for (std::size_t cpu = 0; cpu < programs.size(); ++cpu) {
    const auto& code = programs[cpu].code;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i].op != Op::kStore && code[i].op != Op::kStoreReg) continue;
      // A fence only changes behaviour when a later load can be reordered
      // over this store; skip trailing stores (e.g. flag clears at exit).
      const bool later_load = std::any_of(
          code.begin() + static_cast<std::ptrdiff_t>(i) + 1, code.end(),
          [](const Instr& in) {
            return in.op == Op::kLoad || in.op == Op::kLoadExclusive;
          });
      if (!later_load) continue;
      FenceSite s;
      s.cpu = cpu;
      s.instr_index = i;
      s.addr = code[i].addr;
      s.value = code[i].imm;
      s.is_reg_store = code[i].op == Op::kStoreReg;
      sites.push_back(std::move(s));
    }
  }
  return sites;
}

namespace {

bool is_branch(Op op) noexcept {
  return op == Op::kBranchEq || op == Op::kBranchNe || op == Op::kJump ||
         op == Op::kBranchLinkSet;
}

}  // namespace

Instantiation instantiate(const InferProblem& p, const Assignment& a) {
  LBMF_CHECK(a.kinds.size() == p.sites.size());
  Instantiation out;
  out.programs.reserve(p.programs.size());
  out.site_pos.resize(p.sites.size(), 0);

  for (std::size_t cpu = 0; cpu < p.programs.size(); ++cpu) {
    const auto& old_code = p.programs[cpu].code;
    // Site index (into p.sites) per old instruction, or npos.
    std::vector<std::size_t> site_at(old_code.size(), std::size_t(-1));
    for (std::size_t s = 0; s < p.sites.size(); ++s) {
      if (p.sites[s].cpu != cpu) continue;
      LBMF_CHECK(p.sites[s].instr_index < old_code.size());
      const Op op = old_code[p.sites[s].instr_index].op;
      LBMF_CHECK_MSG(op == Op::kStore || op == Op::kStoreReg,
                     "fence site must point at a store");
      site_at[p.sites[s].instr_index] = s;
    }

    std::vector<Instr> code;
    std::vector<std::size_t> new_start(old_code.size() + 1, 0);
    // from_old[j] = old index the emitted instr j was copied from, or npos
    // for fence instructions inserted here (their targets are already in
    // new coordinates).
    std::vector<std::size_t> from_old;

    for (std::size_t i = 0; i < old_code.size(); ++i) {
      new_start[i] = code.size();
      const std::size_t s = site_at[i];
      if (s == std::size_t(-1) || a.kinds[s] == FenceKind::kNone) {
        code.push_back(old_code[i]);
        from_old.push_back(i);
        if (s != std::size_t(-1)) out.site_pos[s] = code.size() - 1;
        continue;
      }
      const FenceSite& site = p.sites[s];
      if (a.kinds[s] == FenceKind::kMfence) {
        code.push_back(old_code[i]);
        from_old.push_back(i);
        out.site_pos[s] = code.size() - 1;
        code.push_back(Instr{.op = Op::kMfence});
        from_old.push_back(std::size_t(-1));
        continue;
      }
      // kLmfence: replace the store with the Fig. 3(b) expansion, kept
      // byte-for-byte in step with ProgramBuilder::lmfence by splicing the
      // builder's own output (minus its trailing halt).
      LBMF_CHECK_MSG(!site.is_reg_store,
                     "l-mfence cannot be materialized at a register store");
      LBMF_CHECK_MSG(!site.no_lmfence,
                     "l-mfence excluded at this site by backend constraint");
      sim::ProgramBuilder eb;
      eb.lmfence(site.addr, site.value);
      eb.halt();
      const std::vector<Instr> expansion = eb.build().code;
      const std::size_t base = code.size();
      for (std::size_t j = 0; j + 1 < expansion.size(); ++j) {  // skip halt
        Instr in = expansion[j];
        if (in.target >= 0) {  // expansion-internal branch: rebase
          in.target += static_cast<std::int32_t>(base);
        }
        if (in.op == Op::kStore) out.site_pos[s] = code.size();
        code.push_back(in);
        from_old.push_back(std::size_t(-1));
      }
    }
    new_start[old_code.size()] = code.size();

    // Remap branch targets of copied instructions into the new indices.
    for (std::size_t j = 0; j < code.size(); ++j) {
      if (from_old[j] == std::size_t(-1) || !is_branch(code[j].op)) continue;
      if (code[j].target < 0) continue;
      LBMF_CHECK(static_cast<std::size_t>(code[j].target) < new_start.size());
      code[j].target =
          static_cast<std::int32_t>(new_start[code[j].target]);
    }

    sim::Program prog;
    prog.code = std::move(code);
    prog.name = p.programs[cpu].name;
    out.programs.push_back(std::move(prog));
  }
  return out;
}

sim::Machine problem_machine(const InferProblem& p,
                             std::vector<sim::Program> programs) {
  sim::SimConfig cfg = p.config;
  cfg.num_cpus = programs.size();
  sim::Machine m(cfg);
  for (const auto& [addr, v] : p.initial_memory) m.set_memory(addr, v);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    m.load_program(i, std::move(programs[i]));
  }
  return m;
}

sim::Machine instantiate_machine(const InferProblem& p, const Assignment& a) {
  return problem_machine(p, instantiate(p, a).programs);
}

namespace {

/// Σ over peer CPUs of freq(peer) × (loads of `addr` in that peer's base
/// program) — the static estimate of remote serializations an l-mfence
/// guard at this site would trigger.
double remote_read_weight(const InferProblem& p, const FenceSite& site) {
  double total = 0;
  for (std::size_t cpu = 0; cpu < p.programs.size(); ++cpu) {
    if (cpu == site.cpu) continue;
    std::size_t loads = 0;
    for (const Instr& in : p.programs[cpu].code) {
      if ((in.op == Op::kLoad || in.op == Op::kLoadExclusive) &&
          in.addr == site.addr) {
        ++loads;
      }
    }
    total += p.cpu_freq(cpu) * static_cast<double>(loads);
  }
  return total;
}

}  // namespace

double site_cost(const InferProblem& p, std::size_t site, FenceKind k,
                 const model::CostTable& c) {
  const FenceSite& s = p.sites[site];
  const double w = p.cpu_freq(s.cpu);
  switch (k) {
    case FenceKind::kNone:
      return 0.0;
    case FenceKind::kMfence:
      return w * c.mfence_cycles;
    case FenceKind::kLmfence:
      return w * c.lest_victim_cycles +
             remote_read_weight(p, s) *
                 (c.lest_roundtrip_cycles + c.lest_primary_penalty_cycles);
  }
  return 0.0;
}

double assignment_cost(const InferProblem& p, const Assignment& a,
                       const model::CostTable& c) {
  double total = 0;
  for (std::size_t i = 0; i < a.kinds.size(); ++i) {
    total += site_cost(p, i, a.kinds[i], c);
  }
  return total;
}

double assignment_cost_lower_bound(const InferProblem& p, const Assignment& a,
                                   const model::CostTable& c) {
  double total = 0;
  for (std::size_t i = 0; i < a.kinds.size(); ++i) {
    double best = site_cost(p, i, a.kinds[i], c);
    for (FenceKind k : {FenceKind::kLmfence, FenceKind::kMfence}) {
      if (strength(k) < strength(a.kinds[i])) continue;
      if (k == FenceKind::kLmfence &&
          (p.sites[i].is_reg_store || p.sites[i].no_lmfence)) {
        continue;
      }
      best = std::min(best, site_cost(p, i, k, c));
    }
    total += best;
  }
  return total;
}

}  // namespace lbmf::infer
