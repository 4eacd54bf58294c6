#include "lbmf/infer/reach.hpp"

#include <cstdio>
#include <cstring>
#include <deque>
#include <utility>

#include "lbmf/sim/visited.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::infer {

using sim::Action;
using sim::Choice;
using sim::Fingerprint;
using sim::Machine;

namespace {

void put32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put64(std::string& s, std::uint64_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::string& s, const std::string& v) {
  put32(s, static_cast<std::uint32_t>(v.size()));
  s += v;
}
void put_choices(std::string& s, const std::vector<Choice>& cs) {
  put32(s, static_cast<std::uint32_t>(cs.size()));
  for (const Choice& c : cs) {
    s.push_back(static_cast<char>(c.cpu));
    s.push_back(static_cast<char>(c.action));
  }
}

struct Reader {
  std::string_view in;
  std::size_t pos = 0;
  bool ok = true;

  bool get32(std::uint32_t* v) {
    if (!ok || pos + sizeof(*v) > in.size()) return ok = false;
    std::memcpy(v, in.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  }
  bool get64(std::uint64_t* v) {
    if (!ok || pos + sizeof(*v) > in.size()) return ok = false;
    std::memcpy(v, in.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  }
  bool get_str(std::string* v) {
    std::uint32_t n = 0;
    if (!get32(&n) || pos + n > in.size()) return ok = false;
    v->assign(in.data() + pos, n);
    pos += n;
    return true;
  }
  bool get_choices(std::vector<Choice>* cs) {
    std::uint32_t n = 0;
    if (!get32(&n) || pos + 2ull * n > in.size()) return ok = false;
    cs->resize(n);
    for (Choice& c : *cs) {
      c.cpu = static_cast<std::uint8_t>(in[pos++]);
      c.action = static_cast<Action>(in[pos++]);
    }
    return true;
  }
};

// Version 2: fingerprints hash CPU blocks from their fields (version 1
// hashed the serialized canonical state), so version-1 visited sets would
// never match and must not be preloaded.
constexpr char kGraphMagic[8] = {'L', 'B', 'M', 'F', 'P', 'G', '2', '\n'};

/// Root machine of the *base* (all-none) problem.
Machine base_machine(const InferProblem& p) {
  sim::SimConfig cfg = p.config;
  cfg.num_cpus = p.programs.size();
  Machine m(cfg);
  for (const auto& [addr, v] : p.initial_memory) m.set_memory(addr, v);
  for (std::size_t i = 0; i < p.programs.size(); ++i) {
    m.load_program(i, p.programs[i]);
  }
  return m;
}

std::optional<std::string> check_state(const Machine& m,
                                       const sim::Explorer::Options& eo) {
  std::optional<std::string> violation;
  if (eo.check_coherence) violation = m.check_coherence();
  if (!violation && eo.check_mutual_exclusion && m.cpus_in_cs() > 1) {
    violation = "mutual exclusion violated: " +
                std::to_string(m.cpus_in_cs()) +
                " CPUs in the critical section";
  }
  if (!violation && eo.check) violation = eo.check(m);
  return violation;
}

}  // namespace

Hash128 problem_graph_key(const InferProblem& p) {
  std::string s;
  put32(s, static_cast<std::uint32_t>(p.config.num_cpus));
  put32(s, static_cast<std::uint32_t>(p.config.sb_capacity));
  put32(s, static_cast<std::uint32_t>(p.config.cache_capacity));
  put32(s, static_cast<std::uint32_t>(p.config.line_words));
  put32(s, static_cast<std::uint32_t>(p.config.protocol));
  s.push_back(p.config.le_st_enabled ? 1 : 0);
  for (const sim::Program& prog : p.programs) {
    put32(s, static_cast<std::uint32_t>(prog.code.size()));
    for (const sim::Instr& in : prog.code) {
      s.push_back(static_cast<char>(in.op));
      s.push_back(static_cast<char>(in.reg));
      put32(s, in.addr);
      put64(s, static_cast<std::uint64_t>(in.imm));
      put32(s, static_cast<std::uint32_t>(in.target));
    }
  }
  put32(s, static_cast<std::uint32_t>(p.sites.size()));
  for (const FenceSite& site : p.sites) {
    put32(s, static_cast<std::uint32_t>(site.cpu));
    put32(s, static_cast<std::uint32_t>(site.instr_index));
    put32(s, site.addr);
    put64(s, static_cast<std::uint64_t>(site.value));
    s.push_back(site.is_reg_store ? 1 : 0);
  }
  put32(s, static_cast<std::uint32_t>(p.initial_memory.size()));
  for (const auto& [a, v] : p.initial_memory) {
    put32(s, a);
    put64(s, static_cast<std::uint64_t>(v));
  }
  put32(s, static_cast<std::uint32_t>(p.final_allowed.size()));
  for (const auto& conj : p.final_allowed) {
    put32(s, static_cast<std::uint32_t>(conj.size()));
    for (const auto& [a, v] : conj) {
      put32(s, a);
      put64(s, static_cast<std::uint64_t>(v));
    }
  }
  return lbmf::hash128(s.data(), s.size(), /*seed=*/0x5047);
}

PrefixGraph build_prefix_graph(const InferProblem& p,
                               const sim::Explorer::Options& eo) {
  PrefixGraph g;
  g.key = problem_graph_key(p);

  std::vector<std::vector<bool>> is_hole(p.programs.size());
  for (std::size_t cpu = 0; cpu < p.programs.size(); ++cpu) {
    is_hole[cpu].assign(p.programs[cpu].code.size(), false);
  }
  for (const FenceSite& s : p.sites) is_hole[s.cpu][s.instr_index] = true;

  struct Item {
    Machine m;
    std::vector<Choice> prefix;
  };
  std::deque<Item> queue;
  sim::FingerprintSet seen;

  Machine root = base_machine(p);
  const Fingerprint root_fp = root.fingerprint();
  seen.insert(root_fp);
  g.visited.push_back(root_fp);
  g.base.states_explored = 1;  // the root, as in Explorer::run
  queue.push_back(Item{std::move(root), {}});

  while (!queue.empty()) {
    Item it = std::move(queue.front());
    queue.pop_front();

    std::vector<Choice> normal;
    std::vector<Choice> deferred;
    for (std::size_t cpu = 0; cpu < it.m.num_cpus(); ++cpu) {
      for (const Action a : {Action::Execute, Action::Drain}) {
        if (!it.m.action_enabled(cpu, a)) continue;
        const Choice c{static_cast<std::uint8_t>(cpu), a};
        const std::int32_t pc = it.m.cpu(cpu).pc;
        if (a == Action::Execute && pc >= 0 &&
            static_cast<std::size_t>(pc) < is_hole[cpu].size() &&
            is_hole[cpu][static_cast<std::size_t>(pc)]) {
          deferred.push_back(c);
        } else {
          normal.push_back(c);
        }
      }
    }
    if (normal.empty() && deferred.empty()) {
      ++g.base.terminal_states;
      if (eo.observe) g.base.outcomes.insert(eo.observe(it.m));
      continue;
    }
    if (!deferred.empty()) {
      PrefixGraph::Seed seed;
      it.m.save_arch(seed.arch);
      seed.prefix = it.prefix;
      seed.agenda = std::move(deferred);
      g.seeds.push_back(std::move(seed));
    }
    for (std::size_t i = 0; i < normal.size(); ++i) {
      const Choice c = normal[i];
      Machine child = i + 1 == normal.size() ? std::move(it.m) : it.m;
      child.step(c.cpu, c.action);
      ++g.base.transitions;
      const Fingerprint fp = child.fingerprint();
      if (!seen.insert(fp)) {
        ++g.base.dedup_hits;
        continue;
      }
      if (g.base.states_explored >= eo.max_states) {
        // The hole-free region alone blows the per-check budget: the graph
        // cannot be trusted to be complete, so incremental mode backs off.
        g.base.hit_limit = true;
        g.valid = false;
        return g;
      }
      g.visited.push_back(fp);
      ++g.base.states_explored;
      std::vector<Choice> prefix = it.prefix;
      prefix.push_back(c);
      if (auto violation = check_state(child, eo)) {
        // No hole executed on this path, so the violating schedule exists
        // verbatim in every candidate instantiation: the whole lattice
        // shares this verdict.
        g.base.violation = std::move(*violation);
        g.base.violation_trace = std::move(prefix);
        g.valid = true;
        return g;
      }
      queue.push_back(Item{std::move(child), std::move(prefix)});
    }
  }
  g.valid = true;
  return g;
}

sim::ExploreResult explore_with_prefix(const InferProblem& p,
                                       const Instantiation& inst,
                                       const PrefixGraph& g,
                                       const sim::Explorer::Options& eo,
                                       bool symmetry) {
  LBMF_CHECK(g.valid);
  std::vector<sim::SeedState> seeds;
  seeds.reserve(g.seeds.size());
  for (const PrefixGraph::Seed& s : g.seeds) {
    sim::SimConfig cfg = p.config;
    cfg.num_cpus = inst.programs.size();
    Machine m(cfg);
    for (const auto& [addr, v] : p.initial_memory) m.set_memory(addr, v);
    for (std::size_t i = 0; i < inst.programs.size(); ++i) {
      m.load_program(i, inst.programs[i]);
    }
    LBMF_CHECK_MSG(m.restore_arch(s.arch), "corrupt prefix-graph seed");
    // Saved pcs are base-coordinate; shift them past the candidate's
    // inserted fence instructions. All other state is hole-independent.
    for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
      const std::int32_t old_pc = m.cpu(cpu).pc;
      LBMF_CHECK(old_pc >= 0 &&
                 static_cast<std::size_t>(old_pc) < inst.pc_map[cpu].size());
      m.set_pc(cpu, static_cast<std::int32_t>(
                        inst.pc_map[cpu][static_cast<std::size_t>(old_pc)]));
    }
    if (symmetry) m.auto_symmetry();
    seeds.push_back(sim::SeedState{std::move(m), s.prefix, s.agenda});
  }
  return sim::explore_seeded(std::move(seeds), g.visited, g.base, eo);
}

bool save_prefix_graph(const PrefixGraph& g, const std::string& path) {
  if (!g.valid) return false;
  std::string s;
  s.append(kGraphMagic, sizeof(kGraphMagic));
  put64(s, g.key.lo);
  put64(s, g.key.hi);
  put64(s, g.base.states_explored);
  put64(s, g.base.transitions);
  put64(s, g.base.terminal_states);
  put64(s, g.base.dedup_hits);
  s.push_back(g.base.violation.has_value() ? 1 : 0);
  if (g.base.violation) {
    put_str(s, *g.base.violation);
    put_choices(s, g.base.violation_trace);
  }
  put32(s, static_cast<std::uint32_t>(g.base.outcomes.size()));
  for (const std::string& o : g.base.outcomes) put_str(s, o);
  put32(s, static_cast<std::uint32_t>(g.visited.size()));
  for (const Fingerprint& fp : g.visited) {
    put64(s, fp.lo);
    put64(s, fp.hi);
  }
  put32(s, static_cast<std::uint32_t>(g.seeds.size()));
  for (const PrefixGraph::Seed& seed : g.seeds) {
    put_str(s, seed.arch);
    put_choices(s, seed.prefix);
    put_choices(s, seed.agenda);
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  std::fclose(f);
  return ok;
}

bool load_prefix_graph(PrefixGraph& g, const std::string& path,
                       const Hash128& expected_key) {
  g = PrefixGraph{};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string buf;
  char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, n);
  }
  std::fclose(f);

  Reader r{buf};
  if (buf.size() < sizeof(kGraphMagic) ||
      std::memcmp(buf.data(), kGraphMagic, sizeof(kGraphMagic)) != 0) {
    return false;
  }
  r.pos = sizeof(kGraphMagic);
  if (!r.get64(&g.key.lo) || !r.get64(&g.key.hi)) return false;
  if (!(g.key == expected_key)) return false;
  if (!r.get64(&g.base.states_explored) || !r.get64(&g.base.transitions) ||
      !r.get64(&g.base.terminal_states) || !r.get64(&g.base.dedup_hits)) {
    return false;
  }
  if (r.pos >= buf.size()) return false;
  const bool has_violation = buf[r.pos++] != 0;
  if (has_violation) {
    std::string v;
    if (!r.get_str(&v) || !r.get_choices(&g.base.violation_trace)) {
      return false;
    }
    g.base.violation = std::move(v);
  }
  std::uint32_t count = 0;
  if (!r.get32(&count)) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string o;
    if (!r.get_str(&o)) return false;
    g.base.outcomes.insert(std::move(o));
  }
  if (!r.get32(&count)) return false;
  g.visited.resize(count);
  for (Fingerprint& fp : g.visited) {
    if (!r.get64(&fp.lo) || !r.get64(&fp.hi)) return false;
  }
  if (!r.get32(&count)) return false;
  g.seeds.resize(count);
  for (PrefixGraph::Seed& seed : g.seeds) {
    if (!r.get_str(&seed.arch) || !r.get_choices(&seed.prefix) ||
        !r.get_choices(&seed.agenda)) {
      return false;
    }
  }
  if (r.pos != buf.size()) return false;
  g.valid = true;
  return true;
}

}  // namespace lbmf::infer
