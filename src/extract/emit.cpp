#include "lbmf/extract/emit.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>

#include "lbmf/sim/assembler.hpp"

namespace lbmf::extract {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kStoreReg: return "store";
    case OpKind::kMfence: return "mfence";
    case OpKind::kLmfence: return "lmfence";
    case OpKind::kFenceHole: return "?fence";
    case OpKind::kRmwAcquire: return "lock";
    case OpKind::kRmwRelease: return "unlock";
    case OpKind::kMov: return "mov";
    case OpKind::kAdd: return "add";
    case OpKind::kBranchEq: return "beq";
    case OpKind::kBranchNe: return "bne";
    case OpKind::kJump: return "jmp";
    case OpKind::kLabel: return "label";
    case OpKind::kCsEnter: return "cs_enter";
    case OpKind::kCsExit: return "cs_exit";
    case OpKind::kDelay: return "delay";
    case OpKind::kHalt: return "halt";
  }
  return "?";
}

std::string EmitError::to_string() const {
  std::string out;
  if (src.known()) {
    out += src.file + ":" + std::to_string(src.line) + ": ";
  }
  out += message;
  return out;
}

std::string EmitResult::error_string() const {
  std::string out;
  for (const EmitError& e : errors) {
    if (!out.empty()) out += "\n";
    out += e.to_string();
  }
  return out;
}

std::string canonical_source_path(std::string_view file) {
  // Stable across build machines: everything after the last "include/"
  // is the repo-relative header path the annotations live in.
  const std::size_t inc = file.rfind("include/");
  if (inc != std::string_view::npos) {
    return std::string(file.substr(inc + 8));
  }
  const std::size_t slash = file.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? file
                         : file.substr(slash + 1));
}

namespace {

bool needs_reg(OpKind k) noexcept {
  return k == OpKind::kLoad || k == OpKind::kStoreReg || k == OpKind::kMov ||
         k == OpKind::kAdd || k == OpKind::kBranchEq || k == OpKind::kBranchNe;
}

bool is_branch(OpKind k) noexcept {
  return k == OpKind::kBranchEq || k == OpKind::kBranchNe ||
         k == OpKind::kJump;
}

/// Per-role register canonicalization: registers renamed to r0, r1, ...
/// in order of first use, so annotations may use mnemonic registers
/// without perturbing the emitted program bytes.
std::array<int, 8> canonical_registers(const RoleTrace& role) {
  std::array<int, 8> map;
  map.fill(-1);
  int next = 0;
  for (const RecordedOp& op : role.ops) {
    if (!needs_reg(op.kind)) continue;
    const auto idx = static_cast<std::size_t>(op.reg);
    if (map[idx] == -1) map[idx] = next++;
  }
  return map;
}

class Emitter {
 public:
  Emitter(const Spec& spec, const EmitOptions& opts)
      : spec_(spec), opts_(opts) {}

  EmitResult run() {
    validate();
    if (!result_.errors.empty()) return std::move(result_);
    render();
    return std::move(result_);
  }

 private:
  void fail(std::string message, const SourceLoc& src = {}) {
    result_.errors.push_back(
        EmitError{std::move(message),
                  SourceLoc{canonical_source_path(src.file), src.line}});
  }

  void validate() {
    if (spec_.roles.empty()) {
      fail("spec '" + spec_.name + "' declares no roles");
      return;
    }
    std::set<std::string> names;
    for (const RoleTrace& role : spec_.roles) {
      if (!names.insert(role.name).second) {
        fail("duplicate role '" + role.name + "'", role.src);
      }
      if (role.freq < 1.0 ||
          role.freq != static_cast<double>(static_cast<long long>(role.freq))) {
        fail("role '" + role.name + "': freq must be an integer >= 1",
             role.src);
      }
      validate_role(role);
    }
    // Symmetric groups must name existing roles, at least two, each role
    // in at most one group — mirroring the assembler's own validation so
    // mistakes surface here, with annotation provenance, first.
    std::set<std::string> grouped;
    for (const auto& group : spec_.symmetric) {
      if (group.size() < 2) {
        fail("symmetric group needs at least two roles");
      }
      for (const std::string& name : group) {
        if (names.find(name) == names.end()) {
          fail("symmetric group names unknown role '" + name + "'");
        }
        if (!grouped.insert(name).second) {
          fail("role '" + name + "' appears in more than one symmetric group");
        }
      }
    }
  }

  void validate_role(const RoleTrace& role) {
    if (role.ops.empty() || role.ops.back().kind != OpKind::kHalt) {
      fail("role '" + role.name + "' must end with LBMF_HALT",
           role.ops.empty() ? role.src : role.ops.back().src);
    }
    std::map<std::string, std::size_t> labels;
    for (const RecordedOp& op : role.ops) {
      if (op.kind == OpKind::kLabel && ++labels[op.label] > 1) {
        fail("role '" + role.name + "': duplicate label '" + op.label + "'",
             op.src);
      }
    }
    for (const RecordedOp& op : role.ops) {
      if (is_branch(op.kind) && labels.find(op.label) == labels.end()) {
        fail("role '" + role.name + "': branch to undefined label '" +
                 op.label + "'",
             op.src);
      }
      if ((op.kind == OpKind::kDelay) && op.value < 0) {
        fail("role '" + role.name + "': negative delay", op.src);
      }
    }
  }

  void put_line(std::string body, const SourceLoc& src,
                const std::string& note = "") {
    if (opts_.provenance && src.known()) {
      constexpr std::size_t kCol = 34;
      if (body.size() < kCol) body.append(kCol - body.size(), ' ');
      body += " #@ " + canonical_source_path(src.file) + ":" +
              std::to_string(src.line);
      if (!note.empty()) body += " " + note;
    }
    out_ << body << "\n";
  }

  std::string render_op(const RecordedOp& op, const std::array<int, 8>& regs) {
    auto reg = [&](Reg r) {
      // Built piecewise: GCC 12's -Wrestrict false-positives on a literal
      // + temporary-string concatenation.
      std::string s = "r";
      s += std::to_string(regs[static_cast<std::size_t>(r)]);
      return s;
    };
    auto loc = [&] { return "[" + op.loc + "]"; };
    auto val = [&] { return std::to_string(op.value); };
    switch (op.kind) {
      case OpKind::kLoad: return "load " + reg(op.reg) + ", " + loc();
      case OpKind::kStore: return "store " + loc() + ", " + val();
      case OpKind::kStoreReg: return "store " + loc() + ", " + reg(op.reg);
      case OpKind::kMfence: return "mfence";
      case OpKind::kLmfence: return "lmfence " + loc() + ", " + val();
      case OpKind::kFenceHole: return "?fence " + loc() + ", " + val();
      case OpKind::kRmwAcquire: return "lock " + loc();
      case OpKind::kRmwRelease: return "unlock " + loc();
      case OpKind::kMov: return "mov " + reg(op.reg) + ", " + val();
      case OpKind::kAdd: return "add " + reg(op.reg) + ", " + val();
      case OpKind::kBranchEq:
        return "beq " + reg(op.reg) + ", " + val() + ", " + op.label;
      case OpKind::kBranchNe:
        return "bne " + reg(op.reg) + ", " + val() + ", " + op.label;
      case OpKind::kJump: return "jmp " + op.label;
      case OpKind::kLabel: return op.label + ":";
      case OpKind::kCsEnter: return "cs_enter";
      case OpKind::kCsExit: return "cs_exit";
      case OpKind::kDelay: return "delay " + val();
      case OpKind::kHalt: return "halt";
    }
    return "";
  }

  void render() {
    out_ << "# " << spec_.name
         << " — machine-extracted litmus (lbmf::extract).\n";
    out_ << "# Generated from the LBMF_* annotations in the runtime "
            "source; do not edit:\n";
    out_ << "# `lbmf_extract " << spec_.name
         << "` regenerates it, and the CI drift gate diffs the\n";
    out_ << "# regenerated protocol against the committed litmus file"
         << (opts_.banner_note.empty() ? "" : " (" + opts_.banner_note + ")")
         << ".\n\n";

    for (const auto& [loc, v] : spec_.inits) {
      out_ << "init [" << loc << "], " << v << "\n";
    }
    if (!spec_.inits.empty()) out_ << "\n";

    // Symmetric role groups fold into `symmetric cpu` directives over the
    // emitted section indices (roles are emitted in declaration order).
    std::map<std::string, std::size_t> role_index;
    for (std::size_t i = 0; i < spec_.roles.size(); ++i) {
      role_index[spec_.roles[i].name] = i;
    }
    for (const auto& group : spec_.symmetric) {
      out_ << "symmetric cpu";
      for (std::size_t i = 0; i < group.size(); ++i) {
        out_ << (i ? ", " : " ") << role_index[group[i]];
      }
      out_ << "\n";
    }
    if (!spec_.symmetric.empty()) out_ << "\n";

    for (std::size_t i = 0; i < spec_.roles.size(); ++i) {
      const RoleTrace& role = spec_.roles[i];
      const std::array<int, 8> regs = canonical_registers(role);
      put_line("cpu " + std::to_string(i) + ":", role.src,
               "role " + role.name);
      out_ << "  freq " << static_cast<long long>(role.freq) << "\n";
      for (const RecordedOp& op : role.ops) {
        std::string body = render_op(op, regs);
        if (op.kind != OpKind::kLabel) body = "  " + body;
        put_line(std::move(body), op.src);
      }
      out_ << "\n";
    }

    for (const auto& conj : spec_.finals) {
      out_ << "final";
      for (std::size_t i = 0; i < conj.size(); ++i) {
        out_ << (i ? ", " : " ") << "[" << conj[i].first << "], "
             << conj[i].second;
      }
      out_ << "\n";
    }

    result_.text = out_.str();
  }

  const Spec& spec_;
  const EmitOptions& opts_;
  EmitResult result_;
  std::ostringstream out_;
};

}  // namespace

EmitResult emit_lit(const Spec& spec, const EmitOptions& opts) {
  return Emitter(spec, opts).run();
}

std::string DriftReport::to_string() const {
  if (clean()) return "clean";
  std::string out;
  for (const std::string& d : diffs) {
    out += d;
    out += "\n";
  }
  return out;
}

namespace {

void diff_programs(const sim::AssembleResult& gen,
                   const sim::AssembleResult& ref, DriftReport* out) {
  const std::size_t n = std::min(gen.programs.size(), ref.programs.size());
  if (gen.programs.size() != ref.programs.size()) {
    out->diffs.push_back(
        "cpu count differs: generated " + std::to_string(gen.programs.size()) +
        " vs committed " + std::to_string(ref.programs.size()));
  }
  for (std::size_t cpu = 0; cpu < n; ++cpu) {
    const auto& g = gen.programs[cpu].code;
    const auto& r = ref.programs[cpu].code;
    if (g.size() != r.size()) {
      out->diffs.push_back("cpu" + std::to_string(cpu) +
                           ": instruction count differs: generated " +
                           std::to_string(g.size()) + " vs committed " +
                           std::to_string(r.size()));
    }
    for (std::size_t i = 0; i < std::min(g.size(), r.size()); ++i) {
      if (g[i] == r[i]) continue;
      out->diffs.push_back("cpu" + std::to_string(cpu) + "@" +
                           std::to_string(i) + ": generated `" +
                           sim::to_string(g[i]) + "` vs committed `" +
                           sim::to_string(r[i]) + "`");
    }
  }
}

}  // namespace

DriftReport compare_litmus(std::string_view generated,
                           std::string_view committed) {
  DriftReport out;
  const sim::AssembleResult gen = sim::assemble(generated);
  const sim::AssembleResult ref = sim::assemble(committed);
  if (!gen.ok()) {
    out.diffs.push_back("generated litmus does not assemble: line " +
                        std::to_string(gen.error->line) + ": " +
                        gen.error->message);
  }
  if (!ref.ok()) {
    out.diffs.push_back("committed litmus does not assemble: line " +
                        std::to_string(ref.error->line) + ": " +
                        ref.error->message);
  }
  if (!out.clean()) return out;

  diff_programs(gen, ref, &out);

  if (gen.symbols != ref.symbols) {
    std::string d = "symbol table differs: generated {";
    for (const auto& [name, addr] : gen.symbols) {
      d += " " + name + "=" + std::to_string(addr);
    }
    d += " } vs committed {";
    for (const auto& [name, addr] : ref.symbols) {
      d += " " + name + "=" + std::to_string(addr);
    }
    d += " }";
    out.diffs.push_back(std::move(d));
  }
  if (gen.initial_memory != ref.initial_memory) {
    out.diffs.push_back("initial memory (`init` directives) differs");
  }
  if (gen.cpu_freqs != ref.cpu_freqs) {
    out.diffs.push_back("per-cpu freq weights differ");
  }

  auto hole_key = [](const sim::LitHole& h) {
    return std::tuple(h.cpu, h.instr_index, h.addr, h.value);
  };
  const bool holes_equal =
      gen.holes.size() == ref.holes.size() &&
      std::equal(gen.holes.begin(), gen.holes.end(), ref.holes.begin(),
                 [&](const sim::LitHole& a, const sim::LitHole& b) {
                   return hole_key(a) == hole_key(b);
                 });
  if (!holes_equal) {
    out.diffs.push_back("`?fence` holes differ: generated " +
                        std::to_string(gen.holes.size()) + " vs committed " +
                        std::to_string(ref.holes.size()) +
                        " (compared by cpu/index/addr/value)");
  }
  if (gen.final_allowed != ref.final_allowed) {
    out.diffs.push_back("`final` terminal-state properties differ");
  }
  if (gen.symmetric_groups != ref.symmetric_groups) {
    out.diffs.push_back("`symmetric` groups differ");
  }
  return out;
}

}  // namespace lbmf::extract
