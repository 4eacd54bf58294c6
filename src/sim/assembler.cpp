#include "lbmf/sim/assembler.hpp"

#include <cctype>
#include <charconv>

#include "lbmf/sim/machine.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::sim {
namespace {

/// Cursor over one source line, with small lexing helpers. Commas are
/// treated as whitespace; brackets delimit location operands.
class LineLexer {
 public:
  explicit LineLexer(std::string_view line) : s_(line) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           (std::isspace(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == ',')) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  /// Next bare token (identifier / number / sign), without brackets.
  std::string_view token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !std::isspace(static_cast<unsigned char>(
                                   s_[pos_])) &&
           s_[pos_] != ',' && s_[pos_] != '[' && s_[pos_] != ']' &&
           s_[pos_] != ':') {
      ++pos_;
    }
    last_start_ = start;
    last_ = s_.substr(start, pos_ - start);
    return last_;
  }

  bool consume(char c) {
    skip_ws();
    last_start_ = pos_;
    last_ = pos_ < s_.size() ? s_.substr(pos_, 1) : std::string_view{};
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// 1-based column of the last token()/consume() attempt — the lexer's
  /// line is a prefix of the raw source line, so columns line up with the
  /// file as the user sees it.
  std::size_t column() const noexcept { return last_start_ + 1; }
  std::string_view last_token() const noexcept { return last_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t last_start_ = 0;
  std::string_view last_;
};

bool parse_int(std::string_view tok, long long* out) {
  if (tok.empty()) return false;
  const auto* first = tok.data();
  const auto* last = tok.data() + tok.size();
  const auto res = std::from_chars(first, last, *out);
  return res.ec == std::errc{} && res.ptr == last;
}

struct Assembler {
  AssembleResult result;
  ProgramBuilder* builder = nullptr;
  std::vector<ProgramBuilder> builders;
  std::size_t line_no = 0;
  Addr next_addr = 0;
  std::vector<std::pair<Addr, Word>> initials;
  std::vector<double> freqs;     // one per cpu section, default 1.0
  std::vector<bool> freq_seen;   // duplicate-`freq` detection
  // `symmetric cpu ...` declarations, with the source line for late
  // validation errors (the groups are checked after every cpu section has
  // been built, so forward declarations are legal).
  std::vector<std::pair<std::vector<std::size_t>, std::size_t>> sym_decls;

  bool fail(std::string message) {
    result.error = AssembleError{line_no, std::move(message), 0, {}};
    return false;
  }

  /// fail() attributed to the lexer's last token: records its 1-based
  /// column and text so the report can point at the offending operand.
  bool fail_at(const LineLexer& lex, std::string message) {
    result.error = AssembleError{line_no, std::move(message), lex.column(),
                                 std::string(lex.last_token())};
    return false;
  }

  bool parse_reg(LineLexer& lex, std::uint8_t* out) {
    const std::string_view t = lex.token();
    if (t.size() < 2 || (t[0] != 'r' && t[0] != 'R')) {
      return fail_at(lex,
                     "expected register r0..r7, got '" + std::string(t) + "'");
    }
    long long idx = -1;
    if (!parse_int(t.substr(1), &idx) || idx < 0 || idx > 7) {
      return fail_at(lex, "register out of range: '" + std::string(t) + "'");
    }
    *out = static_cast<std::uint8_t>(idx);
    return true;
  }

  bool parse_addr(LineLexer& lex, Addr* out) {
    if (!lex.consume('[')) {
      return fail_at(lex, "expected '[' before location");
    }
    const std::string_view t = lex.token();
    if (t.empty()) return fail_at(lex, "empty location");
    long long numeric = -1;
    if (parse_int(t, &numeric)) {
      if (numeric < 0) return fail_at(lex, "negative address");
      *out = static_cast<Addr>(numeric);
    } else {
      auto [it, inserted] =
          result.symbols.try_emplace(std::string(t), next_addr);
      if (inserted) ++next_addr;
      *out = it->second;
    }
    if (!lex.consume(']')) {
      return fail_at(lex, "expected ']' after location");
    }
    return true;
  }

  bool parse_imm(LineLexer& lex, Word* out) {
    const std::string_view t = lex.token();
    long long v = 0;
    if (!parse_int(t, &v)) {
      return fail_at(lex, "expected integer, got '" + std::string(t) + "'");
    }
    *out = static_cast<Word>(v);
    return true;
  }

  bool parse_label(LineLexer& lex, std::string* out) {
    const std::string_view t = lex.token();
    if (t.empty()) return fail_at(lex, "expected label name");
    *out = std::string(t);
    return true;
  }

  bool require_end(LineLexer& lex) {
    if (!lex.at_end()) {
      lex.token();  // attribute the error to the first trailing token
      return fail_at(lex, "trailing tokens on line");
    }
    return true;
  }

  bool finish_current() {
    if (builder == nullptr) return true;
    Program p;
    if (const auto err = builders.back().try_build(&p)) {
      return fail("cpu" + std::to_string(result.programs.size()) + ": " +
                  *err);
    }
    result.programs.push_back(std::move(p));
    builder = nullptr;
    return true;
  }

  /// Post-assembly check of every `symmetric cpu` declaration. A group is
  /// legal when the member CPUs are genuinely interchangeable: same
  /// instruction sequence, same relative frequency, and `?fence` holes at
  /// the same instruction indices over the same (addr, value) stores.
  bool validate_symmetry() {
    std::vector<bool> grouped(result.programs.size(), false);
    for (auto& [members, decl_line] : sym_decls) {
      line_no = decl_line;
      const std::size_t lead = members[0];
      for (const std::size_t m : members) {
        if (m >= result.programs.size()) {
          return fail("'symmetric' names cpu " + std::to_string(m) +
                      " but only " + std::to_string(result.programs.size()) +
                      " cpu sections exist");
        }
        if (grouped[m]) {
          return fail("cpu " + std::to_string(m) +
                      " appears in more than one 'symmetric' group");
        }
        grouped[m] = true;
        if (m == lead) continue;
        if (result.programs[m].code != result.programs[lead].code) {
          return fail("'symmetric' cpus " + std::to_string(lead) + " and " +
                      std::to_string(m) + " have different programs");
        }
        if (result.cpu_freqs[m] != result.cpu_freqs[lead]) {
          return fail("'symmetric' cpus " + std::to_string(lead) + " and " +
                      std::to_string(m) + " have different freqs");
        }
        auto holes_of = [this](std::size_t cpu) {
          std::vector<std::tuple<std::size_t, Addr, Word>> h;
          for (const LitHole& hole : result.holes) {
            if (hole.cpu == cpu) h.emplace_back(hole.instr_index, hole.addr,
                                                hole.value);
          }
          return h;  // source order == ascending instr_index per cpu
        };
        if (holes_of(m) != holes_of(lead)) {
          return fail("'symmetric' cpus " + std::to_string(lead) + " and " +
                      std::to_string(m) + " have misaligned ?fence holes");
        }
      }
      result.symmetric_groups.push_back(std::move(members));
    }
    return true;
  }

  bool handle_line(std::string_view raw) {
    // Runtime-source provenance: a trailing `#@ file:line` comment, one
    // per instruction in extractor-generated files. Captured before the
    // comment strip below removes it; attached to any `?fence` hole on
    // this line (a plain comment to everything else).
    std::string_view prov;
    if (const auto tag = raw.find("#@"); tag != std::string_view::npos) {
      prov = raw.substr(tag + 2);
      while (!prov.empty() &&
             std::isspace(static_cast<unsigned char>(prov.front()))) {
        prov.remove_prefix(1);
      }
      std::size_t end = 0;
      while (end < prov.size() &&
             !std::isspace(static_cast<unsigned char>(prov[end]))) {
        ++end;
      }
      prov = prov.substr(0, end);
    }
    // Strip comments.
    std::string_view line = raw;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    if (const auto slashes = line.find("//");
        slashes != std::string_view::npos) {
      line = line.substr(0, slashes);
    }
    LineLexer lex(line);
    if (lex.at_end()) return true;

    const std::string_view head = lex.token();

    // `init [loc], value` — initial memory contents; only before the first
    // cpu section (it describes the shared initial state).
    if (head == "init") {
      if (builder != nullptr || !result.programs.empty()) {
        return fail("'init' must precede the first cpu section");
      }
      Addr a = 0;
      Word v = 0;
      if (!parse_addr(lex, &a) || !parse_imm(lex, &v)) return false;
      initials.emplace_back(a, v);
      return require_end(lex);
    }

    // `final [loc], v, [loc2], w, ...` — one allowed terminal valuation (a
    // conjunction over locations); repeating the directive builds a
    // disjunction. Legal anywhere: it describes the whole test, not one
    // CPU, and by convention sits at the end of the file.
    if (head == "final") {
      std::vector<std::pair<Addr, Word>> conj;
      while (!lex.at_end()) {
        Addr a = 0;
        Word v = 0;
        if (!parse_addr(lex, &a) || !parse_imm(lex, &v)) return false;
        conj.emplace_back(a, v);
      }
      if (conj.empty()) return fail("'final' needs at least one [loc], value");
      result.final_allowed.push_back(std::move(conj));
      return true;
    }

    // `symmetric cpu N, M[, ...]` — declare a group of interchangeable
    // CPUs. Legal anywhere (like `final`); membership is validated once the
    // whole file has assembled: the named programs must be byte-identical,
    // their freqs equal, and their `?fence` holes aligned, so the
    // declaration fails loudly the moment the programs drift apart.
    if (head == "symmetric") {
      const std::string_view kw = lex.token();
      if (kw != "cpu") return fail("expected 'symmetric cpu N, M, ...'");
      std::vector<std::size_t> members;
      while (!lex.at_end()) {
        Word v = 0;
        if (!parse_imm(lex, &v)) return false;
        if (v < 0) return fail("negative cpu index in 'symmetric'");
        members.push_back(static_cast<std::size_t>(v));
      }
      if (members.size() < 2) {
        return fail("'symmetric cpu' needs at least two cpu indices");
      }
      sym_decls.emplace_back(std::move(members), line_no);
      return true;
    }

    if (head == "cpu") {
      long long n = -1;
      const std::string_view num = lex.token();
      // `builders` keeps one (possibly moved-from) slot per section seen so
      // far, so its size alone is the next expected cpu index. (Adding
      // result.programs.size() here double-counted finished sections and
      // rejected any third `cpu N:` block.)
      if (!parse_int(num, &n) || n != static_cast<long long>(builders.size())) {
        return fail("cpu sections must be 'cpu 0:', 'cpu 1:', ... in order");
      }
      if (!lex.consume(':')) return fail("expected ':' after cpu N");
      if (!finish_current()) return false;
      builders.emplace_back("cpu" + std::to_string(n));
      builder = &builders.back();
      freqs.push_back(1.0);
      freq_seen.push_back(false);
      return require_end(lex);
    }

    // `freq N` — relative execution frequency of this CPU's protocol entry
    // (how often this code runs per unit time, e.g. the biased-Dekker
    // primary vs its rare secondary). Consumed by the fence-inference cost
    // ranking; no effect on execution or exploration.
    if (head == "freq") {
      if (builder == nullptr) {
        return fail("'freq' must be inside a 'cpu N:' section");
      }
      if (freq_seen.back()) return fail("duplicate 'freq' in cpu section");
      Word v = 0;
      if (!parse_imm(lex, &v)) return false;
      if (v < 1) return fail("freq must be >= 1");
      freqs.back() = static_cast<double>(v);
      freq_seen.back() = true;
      return require_end(lex);
    }

    if (builder == nullptr) {
      return fail("instruction outside a 'cpu N:' section");
    }

    // Label definition: `name:` alone.
    {
      LineLexer probe(line);
      const std::string_view t = probe.token();
      if (!t.empty() && probe.consume(':') && probe.at_end() && t != "cpu") {
        builder->label(std::string(t));
        return true;
      }
    }

    std::uint8_t reg = 0;
    Addr a = 0;
    Word imm = 0;
    std::string label;

    if (head == "mov") {
      if (!parse_reg(lex, &reg) || !parse_imm(lex, &imm)) return false;
      builder->mov(reg, imm);
    } else if (head == "add") {
      if (!parse_reg(lex, &reg) || !parse_imm(lex, &imm)) return false;
      builder->add(reg, imm);
    } else if (head == "load") {
      if (!parse_reg(lex, &reg) || !parse_addr(lex, &a)) return false;
      builder->load(reg, a);
    } else if (head == "le") {
      if (!parse_reg(lex, &reg) || !parse_addr(lex, &a)) return false;
      builder->load_exclusive(reg, a);
    } else if (head == "store") {
      if (!parse_addr(lex, &a)) return false;
      // Either an immediate or a register source.
      LineLexer save = lex;
      const std::string_view t = save.token();
      long long v = 0;
      if (!t.empty() && (t[0] == 'r' || t[0] == 'R') &&
          parse_int(t.substr(1), &v) && v >= 0 && v <= 7) {
        lex = save;
        builder->store_reg(a, static_cast<std::uint8_t>(v));
      } else if (!parse_imm(lex, &imm)) {
        return false;
      } else {
        builder->store(a, imm);
      }
    } else if (head == "lmfence") {
      if (!parse_addr(lex, &a) || !parse_imm(lex, &imm)) return false;
      builder->lmfence(a, imm);
    } else if (head == "?fence") {
      // A fence HOLE: a store whose fence discipline ({none, mfence,
      // l-mfence}) is left for lbmf::infer to decide. Assembles to the
      // plain store (the weakest instantiation) and records the site.
      if (!parse_addr(lex, &a) || !parse_imm(lex, &imm)) return false;
      result.holes.push_back(LitHole{builders.size() - 1, builder->size(), a,
                                     imm, line_no, std::string(prov)});
      builder->store(a, imm);
    } else if (head == "mfence") {
      builder->mfence();
    } else if (head == "lock") {
      if (!parse_addr(lex, &a)) return false;
      builder->lock(a);
    } else if (head == "unlock") {
      if (!parse_addr(lex, &a)) return false;
      builder->unlock(a);
    } else if (head == "delay") {
      if (!parse_imm(lex, &imm)) return false;
      if (imm < 0) return fail("delay must be non-negative");
      builder->delay(imm);
    } else if (head == "beq") {
      if (!parse_reg(lex, &reg) || !parse_imm(lex, &imm) ||
          !parse_label(lex, &label)) {
        return false;
      }
      builder->branch_eq(reg, imm, label);
    } else if (head == "bne") {
      if (!parse_reg(lex, &reg) || !parse_imm(lex, &imm) ||
          !parse_label(lex, &label)) {
        return false;
      }
      builder->branch_ne(reg, imm, label);
    } else if (head == "jmp") {
      if (!parse_label(lex, &label)) return false;
      builder->jump(label);
    } else if (head == "cs_enter") {
      builder->cs_enter();
    } else if (head == "cs_exit") {
      builder->cs_exit();
    } else if (head == "halt") {
      builder->halt();
    } else {
      return fail_at(lex, "unknown instruction '" + std::string(head) + "'");
    }
    return require_end(lex);
  }
};

}  // namespace

std::string AssembleError::to_string() const {
  std::string out = "line " + std::to_string(line);
  if (column != 0) {
    out += ", col " + std::to_string(column);
    if (!token.empty()) out += " near '" + token + "'";
  }
  out += ": " + message;
  return out;
}

AssembleResult assemble(std::string_view source) {
  Assembler as;
  std::size_t start = 0;
  while (start <= source.size()) {
    ++as.line_no;
    const std::size_t nl = source.find('\n', start);
    const std::string_view line =
        nl == std::string_view::npos
            ? source.substr(start)
            : source.substr(start, nl - start);
    if (!as.handle_line(line)) return std::move(as.result);
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  if (as.builders.empty() && as.result.programs.empty()) {
    as.fail("no 'cpu N:' sections found");
    return std::move(as.result);
  }
  if (!as.finish_current()) return std::move(as.result);
  as.result.initial_memory = std::move(as.initials);
  as.result.cpu_freqs = std::move(as.freqs);
  if (!as.validate_symmetry()) return std::move(as.result);
  return std::move(as.result);
}

Machine assemble_machine(std::string_view source, SimConfig cfg) {
  AssembleResult r = assemble(source);
  LBMF_CHECK_MSG(r.ok(), "litmus assembly failed");
  cfg.num_cpus = r.programs.size();
  Machine m(cfg);
  for (const auto& [a, v] : r.initial_memory) m.set_memory(a, v);
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    m.load_program(i, std::move(r.programs[i]));
  }
  if (!r.symmetric_groups.empty()) {
    std::vector<std::vector<std::uint8_t>> groups;
    for (const auto& g : r.symmetric_groups) {
      groups.emplace_back(g.begin(), g.end());
    }
    m.set_symmetric_groups(std::move(groups));
  }
  return m;
}

}  // namespace lbmf::sim
