#include "lbmf/sim/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "lbmf/sim/trace.hpp"

#include "lbmf/util/check.hpp"
#include "lbmf/util/rng.hpp"

namespace lbmf::sim {

const char* to_string(Mesi s) noexcept {
  switch (s) {
    case Mesi::Invalid: return "I";
    case Mesi::Shared: return "S";
    case Mesi::Exclusive: return "E";
    case Mesi::Modified: return "M";
    case Mesi::Owned: return "O";
  }
  return "?";
}

const char* to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kMsi: return "MSI";
    case Protocol::kMesi: return "MESI";
    case Protocol::kMoesi: return "MOESI";
  }
  return "?";
}

namespace {

/// States in which no other cache may hold a valid copy — the states the
/// l-mfence link requires (Def. 3) and in which a store may complete.
bool is_exclusive_state(Mesi s) noexcept {
  return s == Mesi::Exclusive || s == Mesi::Modified;
}

/// States holding dirty data (memory may be stale).
bool is_dirty_state(Mesi s) noexcept {
  return s == Mesi::Modified || s == Mesi::Owned;
}

}  // namespace

const char* to_string(Action a) noexcept {
  switch (a) {
    case Action::Execute: return "exec";
    case Action::Drain: return "drain";
    case Action::Interrupt: return "intr";
  }
  return "?";
}

std::string to_string(const Choice& c) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cpu%u:%s", unsigned{c.cpu},
                to_string(c.action));
  return buf;
}

Machine::Machine(SimConfig cfg) : cfg_(cfg) {
  LBMF_CHECK(cfg_.num_cpus >= 1 && cfg_.num_cpus <= 64);
  LBMF_CHECK(cfg_.sb_capacity >= 1);
  LBMF_CHECK(cfg_.cache_capacity >= 2);
  LBMF_CHECK(cfg_.line_words >= 1 &&
             cfg_.line_words <= LineData::kInlineWords);
  cpus_.reserve(cfg_.num_cpus);
  for (std::size_t i = 0; i < cfg_.num_cpus; ++i) cpus_.emplace_back(cfg_);
}

void Machine::load_program(std::size_t cpu, Program p) {
  LBMF_CHECK(cpu < cpus_.size());
  // Registers this program can ever write. Registers outside the mask stay
  // zero forever, so the canonical encoding skips them (the encoding is
  // only ever compared between machines running the same programs).
  std::uint8_t mask = 0;
  for (const Instr& i : p.code) {
    switch (i.op) {
      case Op::kLoad:
      case Op::kLoadExclusive:
      case Op::kMovImm:
      case Op::kAddImm:
        LBMF_CHECK(i.reg < 8);
        mask |= static_cast<std::uint8_t>(1u << i.reg);
        break;
      default:
        break;
    }
  }
  // Copy-on-write: machines copied earlier keep the table they share.
  auto table = programs_ != nullptr
                   ? std::make_shared<std::vector<Program>>(*programs_)
                   : std::make_shared<std::vector<Program>>(cpus_.size());
  (*table)[cpu] = std::move(p);
  cpus_[cpu].program = &(*table)[cpu];
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (cpus_[i].program != nullptr) cpus_[i].program = &(*table)[i];
  }
  programs_ = std::move(table);
  cpus_[cpu].regs_written_mask = mask;
  cpus_[cpu].hash_valid = false;
}

Word Machine::memory(Addr a) const { return mem_.get(a); }

Word Machine::coherent_value(Addr a) const {
  const Addr base = line_base(a);
  for (const auto& c : cpus_) {
    const CacheLine* l = c.cache.peek(base);
    if (l != nullptr && is_dirty_state(l->state)) return l->at(line_off(a));
  }
  return mem_.get(a);
}

Addr Machine::line_base(Addr a) const noexcept {
  return a - (a % static_cast<Addr>(cfg_.line_words));
}

std::size_t Machine::line_off(Addr a) const noexcept {
  return a % cfg_.line_words;
}

LineData Machine::memory_line(Addr base) const {
  LineData out(cfg_.line_words);
  for (std::size_t i = 0; i < cfg_.line_words; ++i) {
    out[i] = memory(base + static_cast<Addr>(i));
  }
  return out;
}

void Machine::writeback_line(const CacheLine& l) {
  for (std::size_t i = 0; i < l.data.size(); ++i) {
    mem_.set(l.base + static_cast<Addr>(i), l.data[i]);
  }
}

bool Machine::action_enabled(std::size_t cpu, Action a) const {
  if (cpu >= cpus_.size()) return false;
  const CpuState& c = cpus_[cpu];
  switch (a) {
    case Action::Execute: {
      if (c.halted || c.program == nullptr) return false;
      // Locked RMWs are blocking instructions: their Execute action is
      // disabled until they can complete atomically. x86's `lock xchg`
      // drains the store buffer first (implicit full fence), and LOCK
      // additionally spins until the gate reads 0 — a disabled Execute
      // models the spin without adding retry states. Drain stays enabled,
      // so a CPU stalled here still makes its own stores visible.
      const Instr& i = c.program->code[c.pc];
      if (i.op == Op::kLock) {
        return c.sb.empty() && coherent_value(i.addr) == 0;
      }
      if (i.op == Op::kUnlock) return c.sb.empty();
      return true;
    }
    case Action::Drain:
      return !c.sb.empty();
    case Action::Interrupt:
      return true;  // interrupts can always arrive
  }
  return false;
}

void Machine::step(std::size_t cpu, Action a) {
  LBMF_CHECK(action_enabled(cpu, a));
  CpuState& c = cpus_[cpu];
  switch (a) {
    case Action::Execute:
      exec_instr(c);
      break;
    case Action::Drain:
      c.counters.cycles += complete_oldest(c);
      break;
    case Action::Interrupt:
      trace(c, static_cast<int>(EventKind::kInterrupt));
      c.counters.cycles += cfg_.cost_interrupt + flush_sb(c);
      break;
  }
}

bool Machine::finished() const {
  for (const auto& c : cpus_) {
    if (!c.halted || !c.sb.empty()) return false;
  }
  return true;
}

std::uint64_t Machine::run_round_robin(std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!finished()) {
    bool progressed = false;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (action_enabled(i, Action::Execute)) {
        step(i, Action::Execute);
        ++steps;
        progressed = true;
      } else if (action_enabled(i, Action::Drain)) {
        step(i, Action::Drain);
        ++steps;
        progressed = true;
      }
      LBMF_CHECK_MSG(steps < max_steps, "simulated program did not terminate");
    }
    LBMF_CHECK_MSG(progressed, "simulated machine is wedged");
  }
  return steps;
}

std::uint64_t Machine::run_random(std::uint64_t seed,
                                  std::uint64_t max_steps) {
  Xoshiro256 rng(seed);
  std::uint64_t steps = 0;
  while (!finished()) {
    // Collect enabled (cpu, action) pairs; pick one uniformly.
    Choice enabled[128];
    std::size_t n = 0;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (action_enabled(i, Action::Execute)) {
        enabled[n++] = {static_cast<std::uint8_t>(i), Action::Execute};
      }
      if (action_enabled(i, Action::Drain)) {
        enabled[n++] = {static_cast<std::uint8_t>(i), Action::Drain};
      }
    }
    LBMF_CHECK_MSG(n > 0, "simulated machine is wedged");
    const Choice pick = enabled[rng.next_below(n)];
    step(pick.cpu, pick.action);
    ++steps;
    LBMF_CHECK_MSG(steps < max_steps, "simulated program did not terminate");
  }
  return steps;
}

std::size_t Machine::cpus_in_cs() const {
  std::size_t n = 0;
  for (const auto& c : cpus_) n += c.in_cs ? 1 : 0;
  return n;
}

Mesi Machine::line_state(std::size_t i, Addr a) const {
  const CacheLine* l = cpus_[i].cache.peek(line_base(a));
  return l == nullptr ? Mesi::Invalid : l->state;
}

std::uint64_t Machine::total_cycles() const {
  std::uint64_t t = 0;
  for (const auto& c : cpus_) t += c.counters.cycles;
  return t;
}

void Machine::trace(const CpuState& c, int kind_int, Addr a, Word v,
                    std::string detail) const {
  if (trace_ == nullptr) return;
  const auto cpu_index =
      static_cast<std::uint8_t>(&c - cpus_.data());
  trace_->record(cpu_index, static_cast<EventKind>(kind_int), a, v,
                 std::move(detail));
}

void Machine::deliver_interrupt(std::size_t cpu) {
  LBMF_CHECK(cpu < cpus_.size());
  step(cpu, Action::Interrupt);
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

void Machine::exec_instr(CpuState& c) {
  LBMF_CHECK(c.program != nullptr && !c.halted);
  c.hash_valid = false;
  LBMF_CHECK(c.pc >= 0 &&
             static_cast<std::size_t>(c.pc) < c.program->code.size());
  const Instr& i = c.program->code[c.pc];
  ++c.counters.instructions;
  if (trace_ != nullptr) {
    trace(c, static_cast<int>(EventKind::kExec), i.addr, i.imm,
          sim::to_string(i));
  }
  std::int32_t next_pc = c.pc + 1;

  switch (i.op) {
    case Op::kLoad: {
      ++c.counters.loads;
      if (auto fwd = c.sb.forwarded_value(i.addr)) {
        // Store-buffer forwarding: the CPU always sees its own stores.
        c.regs[i.reg] = *fwd;
        c.counters.cycles += cfg_.cost_load_hit;
      } else if (CacheLine* l = c.cache.touch(line_base(i.addr))) {
        c.regs[i.reg] = l->at(line_off(i.addr));
        c.counters.cycles += cfg_.cost_load_hit;
      } else {
        Word v = 0;
        c.counters.cycles += bus_read(c, i.addr, v);
        c.regs[i.reg] = v;
      }
      break;
    }

    case Op::kStore:
    case Op::kStoreReg: {
      ++c.counters.stores;
      const Word v = (i.op == Op::kStore) ? i.imm : c.regs[i.reg];
      if (c.sb.full()) {
        // Structural stall: the oldest entry must complete first.
        c.counters.cycles += complete_oldest(c);
      }
      StoreEntry e;
      e.addr = i.addr;
      e.value = v;
      // This store is "the store associated with the l-mfence" iff the link
      // is armed for its address at commit time (Sec. 3).
      e.guarded = c.le_bit && c.le_addr == i.addr;
      c.sb.push(e);
      c.counters.cycles += cfg_.cost_store_commit;
      break;
    }

    case Op::kLoadExclusive: {
      ++c.counters.loads;
      // LE is "very similar to a regular load, except the requirement for
      // Exclusive state" (Sec. 3).
      const CacheLine* l = c.cache.peek(line_base(i.addr));
      if (l != nullptr && is_exclusive_state(l->state)) {
        c.regs[i.reg] =
            c.cache.touch(line_base(i.addr))->at(line_off(i.addr));
        c.counters.cycles += cfg_.cost_load_hit;
      } else {
        Word v = 0;
        c.counters.cycles += bus_read_exclusive(c, i.addr, v);
        c.regs[i.reg] = v;
      }
      break;
    }

    case Op::kMfence: {
      ++c.counters.mfences;
      c.counters.cycles += cfg_.cost_mfence_base + flush_sb(c);
      break;
    }

    case Op::kSetLink: {
      if (!cfg_.le_st_enabled) break;  // ablated hardware: link never arms
      if (c.le_bit && c.le_addr != i.addr) {
        // Second l-mfence with a different guarded location while the first
        // link is live: clear and flush before proceeding (Sec. 3).
        ++c.counters.link_breaks_second;
        trace(c, static_cast<int>(EventKind::kGuardSecond), c.le_addr);
        clear_link(c);
        c.counters.cycles += flush_sb(c);
      }
      c.le_bit = true;
      c.le_addr = i.addr;
      ++c.counters.links_armed;
      trace(c, static_cast<int>(EventKind::kLinkArm), i.addr);
      c.counters.cycles += cfg_.cost_reg_op;
      break;
    }

    case Op::kBranchLinkSet:
      if (c.le_bit) next_pc = i.target;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kMovImm:
      c.regs[i.reg] = i.imm;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kAddImm:
      c.regs[i.reg] += i.imm;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kBranchEq:
      if (c.regs[i.reg] == i.imm) next_pc = i.target;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kBranchNe:
      if (c.regs[i.reg] != i.imm) next_pc = i.target;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kJump:
      next_pc = i.target;
      c.counters.cycles += cfg_.cost_reg_op;
      break;

    case Op::kCsEnter:
      LBMF_CHECK_MSG(!c.in_cs, "nested critical section in litmus program");
      c.in_cs = true;
      break;

    case Op::kCsExit:
      LBMF_CHECK_MSG(c.in_cs, "CS_EXIT without CS_ENTER");
      c.in_cs = false;
      break;

    case Op::kDelay:
      c.counters.cycles += static_cast<std::uint64_t>(i.imm);
      break;

    case Op::kHalt:
      c.halted = true;
      next_pc = c.pc;
      break;

    case Op::kLock:
    case Op::kUnlock: {
      // action_enabled guaranteed an empty store buffer and, for LOCK, a
      // zero gate. The RMW bypasses the buffer entirely: acquire the line
      // exclusively and write in one atomic simulator step, exactly the
      // shape of complete_oldest()'s commit path.
      ++c.counters.stores;
      c.counters.cycles += acquire_exclusive(c, i.addr);
      CacheLine* l = c.cache.touch(line_base(i.addr));
      LBMF_CHECK_MSG(l != nullptr, "locked RMW lost its cache line");
      l->at(line_off(i.addr)) = (i.op == Op::kLock) ? 1 : 0;
      l->state = Mesi::Modified;
      c.counters.cycles += cfg_.cost_store_commit;
      break;
    }
  }

  c.pc = next_pc;
}

// ---------------------------------------------------------------------------
// Memory system
// ---------------------------------------------------------------------------

void Machine::clear_link(CpuState& c) {
  c.le_bit = false;
  c.le_addr = kInvalidAddr;
}

std::uint64_t Machine::notify_guard_remote(CpuState& owner, Addr base) {
  // The cache controller watches the *line* holding the guarded location:
  // with multi-word lines a remote access to a neighbouring word (false
  // sharing) fires the guard too.
  if (!owner.le_bit || line_base(owner.le_addr) != base) return 0;
  if (owner.flushing) return 0;  // flush already in progress up-stack
  // Sec. 3: the processor clears LEBit/LEAddr, flushes the store buffer and
  // only then replies, so the requester both waits out the flush and is
  // guaranteed to see the completed guarded store.
  ++owner.counters.link_breaks_remote;
  trace(owner, static_cast<int>(EventKind::kGuardRemote), base);
  clear_link(owner);
  owner.flushing = true;
  const std::uint64_t flush_cost = flush_sb(owner);
  owner.flushing = false;
  owner.counters.cycles += flush_cost;
  return flush_cost;
}

void Machine::handle_self_eviction(CpuState& c, const CacheLine& evicted) {
  if (is_dirty_state(evicted.state)) {
    writeback_line(evicted);  // M, or MOESI's O
    trace(c, static_cast<int>(EventKind::kWriteback), evicted.base);
  }
  if (c.le_bit && line_base(c.le_addr) == evicted.base) {
    // The cache controller can no longer watch the guarded line (Sec. 3):
    // break the link and serialize.
    ++c.counters.link_breaks_evict;
    trace(c, static_cast<int>(EventKind::kGuardEvict), evicted.base);
    clear_link(c);
    if (!c.flushing) {
      c.flushing = true;
      c.counters.cycles += flush_sb(c);
      c.flushing = false;
    }
  }
}

std::uint64_t Machine::bus_read(CpuState& c, Addr a, Word& out) {
  ++c.counters.bus_transactions;
  c.hash_valid = false;
  const Addr base = line_base(a);
  trace(c, static_cast<int>(EventKind::kBusRead), base);
  std::uint64_t latency = cfg_.cost_bus_transfer;

  bool someone_else_holds = false;
  LineData authoritative = memory_line(base);
  for (auto& other : cpus_) {
    if (&other == &c) continue;
    const CacheLine* l = other.cache.peek(base);
    if (l == nullptr) continue;
    other.hash_valid = false;
    someone_else_holds = true;
    if (is_exclusive_state(l->state)) {
      // A downgrade request: fire the guard first, then surrender
      // exclusivity. The guard flush may have evicted or rewritten the
      // line, so re-look it up.
      latency += notify_guard_remote(other, base);
      if (const CacheLine* after = other.cache.peek(base)) {
        if (after->state == Mesi::Modified) {
          if (cfg_.protocol == Protocol::kMoesi) {
            // MOESI: keep the dirty data, supply it to the reader, and
            // stay responsible for the eventual writeback.
            other.cache.set_state(base, Mesi::Owned);
          } else {
            writeback_line(*after);
            other.cache.set_state(base, Mesi::Shared);
          }
          authoritative = after->data;
        } else if (after->state == Mesi::Exclusive) {
          other.cache.set_state(base, Mesi::Shared);
          authoritative = after->data;
        }
      }
      latency += cfg_.cost_bus_transfer;  // transfer/ack hop
    } else if (l->state == Mesi::Owned) {
      // Owner supplies the data; no state change, memory stays stale.
      authoritative = l->data;
      latency += cfg_.cost_bus_transfer;
    }
  }

  out = authoritative[line_off(a)];
  const Mesi fill =
      someone_else_holds || cfg_.protocol == Protocol::kMsi
          ? Mesi::Shared
          : Mesi::Exclusive;  // E exists in both MESI and MOESI
  if (auto evicted = c.cache.insert(base, fill, std::move(authoritative))) {
    handle_self_eviction(c, *evicted);
  }
  return latency;
}

std::uint64_t Machine::bus_read_exclusive(CpuState& c, Addr a, Word& out) {
  ++c.counters.bus_transactions;
  c.hash_valid = false;
  const Addr base = line_base(a);
  trace(c, static_cast<int>(EventKind::kBusReadX), base);
  std::uint64_t latency = cfg_.cost_bus_transfer;

  // Our own copy may be the authoritative dirty one (e.g. Owned after a
  // downgrade); fold it into memory before we rebuild the line.
  if (const CacheLine* mine = c.cache.peek(base)) {
    if (is_dirty_state(mine->state)) writeback_line(*mine);
  }
  for (auto& other : cpus_) {
    if (&other == &c) continue;
    const CacheLine* l = other.cache.peek(base);
    if (l == nullptr) continue;
    other.hash_valid = false;
    if (is_exclusive_state(l->state)) {
      latency += notify_guard_remote(other, base);
      if (const CacheLine* after = other.cache.peek(base)) {
        if (is_dirty_state(after->state)) writeback_line(*after);
      }
      latency += cfg_.cost_bus_transfer;
    } else if (l->state == Mesi::Owned) {
      writeback_line(*l);
      latency += cfg_.cost_bus_transfer;
    }
    other.cache.erase(base);  // invalidate every remote copy
  }

  LineData data = memory_line(base);
  out = data[line_off(a)];
  // MSI has no Exclusive state: an exclusive fill lands directly in M.
  const Mesi fill = cfg_.protocol == Protocol::kMsi ? Mesi::Modified
                                                    : Mesi::Exclusive;
  if (auto evicted = c.cache.insert(base, fill, std::move(data))) {
    handle_self_eviction(c, *evicted);
  }
  return latency;
}

std::uint64_t Machine::acquire_exclusive(CpuState& c, Addr a) {
  const CacheLine* l = c.cache.peek(line_base(a));
  if (l != nullptr && is_exclusive_state(l->state)) return 0;
  Word dummy = 0;
  return bus_read_exclusive(c, a, dummy);
}

std::uint64_t Machine::complete_oldest(CpuState& c) {
  LBMF_CHECK(!c.sb.empty());
  c.hash_valid = false;
  const StoreEntry e = c.sb.pop_oldest();
  trace(c, static_cast<int>(EventKind::kDrain), e.addr, e.value);
  std::uint64_t latency = cfg_.cost_drain_entry;
  latency += acquire_exclusive(c, e.addr);
  CacheLine* l = c.cache.touch(line_base(e.addr));
  LBMF_CHECK_MSG(l != nullptr, "store completion lost its cache line");
  l->at(line_off(e.addr)) = e.value;
  l->state = Mesi::Modified;
  ++c.counters.sb_drains;
  if (e.guarded && c.le_bit && c.le_addr == e.addr) {
    // "Upon completing the store, the processor also clears LEBit and
    // LEAddr" (Sec. 3). With *consecutive same-location l-mfences* (which
    // Sec. 3 explicitly allows without an intervening flush) several
    // guarded stores can be buffered at once; the link must survive until
    // the newest completes, or a remote reader could be handed the older
    // value without triggering a flush of the newer one — violating the
    // Definition 2 ordering. The line may stay in M either way.
    bool newer_guarded_pending = false;
    for (const StoreEntry& rest : c.sb.entries()) {
      if (rest.guarded && rest.addr == e.addr) {
        newer_guarded_pending = true;
        break;
      }
    }
    if (!newer_guarded_pending) {
      ++c.counters.link_clears_complete;
      trace(c, static_cast<int>(EventKind::kLinkComplete), e.addr);
      clear_link(c);
    }
  }
  return latency;
}

std::uint64_t Machine::flush_sb(CpuState& c) {
  std::uint64_t latency = 0;
  while (!c.sb.empty()) latency += complete_oldest(c);
  return latency;
}

// ---------------------------------------------------------------------------
// Invariants and canonical state
// ---------------------------------------------------------------------------

std::optional<std::string> Machine::check_coherence() const {
  // Def. 3: once the guarded store has committed (a guarded entry sits in
  // the buffer) with LEBit still set, the guarded line must be in E/M
  // locally — any event that takes the line out of E/M must have cleared
  // LEBit on its way. Between SetLink and LE the bit may be set without the
  // line; that window is legal.
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    const CpuState& c = cpus_[i];
    if (!c.le_bit) continue;
    bool has_guarded_entry = false;
    for (const StoreEntry& e : c.sb.entries()) {
      if (e.guarded && e.addr == c.le_addr) has_guarded_entry = true;
    }
    if (!has_guarded_entry) continue;
    const CacheLine* g = c.cache.peek(line_base(c.le_addr));
    if (g == nullptr || !is_exclusive_state(g->state)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "armed link without E/M line on cpu %zu",
                    i);
      return std::string(buf);
    }
  }
  // One census entry per distinct resident line: its holders by state and
  // its dirty copy, gathered in a single pass over the caches.
  struct LineCensus {
    Addr base;
    std::uint32_t exclusive;  // E or M
    std::uint32_t owned;      // O (MOESI)
    std::uint32_t shared;
    const CacheLine* dirty;
  };
  thread_local std::vector<LineCensus> census;
  census.clear();
  auto find = [](Addr base) -> LineCensus* {
    for (LineCensus& e : census) {
      if (e.base == base) return &e;
    }
    return nullptr;
  };
  for (const CpuState& c : cpus_) {
    for (const CacheLine& l : c.cache.lines()) {
      LineCensus* e = find(l.base);
      if (e == nullptr) {
        e = &census.emplace_back(LineCensus{l.base, 0, 0, 0, nullptr});
      }
      if (is_exclusive_state(l.state)) {
        ++e->exclusive;
      } else if (l.state == Mesi::Owned) {
        ++e->owned;
      } else if (l.state == Mesi::Shared) {
        ++e->shared;
      }
      if (is_dirty_state(l.state)) e->dirty = &l;
    }
  }
  // Single-writer-multiple-reader, protocol-conformance and value
  // agreement invariants, per line.
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    for (const CacheLine& l : cpus_[i].cache.lines()) {
      // Protocol conformance: which states may exist at all.
      if (cfg_.protocol == Protocol::kMsi && l.state == Mesi::Exclusive) {
        return "Exclusive state present under MSI";
      }
      if (cfg_.protocol != Protocol::kMoesi && l.state == Mesi::Owned) {
        return "Owned state present outside MOESI";
      }
      if (l.data.size() != cfg_.line_words) {
        return "cache line has wrong width";
      }
      const LineCensus& e = *find(l.base);
      if (e.exclusive > 1 ||
          (e.exclusive == 1 && (e.shared > 0 || e.owned > 0)) ||
          e.owned > 1) {
        char buf[112];
        std::snprintf(buf, sizeof(buf),
                      "SWMR violated at line %u: %u E/M, %u O, %u S", l.base,
                      e.exclusive, e.owned, e.shared);
        return std::string(buf);
      }
      // Non-dirty copies must agree with the authoritative data (the
      // dirty owner's line under MOESI, memory otherwise).
      if (l.state != Mesi::Shared && l.state != Mesi::Exclusive) continue;
      bool stale = false;
      if (e.dirty != nullptr) {
        stale = l.data != e.dirty->data;
      } else {
        for (std::size_t w = 0; w < l.data.size(); ++w) {
          stale |= l.data[w] != mem_.get(l.base + static_cast<Addr>(w));
        }
      }
      if (stale) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "clean line stale at line %u on cpu %zu", l.base, i);
        return std::string(buf);
      }
    }
  }
  return std::nullopt;
}

std::string Machine::canonical_state() const {
  std::string s;
  s.reserve(256);
  append_canonical(s);
  return s;
}

Fingerprint Machine::fingerprint() const {
  lbmf::WordHasher h;
  if (sym_groups_ == nullptr) {
    for (const CpuState& c : cpus_) h.add(block_hash(c));
  } else {
    // Thread-symmetry canonicalization: the ungrouped CPUs' block hashes in
    // CPU order, then each group's in sorted order — the same information
    // as append_canonical()'s layout of sorted serialized blocks.
    std::uint64_t grouped = 0;  // Machine caps num_cpus at 64
    for (const auto& g : *sym_groups_) {
      for (const std::uint8_t m : g) grouped |= std::uint64_t{1} << m;
    }
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (((grouped >> i) & 1u) == 0) h.add(block_hash(cpus_[i]));
    }
    std::array<Fingerprint, 64> sorted;
    for (const auto& g : *sym_groups_) {
      for (std::size_t j = 0; j < g.size(); ++j) {
        sorted[j] = block_hash(cpus_[g[j]]);
      }
      std::sort(sorted.begin(), sorted.begin() + g.size(),
                [](const Fingerprint& a, const Fingerprint& b) {
                  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
                });
      for (std::size_t j = 0; j < g.size(); ++j) h.add(sorted[j]);
    }
  }
  h.add(mem_.size());
  for (const auto& [a, v] : mem_) {
    h.add(a);
    h.add(static_cast<std::uint64_t>(v));
  }
  return h.finish();
}

bool Machine::action_is_local(std::size_t cpu, Action a) const {
  LBMF_CHECK(action_enabled(cpu, a));
  const CpuState& c = cpus_[cpu];
  switch (a) {
    case Action::Drain:
      // Completing a store acquires exclusivity, writes the cache and may
      // fire remote guards; even an E/M-local completion races with remote
      // reads of the line's old value.
      return false;
    case Action::Interrupt:
      return false;  // flushes the store buffer (bus traffic)
    case Action::Execute:
      break;
  }
  const Instr& i = c.program->code[c.pc];
  switch (i.op) {
    case Op::kMovImm:
    case Op::kAddImm:
    case Op::kBranchEq:
    case Op::kBranchNe:
    case Op::kJump:
    case Op::kDelay:
    case Op::kHalt:
      return true;  // pc/registers only
    case Op::kStore:
    case Op::kStoreReg:
      // A plain SB push touches only this CPU's buffer — but only while no
      // link is armed: with le_bit set a remote access can flush the buffer
      // (guard fire), so buffer contents interact with remote actions, and
      // the pushed entry's `guarded` flag itself depends on the link.
      return !c.le_bit && !c.sb.full();
    case Op::kMfence:
      return c.sb.empty();  // nothing to drain: cost accounting only
    case Op::kSetLink:
    case Op::kBranchLinkSet:
      // le_bit is cleared by remote downgrades/invalidations, so anything
      // touching it is globally visible — unless the LE/ST hardware is
      // ablated, in which case the bit is permanently clear and both ops
      // degenerate to register ops.
      return !cfg_.le_st_enabled;
    case Op::kCsEnter:
    case Op::kCsExit:
      // Architecturally local, but visible to the mutual-exclusion
      // property: reordering them against other CPUs' actions changes
      // which cpus_in_cs() configurations the explorer can observe.
      return false;
    case Op::kLoad:
    case Op::kLoadExclusive:
      return false;  // cache/LRU/bus interaction
    case Op::kLock:
    case Op::kUnlock:
      // Atomic RMWs write a globally watched location (and their
      // enabledness depends on it), so they never commute with remote
      // actions.
      return false;
  }
  return false;
}

void Machine::append_cpu_block(const CpuState& c, std::string& s) const {
  auto put32 = [&s](std::uint32_t v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put64 = [&s](std::uint64_t v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put32(static_cast<std::uint32_t>(c.pc));
  // Only the registers the loaded program can write (regs_written_mask):
  // the rest are zero in every reachable state and would just dilute the
  // encoding this runs once per explored transition.
  for (std::uint8_t m = c.regs_written_mask, i = 0; m != 0; m >>= 1, ++i) {
    if (m & 1u) put64(static_cast<std::uint64_t>(c.regs[i]));
  }
  s.push_back(static_cast<char>((c.halted ? 1 : 0) | (c.in_cs ? 2 : 0) |
                                (c.le_bit ? 4 : 0)));
  put32(c.le_addr);
  put32(static_cast<std::uint32_t>(c.sb.size()));
  for (const StoreEntry& e : c.sb.entries()) {
    put32(e.addr);
    put64(static_cast<std::uint64_t>(e.value));
    s.push_back(e.guarded ? 1 : 0);
  }
  // Cache lines in base order (a Cache invariant — no sorting here), with
  // LRU encoded as eviction *rank* (the fine-grained stamp values differ
  // between equivalent histories). Ranks come from counting smaller
  // stamps: quadratic in residency, but branch-free and allocation-free,
  // which beats sorting a scratch array for every serialized state.
  const std::vector<CacheLine>& lines = c.cache.lines();
  const std::size_t n = lines.size();
  put32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const CacheLine& l = lines[i];
    put32(l.base);
    s.push_back(static_cast<char>(l.state));
    s.append(reinterpret_cast<const char*>(l.data.data()),
             l.data.size() * sizeof(Word));
    std::uint32_t rank = 0;
    for (std::size_t j = 0; j < n; ++j) {
      rank += lines[j].lru < l.lru ? 1u : 0u;
    }
    put32(rank);
  }
}

const Fingerprint& Machine::block_hash(const CpuState& c) const {
  if (c.hash_valid) return c.block_hash;
  // The fields append_cpu_block() serializes, packed into 64-bit words.
  // Counts precede their lists and the register mask and line width are
  // fixed per machine, so equal word streams mean equal blocks.
  lbmf::WordHasher h;
  h.add(static_cast<std::uint32_t>(c.pc) |
        std::uint64_t{c.le_addr} << 32);
  h.add(std::uint64_t{(c.halted ? 1u : 0u) | (c.in_cs ? 2u : 0u) |
                      (c.le_bit ? 4u : 0u)} |
        std::uint64_t{c.sb.size()} << 8 | std::uint64_t{c.cache.size()} << 32);
  for (std::uint8_t m = c.regs_written_mask, i = 0; m != 0; m >>= 1, ++i) {
    if (m & 1u) h.add(static_cast<std::uint64_t>(c.regs[i]));
  }
  for (const StoreEntry& e : c.sb.entries()) {
    h.add(e.addr | std::uint64_t{e.guarded} << 32);
    h.add(static_cast<std::uint64_t>(e.value));
  }
  // LRU as eviction rank, as in append_cpu_block().
  const std::vector<CacheLine>& lines = c.cache.lines();
  for (const CacheLine& l : lines) {
    std::uint64_t rank = 0;
    for (const CacheLine& o : lines) rank += o.lru < l.lru ? 1u : 0u;
    h.add(l.base | std::uint64_t{static_cast<std::uint8_t>(l.state)} << 32 |
          rank << 40);
    for (const Word w : l.data) h.add(static_cast<std::uint64_t>(w));
  }
  c.block_hash = h.finish();
  c.hash_valid = true;
  return c.block_hash;
}

void Machine::append_canonical(std::string& s) const {
  if (sym_groups_ == nullptr) {
    for (const auto& c : cpus_) append_cpu_block(c, s);
  } else {
    // Thread-symmetry canonicalization: serialize each grouped CPU's block,
    // sort the blocks lexicographically within the group, and emit the
    // sorted blocks at the group members' positions. A CPU block is fully
    // self-contained (pc through cache lines), so sorting blocks realizes
    // exactly the private-state relabeling of the automorphism argued in
    // the header — and handles non-contiguous groups for free. Ungrouped
    // CPUs serialize in place. The scratch buffers are thread_local: this
    // runs once per explored transition on every parallel worker.
    const auto& groups = *sym_groups_;
    thread_local std::vector<int> gid;
    thread_local std::vector<std::vector<std::string>> sorted;
    thread_local std::vector<std::size_t> next;
    gid.assign(cpus_.size(), -1);
    if (sorted.size() < groups.size()) sorted.resize(groups.size());
    next.assign(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<std::string>& blocks = sorted[g];
      blocks.resize(groups[g].size());
      for (std::size_t j = 0; j < groups[g].size(); ++j) {
        const std::uint8_t cpu = groups[g][j];
        gid[cpu] = static_cast<int>(g);
        blocks[j].clear();
        append_cpu_block(cpus_[cpu], blocks[j]);
      }
      std::sort(blocks.begin(), blocks.end());
    }
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (gid[i] < 0) {
        append_cpu_block(cpus_[i], s);
      } else {
        s += sorted[static_cast<std::size_t>(gid[i])][next[gid[i]]++];
      }
    }
  }
  auto put32 = [&s](std::uint32_t v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put64 = [&s](std::uint64_t v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put32(static_cast<std::uint32_t>(mem_.size()));
  for (const auto& [a, v] : mem_) {
    put32(a);
    put64(static_cast<std::uint64_t>(v));
  }
}

void Machine::set_symmetric_groups(
    std::vector<std::vector<std::uint8_t>> groups) {
  std::vector<bool> used(cpus_.size(), false);
  for (const auto& g : groups) {
    LBMF_CHECK_MSG(g.size() >= 2, "symmetric group needs >= 2 CPUs");
    for (const std::uint8_t m : g) {
      LBMF_CHECK_MSG(m < cpus_.size(), "symmetric group CPU out of range");
      LBMF_CHECK_MSG(!used[m], "CPU in more than one symmetric group");
      used[m] = true;
      LBMF_CHECK_MSG(cpus_[m].program != nullptr &&
                         cpus_[g[0]].program != nullptr &&
                         cpus_[m].program->code == cpus_[g[0]].program->code,
                     "symmetric group CPUs must run identical programs");
    }
  }
  if (groups.empty()) {
    sym_groups_.reset();
  } else {
    sym_groups_ = std::make_shared<const std::vector<std::vector<std::uint8_t>>>(
        std::move(groups));
  }
}

std::size_t Machine::auto_symmetry() {
  std::vector<std::vector<std::uint8_t>> groups;
  std::vector<bool> used(cpus_.size(), false);
  std::size_t grouped = 0;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (used[i] || cpus_[i].program == nullptr) continue;
    std::vector<std::uint8_t> g{static_cast<std::uint8_t>(i)};
    for (std::size_t j = i + 1; j < cpus_.size(); ++j) {
      if (used[j] || cpus_[j].program == nullptr) continue;
      if (cpus_[j].program->code == cpus_[i].program->code) {
        g.push_back(static_cast<std::uint8_t>(j));
        used[j] = true;
      }
    }
    if (g.size() >= 2) {
      grouped += g.size();
      groups.push_back(std::move(g));
    }
  }
  set_symmetric_groups(std::move(groups));
  return grouped;
}

const std::vector<std::vector<std::uint8_t>>& Machine::symmetric_groups()
    const {
  static const std::vector<std::vector<std::uint8_t>> kEmpty;
  return sym_groups_ == nullptr ? kEmpty : *sym_groups_;
}

std::uint64_t Machine::symmetry_orbit() const noexcept {
  std::uint64_t orbit = 1;
  if (sym_groups_ == nullptr) return orbit;
  for (const auto& g : *sym_groups_) {
    for (std::uint64_t k = 2; k <= g.size(); ++k) orbit *= k;
  }
  return orbit;
}

namespace {
constexpr std::uint32_t kArchMagic = 0x4C42'4152u;  // "LBAR"
}  // namespace

void Machine::save_arch(std::string& out) const {
  auto put32 = [&out](std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put64 = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put32(kArchMagic);
  put32(static_cast<std::uint32_t>(cpus_.size()));
  for (const CpuState& c : cpus_) {
    put32(static_cast<std::uint32_t>(c.pc));
    for (const Word r : c.regs) put64(static_cast<std::uint64_t>(r));
    out.push_back(static_cast<char>((c.halted ? 1 : 0) | (c.in_cs ? 2 : 0) |
                                    (c.le_bit ? 4 : 0) |
                                    (c.flushing ? 8 : 0)));
    put32(c.le_addr);
    put32(static_cast<std::uint32_t>(c.sb.size()));
    for (const StoreEntry& e : c.sb.entries()) {
      put32(e.addr);
      put64(static_cast<std::uint64_t>(e.value));
      out.push_back(e.guarded ? 1 : 0);
    }
    const std::vector<CacheLine>& lines = c.cache.lines();
    put32(static_cast<std::uint32_t>(lines.size()));
    for (const CacheLine& l : lines) {
      put32(l.base);
      out.push_back(static_cast<char>(l.state));
      put32(static_cast<std::uint32_t>(l.data.size()));
      for (std::size_t w = 0; w < l.data.size(); ++w) {
        put64(static_cast<std::uint64_t>(l.data[w]));
      }
      put64(l.lru);
    }
  }
  put32(static_cast<std::uint32_t>(mem_.size()));
  for (const auto& [a, v] : mem_) {
    put32(a);
    put64(static_cast<std::uint64_t>(v));
  }
}

bool Machine::restore_arch(std::string_view in) {
  std::size_t pos = 0;
  auto get32 = [&in, &pos](std::uint32_t* v) {
    if (pos + sizeof(*v) > in.size()) return false;
    std::memcpy(v, in.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  };
  auto get64 = [&in, &pos](std::uint64_t* v) {
    if (pos + sizeof(*v) > in.size()) return false;
    std::memcpy(v, in.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  };
  auto get8 = [&in, &pos](std::uint8_t* v) {
    if (pos >= in.size()) return false;
    *v = static_cast<std::uint8_t>(in[pos++]);
    return true;
  };
  std::uint32_t magic = 0, ncpus = 0;
  if (!get32(&magic) || magic != kArchMagic) return false;
  if (!get32(&ncpus) || ncpus != cpus_.size()) return false;
  for (CpuState& c : cpus_) {
    c.hash_valid = false;
    std::uint32_t pc = 0;
    if (!get32(&pc)) return false;
    c.pc = static_cast<std::int32_t>(pc);
    for (Word& r : c.regs) {
      std::uint64_t v = 0;
      if (!get64(&v)) return false;
      r = static_cast<Word>(v);
    }
    std::uint8_t flags = 0;
    if (!get8(&flags)) return false;
    c.halted = (flags & 1) != 0;
    c.in_cs = (flags & 2) != 0;
    c.le_bit = (flags & 4) != 0;
    c.flushing = (flags & 8) != 0;
    if (!get32(&c.le_addr)) return false;
    std::uint32_t nsb = 0;
    if (!get32(&nsb)) return false;
    c.sb.clear();
    for (std::uint32_t i = 0; i < nsb; ++i) {
      StoreEntry e;
      std::uint64_t v = 0;
      std::uint8_t g = 0;
      if (!get32(&e.addr) || !get64(&v) || !get8(&g)) return false;
      e.value = static_cast<Word>(v);
      e.guarded = g != 0;
      if (c.sb.full()) return false;
      c.sb.push(e);
    }
    std::uint32_t nlines = 0;
    if (!get32(&nlines)) return false;
    if (nlines > c.cache.capacity()) return false;
    std::vector<CacheLine> lines(nlines);
    for (CacheLine& l : lines) {
      std::uint8_t state = 0;
      std::uint32_t nwords = 0;
      if (!get32(&l.base) || !get8(&state) || !get32(&nwords)) return false;
      if (nwords != cfg_.line_words) return false;
      l.state = static_cast<Mesi>(state);
      l.data = LineData(nwords);
      for (std::uint32_t w = 0; w < nwords; ++w) {
        std::uint64_t v = 0;
        if (!get64(&v)) return false;
        l.data[w] = static_cast<Word>(v);
      }
      if (!get64(&l.lru)) return false;
    }
    if (!std::is_sorted(lines.begin(), lines.end(),
                        [](const CacheLine& a, const CacheLine& b) {
                          return a.base < b.base;
                        })) {
      return false;
    }
    c.cache.restore_lines(std::move(lines));
  }
  std::uint32_t nmem = 0;
  if (!get32(&nmem)) return false;
  mem_.clear();
  for (std::uint32_t i = 0; i < nmem; ++i) {
    std::uint32_t a = 0;
    std::uint64_t v = 0;
    if (!get32(&a) || !get64(&v)) return false;
    mem_.set(a, static_cast<Word>(v));
  }
  return pos == in.size();
}

void Machine::set_pc(std::size_t cpu, std::int32_t pc) {
  LBMF_CHECK(cpu < cpus_.size());
  LBMF_CHECK(cpus_[cpu].program != nullptr && pc >= 0 &&
             static_cast<std::size_t>(pc) <= cpus_[cpu].program->code.size());
  cpus_[cpu].pc = pc;
  cpus_[cpu].hash_valid = false;
}

}  // namespace lbmf::sim
