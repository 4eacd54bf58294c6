#include "lbmf/sim/explorer.hpp"

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "lbmf/sim/trace.hpp"
#include "lbmf/sim/visited.hpp"

namespace lbmf::sim {
namespace {

// The visited-state storage (FingerprintSet / VisitedSet, with the
// spill-to-mmap machinery) lives in lbmf/sim/visited.hpp.

// ---------------------------------------------------------------------------
// Exploration engine
// ---------------------------------------------------------------------------

/// Machine caps num_cpus at 64, so at most 64 x {Execute, Drain} choices.
constexpr std::size_t kMaxChoices = 128;

struct ChoiceList {
  std::array<Choice, kMaxChoices> v{};  // only the first n entries are set
  std::uint8_t n = 0;
  /// True when POR selected a strict subset of the enabled actions; the
  /// cycle proviso may re-expand such a frame to the full set.
  bool reduced = false;

  void add(std::uint8_t cpu, Action a) {
    v[n++] = Choice{cpu, a};
  }
};

/// Machine::action_enabled, less a store Execute on a CPU that already
/// holds `max_pending` buffered entries (Options::max_pending_stores; 0 =
/// unbounded). Such a CPU's buffer is not empty, so its Drain stays
/// offered and the bound never wedges a run.
bool offered(const Machine& m, std::size_t cpu, Action a,
             std::uint32_t max_pending) {
  if (!m.action_enabled(cpu, a)) return false;
  if (max_pending == 0 || a != Action::Execute) return true;
  const CpuState& c = m.cpu(cpu);
  if (c.sb.size() < max_pending) return true;
  const Op op = c.program->code[c.pc].op;
  return op != Op::kStore && op != Op::kStoreReg;
}

void enabled_choices(const Machine& m, std::uint32_t max_pending,
                     ChoiceList& out) {
  out.n = 0;
  out.reduced = false;
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    for (Action a : {Action::Execute, Action::Drain}) {
      if (offered(m, cpu, a, max_pending)) {
        out.add(static_cast<std::uint8_t>(cpu), a);
      }
    }
  }
}

/// Enabled choices, POR-reduced when sound: if some CPU's only enabled
/// action is a *local* Execute (Machine::action_is_local), that action is
/// independent of — commutes with, and neither enables nor disables — every
/// action of every other CPU, so {it} is a valid singleton ample set: every
/// interleaving from here is equivalent to one that schedules it first.
/// The in-stack cycle proviso (handled by the caller on a dedup hit) keeps
/// the reduction from starving the other CPUs around cycles. The reorder
/// bound keeps this sound within the bounded graph: an ample CPU's buffer
/// is empty, so its store is offered, and whether a CPU's store is offered
/// depends only on that CPU's own buffer.
void choose_actions(const Machine& m, const Explorer::Options& o,
                    ChoiceList& out) {
  out.n = 0;
  out.reduced = false;
  int ample = -1;  // first CPU whose only enabled action is a local Execute
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    const bool exec = offered(m, cpu, Action::Execute, o.max_pending_stores);
    const bool drain = m.action_enabled(cpu, Action::Drain);
    if (exec) out.add(static_cast<std::uint8_t>(cpu), Action::Execute);
    if (drain) out.add(static_cast<std::uint8_t>(cpu), Action::Drain);
    if (o.por && ample < 0 && exec && !drain &&
        m.action_is_local(cpu, Action::Execute)) {
      ample = static_cast<int>(cpu);
    }
  }
  if (o.por && ample >= 0 && out.n > 1) {
    out.n = 0;
    out.add(static_cast<std::uint8_t>(ample), Action::Execute);
    out.reduced = true;
  }
}

/// The states on the current DFS path, keyed by the low fingerprint half,
/// for the POR cycle proviso: open addressing with linear probing and
/// backward-shift deletion, so the insert/erase per frame allocates nothing
/// once the table has grown to the deepest path. 0 marks an empty slot (a
/// key of 0 is stored as 1).
class PathSet {
 public:
  PathSet() : slots_(64, 0) {}

  void insert(std::uint64_t k) {
    k = k == 0 ? 1 : k;
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = k & mask();
    for (; slots_[i] != 0; i = (i + 1) & mask()) {
      if (slots_[i] == k) return;
    }
    slots_[i] = k;
    ++size_;
  }

  bool contains(std::uint64_t k) const noexcept {
    k = k == 0 ? 1 : k;
    for (std::size_t i = k & mask(); slots_[i] != 0; i = (i + 1) & mask()) {
      if (slots_[i] == k) return true;
    }
    return false;
  }

  void erase(std::uint64_t k) noexcept {
    k = k == 0 ? 1 : k;
    std::size_t hole = k & mask();
    for (; slots_[hole] != k; hole = (hole + 1) & mask()) {
      if (slots_[hole] == 0) return;
    }
    // Pull each later key of the probe run whose home slot does not lie
    // cyclically in (hole, j] back into the hole, so lookups never stop
    // early at the gap.
    for (std::size_t j = (hole + 1) & mask(); slots_[j] != 0;
         j = (j + 1) & mask()) {
      if (((j - slots_[j]) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = 0;
    --size_;
  }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    size_ = 0;
    for (const std::uint64_t k : old) {
      if (k != 0) insert(k);
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two size
  std::size_t size_ = 0;
};

/// One exploration: an iterative DFS with an explicit frame stack, plus
/// everything the run accumulates (the visited set, the state budget and
/// the result). Explorer::run() explores from the root on the calling
/// thread. A batched inference check builds its own Explorer per thread,
/// so nothing here is shared.
class Search {
 public:
  explicit Search(const Explorer::Options& o)
      : opts_(o), visited_(o.exact_dedup, o.visited_budget_bytes) {}

  /// Explore every state reachable from `root`. The root counts as a
  /// state but is never safety-checked: properties are evaluated after
  /// transitions.
  void explore(Machine root) {
    const Fingerprint root_fp = root.fingerprint();
    visit(root, root_fp);
    if (!count_state()) return;
    ChoiceList cl;
    choose_actions(root, opts_, cl);
    if (cl.n == 0) {
      note_terminal(root);
      return;
    }
    scratch_m_.emplace(std::move(root));
    push_scratch(root_fp.lo, cl);
    loop();
  }

  ExploreResult finish(std::uint64_t symmetry_orbit) {
    ExploreResult r = std::move(result_);
    r.visited_bytes = visited_.bytes();
    r.spill_bytes = visited_.spill_bytes();
    r.spill_segments = visited_.spill_segments();
    r.symmetry_orbit = symmetry_orbit;
    return r;
  }

 private:
  /// Record `m` (fingerprint `fp`) as visited; true if it is new. Only the
  /// exact-dedup audit mode serializes the canonical key.
  bool visit(const Machine& m, const Fingerprint& fp) {
    if (opts_.exact_dedup) {
      canonical_.clear();
      m.append_canonical(canonical_);
    }
    return visited_.insert(fp, canonical_);
  }

  /// Count one fresh state against max_states. Returns false (and the run
  /// stops) if the budget is exhausted.
  bool count_state() {
    if (result_.states_explored >= opts_.max_states) {
      result_.hit_limit = true;
      return false;
    }
    ++result_.states_explored;
    return true;
  }

  struct Frame {
    Machine m;
    std::uint64_t path_key;
    ChoiceList choices;
    std::uint8_t next;
  };

  void loop() {
    while (depth_ > 0) {
      Frame& f = stack_[depth_ - 1];
      if (f.next >= f.choices.n) {
        pop_frame();
        continue;
      }
      const Choice c = f.choices.v[f.next++];
      // Step a copy of the frame's snapshot in the scratch machine: most
      // edges land on an already-visited state and are discarded, and
      // copy-assigning into the scratch's warm buffers allocates nothing.
      // The copy carries the parent's cached CPU block hashes, so
      // fingerprinting rehashes only the CPUs the step touched.
      Machine& child = *scratch_m_;
      child = f.m;
      child.step(c.cpu, c.action);
      ++result_.transitions;

      const Fingerprint fp = child.fingerprint();
      if (!visit(child, fp)) {
        ++result_.dedup_hits;
        // Cycle proviso: a reduced frame whose ample successor closes a
        // cycle (lies on the current DFS path) must be fully expanded, or
        // the skipped CPUs could be starved around the loop forever
        // ("ignoring problem").
        if (f.choices.reduced && on_path_.contains(fp.lo)) {
          expand_fully(f, c);
        }
        continue;
      }

      if (!count_state()) return;
      // Safety properties are state predicates: evaluate each distinct
      // state once, on discovery, rather than once per incoming transition.
      if (auto violation = check_state(child, opts_)) {
        if (!result_.violation) {
          result_.violation = std::move(*violation);
          result_.violation_trace = trace_;
          result_.violation_trace.push_back(c);
        }
        if (opts_.stop_at_violation) return;
        continue;  // never explore beyond a violating state
      }

      ChoiceList cl;
      choose_actions(child, opts_, cl);
      if (cl.n == 0) {
        note_terminal(child);
        continue;
      }
      trace_.push_back(c);
      push_scratch(fp.lo, cl);
    }
  }

  /// Make the scratch machine the top frame. Popped frames stay in stack_
  /// as slots: the scratch swaps into the next free slot and that slot's
  /// old machine becomes the new scratch, so a discovered state costs no
  /// Machine copy-construct or free — only growing to a new maximum depth
  /// appends a slot.
  void push_scratch(std::uint64_t path_key, const ChoiceList& cl) {
    if (opts_.por) on_path_.insert(path_key);
    if (depth_ == stack_.size()) {
      stack_.push_back(Frame{std::move(*scratch_m_), path_key, cl, 0});
    } else {
      Frame& slot = stack_[depth_];
      std::swap(slot.m, *scratch_m_);
      slot.path_key = path_key;
      slot.choices = cl;
      slot.next = 0;
    }
    ++depth_;
  }

  void pop_frame() {
    --depth_;
    if (opts_.por) on_path_.erase(stack_[depth_].path_key);
    if (depth_ > 0) trace_.pop_back();
  }

  /// Replace a reduced frame's remaining agenda with every enabled action
  /// except the ample one just taken.
  void expand_fully(Frame& f, const Choice& taken) {
    ChoiceList all;
    enabled_choices(f.m, opts_.max_pending_stores, all);
    ChoiceList rest;
    for (std::uint8_t i = 0; i < all.n; ++i) {
      if (!(all.v[i] == taken)) rest.add(all.v[i].cpu, all.v[i].action);
    }
    f.choices = rest;
    f.next = 0;
  }

  void note_terminal(const Machine& m) {
    ++result_.terminal_states;
    if (opts_.observe) result_.outcomes.insert(opts_.observe(m));
  }

  const Explorer::Options& opts_;
  VisitedSet visited_;
  ExploreResult result_;  // counters, outcomes and the first violation
  std::string canonical_;  // exact-dedup key scratch
  std::optional<Machine> scratch_m_;  // per-edge successor snapshot
  std::vector<Frame> stack_;  // [0, depth_) live frames, the rest free slots
  std::size_t depth_ = 0;
  std::vector<Choice> trace_;
  PathSet on_path_;
};

}  // namespace

std::optional<std::string> check_state(const Machine& m,
                                       const Explorer::Options& opts) {
  std::optional<std::string> violation;
  if (opts.check_coherence) violation = m.check_coherence();
  if (!violation && opts.check_mutual_exclusion && m.cpus_in_cs() > 1) {
    violation = "mutual exclusion violated: " +
                std::to_string(m.cpus_in_cs()) +
                " CPUs in the critical section";
  }
  if (!violation && opts.check) violation = opts.check(m);
  return violation;
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

Explorer::Explorer(Machine initial, Options opts)
    : initial_(std::move(initial)), opts_(std::move(opts)) {}

ExploreResult Explorer::run() {
  Search s(opts_);
  s.explore(initial_);
  return s.finish(initial_.symmetry_orbit());
}

std::string annotate_schedule(Machine initial,
                              const std::vector<Choice>& schedule) {
  TraceRecorder rec;
  initial.set_trace(&rec);
  std::string out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Choice& c = schedule[i];
    if (!initial.action_enabled(c.cpu, c.action)) {
      out += "<<schedule step " + std::to_string(i) +
             " not enabled: " + to_string(c) + ">>\n";
      break;
    }
    initial.step(c.cpu, c.action);
  }
  out += rec.to_string();
  out += "final: " + std::to_string(initial.cpus_in_cs()) +
         " CPU(s) in critical section";
  if (const auto v = initial.check_coherence()) {
    out += "; coherence: " + *v;
  }
  out += '\n';
  return out;
}

ExploreResult explore_all(Machine machine, std::uint64_t max_states) {
  Explorer::Options opts;
  opts.max_states = max_states;
  return explore_all(std::move(machine), std::move(opts));
}

ExploreResult explore_all(Machine machine, Explorer::Options opts) {
  Explorer ex(std::move(machine), std::move(opts));
  return ex.run();
}

}  // namespace lbmf::sim
