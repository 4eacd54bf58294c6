#include "lbmf/sim/explorer.hpp"

#include <array>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "lbmf/sim/trace.hpp"
#include "lbmf/sim/visited.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/ws/algorithms.hpp"

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

void enabled_choices(const Machine& m, ChoiceList& out) {
  out.n = 0;
  out.reduced = false;
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    for (Action a : {Action::Execute, Action::Drain}) {
      if (m.action_enabled(cpu, a)) out.add(static_cast<std::uint8_t>(cpu), a);
    }
  }
}

/// Enabled choices, POR-reduced when sound: if some CPU's only enabled
/// action is a *local* Execute (Machine::action_is_local), that action is
/// independent of — commutes with, and neither enables nor disables — every
/// action of every other CPU, so {it} is a valid singleton ample set: every
/// interleaving from here is equivalent to one that schedules it first.
/// The in-stack cycle proviso (handled by the caller on a dedup hit) keeps
/// the reduction from starving the other CPUs around cycles.
void choose_actions(const Machine& m, bool por, ChoiceList& out) {
  out.n = 0;
  out.reduced = false;
  int ample = -1;  // first CPU whose only enabled action is a local Execute
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    const bool exec = m.action_enabled(cpu, Action::Execute);
    const bool drain = m.action_enabled(cpu, Action::Drain);
    if (exec) out.add(static_cast<std::uint8_t>(cpu), Action::Execute);
    if (drain) out.add(static_cast<std::uint8_t>(cpu), Action::Drain);
    if (por && ample < 0 && exec && !drain &&
        m.action_is_local(cpu, Action::Execute)) {
      ample = static_cast<int>(cpu);
    }
  }
  if (por && ample >= 0 && out.n > 1) {
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

/// State shared by every worker of one run() (trivially so when sequential).
struct Shared {
  explicit Shared(const Explorer::Options& o)
      : opts(o),
        visited(o.exact_dedup, o.threads > 1, o.visited_budget_bytes) {}

  const Explorer::Options& opts;
  VisitedSet visited;
  std::atomic<std::uint64_t> states{0};
  std::atomic<bool> done{false};
  std::atomic<bool> hit_limit{false};

  std::mutex result_mu;
  ExploreResult merged;  // violation/outcomes/counters land here

  /// Count one fresh state against max_states. Returns false (and stops the
  /// run) if the budget is exhausted.
  bool count_state() {
    std::uint64_t cur = states.load(std::memory_order_relaxed);
    do {
      if (cur >= opts.max_states) {
        hit_limit.store(true, std::memory_order_relaxed);
        done.store(true, std::memory_order_relaxed);
        return false;
      }
    } while (!states.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_relaxed));
    return true;
  }

  /// Record `m` (fingerprint `fp`) as visited; true if it is new. Only the
  /// exact-dedup audit mode serializes the canonical key (into `scratch`).
  bool visit(const Machine& m, const Fingerprint& fp, std::string& scratch) {
    if (opts.exact_dedup) {
      scratch.clear();
      m.append_canonical(scratch);
    }
    return visited.insert(fp, scratch);
  }

  std::optional<std::string> check_state(const Machine& m) const {
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

  void report_violation(std::string what, const std::vector<Choice>& trace) {
    std::lock_guard<std::mutex> g(result_mu);
    if (!merged.violation) {
      merged.violation = std::move(what);
      merged.violation_trace = trace;
    }
    if (opts.stop_at_violation) done.store(true, std::memory_order_relaxed);
  }
};

/// One sequential DFS over a subtree, with an explicit frame stack.
class Worker {
 public:
  Worker(Shared& sh, bool parallel) : sh_(sh), parallel_(parallel) {}

  /// Explore from `start`, which the caller has already deduped, counted,
  /// and safety-checked. `prefix` is the schedule from the true root to
  /// `start` (empty when `start` is the root). A non-null `agenda`
  /// restricts the root frame to those choices (the incremental path: the
  /// omitted edges were already explored in the prefix region, so the
  /// frame still counts as fully expanded for the cycle proviso).
  void explore(Machine&& start, Fingerprint start_fp,
               std::vector<Choice> prefix, const ChoiceList* agenda = nullptr) {
    trace_ = std::move(prefix);
    ChoiceList cl;
    if (agenda != nullptr) {
      cl = *agenda;
    } else {
      choose_actions(start, sh_.opts.por, cl);
    }
    if (cl.n == 0) {
      note_terminal(start);
      merge();
      return;
    }
    scratch_m_.emplace(std::move(start));
    push_scratch(start_fp.lo, cl);
    loop();
    merge();
  }

 private:
  struct Frame {
    Machine m;
    std::uint64_t path_key;
    ChoiceList choices;
    std::uint8_t next;
  };

  void loop() {
    while (depth_ > 0) {
      if (sh_.done.load(std::memory_order_relaxed)) return;
      Frame& f = stack_[depth_ - 1];
      if (f.next >= f.choices.n) {
        pop_frame();
        continue;
      }
      const Choice c = f.choices.v[f.next++];
      // Step a copy of the frame's snapshot in the worker's scratch
      // machine: most edges land on an already-visited state and are
      // discarded, and copy-assigning into the scratch's warm buffers
      // allocates nothing. The copy carries the parent's cached CPU block
      // hashes, so fingerprinting rehashes only the CPUs the step touched.
      Machine& child = *scratch_m_;
      child = f.m;
      child.step(c.cpu, c.action);
      ++local_.transitions;

      const Fingerprint fp = child.fingerprint();
      if (!sh_.visit(child, fp, canonical_)) {
        ++local_.dedup_hits;
        // Cycle proviso: a reduced frame whose ample successor closes a
        // cycle must be fully expanded, or the skipped CPUs could be
        // starved around the loop forever ("ignoring problem"). The
        // sequential test is `successor on the current DFS path`; parallel
        // workers cannot see each other's paths, so they conservatively
        // treat every revisit as a potential cycle.
        if (f.choices.reduced && (parallel_ || on_path_.contains(fp.lo))) {
          expand_fully(f, c);
        }
        continue;
      }

      if (!sh_.count_state()) return;
      // Safety properties are state predicates: evaluate each distinct
      // state once, on discovery, rather than once per incoming transition.
      if (auto violation = sh_.check_state(child)) {
        trace_.push_back(c);
        sh_.report_violation(std::move(*violation), trace_);
        trace_.pop_back();
        if (sh_.opts.stop_at_violation) return;
        continue;  // never explore beyond a violating state
      }

      ChoiceList cl;
      choose_actions(child, sh_.opts.por, cl);
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
    if (sh_.opts.por) on_path_.insert(path_key);
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
    if (sh_.opts.por) on_path_.erase(stack_[depth_].path_key);
    if (depth_ > 0) trace_.pop_back();
  }

  /// Replace a reduced frame's remaining agenda with every enabled action
  /// except the ample one just taken.
  void expand_fully(Frame& f, const Choice& taken) {
    ChoiceList all;
    enabled_choices(f.m, all);
    ChoiceList rest;
    for (std::uint8_t i = 0; i < all.n; ++i) {
      if (!(all.v[i] == taken)) rest.add(all.v[i].cpu, all.v[i].action);
    }
    f.choices = rest;
    f.next = 0;
  }

  void note_terminal(const Machine& m) {
    ++local_.terminal_states;
    if (sh_.opts.observe) local_.outcomes.insert(sh_.opts.observe(m));
  }

  void merge() {
    std::lock_guard<std::mutex> g(sh_.result_mu);
    sh_.merged.transitions += local_.transitions;
    sh_.merged.terminal_states += local_.terminal_states;
    sh_.merged.dedup_hits += local_.dedup_hits;
    for (const std::string& o : local_.outcomes) sh_.merged.outcomes.insert(o);
    local_ = ExploreResult{};
  }

  Shared& sh_;
  bool parallel_;
  ExploreResult local_;
  std::string canonical_;  // exact-dedup key scratch
  std::optional<Machine> scratch_m_;  // per-edge successor snapshot
  std::vector<Frame> stack_;  // [0, depth_) live frames, the rest free slots
  std::size_t depth_ = 0;
  std::vector<Choice> trace_;
  PathSet on_path_;
};

/// A frontier entry for the parallel mode: a deduped, counted, checked,
/// non-terminal state plus the schedule that reaches it.
struct FrontierItem {
  Machine m;
  Fingerprint fp;
  std::vector<Choice> prefix;
};

}  // namespace

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

Explorer::Explorer(Machine initial, Options opts)
    : initial_(std::move(initial)), opts_(std::move(opts)) {}

ExploreResult Explorer::run() {
  Shared sh(opts_);
  std::string scratch;

  // Root accounting (the root is never safety-checked, matching the
  // original explorer: properties are evaluated after transitions).
  Machine root = initial_;
  const Fingerprint root_fp = root.fingerprint();
  sh.visit(root, root_fp, scratch);
  if (!sh.count_state()) {
    ExploreResult result;
    result.hit_limit = true;
    result.visited_bytes = sh.visited.bytes();
    return result;
  }

  const std::size_t threads = opts_.threads;
  if (threads <= 1) {
    Worker w(sh, /*parallel=*/false);
    w.explore(std::move(root), root_fp, {});
  } else {
    // Seed a frontier breadth-first (full expansion — trivially sound under
    // POR) until there is enough top-level parallelism to go around, then
    // fan the subtrees out over the work-stealing pool.
    std::deque<FrontierItem> frontier;
    frontier.push_back(FrontierItem{std::move(root), root_fp, {}});
    const std::size_t target = threads * 8;
    while (!frontier.empty() && frontier.size() < target &&
           !sh.done.load(std::memory_order_relaxed)) {
      FrontierItem item = std::move(frontier.front());
      frontier.pop_front();
      ChoiceList cl;
      enabled_choices(item.m, cl);
      if (cl.n == 0) {  // terminal frontier state
        std::lock_guard<std::mutex> g(sh.result_mu);
        ++sh.merged.terminal_states;
        if (opts_.observe) sh.merged.outcomes.insert(opts_.observe(item.m));
        continue;
      }
      for (std::uint8_t i = 0;
           i < cl.n && !sh.done.load(std::memory_order_relaxed); ++i) {
        const Choice c = cl.v[i];
        Machine child = i + 1 == cl.n ? std::move(item.m) : item.m;
        child.step(c.cpu, c.action);
        ++sh.merged.transitions;
        const Fingerprint fp = child.fingerprint();
        if (!sh.visit(child, fp, scratch)) {
          ++sh.merged.dedup_hits;
          continue;
        }
        if (!sh.count_state()) break;
        std::vector<Choice> prefix = item.prefix;
        prefix.push_back(c);
        if (auto violation = sh.check_state(child)) {
          sh.report_violation(std::move(*violation), prefix);
          continue;
        }
        frontier.push_back(
            FrontierItem{std::move(child), fp, std::move(prefix)});
      }
    }

    if (!sh.done.load(std::memory_order_relaxed) && !frontier.empty()) {
      std::vector<FrontierItem> items;
      items.reserve(frontier.size());
      while (!frontier.empty()) {
        items.push_back(std::move(frontier.front()));
        frontier.pop_front();
      }
      // Dog-food the paper's runtime: the asymmetric-fence work-stealing
      // scheduler parallelizes the verifier that proves it correct.
      ws::Scheduler<AsymmetricSignalFence> sched(threads);
      sched.run([&] {
        ws::parallel_for<AsymmetricSignalFence>(
            0, items.size(), 1, [&](std::size_t i) {
              if (sh.done.load(std::memory_order_relaxed)) return;
              Worker w(sh, /*parallel=*/true);
              w.explore(std::move(items[i].m), items[i].fp,
                        std::move(items[i].prefix));
            });
      });
    }
  }

  ExploreResult result;
  {
    std::lock_guard<std::mutex> g(sh.result_mu);
    result = std::move(sh.merged);
  }
  result.states_explored = sh.states.load(std::memory_order_relaxed);
  result.hit_limit = sh.hit_limit.load(std::memory_order_relaxed);
  result.visited_bytes = sh.visited.bytes();
  result.spill_bytes = sh.visited.spill_bytes();
  result.spill_segments = sh.visited.spill_segments();
  result.symmetry_orbit = initial_.symmetry_orbit();
  return result;
}

ExploreResult explore_seeded(std::vector<SeedState> seeds,
                             const std::vector<Fingerprint>& visited,
                             const ExploreResult& base,
                             const Explorer::Options& opts) {
  if (base.violation || base.hit_limit) return base;

  Shared sh(opts);
  sh.visited.preload(visited);
  sh.states.store(base.states_explored, std::memory_order_relaxed);
  sh.merged.transitions = base.transitions;
  sh.merged.terminal_states = base.terminal_states;
  sh.merged.dedup_hits = base.dedup_hits;
  sh.merged.outcomes = base.outcomes;

  const std::uint64_t orbit =
      seeds.empty() ? 1 : seeds.front().m.symmetry_orbit();

  auto run_seed = [&sh](SeedState& seed, bool parallel) {
    LBMF_CHECK(!seed.agenda.empty() && seed.agenda.size() <= kMaxChoices);
    ChoiceList cl;
    for (const Choice& c : seed.agenda) cl.add(c.cpu, c.action);
    const Fingerprint fp = seed.m.fingerprint();
    Worker w(sh, parallel);
    w.explore(std::move(seed.m), fp, std::move(seed.prefix), &cl);
  };

  if (opts.threads <= 1) {
    for (SeedState& seed : seeds) {
      if (sh.done.load(std::memory_order_relaxed)) break;
      run_seed(seed, /*parallel=*/false);
    }
  } else {
    ws::Scheduler<AsymmetricSignalFence> sched(opts.threads);
    sched.run([&] {
      ws::parallel_for<AsymmetricSignalFence>(
          0, seeds.size(), 1, [&](std::size_t i) {
            if (sh.done.load(std::memory_order_relaxed)) return;
            run_seed(seeds[i], /*parallel=*/true);
          });
    });
  }

  ExploreResult result;
  {
    std::lock_guard<std::mutex> g(sh.result_mu);
    result = std::move(sh.merged);
  }
  result.states_explored = sh.states.load(std::memory_order_relaxed);
  result.hit_limit = sh.hit_limit.load(std::memory_order_relaxed);
  result.visited_bytes = sh.visited.bytes();
  result.spill_bytes = sh.visited.spill_bytes();
  result.spill_segments = sh.visited.spill_segments();
  result.symmetry_orbit = orbit;
  return result;
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
