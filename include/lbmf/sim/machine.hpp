#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lbmf/sim/cache.hpp"
#include "lbmf/sim/program.hpp"
#include "lbmf/sim/types.hpp"
#include "lbmf/util/hash.hpp"

namespace lbmf::sim {

class TraceRecorder;

/// Compact identity of an architectural state: a 128-bit hash carrying the
/// same information as the canonical encoding (see Machine::fingerprint).
/// Used by the explorer's default dedup set (16 bytes per state instead of
/// the full ~256-byte serialization).
using Fingerprint = lbmf::Hash128;

/// Shared memory as a sorted flat array of (address, word) pairs. Litmus
/// footprints are a handful of locations, and the explorer snapshots whole
/// machines millions of times — one contiguous allocation copies with a
/// memcpy where a std::map paid an allocation per entry. Unset addresses
/// read as zero. Iteration order is ascending (canonical encodings depend
/// on it).
class FlatMemory {
 public:
  Word get(Addr a) const noexcept {
    const auto it = find(a);
    return (it != v_.end() && it->first == a) ? it->second : 0;
  }
  void set(Addr a, Word w) {
    const auto it = find(a);
    if (it != v_.end() && it->first == a) {
      it->second = w;
    } else {
      v_.insert(it, {a, w});
    }
  }
  std::size_t size() const noexcept { return v_.size(); }
  auto begin() const noexcept { return v_.begin(); }
  auto end() const noexcept { return v_.end(); }

 private:
  std::vector<std::pair<Addr, Word>>::iterator find(Addr a) noexcept {
    return std::lower_bound(
        v_.begin(), v_.end(), a,
        [](const std::pair<Addr, Word>& kv, Addr x) { return kv.first < x; });
  }
  std::vector<std::pair<Addr, Word>>::const_iterator find(Addr a)
      const noexcept {
    return std::lower_bound(
        v_.begin(), v_.end(), a,
        [](const std::pair<Addr, Word>& kv, Addr x) { return kv.first < x; });
  }

  std::vector<std::pair<Addr, Word>> v_;
};

/// Per-CPU event counters (not part of the canonical state; pure telemetry).
struct CpuCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t mfences = 0;
  std::uint64_t bus_transactions = 0;
  std::uint64_t sb_drains = 0;          // entries completed
  std::uint64_t links_armed = 0;        // SetLink executions arming a link
  std::uint64_t link_breaks_remote = 0; // guard fired on remote downgrade/inv
  std::uint64_t link_breaks_evict = 0;  // guard fired on local eviction
  std::uint64_t link_breaks_second = 0; // second l-mfence to a new location
  std::uint64_t link_clears_complete = 0;  // guarded store completed
};

/// The architectural (explorable) state of one simulated CPU, plus its
/// program. Value-semantic: the explorer copies whole machines.
struct CpuState {
  explicit CpuState(const SimConfig& cfg)
      : sb(cfg.sb_capacity), cache(cfg.cache_capacity) {}

  /// Into the owning Machine's program table (null until load_program);
  /// machine copies share the table, so the pointer stays valid.
  const Program* program = nullptr;
  std::int32_t pc = 0;
  std::array<Word, 8> regs{};
  StoreBuffer sb;
  Cache cache;

  // The two registers the LE/ST mechanism adds (Sec. 3).
  bool le_bit = false;
  Addr le_addr = kInvalidAddr;

  bool in_cs = false;
  bool halted = false;
  bool flushing = false;  // re-entrancy latch for guard-triggered flushes

  /// Bit i set iff the loaded program contains an instruction that writes
  /// regs[i] (derived constant, set by load_program). Registers outside the
  /// mask are zero in every reachable state, so canonical encodings skip
  /// them.
  std::uint8_t regs_written_mask = 0;

  /// Hash of this CPU's canonical block, cached by Machine::fingerprint()
  /// and valid while `hash_valid`. Machine clears the flag wherever the
  /// CPU's architectural state can change.
  mutable Fingerprint block_hash{};
  mutable bool hash_valid = false;

  CpuCounters counters;
};

/// A TSO multiprocessor with per-CPU FIFO store buffers, MESI private
/// caches over a shared memory, and the LE/ST location-based-memory-fence
/// mechanism. Coherence transactions are atomic in simulator time; the
/// schedulable nondeterminism is *which CPU steps next* and *when a store
/// buffer drains an entry* — exactly the degrees of freedom that produce
/// TSO reorderings and the corner cases in Sec. 3/4 of the paper.
class Machine {
 public:
  explicit Machine(SimConfig cfg);

  /// Attach a program to a CPU (before the first step).
  void load_program(std::size_t cpu, Program p);

  void set_memory(Addr a, Word v) { mem_.set(a, v); }
  Word memory(Addr a) const;

  /// The globally visible value of `a`: a dirty (M/O) cache copy anywhere
  /// beats possibly-stale memory. Store-buffer entries are invisible (TSO:
  /// not yet globally performed). This is the value a locked RMW observes
  /// and the value `final` directives are checked against.
  Word coherent_value(Addr a) const;

  /// Whether `step(cpu, a)` is currently legal.
  bool action_enabled(std::size_t cpu, Action a) const;

  /// Perform one atomic step. Precondition: action_enabled(cpu, a).
  void step(std::size_t cpu, Action a);

  /// Every CPU halted and every store buffer drained.
  bool finished() const;

  /// Drive with a fixed round-robin schedule (drains interleaved); returns
  /// steps taken. Aborts via LBMF_CHECK if max_steps is exceeded (i.e. the
  /// program does not terminate).
  std::uint64_t run_round_robin(std::uint64_t max_steps = 10'000'000);

  /// Drive with a seeded random schedule; returns steps taken.
  std::uint64_t run_random(std::uint64_t seed,
                           std::uint64_t max_steps = 10'000'000);

  /// MESI single-writer / value-coherence invariants. Returns a description
  /// of the first violated invariant, or nullopt if all hold.
  std::optional<std::string> check_coherence() const;

  /// Number of CPUs currently inside a critical section.
  std::size_t cpus_in_cs() const;

  /// Canonical encoding of the architectural state (excludes counters):
  /// the explorer's exact-dedup key. Two machines with equal canonical
  /// state have identical future behaviour.
  std::string canonical_state() const;

  /// Append the canonical encoding to `out` (without clearing it), so the
  /// exact-dedup explorer reuses one scratch buffer across states.
  void append_canonical(std::string& out) const;

  /// 128-bit identity of the canonical state: equal fingerprints <=> equal
  /// canonical_state(), up to hash collisions. Nothing is serialized: each
  /// CPU's block is hashed from its fields with lbmf::WordHasher, the
  /// result is cached in the CpuState until that CPU changes, and symmetric
  /// groups are canonicalized by sorting their members' block hashes.
  /// Because of the cache, fingerprint() writes to the machine although it
  /// is const: one Machine must not be fingerprinted from two threads at
  /// once (copies are independent).
  Fingerprint fingerprint() const;

  /// Whether `step(cpu, a)` is *local*: it reads and writes only the
  /// private, coherence-invisible state of `cpu` (pc, registers, its own
  /// store-buffer contents) and cannot interact with any other CPU in
  /// either direction — no bus transaction, no cache or LRU mutation, no
  /// LE-link arm/break, no critical-section flag change. Local actions on
  /// distinct CPUs commute and can neither enable nor disable each other,
  /// which is the independence relation the explorer's partial-order
  /// reduction is built on. Precondition: action_enabled(cpu, a).
  bool action_is_local(std::size_t cpu, Action a) const;

  std::size_t num_cpus() const noexcept { return cpus_.size(); }
  const CpuState& cpu(std::size_t i) const { return cpus_[i]; }
  const SimConfig& config() const noexcept { return cfg_; }

  /// State of address `a` in cpu `i`'s cache (Invalid if absent).
  Mesi line_state(std::size_t i, Addr a) const;

  /// Deliver an interrupt to a CPU (models signal delivery: kernel crossing
  /// plus a full store-buffer flush). Usable any time before halt.
  void deliver_interrupt(std::size_t cpu);

  /// Sum of cycles across CPUs (a serial-machine view of cost).
  std::uint64_t total_cycles() const;

  /// Attach (or detach with nullptr) an event recorder. Not part of the
  /// architectural state: copies of the machine share the pointer, and
  /// recording changes no behaviour.
  void set_trace(TraceRecorder* t) noexcept { trace_ = t; }

  // --- Thread-symmetry reduction ------------------------------------------
  //
  // Soundness. Let G = {i_1, ..., i_k} be a group of CPUs with
  // byte-identical programs. All CPUs start from the same private state
  // (pc 0, zero registers, empty store buffer, empty cache, link clear), so
  // any permutation pi of G induces an automorphism of the transition
  // system: relabel each grouped CPU's private state by pi and leave shared
  // memory fixed. action_enabled/step consult only the acting CPU's program
  // and private state plus *location-indexed* (never CPU-indexed) shared
  // state, so s --(cpu,a)--> t implies pi(s) --(pi(cpu),a)--> pi(t), and
  // conversely via pi^-1 — orbits map onto orbits edge for edge. Every
  // property the explorer checks is permutation-invariant: the coherence
  // invariants quantify over all caches, cpus_in_cs() is a count, and
  // `final` properties read only coherent memory. Hence exploring one
  // representative per orbit reaches a violation iff the full space does,
  // and the terminal outcome set is unchanged. canonical_state() picks the
  // representative by serializing each grouped CPU's state block and
  // emitting the blocks in sorted order within the group; fingerprint()
  // hashes each group's sorted block hashes instead, which identifies the
  // same orbit. Explorer's exact_dedup audit mode keys on the canonical string,
  // so the fingerprint-vs-exact parity check continues to cover the
  // reduction.

  /// Declare groups of interchangeable CPUs, canonicalized over by
  /// canonical_state()/fingerprint(). Every group must name >= 2 distinct
  /// in-range CPUs whose loaded programs are byte-identical (checked).
  /// Call after load_program. Copies of the machine share the (immutable)
  /// group table, so snapshots stay cheap.
  void set_symmetric_groups(std::vector<std::vector<std::uint8_t>> groups);

  /// Auto-detect symmetry: group CPUs whose programs are byte-identical.
  /// Returns the number of CPUs that ended up in a group of size >= 2
  /// (0 means no reduction; any existing groups are replaced).
  std::size_t auto_symmetry();

  /// Active symmetry groups (empty when reduction is off).
  const std::vector<std::vector<std::uint8_t>>& symmetric_groups() const;

  void clear_symmetric_groups() noexcept { sym_groups_.reset(); }

  /// Product of |g|! over the active groups: the (maximum) number of raw
  /// states each canonical representative stands for.
  std::uint64_t symmetry_orbit() const noexcept;

 private:
  CpuState& mut_cpu(std::size_t i) { return cpus_[i]; }

  void exec_instr(CpuState& c);

  // --- memory-system internals. All return the latency (cycles) the
  // *initiating* CPU experiences; callees also charge remote CPUs for work
  // they perform (e.g. a guard-triggered flush).
  std::uint64_t bus_read(CpuState& c, Addr a, Word& out);        // GetS
  std::uint64_t bus_read_exclusive(CpuState& c, Addr a, Word& out);  // GetX
  std::uint64_t acquire_exclusive(CpuState& c, Addr a);
  std::uint64_t complete_oldest(CpuState& c);
  std::uint64_t flush_sb(CpuState& c);
  /// Guard check on CPU `owner` for a remote request to `a`. Returns the
  /// latency the requester must wait for the owner's flush (0 if no guard).
  std::uint64_t notify_guard_remote(CpuState& owner, Addr base);
  void handle_self_eviction(CpuState& c, const CacheLine& evicted);
  void clear_link(CpuState& c);

  // Line geometry (SimConfig::line_words) and whole-line memory access.
  Addr line_base(Addr a) const noexcept;
  std::size_t line_off(Addr a) const noexcept;
  LineData memory_line(Addr base) const;
  void writeback_line(const CacheLine& l);

  void trace(const CpuState& c, int kind_int, Addr a = kInvalidAddr,
             Word v = 0, std::string detail = {}) const;

  /// Serialize one CPU's canonical block into `s` (shared tail excluded).
  void append_cpu_block(const CpuState& c, std::string& s) const;
  /// Hash of the same block, from the cache when valid.
  const Fingerprint& block_hash(const CpuState& c) const;

  SimConfig cfg_;
  std::vector<CpuState> cpus_;
  /// Loaded programs by CPU. Shared across machine copies and never
  /// mutated while shared (load_program copies it), so a snapshot pays one
  /// refcount for all CPUs' programs.
  std::shared_ptr<const std::vector<Program>> programs_;
  FlatMemory mem_;
  TraceRecorder* trace_ = nullptr;
  /// Interchangeable-CPU groups (see set_symmetric_groups). Shared across
  /// machine copies: the table is immutable and snapshot copies are on the
  /// explorer's hot path.
  std::shared_ptr<const std::vector<std::vector<std::uint8_t>>> sym_groups_;
};

}  // namespace lbmf::sim
