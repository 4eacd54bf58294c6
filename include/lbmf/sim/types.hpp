#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lbmf::sim {

/// Simulated word-addressable memory. One address == one cache line == one
/// word: the protocols we model (Dekker duality, l-mfence) are defined on
/// distinct locations, and word-granularity lines keep the MESI state
/// machine exact without modelling sub-line masks. False sharing can still
/// be induced by mapping two logical variables to one address.
using Addr = std::uint32_t;
using Word = std::int64_t;

inline constexpr Addr kInvalidAddr = ~Addr{0};

/// Coherence stable states. The superset covers all three protocol
/// variants the paper mentions (Sec. 2: "we assume ... MESI ... although
/// the mechanism can be adapted to other variants such as MSI and MOESI").
/// Which states a machine actually uses is selected by SimConfig::protocol:
///   MSI   — Modified / Shared / Invalid
///   MESI  — + Exclusive (clean, sole copy)
///   MOESI — + Owned (dirty but shared; owner supplies data, memory stale)
enum class Mesi : std::uint8_t {
  Invalid,
  Shared,
  Exclusive,
  Modified,
  Owned,
};

const char* to_string(Mesi s) noexcept;

/// The coherence protocol the simulated machine runs.
enum class Protocol : std::uint8_t { kMsi, kMesi, kMoesi };

const char* to_string(Protocol p) noexcept;

/// All tunable knobs of the simulated machine, including the cycle-cost
/// table. Defaults are calibrated so the simulator reproduces the paper's
/// headline constants: an LE/ST remote round trip ≈ 150 cycles ("akin to an
/// L1 miss / L2 hit", Sec. 5) and a signal round trip ≈ 10,000 cycles.
struct SimConfig {
  std::size_t num_cpus = 2;
  /// FIFO store-buffer entries per CPU. Small values force natural drains
  /// and exercise the link-clearing-on-completion path.
  std::size_t sb_capacity = 8;
  /// Cache lines per CPU (fully associative, LRU). Small values force
  /// evictions of guarded lines — the notify-on-evict path of Sec. 3.
  std::size_t cache_capacity = 64;
  /// Words per cache line, at most 8 (LineData::kInlineWords; the Machine
  /// constructor checks). 1 (default) keeps litmus tests exact; larger
  /// values model *false sharing*: a remote access to a neighbouring word
  /// in the guarded line fires the l-mfence guard even though the guarded
  /// location itself was never touched.
  std::size_t line_words = 1;
  /// If false, the LE instruction behaves as a plain load and no link is
  /// ever armed — used as an ablation of the hardware mechanism.
  bool le_st_enabled = true;
  /// Coherence protocol variant (Sec. 2: the mechanism adapts to all
  /// three). Under MSI the LE instruction acquires Modified directly
  /// (there is no Exclusive state); under MOESI a downgraded dirty line
  /// becomes Owned and memory stays stale until eviction.
  Protocol protocol = Protocol::kMesi;

  // --- cycle-cost table ------------------------------------------------
  std::uint64_t cost_reg_op = 1;         // register moves, branches
  std::uint64_t cost_load_hit = 1;       // load served by SB or local cache
  std::uint64_t cost_store_commit = 1;   // store entering the store buffer
  std::uint64_t cost_bus_transfer = 70;  // one coherence hop (req or reply)
  std::uint64_t cost_drain_entry = 10;   // completing one SB entry locally
  std::uint64_t cost_mfence_base = 100;  // fence overhead beyond the drains
  std::uint64_t cost_interrupt = 9800;   // signal delivery + handler round trip
};

/// What a scheduler may ask a CPU to do in one atomic simulator step.
enum class Action : std::uint8_t {
  Execute,    // run the next instruction
  Drain,      // complete the oldest store-buffer entry
  Interrupt,  // deliver an interrupt (flushes the store buffer)
};

const char* to_string(Action a) noexcept;

/// One scheduling decision, recorded so violating interleavings found by the
/// explorer can be replayed and printed.
struct Choice {
  std::uint8_t cpu;
  Action action;

  bool operator==(const Choice&) const = default;
};

std::string to_string(const Choice& c);

}  // namespace lbmf::sim
