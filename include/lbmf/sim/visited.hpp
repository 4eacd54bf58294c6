#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "lbmf/sim/machine.hpp"

namespace lbmf::sim {

/// Open-addressing flat set of 128-bit fingerprints: 16 bytes per slot,
/// linear probing, grown at 70% load. {0,0} is the empty-slot marker (a
/// real fingerprint hashing to exactly zero is remapped to {1,0}).
class FingerprintSet {
 public:
  FingerprintSet() { slots_.assign(kInitialCapacity, Fingerprint{}); }

  bool insert(Fingerprint fp) {
    if (fp.lo == 0 && fp.hi == 0) fp.lo = 1;
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(fp.hi) & mask;
    while (true) {
      Fingerprint& slot = slots_[i];
      if (slot.lo == 0 && slot.hi == 0) {
        slot = fp;
        ++size_;
        return true;
      }
      if (slot == fp) return false;
      i = (i + 1) & mask;
    }
  }

  std::size_t size() const noexcept { return size_; }
  std::uint64_t bytes() const noexcept {
    return slots_.size() * sizeof(Fingerprint);
  }
  /// The raw slot array (empty slots are {0,0}); SpillSegment freezes it.
  const std::vector<Fingerprint>& slots() const noexcept { return slots_; }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;  // power of two

  void grow() {
    std::vector<Fingerprint> old = std::move(slots_);
    slots_.assign(old.size() * 2, Fingerprint{});
    size_ = 0;
    for (const Fingerprint& fp : old) {
      if (fp.lo != 0 || fp.hi != 0) insert(fp);
    }
  }

  std::size_t size_ = 0;
  std::vector<Fingerprint> slots_;
};

/// A frozen, read-only spill segment: the slot array of a FingerprintSet
/// written to an unlinked temporary file and mapped back PROT_READ, so the
/// kernel may drop (and re-fault) its pages under memory pressure instead
/// of the process OOMing. Probing uses the same open-addressing walk as the
/// live set — a miss costs the same bounded probe sequence, just against
/// file-backed pages. Falls back to keeping the slots in anonymous memory
/// when the filesystem refuses (stats then report it as resident).
class SpillSegment {
 public:
  explicit SpillSegment(const std::vector<Fingerprint>& slots);
  ~SpillSegment();
  SpillSegment(const SpillSegment&) = delete;
  SpillSegment& operator=(const SpillSegment&) = delete;

  /// `fp` must already be normalized ({0,0} remapped to {1,0}).
  bool contains(const Fingerprint& fp) const noexcept;

  std::uint64_t bytes() const noexcept {
    return nslots_ * sizeof(Fingerprint);
  }
  bool on_disk() const noexcept { return mapped_ != nullptr; }

 private:
  const Fingerprint* data() const noexcept {
    return mapped_ != nullptr ? static_cast<const Fingerprint*>(mapped_)
                              : ram_.data();
  }

  void* mapped_ = nullptr;  // mmap'd file copy (preferred)
  std::vector<Fingerprint> ram_;  // fallback when mmap is unavailable
  std::size_t nslots_ = 0;        // power of two
};

/// The dedup set behind the explorer, with an exact mode that keys on the
/// full canonical bytes (collision-free by construction) for audit runs.
/// One exploration owns it; it is not safe to share between threads.
///
/// With a non-zero `budget_bytes`, the live fingerprint set is frozen into
/// a SpillSegment once it outgrows the budget and a fresh live set takes
/// over — deep explorations degrade to probing a few file-backed segments
/// per insert instead of growing RAM without bound. Exact mode never
/// spills (audit runs are small by design).
class VisitedSet {
 public:
  explicit VisitedSet(bool exact, std::uint64_t budget_bytes = 0);

  /// Returns true if the state was not seen before. `canonical` must hold
  /// the serialized state `fp` was computed from (used in exact mode).
  bool insert(Fingerprint fp, const std::string& canonical);

  /// Pre-mark states as visited (the incremental explorer re-seeds the set
  /// with a persisted prefix region). Fingerprint mode only.
  void preload(const std::vector<Fingerprint>& fps);

  /// Approximate resident (RAM) footprint: live fingerprint slots, exact
  /// keys + node overhead, plus any segments that fell back to RAM.
  std::uint64_t bytes() const;

  /// Bytes frozen into file-backed spill segments.
  std::uint64_t spill_bytes() const;
  std::uint32_t spill_segments() const {
    return static_cast<std::uint32_t>(segs_.size());
  }

 private:
  /// Never freeze below two grow steps of a fresh set: segments would
  /// otherwise hold a handful of fingerprints each and every insert would
  /// probe an unbounded segment chain.
  static constexpr std::uint64_t kMinBudget = 64 * 1024;

  bool exact_;
  std::uint64_t budget_ = 0;  // 0 = unbounded (never spill)
  FingerprintSet fps_;
  std::unordered_set<std::string> exact_keys_;
  std::vector<std::unique_ptr<SpillSegment>> segs_;
};

}  // namespace lbmf::sim
