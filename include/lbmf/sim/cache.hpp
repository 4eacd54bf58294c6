#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <vector>

#include "lbmf/sim/types.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::sim {

/// The words of one cache line, stored inline. The Machine constructor
/// caps SimConfig::line_words at kInlineWords, so a line — and the cache
/// vector holding it — is trivially copyable: the explorer's millions of
/// machine snapshots copy caches with a memcpy.
class LineData {
 public:
  static constexpr std::size_t kInlineWords = 8;

  LineData() = default;
  explicit LineData(std::size_t n) : size_(static_cast<std::uint8_t>(n)) {
    LBMF_CHECK(n <= kInlineWords);
  }
  LineData(std::initializer_list<Word> ws) : LineData(ws.size()) {
    std::copy(ws.begin(), ws.end(), words_.begin());
  }

  std::size_t size() const noexcept { return size_; }
  Word* data() noexcept { return words_.data(); }
  const Word* data() const noexcept { return words_.data(); }
  Word& operator[](std::size_t i) noexcept { return words_[i]; }
  Word operator[](std::size_t i) const noexcept { return words_[i]; }
  Word* begin() noexcept { return data(); }
  Word* end() noexcept { return data() + size_; }
  const Word* begin() const noexcept { return data(); }
  const Word* end() const noexcept { return data() + size_; }

  friend bool operator==(const LineData& a, const LineData& b) noexcept {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<Word, kInlineWords> words_{};
  std::uint8_t size_ = 0;
};

/// One resident line in a private cache. Lines hold `SimConfig::line_words`
/// consecutive words starting at `base` (base is always line-aligned); the
/// default of one word per line keeps litmus tests exact, while wider lines
/// model false sharing — including remote accesses to a *neighbouring*
/// word of an l-mfence-guarded location firing the guard.
struct CacheLine {
  Addr base = kInvalidAddr;
  Mesi state = Mesi::Invalid;
  LineData data;
  std::uint64_t lru = 0;  // last-touch stamp; smallest is evicted first

  Word& at(std::size_t offset) noexcept { return data[offset]; }
  Word at(std::size_t offset) const noexcept { return data[offset]; }
};
static_assert(std::is_trivially_copyable_v<CacheLine>);

/// A fully associative, LRU private cache keyed by line base address.
/// Value-semantic (copyable) so the interleaving explorer can snapshot
/// whole machines. Linear scans are fine: litmus programs touch a handful
/// of lines.
class Cache {
 public:
  explicit Cache(std::size_t capacity) : capacity_(capacity) {}

  /// Lookup without touching LRU state (for invariant checks / peeking).
  const CacheLine* peek(Addr base) const noexcept;

  /// Lookup and refresh the line's LRU stamp.
  CacheLine* touch(Addr base) noexcept;

  /// Insert (or overwrite) a line. If the cache is full, evicts the LRU
  /// line first and returns it so the owner can run eviction side effects
  /// (writeback; guard-link breaking per Sec. 3 of the paper).
  std::optional<CacheLine> insert(Addr base, Mesi state, LineData data);

  /// Change the state of a resident line; no-op if absent.
  void set_state(Addr base, Mesi state) noexcept;

  /// Remove a line (invalidate); returns the removed line if present.
  std::optional<CacheLine> erase(Addr base) noexcept;

  std::size_t size() const noexcept { return lines_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Resident lines, always sorted by base address (insert maintains the
  /// order) — canonical state encodings depend on this invariant.
  const std::vector<CacheLine>& lines() const noexcept { return lines_; }

  /// Replace the resident lines wholesale (the Machine state-restore path).
  /// `lines` must be sorted by base with `lru` fields holding eviction
  /// *ranks* (any strictly-ordered stamps work); the internal LRU clock
  /// resumes above the largest of them so subsequent touches stay newest.
  void restore_lines(std::vector<CacheLine> lines);

 private:
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::vector<CacheLine> lines_;
};

/// One committed-but-incomplete store (Sec. 2: committed = in the buffer,
/// completed = written to the cache). Store granularity is one word.
struct StoreEntry {
  Addr addr = kInvalidAddr;
  Word value = 0;
  /// True if this is the store associated with an armed l-mfence link; its
  /// completion clears the link (Sec. 3).
  bool guarded = false;
};

/// FIFO store buffer with store-to-load forwarding.
class StoreBuffer {
 public:
  explicit StoreBuffer(std::size_t capacity) : capacity_(capacity) {}

  bool full() const noexcept { return entries_.size() >= capacity_; }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  void push(StoreEntry e) { entries_.push_back(e); }

  /// Oldest entry (the next to complete). Precondition: !empty().
  StoreEntry pop_oldest();

  /// Youngest entry matching `a`, if any — store-buffer forwarding gives a
  /// load the most recent committed value (Sec. 2).
  std::optional<Word> forwarded_value(Addr a) const noexcept;

  const std::vector<StoreEntry>& entries() const noexcept { return entries_; }

  /// Drop all entries (the Machine state-restore path rebuilds the buffer
  /// entry by entry with push()).
  void clear() noexcept { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::vector<StoreEntry> entries_;  // front = oldest
};

}  // namespace lbmf::sim
