#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "lbmf/dekker/asymmetric_mutex.hpp"
#include "lbmf/util/check.hpp"

namespace lbmf::flowtable {

/// Surrogate for a hashed 5-tuple flow identifier.
using FlowKey = std::uint64_t;

/// Per-flow accounting plus the forwarding rule applied to the flow.
struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t rule = 0;  // forwarding/action rule id
};

/// Capacity regime. kFixed is the original table: capacity is final and
/// exhausting it is a hard error — the shape the sim-mapped litmus story
/// and the E10 microbench reason about, where table size is part of the
/// modelled state. kGrowable is the serving-tier regime: the owner rehashes
/// incrementally into a table twice the size whenever load crosses 3/4,
/// moving a bounded batch of entries per mutating operation so growth cost
/// is amortized under the primary lock and the l-mfence fast path (no
/// hardware fence added) is preserved. The operation that starts a grow
/// also maps the doubled array (see detail::SlotArray): on a 4-vCPU Xeon
/// KVM guest with THP in `madvise` mode, the worst single upsert of a
/// 4096 -> 2^20-slot fill (the 2^19 -> 2^20 grow) took 5.3-8.0 ms in 11 of
/// 12 fills (21.6 ms in one); it took 20.0-25.2 ms when the array was a
/// zero-filled std::vector of 40-byte slots.
enum class Growth : std::uint8_t { kFixed, kGrowable };

namespace detail {

enum class SlotState : std::uint8_t {
  kEmpty = 0,  // all-zero bytes are an empty slot
  kOccupied,
  kMoved,  // old-array tombstone: probe chains continue through it
};

/// One table slot, flat so it packs into 32 bytes: two to a cache line,
/// none straddling two. FlowStats is the public view of the counters.
struct Slot {
  FlowKey key;
  std::uint64_t packets;
  std::uint64_t bytes;
  std::uint32_t rule;
  SlotState state;
};
static_assert(sizeof(Slot) == 32, "a slot must not straddle cache lines");

/// A fixed-length slot array on its own anonymous mapping. Fresh anonymous
/// pages read as zero, which is an array of empty slots, so no fill pass
/// runs. The mapping is advised MADV_HUGEPAGE (THP in `madvise` mode backs
/// it with 2 MiB pages) and pre-faulted with MADV_POPULATE_WRITE, so the
/// kernel zeroes it in one call instead of one fault per 4 KiB page during
/// the fill. With THP off the one call pre-faults 4 KiB pages; a kernel
/// older than 5.14 refuses MADV_POPULATE_WRITE and pages fault in on first
/// touch. Freeing unmaps, so a drained array's memory leaves the process
/// at once.
class SlotArray {
 public:
  SlotArray() noexcept = default;
  explicit SlotArray(std::size_t n);
  ~SlotArray() { reset(); }
  SlotArray(SlotArray&& o) noexcept { *this = std::move(o); }
  /// Swaps, so the source releases what this array held.
  SlotArray& operator=(SlotArray&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }

  Slot& operator[](std::size_t i) noexcept { return data_[i]; }
  Slot* begin() noexcept { return data_; }
  Slot* end() noexcept { return data_ + size_; }
  const Slot* begin() const noexcept { return data_; }
  const Slot* end() const noexcept { return data_ + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Unmap the array; it is empty afterwards.
  void reset() noexcept;

 private:
  Slot* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace detail

/// The paper's fourth motivating application (Sec. 1): "in network package
/// processing applications, each processing thread (primary) maintains its
/// own data structures for its group of source addresses, but occasionally,
/// a thread (secondary) might need to update data structures maintained by
/// a different thread."
///
/// FlowTable is that per-thread structure: an open-addressing hash table of
/// flow statistics owned by exactly one processing thread. The owner
/// records packets through the *primary* side of an asymmetric Dekker
/// mutex — one l-mfence-style announce per packet, no hardware fence under
/// the asymmetric policies — while remote rule updates come through the
/// gated *secondary* side, paying the fence and the remote serialization.
///
/// With P = SymmetricFence the same table becomes the conventional design
/// (an mfence per packet), which is what the flow-table benchmark compares
/// against.
///
/// During an incremental rehash two arrays are live: inserts go to the new
/// (current) array; lookups probe current first, then the draining old
/// array, whose vacated slots become kMoved tombstones so later entries of
/// a probe chain stay reachable. Every mutating op migrates up to
/// kMigrateBatch old entries, so a grow triggered at 3/4 load finishes
/// well before the doubled array could itself reach the trigger. Both
/// arrays are detail::SlotArray mappings.
template <FencePolicy P>
class FlowTable {
 public:
  static constexpr std::size_t kMigrateBatch = 8;

  explicit FlowTable(std::size_t capacity_pow2 = 1u << 12,
                     Growth growth = Growth::kFixed)
      : growth_(growth), mask_(capacity_pow2 - 1), slots_(capacity_pow2) {
    LBMF_CHECK_MSG(
        capacity_pow2 != 0 && (capacity_pow2 & (capacity_pow2 - 1)) == 0,
        "flow table capacity must be a power of two");
  }

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Owner-thread registration; same contract as AsymmetricMutex.
  void bind_owner() { mutex_.bind_primary(); }
  void unbind_owner() { mutex_.unbind_primary(); }

  // -------------------------------------------------------------- owner

  /// Owner fast path: account one packet for `key`. Returns the rule
  /// currently applied to the flow (what a real pipeline would act on).
  std::uint32_t record_packet(FlowKey key, std::uint32_t bytes) {
    mutex_.lock_primary();
    Slot& s = find_or_insert(key);
    ++s.packets;
    s.bytes += bytes;
    const std::uint32_t rule = s.rule;
    mutex_.unlock_primary();
    return rule;
  }

  /// Owner-side read without contention handling (diagnostics).
  std::optional<FlowStats> owner_peek(FlowKey key) {
    mutex_.lock_primary();
    std::optional<FlowStats> out;
    if (Slot* s = find(key)) out = stats_of(*s);
    mutex_.unlock_primary();
    return out;
  }

  // ------------------------------------------------------------- remote

  /// Remote (secondary) path: install or change the rule for a flow,
  /// inserting the flow if the owner has not seen it yet (a rule pushed
  /// ahead of traffic). Returns whether the flow already existed, so
  /// control planes can distinguish update from insert instead of
  /// silently inflating flow_count().
  bool update_rule(FlowKey key, std::uint32_t rule) {
    mutex_.lock_secondary();
    const bool existed = upsert_rule_locked(key, rule);
    mutex_.unlock_secondary();
    return existed;
  }

  /// Remote read of a flow's statistics (e.g. an exporter thread).
  std::optional<FlowStats> remote_read(FlowKey key) {
    mutex_.lock_secondary();
    std::optional<FlowStats> out;
    if (Slot* s = find(key)) out = stats_of(*s);
    mutex_.unlock_secondary();
    return out;
  }

  /// Total packets across all flows (remote path).
  std::uint64_t remote_total_packets() {
    mutex_.lock_secondary();
    const std::uint64_t total = total_packets_locked();
    mutex_.unlock_secondary();
    return total;
  }

  /// Remote eviction sweep: drop every flow with fewer than `min_packets`
  /// packets. Returns the number of flows evicted.
  std::size_t remote_evict_below(std::uint64_t min_packets) {
    mutex_.lock_secondary();
    const std::size_t evicted = evict_below_locked(min_packets);
    mutex_.unlock_secondary();
    return evicted;
  }

  // ------------------------------------------- locked-context primitives
  //
  // For callers that already hold the table's mutex — in particular the
  // serving tier's cross-shard control plane, which acquires many tables
  // through one lock_secondary_wave instead of per-table lock_secondary.

  /// The table's synchronization object, for wave acquisition.
  AsymmetricMutex<P>& sync_mutex() noexcept { return mutex_; }

  /// Insert-or-update a rule; caller holds the mutex (either side).
  /// Returns whether the flow already existed.
  bool upsert_rule_locked(FlowKey key, std::uint32_t rule) {
    bool existed = true;
    Slot& s = find_or_insert(key, &existed);
    s.rule = rule;
    return existed;
  }

  /// Caller holds the mutex. Masked rather than branched on the slot
  /// state, so the scan does not mispredict on a half-full table.
  std::uint64_t total_packets_locked() const noexcept {
    return occupied_packets(slots_) + occupied_packets(old_);
  }

  /// Evict flows with packets < min_packets; caller holds the mutex. Any
  /// in-flight incremental rehash is completed first, then the surviving
  /// entries are rebuilt into a clean array (no tombstones left behind).
  std::size_t evict_below_locked(std::uint64_t min_packets) {
    finish_migration();
    std::vector<Slot> survivors;
    survivors.reserve(flow_count());
    for (Slot& s : slots_) {
      if (s.state == SlotState::kOccupied && s.packets >= min_packets) {
        survivors.push_back(s);
      }
    }
    const std::size_t evicted = flow_count() - survivors.size();
    for (Slot& s : slots_) s.state = SlotState::kEmpty;
    for (const Slot& s : survivors) insert_new(slots_, mask_, s);
    store_occupied(survivors.size());
    return evicted;
  }

  // -------------------------------------------------------------- stats

  /// Live flows. Safe to read concurrently (momentary snapshot).
  std::size_t flow_count() const noexcept {
    return occupied_.load(std::memory_order_relaxed);
  }
  /// Completed table doublings. Safe to read concurrently.
  std::size_t grow_count() const noexcept {
    return grows_.load(std::memory_order_relaxed);
  }
  /// Capacity of the current (largest) array.
  std::size_t capacity() const noexcept { return mask_ + 1; }

  DekkerStats sync_stats() const noexcept { return mutex_.stats(); }

 private:
  using Slot = detail::Slot;
  using SlotState = detail::SlotState;
  using SlotArray = detail::SlotArray;

  static FlowStats stats_of(const Slot& s) noexcept {
    return FlowStats{s.packets, s.bytes, s.rule};
  }

  static std::uint64_t occupied_packets(const SlotArray& arr) noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : arr) {
      total += s.packets &
               -static_cast<std::uint64_t>(s.state == SlotState::kOccupied);
    }
    return total;
  }

  static std::size_t hash(FlowKey k) noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  void store_occupied(std::size_t n) noexcept {
    occupied_.store(n, std::memory_order_relaxed);
  }
  void add_occupied(std::ptrdiff_t d) noexcept {
    occupied_.store(flow_count() + static_cast<std::size_t>(d),
                    std::memory_order_relaxed);
  }

  static Slot* probe(SlotArray& arr, std::size_t mask, FlowKey key) {
    std::size_t i = hash(key) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes) {
      Slot& s = arr[i];
      if (s.state == SlotState::kEmpty) return nullptr;
      if (s.state == SlotState::kOccupied && s.key == key) return &s;
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Copy an occupied slot whose key is absent from `arr` into the first
  /// vacancy of its probe chain; never grows.
  static Slot& insert_new(SlotArray& arr, std::size_t mask, const Slot& src) {
    std::size_t i = hash(src.key) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes) {
      Slot& s = arr[i];
      if (s.state != SlotState::kOccupied) {
        s = src;
        return s;
      }
      i = (i + 1) & mask;
    }
    LBMF_CHECK_MSG(false, "flow table probe loop exhausted");
    return arr[0];  // unreachable
  }

  Slot* find(FlowKey key) {
    if (Slot* s = probe(slots_, mask_, key)) return s;
    if (!old_.empty()) return probe(old_, old_mask_, key);
    return nullptr;
  }

  Slot& find_or_insert(FlowKey key, bool* existed = nullptr) {
    if (growth_ == Growth::kGrowable) {
      if (!old_.empty()) {
        migrate_step(kMigrateBatch);
      } else if ((flow_count() + 1) * 4 > capacity() * 3) {
        start_grow();
      }
    }
    if (Slot* s = probe(slots_, mask_, key)) return *s;
    if (!old_.empty()) {
      if (Slot* s = probe(old_, old_mask_, key)) {
        // Promote the entry to the current array so the caller's mutation
        // lands where future lookups probe first.
        Slot& dst = insert_new(slots_, mask_, *s);
        s->state = SlotState::kMoved;
        return dst;
      }
    }
    if (growth_ == Growth::kFixed) {
      LBMF_CHECK_MSG(flow_count() < slots_.size() - 1, "flow table full");
    }
    if (existed != nullptr) *existed = false;
    Slot& s = insert_new(slots_, mask_,
                         Slot{key, 0, 0, 0, SlotState::kOccupied});
    add_occupied(+1);
    return s;
  }

  void start_grow() {
    old_ = std::move(slots_);
    old_mask_ = mask_;
    mask_ = (old_mask_ + 1) * 2 - 1;
    slots_ = SlotArray(mask_ + 1);
    migrate_pos_ = 0;
  }

  void migrate_step(std::size_t budget) {
    while (budget > 0 && migrate_pos_ < old_.size()) {
      Slot& s = old_[migrate_pos_++];
      if (s.state == SlotState::kOccupied) {
        insert_new(slots_, mask_, s);
        s.state = SlotState::kMoved;
        --budget;
      }
    }
    if (migrate_pos_ >= old_.size()) {
      old_.reset();
      grows_.store(grow_count() + 1, std::memory_order_relaxed);
    }
  }

  void finish_migration() {
    while (!old_.empty()) migrate_step(old_.size());
  }

  AsymmetricMutex<P> mutex_;
  Growth growth_;
  std::size_t mask_;
  std::size_t old_mask_ = 0;
  std::size_t migrate_pos_ = 0;
  // Single writer (whoever holds the mutex); read lock-free by stats
  // exporters, hence relaxed atomics rather than plain fields.
  std::atomic<std::size_t> occupied_{0};
  std::atomic<std::size_t> grows_{0};
  SlotArray slots_;
  SlotArray old_;  // non-empty exactly while a rehash is draining
};

}  // namespace lbmf::flowtable
