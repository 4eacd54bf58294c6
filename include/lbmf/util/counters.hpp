#pragma once

#include <atomic>
#include <cstdint>

namespace lbmf {

/// Relaxed single-writer increment for event counters that are read by a
/// stats() snapshot from arbitrary threads: load+store rather than
/// fetch_add, so the instrumentation adds no lock prefix — an x86 locked
/// RMW is a full StoreLoad fence and would silently re-insert, on the very
/// hot paths this library instruments (Dekker announce, deque pop), the
/// fence the asymmetric policies exist to remove. Only legal where writers
/// of the counter are serialized (a side's own half of a Dekker pair, the
/// deque victim's counters, thief counters under the THE gate); racing
/// writers must use fetch_add instead.
///
/// Such a counter is never reset: a zeroing store that lands between the
/// writer's load and store is overwritten by the old count plus one. It
/// only grows, so a reader that wants the events of an interval subtracts
/// the snapshot at its start from the one at its end.
inline void bump_relaxed(std::atomic<std::uint64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace lbmf
