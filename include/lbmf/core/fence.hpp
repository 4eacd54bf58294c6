#pragma once

#include <atomic>

namespace lbmf {

/// Compiler-only fence: forbids the *compiler* from moving memory accesses
/// across this point but emits no instruction. This is the entire cost the
/// primary thread pays on the fast path of a location-based memory fence
/// (Sec. 3 of the paper: "an implicit compiler fence should be inserted").
inline void compiler_fence() noexcept {
  std::atomic_signal_fence(std::memory_order_seq_cst);
}

/// Full hardware memory fence: stalls until the store buffer drains, making
/// all prior stores globally visible before any later load executes. This
/// is the program-based fence the paper sets out to avoid on the primary
/// thread's path. On x86-64, GCC 12 emits it as a locked no-op RMW on the
/// stack (`lock orq $0x0,(%rsp)`), not as an MFENCE instruction. For
/// ordinary memory both drain the store buffer before any later load;
/// MFENCE also orders non-temporal stores, which this library never issues.
inline void full_fence() noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

/// The specific ordering the Dekker duality needs: no StoreLoad reordering
/// between the intent store and the peer-flag load. On TSO this is the only
/// reordering that exists, so this is equivalent to full_fence; the separate
/// name documents *why* a fence sits at a call site.
inline void store_load_fence() noexcept { full_fence(); }

}  // namespace lbmf
