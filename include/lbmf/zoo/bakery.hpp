#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "lbmf/core/primary.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/spin.hpp"

namespace lbmf::zoo {

/// N-thread Lamport bakery with a location-fenced fast path for thread 0
/// (the runtime counterpart of `examples/litmus/bakery.lit`). Thread 0 is
/// the primary: both of its protected stores — the choosing announce and
/// the ticket publish — take `P::primary_fence()`, i.e. an l-mfence whose
/// link rides the stored location, so a peer's read of either word is what
/// drains the primary's store buffer. Secondaries pay a full fence in
/// their doorway, exactly as in the litmus.
///
/// The litmus teaches where the fences must ride: a fence on the doorway
/// *close* (choosing=0) orders nothing, because its link would fire on
/// reads of the choosing word while every peer decision that matters reads
/// the *ticket*. Both the announce and the publish therefore carry their
/// own fence, and the close stays a plain release store (a stale choosing
/// flag only delays peers — conservative).
///
/// Ties break on thread id, so the primary (id 0) wins every tie — the
/// same bias that let the inferencer drop the fence from the litmus's
/// ticket-1 path. The runtime keeps the fence on every publish: tickets
/// here are unbounded, so no path is provably tie-only.
///
/// Tickets are 64-bit monotone counters (`1 + max`), never reset. The
/// (ticket, id) ordering in scan() assumes tickets do not wrap; a 32-bit
/// ticket would wrap after 2^32 acquisitions under sustained contention
/// and silently break mutual exclusion, whereas exhausting 2^64 takes
/// centuries at one acquisition per nanosecond — out of scope by design.
///
/// Thread 0 binds through PrimaryBinding, with the same lifetime contract
/// as AsymmetricDekker.
template <FencePolicy P, std::size_t N>
class BakeryLock : public PrimaryBinding<P> {
  static_assert(N >= 2, "a one-thread bakery needs no lock");

 public:
  using Policy = P;
  static constexpr std::size_t kThreads = N;

  BakeryLock() : PrimaryBinding<P>("BakeryLock primary already bound") {}

  /// Acquire as thread `id` (0 = primary). Each id must be used by at most
  /// one thread at a time.
  void lock(std::size_t id) {
    LBMF_CHECK_MSG(id < N, "BakeryLock thread id out of range");
    if (id == 0) {
      lock_primary();
    } else {
      lock_secondary(id);
    }
  }

  void unlock(std::size_t id) noexcept {
    number_[id]->store(0, std::memory_order_release);
  }

 private:
  void lock_primary() noexcept {
    compiler_fence();
    choosing_[0]->store(1, std::memory_order_relaxed);
    P::primary_fence();  // announce must reach peers' scans before our reads
    const std::uint64_t ticket = 1 + max_number();
    number_[0]->store(ticket, std::memory_order_relaxed);
    P::primary_fence();  // ticket must reach peers' doorways and scans
    choosing_[0]->store(0, std::memory_order_release);  // plain close
    scan(0, ticket, /*serialize_primary=*/false);
  }

  void lock_secondary(std::size_t id) {
    choosing_[id]->store(1, std::memory_order_relaxed);
    P::secondary_fence();
    const std::uint64_t ticket = 1 + max_number();
    number_[id]->store(ticket, std::memory_order_relaxed);
    P::secondary_fence();
    choosing_[id]->store(0, std::memory_order_release);
    scan(id, ticket, /*serialize_primary=*/true);
  }

  std::uint64_t max_number() const noexcept {
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < N; ++j) {
      const std::uint64_t n = number_[j]->load(std::memory_order_acquire);
      if (n > m) m = n;
    }
    return m;
  }

  // Wait until every peer with a smaller (ticket, id) pair has left. The
  // secondaries serialize the primary once on entry — the runtime analogue
  // of the single mfence the litmus's cold side pays — so a buffered
  // primary announce or ticket is in memory before the comparisons run.
  void scan(std::size_t id, std::uint64_t ticket, bool serialize_primary) {
    if (serialize_primary) P::serialize(this->primary_handle());
    for (std::size_t j = 0; j < N; ++j) {
      if (j == id) continue;
      SpinWait c;
      while (choosing_[j]->load(std::memory_order_acquire) != 0) c.wait();
      SpinWait w;
      for (;;) {
        const std::uint64_t n = number_[j]->load(std::memory_order_acquire);
        if (n == 0 || n > ticket || (n == ticket && j > id)) break;
        w.wait();
      }
    }
  }

  CacheAligned<std::atomic<unsigned>> choosing_[N];
  CacheAligned<std::atomic<std::uint64_t>> number_[N];
};

}  // namespace lbmf::zoo

#if defined(LBMF_EXTRACT) && LBMF_EXTRACT
#include "lbmf/extract/annotate.hpp"

namespace lbmf::zoo {

/// The bakery protocol above, annotated for lbmf::extract with a
/// role-count parameter: one hot customer (id 0, wins ties) against
/// `contenders` rare challengers stamped out from a single parameterized
/// body via LBMF_ROLES — the contenders gate on [G] and share one bakery
/// slot ([C1]/[N1]), so their recorded programs are byte-identical and
/// the recorder declares them symmetric automatically.
///
/// Tickets are computed (1 if the peer slot is empty, else 2 — the
/// single-attempt litmus reduction of `1 + max`), every protocol store is
/// a `?fence` hole, and the doorway close stays a plain store (see
/// examples/litmus/bakery_holes.lit, which
/// `lbmf_extract bakery` regenerates from this function).
inline extract::Spec record_bakery_protocol(std::size_t contenders = 2) {
  using namespace extract;
  Recorder rec("bakery");

  auto hot = LBMF_ROLE(rec, "customer", 1000);
  LBMF_FENCE_HOLE(hot, "C0", 1);      // announce choosing
  LBMF_LOAD(hot, r1, "N1");           // doorway: peer holding a ticket?
  LBMF_BEQ(hot, r1, 0, "t1");
  LBMF_MOV(hot, r2, 2);
  LBMF_FENCE_HOLE(hot, "N0", 2);      // publish ticket 2
  LBMF_JMP(hot, "close");
  LBMF_LABEL(hot, "t1");
  LBMF_MOV(hot, r2, 1);
  LBMF_FENCE_HOLE(hot, "N0", 1);      // publish ticket 1
  LBMF_LABEL(hot, "close");
  LBMF_STORE(hot, "C0", 0);           // plain close: stale 1 only delays
  LBMF_LOAD(hot, r3, "C1");
  LBMF_BNE(hot, r3, 0, "skip");       // peer mid-doorway: bail
  LBMF_LOAD(hot, r4, "N1");
  LBMF_BEQ(hot, r4, 0, "enter");      // nobody competing
  LBMF_BEQ(hot, r2, 1, "enter");      // ticket 1: id 0 wins every tie
  LBMF_BEQ(hot, r4, 2, "enter");      // 2 vs 2: tie, id 0 wins
  LBMF_JMP(hot, "skip");              // my 2 vs their 1: lose
  LBMF_LABEL(hot, "enter");
  LBMF_CRITICAL(hot);
  LBMF_LABEL(hot, "skip");
  LBMF_STORE(hot, "N0", 0);           // hand the ticket back
  LBMF_HALT(hot);

  LBMF_ROLES(rec, "contender", contenders, 1,
             [](RoleRef& c, std::size_t) {
               LBMF_RMW_ACQUIRE(c, "G");
               LBMF_FENCE_HOLE(c, "C1", 1);  // announce choosing
               LBMF_LOAD(c, r1, "N0");
               LBMF_BEQ(c, r1, 0, "u1");
               LBMF_MOV(c, r2, 2);
               LBMF_FENCE_HOLE(c, "N1", 2);  // publish ticket 2
               LBMF_JMP(c, "uclose");
               LBMF_LABEL(c, "u1");
               LBMF_MOV(c, r2, 1);
               LBMF_FENCE_HOLE(c, "N1", 1);  // publish ticket 1
               LBMF_LABEL(c, "uclose");
               LBMF_STORE(c, "C1", 0);       // close the doorway
               LBMF_LOAD(c, r3, "C0");
               LBMF_BNE(c, r3, 0, "cskip");  // hot mid-doorway: bail
               LBMF_LOAD(c, r4, "N0");
               LBMF_BEQ(c, r4, 0, "center"); // hot not competing
               LBMF_BNE(c, r2, 1, "cskip");  // my 2 never strictly wins
               LBMF_BEQ(c, r4, 2, "center"); // my 1 vs their 2: smaller
               LBMF_JMP(c, "cskip");         // 1 vs 1: tie, hot wins
               LBMF_LABEL(c, "center");
               LBMF_CRITICAL(c);
               LBMF_LABEL(c, "cskip");
               LBMF_STORE(c, "N1", 0);
               LBMF_RMW_RELEASE(c, "G");
               LBMF_HALT(c);
             });
  return std::move(rec).take();
}

}  // namespace lbmf::zoo
#endif  // LBMF_EXTRACT
