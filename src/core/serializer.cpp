#include "lbmf/core/serializer.hpp"

#include <algorithm>
#include <csignal>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#endif

#include "lbmf/core/fence.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/spin.hpp"
#include "lbmf/util/timing.hpp"

namespace lbmf {
namespace {

// The handler needs to find the slot of the thread it interrupted. A
// thread_local pointer is set at registration time, before any signal can
// target the thread, so the TLS block is guaranteed to be allocated by the
// time the handler dereferences it.
thread_local SerializerRegistry::Slot* tls_slot = nullptr;

// Eventcount park/wake over futex(2). Raw syscalls only — futex_wake runs
// inside the signal handler, where raw syscalls are async-signal-safe.
// Elsewhere the bounded park degrades to a yield, which only costs CPU.
#if defined(__linux__)
void ack_event_park(std::atomic<std::uint32_t>* ev, std::uint32_t expected,
                    long timeout_ns) {
  timespec ts{};
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(ev),
          FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
}

void ack_event_wake_all(std::atomic<std::uint32_t>* ev) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(ev),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}
#else
void ack_event_park(std::atomic<std::uint32_t>*, std::uint32_t, long) {
  std::this_thread::yield();
}
void ack_event_wake_all(std::atomic<std::uint32_t>*) {}
#endif

}  // namespace

int SerializerRegistry::signal_number() noexcept { return SIGURG; }

std::atomic<std::uint64_t> SerializerRegistry::rtt_ewma_cycles_{0};
std::atomic<std::uint64_t> SerializerRegistry::rtt_samples_{0};

void SerializerRegistry::record_roundtrip(std::uint64_t cycles) noexcept {
  const std::uint64_t old = rtt_ewma_cycles_.load(std::memory_order_relaxed);
  // Fixed-point EWMA, α = 1/8; seeded with the first sample outright.
  const std::uint64_t next = old == 0 ? cycles : old - old / 8 + cycles / 8;
  rtt_ewma_cycles_.store(next, std::memory_order_relaxed);
  rtt_samples_.fetch_add(1, std::memory_order_relaxed);
}

double SerializerRegistry::measured_roundtrip_cycles() noexcept {
  return rtt_samples_.load(std::memory_order_relaxed) > 0
             ? static_cast<double>(
                   rtt_ewma_cycles_.load(std::memory_order_relaxed))
             : 0.0;
}

SerializerRegistry& SerializerRegistry::instance() {
  static SerializerRegistry registry;
  return registry;
}

SerializerRegistry::SerializerRegistry() {
  struct sigaction sa = {};
  sa.sa_handler = &SerializerRegistry::handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  LBMF_CHECK(sigaction(signal_number(), &sa, nullptr) == 0);
}

void SerializerRegistry::handler(int) {
  // Entering the kernel to deliver this signal already drained the
  // interrupted core's store buffer (the serialization the secondary wants);
  // the fence below gives the same guarantee at the C++ abstract-machine
  // level so the code is correct under any compiler.
  full_fence();
  Slot* slot = tls_slot;
  if (slot == nullptr) return;  // late signal after unregistration
  slot->signals_received.fetch_add(1, std::memory_order_relaxed);
  // Coalescing protocol, handler side: clear in_flight BEFORE sampling
  // req_seq. A secondary that observes in_flight == true observed a value
  // this store has not yet overwritten, so in the seq_cst total order its
  // req_seq bump precedes the load below — the ack we are about to publish
  // covers its request, and skipping its signal was safe.
  slot->in_flight.store(false, std::memory_order_seq_cst);
  // Acknowledge every request issued so far. Reading req_seq *after* the
  // serializing fence means the ack covers exactly the requests whose
  // stores we have made visible.
  const std::uint64_t req = slot->req_seq.load(std::memory_order_seq_cst);
  std::uint64_t ack = slot->ack_seq.load(std::memory_order_relaxed);
  while (ack < req &&
         !slot->ack_seq.compare_exchange_weak(ack, req,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
  }
  // Rouse every secondary parked on this slot's ack. The eventcount bump
  // happens after the ack is published, so a waiter that re-checks on wake
  // (or races the bump and skips the park) always sees the covering ack.
  slot->ack_event.fetch_add(1, std::memory_order_release);
  ack_event_wake_all(&slot->ack_event);
}

SerializerRegistry::Handle SerializerRegistry::register_self() {
  for (std::size_t i = 0; i < kMaxPrimaries; ++i) {
    Slot& slot = *slots_[i];
    bool expected = false;
    if (!slot.used.load(std::memory_order_relaxed) &&
        slot.used.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      slot.thread = pthread_self();
      // Start a fresh request epoch so stale acks from a previous tenant of
      // this slot cannot satisfy new requests.
      const std::uint64_t epoch =
          slot.req_seq.load(std::memory_order_relaxed);
      slot.ack_seq.store(epoch, std::memory_order_relaxed);
      slot.in_flight.store(false, std::memory_order_relaxed);
      tls_slot = &slot;
      // The store-release of `live` is the publication edge: a secondary
      // whose serialize() acquires `live == true` is guaranteed to see
      // `thread`, the ack epoch, and the installed TLS pointer.
      slot.live.store(true, std::memory_order_release);
      return Handle(&slot);
    }
  }
  return Handle{};
}

void SerializerRegistry::unregister_self(Handle& h) {
  if (!h.valid()) return;
  Slot& slot = *h.slot_;
  LBMF_CHECK_MSG(pthread_equal(slot.thread, pthread_self()),
                 "unregister_self must run on the registered thread");
  tls_slot = nullptr;
  // A signal already in flight will find tls_slot == nullptr and return;
  // entering the kernel for it still serialized us, and any secondary that
  // raced with this unregistration holds a handle whose serialize() call the
  // caller promised not to overlap with destruction (see header contract).
  slot.live.store(false, std::memory_order_release);
  slot.used.store(false, std::memory_order_release);
  h.slot_ = nullptr;
}

std::uint64_t SerializerRegistry::post_request(Slot& slot) {
  // Coalescing protocol, secondary side. The bump and the in_flight probe
  // are both seq_cst so they pair with the handler's clear-then-load:
  //
  //   * exchange returned false — no signal pending; we post one ourselves.
  //     The handler it triggers runs after our bump, so its req_seq load
  //     covers us.
  //   * exchange returned true — the `true` we replaced is overwritten only
  //     by a handler invocation whose in_flight clear is later than our
  //     exchange (hence later than our bump) in the seq_cst order, and that
  //     invocation loads req_seq after clearing; its ack covers us. No
  //     signal of our own is needed: the round trip is shared.
  const std::uint64_t my_req =
      slot.req_seq.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (!slot.in_flight.exchange(true, std::memory_order_seq_cst)) {
    if (pthread_kill(slot.thread, signal_number()) != 0) {
      return 0;  // thread already gone; caller violated the contract
    }
    slot.signals_posted.fetch_add(1, std::memory_order_relaxed);
  }
  return my_req;
}

void SerializerRegistry::await_ack(Slot& slot, std::uint64_t my_req) {
  // Fast path: the ack usually lands within ~one cross-core round trip;
  // spin briefly (single pauses, no backoff, no yield) before parking.
  for (int i = 0; i < kAckSpinRounds; ++i) {
    if (slot.ack_seq.load(std::memory_order_acquire) >= my_req) return;
    cpu_relax();
  }
  // Slow path: park on the ack eventcount so coalesced waiters stop
  // competing with the primary for the CPU (on an oversubscribed host the
  // primary needs our core to run its handler). The classic eventcount
  // order — sample the event, re-check the predicate, then wait on the
  // sampled value — makes the park lost-wakeup-free: a handler that
  // publishes the ack between our check and the park also bumps the event,
  // so the park returns immediately.
  int parks = 0;
  while (slot.ack_seq.load(std::memory_order_acquire) < my_req) {
    const std::uint32_t ev = slot.ack_event.load(std::memory_order_acquire);
    if (slot.ack_seq.load(std::memory_order_acquire) >= my_req) return;
    ack_event_park(&slot.ack_event, ev, kAckParkNanos);
    if (++parks >= kResignalParkBudget) {
      // The delivery is lost or indefinitely delayed: re-post instead of
      // waiting forever. Marking in_flight keeps later secondaries
      // coalescing onto this fresh signal.
      parks = 0;
      slot.resignals.fetch_add(1, std::memory_order_relaxed);
      slot.in_flight.store(true, std::memory_order_seq_cst);
      if (pthread_kill(slot.thread, signal_number()) == 0) {
        slot.signals_posted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

bool SerializerRegistry::serialize(const Handle& h) {
  Slot* slot = h.slot_;
  if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
    return false;
  }
  if (pthread_equal(slot->thread, pthread_self())) {
    // Self-serialization degenerates to an ordinary fence.
    full_fence();
    return true;
  }
  const std::uint64_t start = rdtsc();
  const std::uint64_t my_req = post_request(*slot);
  if (my_req == 0) return false;
  await_ack(*slot, my_req);
  record_roundtrip(rdtsc() - start);
  return true;
}

bool SerializerRegistry::serialize_uncoalesced(const Handle& h) {
  Slot* slot = h.slot_;
  if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
    return false;
  }
  if (pthread_equal(slot->thread, pthread_self())) {
    full_fence();
    return true;
  }
  const std::uint64_t my_req =
      slot->req_seq.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (pthread_kill(slot->thread, signal_number()) != 0) return false;
  slot->signals_posted.fetch_add(1, std::memory_order_relaxed);
  // Pre-batching wait shape: pure spin-yield until the ack covers us.
  SpinWait waiter;
  while (slot->ack_seq.load(std::memory_order_acquire) < my_req) {
    waiter.wait();
  }
  return true;
}

std::size_t SerializerRegistry::serialize_many(std::span<const Handle> hs) {
  std::size_t serialized = 0;
  // Wave state for one chunk; chunking bounds the stack while keeping every
  // realistic batch (call sites fan out over <= 64 slots) in a single wave.
  constexpr std::size_t kChunk = 64;
  Slot* pending[kChunk];
  std::uint64_t reqs[kChunk];

  for (std::size_t base = 0; base < hs.size(); base += kChunk) {
    const std::size_t end = std::min(hs.size(), base + kChunk);
    std::size_t n = 0;
    // Phase 1 — post the whole wave: bump every primary's req_seq and send
    // (or coalesce onto) its signal without waiting on anyone.
    for (std::size_t i = base; i < end; ++i) {
      Slot* slot = hs[i].slot_;
      if (slot == nullptr || !slot->live.load(std::memory_order_acquire)) {
        continue;
      }
      if (pthread_equal(slot->thread, pthread_self())) {
        full_fence();
        ++serialized;
        continue;
      }
      const std::uint64_t my_req = post_request(*slot);
      if (my_req == 0) continue;
      pending[n] = slot;
      reqs[n] = my_req;
      ++n;
    }
    // Phase 2 — collect the acks. The round trips overlap: total latency is
    // the slowest primary's, not the sum over the wave.
    for (std::size_t i = 0; i < n; ++i) {
      await_ack(*pending[i], reqs[i]);
      ++serialized;
    }
  }
  return serialized;
}

}  // namespace lbmf
