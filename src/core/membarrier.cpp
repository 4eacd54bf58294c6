#include "lbmf/core/membarrier.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include "lbmf/core/fence.hpp"
#include "lbmf/util/timing.hpp"

namespace lbmf::membarrier {
namespace {

// Values from <linux/membarrier.h>; defined locally so the build does not
// depend on kernel headers newer than the libc shipped with the toolchain.
constexpr int kCmdQuery = 0;
constexpr int kCmdPrivateExpedited = 1 << 3;
constexpr int kCmdRegisterPrivateExpedited = 1 << 4;

long sys_membarrier(int cmd) noexcept {
#ifdef SYS_membarrier
  return ::syscall(SYS_membarrier, cmd, 0, 0);
#else
  (void)cmd;
  return -1;
#endif
}

std::atomic<std::uint64_t> g_broadcasts{0};
std::atomic<std::uint64_t> g_rtt_ewma_cycles{0};

// Same racy-on-purpose fixed-point EWMA as SerializerRegistry's
// record_roundtrip: a dropped sample under contention only slows the
// convergence of an advisory estimate. The count's locked RMW follows a
// syscall that already fully fenced the caller, so counting adds no fence.
void record_broadcast(std::uint64_t cycles) noexcept {
  const std::uint64_t old = g_rtt_ewma_cycles.load(std::memory_order_relaxed);
  g_rtt_ewma_cycles.store(old == 0 ? cycles : old - old / 8 + cycles / 8,
                          std::memory_order_relaxed);
  g_broadcasts.fetch_add(1, std::memory_order_relaxed);
}

bool probe_and_register() noexcept {
  const long mask = sys_membarrier(kCmdQuery);
  if (mask < 0) return false;
  if ((mask & kCmdPrivateExpedited) == 0) return false;
  return sys_membarrier(kCmdRegisterPrivateExpedited) == 0;
}

}  // namespace

bool available() noexcept {
  static const bool ok = probe_and_register();
  return ok;
}

void barrier() noexcept {
  if (available()) {
    const std::uint64_t t0 = rdtsc();
    if (sys_membarrier(kCmdPrivateExpedited) == 0) {
      record_broadcast(rdtsc() - t0);
      return;
    }
  }
  // Degraded mode: at least order this thread. Callers gate on available().
  full_fence();
}

std::uint64_t broadcasts() noexcept {
  return g_broadcasts.load(std::memory_order_relaxed);
}

double measured_roundtrip_cycles() noexcept {
  return broadcasts() > 0
             ? static_cast<double>(
                   g_rtt_ewma_cycles.load(std::memory_order_relaxed))
             : 0.0;
}

}  // namespace lbmf::membarrier
