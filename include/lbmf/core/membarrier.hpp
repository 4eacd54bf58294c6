#pragma once

#include <cstdint>

namespace lbmf {

/// Linux membarrier(2)-based remote serialization — the mechanism that
/// mainline kernels grew in the years after this paper, implementing exactly
/// the asymmetric-fence idea: the fast side pays a compiler fence only; the
/// slow side issues one syscall that IPIs every core running this process,
/// forcing each to serialize.
///
/// Compared to the paper's per-thread signal prototype this is a broadcast
/// (it serializes *all* threads, not just the one guarding the location), so
/// it is a semantic superset of SerializerRegistry::serialize and needs no
/// per-primary registration or handshake.
namespace membarrier {

/// True if MEMBARRIER_CMD_PRIVATE_EXPEDITED is supported and registration
/// succeeded. Must be called (at least once) before barrier(); idempotent.
bool available() noexcept;

/// Issue the expedited private membarrier: returns after every thread of
/// this process has executed a full memory barrier. Falls back to a local
/// full fence (which is NOT a remote serialization) if unsupported — callers
/// must gate on available().
void barrier() noexcept;

/// EXPEDITED broadcasts barrier() has issued in this process; degraded
/// local-fence calls are not counted.
std::uint64_t broadcasts() noexcept;

/// Decayed (EWMA, α = 1/8) estimate of one broadcast's wall-clock cost in
/// TSC cycles, timed around every barrier() syscall — the membarrier
/// counterpart of SerializerRegistry::measured_roundtrip_cycles(). 0.0
/// until the first broadcast.
double measured_roundtrip_cycles() noexcept;

}  // namespace membarrier
}  // namespace lbmf
