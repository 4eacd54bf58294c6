#pragma once

/// The native half of lbmf::xval: run an assembled litmus as a pthread
/// stress test on the host's real x86-TSO memory system.
///
/// Every simulated instruction maps onto a real one over real shared
/// memory (distinct cache lines per simulated location):
///
///   store/load        relaxed std::atomic accesses — plain MOVs on x86,
///                     which is exactly TSO: the hardware store buffer
///                     provides the reordering the simulator models
///   mfence            std::atomic_thread_fence(seq_cst) — a real MFENCE
///   lock/unlock       locked XCHG loop / sequentially-consistent store —
///                     the implicit-full-fence semantics of the simulated
///                     locked RMW
///   le                a plain load: silicon without the paper's LE/ST
///                     extension has no link register to arm
///   setlink           no-op, and the link-set branch is never taken, so
///                     the Fig. 3(b) l-mfence expansion falls through to
///                     its MFENCE arm: every l-mfence runs as load;
///                     store; mfence. This is not an execution of the
///                     LE/ST model, where a remote access to the guarded
///                     line drains the store buffer between the LE and
///                     the guarded store; the simulator's oracle therefore
///                     explores this same lowering (harness.hpp).
///
/// Each iteration releases all roles from a sense-reversing barrier with
/// a small per-role random skew (maximising the overlap window in which
/// TSO reorderings are observable), runs every role to halt, and captures
/// the terminal observation (observation.hpp) after a full-fence join.
/// Role 0's thread doubles as the per-iteration reset/collect thread so a
/// 2-role litmus saturates a 2-core host instead of idling behind a
/// coordinator thread.

#include <cstdint>
#include <map>
#include <string>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/xval/observation.hpp"

namespace lbmf::xval {

struct NativeOptions {
  /// Stress iterations (each is one fresh run of the whole litmus).
  std::uint64_t iterations = 100'000;
  /// Per-role executed-instruction budget per iteration. A role exceeding
  /// it is *wedged* (a blocked `lock` whose owner never unlocks, or a
  /// runaway loop); the iteration is counted in wedged_iterations and its
  /// outcome discarded rather than risking a spurious soundness verdict
  /// from a timeout heuristic.
  std::uint64_t step_budget = 100'000;
  /// Seed for the per-role skew RNG (deterministic given seed + role).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Pin role i to CPU i mod online_cpus(). Keeps roles on distinct cores
  /// (where the distinct store buffers live) when the host has them.
  bool pin_threads = true;
  /// Upper bound on the random pre-iteration skew, in PAUSE spins.
  std::uint32_t max_skew = 64;
};

struct NativeResult {
  /// Terminal observation -> number of iterations that produced it.
  std::map<std::string, std::uint64_t> observed;
  std::uint64_t iterations = 0;
  std::uint64_t wedged_iterations = 0;
};

/// Whether this host can run a meaningful native leg: an x86-64 build
/// (the simulator models x86-TSO; weaker hosts would observe outcomes the
/// model rightly forbids) with at least 2 online CPUs (a single core
/// cannot overlap two store buffers, so every interesting reordering is
/// unobservable and the run would be vacuous). On refusal, `reason` (if
/// non-null) explains — callers are expected to skip *loudly*.
bool native_host_supported(std::size_t roles, std::string* reason = nullptr);

/// Run the litmus natively. Aborts (LBMF_CHECK) on a program that cannot
/// be realized natively (checked by compile_native below) — call
/// native_host_supported() first; this function does not re-probe the
/// host, so tests can exercise it on any machine.
NativeResult run_native(const sim::AssembleResult& lit,
                        const ObservationSchema& schema,
                        const NativeOptions& opts = {});

}  // namespace lbmf::xval
