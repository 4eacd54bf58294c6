// Audit of Machine::fingerprint()'s per-CPU block-hash cache. fingerprint()
// hashes each CPU's state from its fields and caches the result until that
// CPU can change, so a missed invalidation would silently merge distinct
// states in the explorer. These walks pin every invalidation point: after
// each random step the cached fingerprint must equal the one recomputed
// from the fields (a copy with every CPU's cache cleared), and across all
// visited states equal fingerprints must coincide exactly with equal
// canonical_state().
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lbmf/sim/assembler.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/sim/machine.hpp"
#include "lbmf/util/rng.hpp"

namespace lbmf::sim {
namespace {

struct Family {
  std::string name;
  Machine machine;
};

// Small caches and store buffers force evictions and structural stalls;
// two-word lines add false sharing; the protocols cover E and O.
std::vector<SimConfig> audit_configs() {
  SimConfig tight;
  tight.sb_capacity = 2;
  tight.cache_capacity = 2;
  SimConfig wide;
  wide.protocol = Protocol::kMoesi;
  wide.sb_capacity = 3;
  wide.cache_capacity = 3;
  wide.line_words = 2;
  SimConfig msi;
  msi.protocol = Protocol::kMsi;
  return {tight, wide, msi};
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Every committed litmus file (holes assemble as plain stores, i.e. the
// all-`none` instantiation) plus the Dekker and store-buffer builders.
std::vector<Family> families(const SimConfig& cfg) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(LBMF_LITMUS_DIR)) {
    if (e.path().extension() == ".lit") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<Family> v;
  for (const auto& f : files) {
    v.push_back({f.filename().string(), assemble_machine(slurp(f), cfg)});
  }
  const FenceKind kinds[] = {FenceKind::kNone, FenceKind::kMfence,
                             FenceKind::kLmfence};
  for (FenceKind a : kinds) {
    for (FenceKind b : kinds) {
      SimConfig two = cfg;
      two.num_cpus = 2;
      v.push_back({"dekker", make_dekker_machine(a, b, two)});
      v.push_back({"store_buffer", make_store_buffer_litmus(a, b, two)});
    }
  }
  return v;
}

// A uniformly random enabled Execute/Drain step, or an interrupt (which
// flushes the store buffer) one time in sixteen. False once nothing but
// interrupts is left.
bool random_step(Machine& m, Xoshiro256& rng) {
  Choice enabled[128];
  std::size_t n = 0;
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    for (Action a : {Action::Execute, Action::Drain}) {
      if (m.action_enabled(cpu, a)) {
        enabled[n++] = Choice{static_cast<std::uint8_t>(cpu), a};
      }
    }
  }
  if (n == 0) return false;
  if (rng.next_below(16) == 0) {
    m.step(rng.next_below(m.num_cpus()), Action::Interrupt);
  } else {
    const Choice c = enabled[rng.next_below(n)];
    m.step(c.cpu, c.action);
  }
  return true;
}

// The fingerprint recomputed from the fields: a copy of `m` with every
// CPU's cached block hash dropped.
Fingerprint recomputed_fingerprint(Machine m) {
  for (std::size_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
    m.cpu(cpu).hash_valid = false;
  }
  return m.fingerprint();
}

struct FpLess {
  bool operator()(const Fingerprint& a, const Fingerprint& b) const {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

TEST(FingerprintCache, CachedEqualsFreshAndMatchesCanonicalEquality) {
  constexpr int kWalks = 12;
  constexpr int kSteps = 150;
  std::size_t symmetric_families = 0;
  for (const SimConfig& cfg : audit_configs()) {
    for (Family& fam : families(cfg)) {
      for (const bool symmetry : {false, true}) {
        Machine proto = fam.machine;
        if (symmetry) {
          proto.auto_symmetry();
          symmetric_families += proto.symmetric_groups().empty() ? 0 : 1;
        } else {
          proto.clear_symmetric_groups();
        }
        const std::string where = fam.name + " protocol " +
                                  to_string(cfg.protocol) + " symmetry " +
                                  (symmetry ? "on" : "off");
        proto.fingerprint();  // every walk starts from a warm cache

        std::unordered_map<std::string, Fingerprint> fp_of;
        std::map<Fingerprint, std::string, FpLess> canonical_of;
        std::size_t states = 0;
        for (int walk = 0; walk < kWalks; ++walk) {
          Xoshiro256 rng(1000 + static_cast<std::uint64_t>(walk));
          Machine m = proto;
          for (int step = 0; step < kSteps && random_step(m, rng); ++step) {
            const Fingerprint cached = m.fingerprint();
            ASSERT_TRUE(cached == recomputed_fingerprint(m))
                << where << ": stale cached fingerprint after step " << step
                << " of walk " << walk;

            const std::string canonical = m.canonical_state();
            ++states;
            const auto [fit, fnew] = fp_of.emplace(canonical, cached);
            ASSERT_TRUE(fit->second == cached)
                << where << ": equal canonical states, different fingerprints";
            const auto [cit, cnew] = canonical_of.emplace(cached, canonical);
            ASSERT_EQ(cit->second, canonical)
                << where << ": equal fingerprints, different canonical states";
          }
        }
        // Walks from one root revisit states, so both directions of the
        // equivalence were exercised on equal and on distinct pairs.
        EXPECT_GT(fp_of.size(), 1u) << where;
        EXPECT_LT(fp_of.size(), states) << where;
      }
    }
  }
  EXPECT_GT(symmetric_families, 0u);
}

TEST(FingerprintCache, LoadProgramInvalidates) {
  // The one mutator outside step() must drop the affected CPU's cached
  // block hash: a program that writes more registers lengthens the block
  // (only written registers are hashed).
  Machine m = make_store_buffer_litmus(FenceKind::kNone, FenceKind::kNone);
  m.step(1, Action::Execute);
  const Fingerprint before = m.fingerprint();
  ProgramBuilder b("writes r3, r4");
  m.load_program(0, b.mov(3, 0).mov(4, 0).halt().build());
  EXPECT_FALSE(m.fingerprint() == before);
  EXPECT_TRUE(m.fingerprint() == recomputed_fingerprint(m));
}

}  // namespace
}  // namespace lbmf::sim
