// Unit and integration tests for lbmf::adapt — the decayed-window
// estimator, the PolicyTable frontier lookup, the selector's hysteresis
// and its tick() loop, the realize() capability clamp, and the
// AdaptiveFence policy's quiescent-point switching (including a threaded
// Dekker mutual-exclusion check while a controller flips the regime under
// load).

#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "lbmf/adapt/adapt.hpp"
#include "lbmf/core/membarrier.hpp"
#include "lbmf/ws/scheduler.hpp"

namespace lbmf::adapt {
namespace {

// --------------------------------------------------------- DecayedWindow

TEST(DecayedWindow, EstimateIsBiasCorrectedEwma) {
  DecayedWindow w(0.5);
  EXPECT_DOUBLE_EQ(w.estimate(), 0.0);
  w.add(10.0);
  // Bias correction: a single sample IS the estimate, not alpha * sample.
  EXPECT_DOUBLE_EQ(w.estimate(), 10.0);
  w.add(20.0);
  // (0.5*20 + 0.25*10) / (0.5 + 0.25)
  EXPECT_NEAR(w.estimate(), 50.0 / 3.0, 1e-12);
  EXPECT_EQ(w.samples(), 2u);
}

TEST(DecayedWindow, ConstantStreamConvergesToTheConstant) {
  DecayedWindow w(0.2);
  for (int i = 0; i < 100; ++i) w.add(42.0);
  EXPECT_NEAR(w.estimate(), 42.0, 1e-9);
}

TEST(DecayedWindow, SingleBurstMovesTheEstimateByAtMostAlpha) {
  DecayedWindow w(0.1);
  for (int i = 0; i < 200; ++i) w.add(100.0);
  w.add(10'000.0);
  // One outlier window shifts the (near-converged) estimate by ~alpha of
  // the gap, not to the outlier.
  EXPECT_LT(w.estimate(), 100.0 + 0.11 * (10'000.0 - 100.0));
  EXPECT_GT(w.estimate(), 100.0);
}

TEST(DecayedWindow, ResetForgetsEverything) {
  DecayedWindow w(0.3);
  w.add(5.0);
  w.reset();
  EXPECT_DOUBLE_EQ(w.estimate(), 0.0);
  EXPECT_EQ(w.samples(), 0u);
  w.add(7.0);
  EXPECT_DOUBLE_EQ(w.estimate(), 7.0);
}

// ------------------------------------------------------- WorkloadMonitor

TEST(WorkloadMonitor, DifferencesCumulativeCounters) {
  MonitorConfig cfg;
  cfg.rate_alpha = 1.0;  // estimate == newest window, for crisp assertions
  WorkloadMonitor m(cfg);
  m.sample(1'000, 10);
  EXPECT_DOUBLE_EQ(m.pops_per_window(), 1'000.0);
  EXPECT_DOUBLE_EQ(m.steals_per_window(), 10.0);
  m.sample(1'500, 10);
  EXPECT_DOUBLE_EQ(m.pops_per_window(), 500.0);
  EXPECT_DOUBLE_EQ(m.steals_per_window(), 0.0);
  EXPECT_EQ(m.windows(), 2u);
}

TEST(WorkloadMonitor, FreqRatioTracksThePopStealMix) {
  MonitorConfig cfg;
  cfg.rate_alpha = 1.0;
  WorkloadMonitor pop_heavy(cfg);
  pop_heavy.sample(10'000, 10);
  EXPECT_NEAR(pop_heavy.freq_ratio(), 1'000.0, 1.0);

  WorkloadMonitor steal_heavy(cfg);
  steal_heavy.sample(10, 10'000);
  EXPECT_NEAR(steal_heavy.freq_ratio(), 0.001, 0.001);

  // An idle deque (no events at all) sits at the neutral ratio 1.
  WorkloadMonitor idle(cfg);
  idle.sample(0, 0);
  EXPECT_DOUBLE_EQ(idle.freq_ratio(), 1.0);
}

TEST(WorkloadMonitor, CounterResetRebaselinesInsteadOfGoingNegative) {
  MonitorConfig cfg;
  cfg.rate_alpha = 1.0;
  WorkloadMonitor m(cfg);
  m.sample(5'000, 100);
  // reset_stats() ran concurrently: totals went backwards. The regressed
  // window is unmeasurable, so it must read as *empty* — treating the new
  // total as a delta would report a phantom burst that never happened —
  // and the next window must difference from the new baseline.
  m.sample(200, 4);
  EXPECT_DOUBLE_EQ(m.pops_per_window(), 0.0);
  EXPECT_DOUBLE_EQ(m.steals_per_window(), 0.0);
  m.sample(350, 10);
  EXPECT_DOUBLE_EQ(m.pops_per_window(), 150.0);
  EXPECT_DOUBLE_EQ(m.steals_per_window(), 6.0);
}

TEST(WorkloadMonitor, ResetUnderSamplingDoesNotSpikeTheEwma) {
  MonitorConfig cfg;
  cfg.rate_alpha = 0.5;  // real EWMA: a phantom delta would linger
  WorkloadMonitor m(cfg);
  m.sample(1'000, 10);
  m.sample(2'000, 20);
  const double settled = m.pops_per_window();
  EXPECT_NEAR(settled, 1'000.0, 1e-9);
  // reset_stats() lands between samples and the counters restart low. The
  // regressed window contributes 0, so the estimate decays *toward* zero;
  // the old behavior fed the post-reset total in as a delta, spiking the
  // EWMA with events that were already counted before the reset.
  m.sample(600, 5);
  EXPECT_LT(m.pops_per_window(), settled);
  EXPECT_GE(m.pops_per_window(), 0.0);
  // The stream recovers: the next window differences cleanly from the
  // post-reset baseline and pulls the estimate back up.
  const double dipped = m.pops_per_window();
  m.sample(1'600, 15);
  EXPECT_GT(m.pops_per_window(), dipped);
}

// ----------------------------------------------------------- PolicyTable

TEST(PolicyTable, BuiltinFrontierMatchesTheShippedSweep) {
  const PolicyTable t = PolicyTable::builtin_default();
  // Grid cells straight from BENCH_sweep.json (E17): near-free trips put
  // even a 1:1 workload on double-l-mfence; at the paper's 150-cycle
  // constant a 1:1 workload is symmetric and a 10:1 one asymmetric.
  EXPECT_EQ(t.lookup(1, 10), PolicyMode::kDoubleLmfence);
  EXPECT_EQ(t.lookup(1, 150), PolicyMode::kSymmetric);
  EXPECT_EQ(t.lookup(10, 150), PolicyMode::kAsymmetric);
  EXPECT_EQ(t.lookup(1, 50), PolicyMode::kAsymmetric);
  // Signal-prototype territory (~10^4-cycle trips): only clearly pop-heavy
  // workloads justify dropping the victim's fence.
  EXPECT_EQ(t.lookup(100, 15'000), PolicyMode::kSymmetric);
  EXPECT_EQ(t.lookup(1'000, 15'000), PolicyMode::kAsymmetric);
}

TEST(PolicyTable, LookupSnapsLog10NearestAndClamps) {
  const PolicyTable t = PolicyTable::builtin_default();
  // log10(5)=0.7 is nearer to 10 than to 1; log10(3)=0.48 nearer to 1.
  EXPECT_EQ(t.lookup(5, 150), t.lookup(10, 150));
  EXPECT_EQ(t.lookup(3, 150), t.lookup(1, 150));
  // Outside the grid: clamp to the nearest edge on both axes.
  EXPECT_EQ(t.lookup(1e9, 150), t.lookup(100'000, 150));
  EXPECT_EQ(t.lookup(1'000, 1e7), t.lookup(1'000, 15'000));
  EXPECT_EQ(t.lookup(0.0, 150), t.lookup(1, 150));   // non-positive input
  EXPECT_EQ(t.lookup(1'000, -5.0), t.lookup(1'000, 10));
}

TEST(PolicyTable, JsonRoundTripsTheCompactForm) {
  const PolicyTable t = PolicyTable::builtin_default();
  const std::string j = t.to_json();
  const std::optional<PolicyTable> back = PolicyTable::from_json(j);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(PolicyTable, JsonIsByteStableWithPlanes) {
  using enum PolicyMode;
  PolicyTable t({0.5, 1, 1000}, {150, 1500},
                {kSymmetric, kAsymmetric, kDoubleLmfence, kSymmetric,
                 kSymmetric, kAsymmetric});
  t.add_plane({"signal", {kSymmetric, kAsymmetric, kAsymmetric, kSymmetric,
                          kSymmetric, kAsymmetric}});
  t.add_plane({"membarrier-pair", {kDoubleLmfence, kAsymmetric,
                                   kDoubleLmfence, kSymmetric, kSymmetric,
                                   kAsymmetric}});
  EXPECT_EQ(
      t.to_json(),
      R"({"policy_table":1,"ratios":[0.5,1,1000],"roundtrips":[150,1500],)"
      R"("modes":["symmetric","asymmetric","double-lmfence","symmetric",)"
      R"("symmetric","asymmetric"],"backends":["signal","membarrier-pair"],)"
      R"("plane:signal":["symmetric","asymmetric","asymmetric","symmetric",)"
      R"("symmetric","asymmetric"],)"
      R"("plane:membarrier-pair":["double-lmfence","asymmetric",)"
      R"("double-lmfence","symmetric","symmetric","asymmetric"]})");
}

TEST(PolicyTable, FromJsonRejectsASweepReport) {
  // A well-formed BENCH_sweep.json-shaped report, backend planes included:
  // tables have one format, the compact one fence_inferencer --policy-json
  // writes (infer::policy_table collapses a sweep to it).
  const std::string sweep =
      "{\"bench\":\"sweep\",\"workload\":\"cli\","
      "\"victim_freqs\":[1,1000],\"roundtrips\":[150],\"points\":["
      "{\"freq\":1,\"roundtrip\":150,\"status\":\"sat\","
      "\"optimum\":\"{mfence, none, mfence, none}\",\"cost\":200,"
      "\"recheck_safe\":true},"
      "{\"freq\":1000,\"roundtrip\":150,\"status\":\"sat\","
      "\"optimum\":\"{l-mfence, none, mfence, none}\",\"cost\":3260,"
      "\"recheck_safe\":true}],\"crossovers\":[],"
      "\"explorer_runs\":2,\"cache_hits\":0,\"states_total\":100,"
      "\"backend_planes\":["
      "{\"backend\":\"membarrier-pair\",\"inverts_roles\":true,"
      "\"points\":["
      "{\"freq\":1,\"roundtrip\":150,\"status\":\"sat\","
      "\"optimum\":\"{l-mfence, none, l-mfence, none}\",\"cost\":120,"
      "\"recheck_safe\":true},"
      "{\"freq\":1000,\"roundtrip\":150,\"status\":\"sat\","
      "\"optimum\":\"{l-mfence, none, mfence, none}\",\"cost\":3260,"
      "\"recheck_safe\":true}]}]}";
  EXPECT_FALSE(PolicyTable::from_json(sweep).has_value());
}

TEST(PolicyTable, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(PolicyTable::from_json("").has_value());
  EXPECT_FALSE(PolicyTable::from_json("{\"ratios\":[1,10]}").has_value());
  // Mode list shorter than the grid.
  EXPECT_FALSE(PolicyTable::from_json(
                   "{\"ratios\":[1,10],\"roundtrips\":[150],"
                   "\"modes\":[\"symmetric\"]}")
                   .has_value());
  // Unknown mode spelling.
  EXPECT_FALSE(PolicyTable::from_json(
                   "{\"ratios\":[1],\"roundtrips\":[150],"
                   "\"modes\":[\"sorta-fenced\"]}")
                   .has_value());
  // Axes that do not strictly ascend: descending, repeated, NaN.
  const char* modes2 = "\"modes\":[\"symmetric\",\"symmetric\"]}";
  EXPECT_FALSE(PolicyTable::from_json(
                   std::string("{\"ratios\":[10,1],\"roundtrips\":[150],") +
                   modes2)
                   .has_value());
  EXPECT_FALSE(PolicyTable::from_json(
                   std::string("{\"ratios\":[1],\"roundtrips\":[150,150],") +
                   modes2)
                   .has_value());
  EXPECT_FALSE(PolicyTable::from_json(
                   std::string("{\"ratios\":[1,nan],\"roundtrips\":[150],") +
                   modes2)
                   .has_value());
  // Nor is a sweep report (see FromJsonRejectsASweepReport), whatever its
  // axes.
  EXPECT_FALSE(PolicyTable::from_json(
                   "{\"bench\":\"sweep\",\"victim_freqs\":[10,1],"
                   "\"roundtrips\":[150],\"points\":["
                   "{\"freq\":10,\"roundtrip\":150,"
                   "\"optimum\":\"{mfence, none, mfence, none}\"},"
                   "{\"freq\":1,\"roundtrip\":150,"
                   "\"optimum\":\"{mfence, none, mfence, none}\"}]}")
                   .has_value());
}

TEST(PolicyTable, BuiltinPlanesEncodeBackendCapabilities) {
  const PolicyTable t = PolicyTable::builtin_default();
  ASSERT_EQ(t.planes().size(), 2u);
  // The signal backend cannot invert roles: its plane replaces the
  // double-l-mfence corner with the asymmetric mix and must never propose
  // double anywhere (an unrealizable proposal would only bump the
  // degraded counter at every quiescent point).
  EXPECT_EQ(t.lookup(1, 10, "signal"), PolicyMode::kAsymmetric);
  for (const BackendPlane& p : t.planes()) {
    if (p.backend != "signal") continue;
    for (PolicyMode m : p.modes) EXPECT_NE(m, PolicyMode::kDoubleLmfence);
  }
  // The role-inverting backend keeps the corner and extends
  // double-l-mfence through the LE/ST-scale rows of the symmetric-traffic
  // column.
  EXPECT_EQ(t.lookup(1, 10, "membarrier-pair"), PolicyMode::kDoubleLmfence);
  EXPECT_EQ(t.lookup(1, 150, "membarrier-pair"), PolicyMode::kDoubleLmfence);
  // Past the LE/ST range, and off the symmetric column, the base verdicts
  // stand unchanged.
  EXPECT_EQ(t.lookup(1, 15'000, "membarrier-pair"), t.lookup(1, 15'000));
  EXPECT_EQ(t.lookup(1'000, 150, "membarrier-pair"), t.lookup(1'000, 150));
}

TEST(PolicyTable, LookupFallsBackToBaseGridWithoutAMatchingPlane) {
  const PolicyTable t = PolicyTable::builtin_default();
  EXPECT_EQ(t.lookup(1, 10, ""), t.lookup(1, 10));
  EXPECT_EQ(t.lookup(1, 10, "carrier-pigeon"), t.lookup(1, 10));
  // A planeless table ignores the backend argument entirely.
  const PolicyTable bare({1}, {150}, {PolicyMode::kAsymmetric});
  EXPECT_EQ(bare.lookup(1, 150, "signal"), PolicyMode::kAsymmetric);
}

TEST(PolicyTable, AddPlaneReplacesByNameAndRoundTripsJson) {
  PolicyTable t({1, 1'000}, {150},
                {PolicyMode::kSymmetric, PolicyMode::kAsymmetric});
  t.add_plane({"membarrier-pair",
               {PolicyMode::kDoubleLmfence, PolicyMode::kAsymmetric}});
  EXPECT_EQ(t.lookup(1, 150, "membarrier-pair"), PolicyMode::kDoubleLmfence);
  // Re-adding under the same name replaces in place, no duplicate plane.
  t.add_plane(
      {"membarrier-pair", {PolicyMode::kSymmetric, PolicyMode::kSymmetric}});
  ASSERT_EQ(t.planes().size(), 1u);
  EXPECT_EQ(t.lookup(1, 150, "membarrier-pair"), PolicyMode::kSymmetric);
  const std::optional<PolicyTable> back = PolicyTable::from_json(t.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

// -------------------------------------------------------- PolicySelector

SelectorConfig crisp_selector(int confirm) {
  SelectorConfig cfg;
  cfg.monitor.rate_alpha = 1.0;  // estimate == newest window
  cfg.confirm_windows = confirm;
  cfg.fixed_roundtrip_cycles = 10'000.0;
  return cfg;
}

TEST(PolicySelector, AdoptsAfterConfirmWindowsConsistentProposals) {
  PolicySelector sel(crisp_selector(3));
  EXPECT_EQ(sel.current(), PolicyMode::kSymmetric);
  // Pop-heavy windows (ratio ~2000 at a 10^4-cycle trip -> asymmetric):
  // the proposal must survive 3 consecutive windows before adoption.
  std::uint64_t pops = 0;
  EXPECT_EQ(sel.update(pops += 2'000, 1), PolicyMode::kSymmetric);
  EXPECT_EQ(sel.update(pops += 2'000, 1), PolicyMode::kSymmetric);
  EXPECT_EQ(sel.update(pops += 2'000, 1), PolicyMode::kAsymmetric);
  EXPECT_EQ(sel.switches(), 1u);
  EXPECT_EQ(sel.windows(), 3u);
}

TEST(PolicySelector, BoundaryStraddlingInputNeverOscillates) {
  PolicySelector sel(crisp_selector(3));
  // Alternate pop-heavy and steal-heavy windows: the proposal flips every
  // window, so no streak ever reaches 3 and the mode never moves.
  std::uint64_t pops = 0, steals = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      pops += 2'000;
      steals += 1;
    } else {
      pops += 1;
      steals += 2'000;
    }
    sel.update(pops, steals);
  }
  EXPECT_EQ(sel.current(), PolicyMode::kSymmetric);
  EXPECT_EQ(sel.switches(), 0u);
}

TEST(PolicySelector, SwitchesBackWhenTheWorkloadFlips) {
  PolicySelector sel(crisp_selector(2));
  std::uint64_t pops = 0, steals = 0;
  for (int i = 0; i < 5; ++i) sel.update(pops += 2'000, steals += 1);
  EXPECT_EQ(sel.current(), PolicyMode::kAsymmetric);
  for (int i = 0; i < 5; ++i) sel.update(pops += 1, steals += 2'000);
  EXPECT_EQ(sel.current(), PolicyMode::kSymmetric);
  EXPECT_EQ(sel.switches(), 2u);
}

TEST(PolicySelector, BackendPlaneConstrainsProposals) {
  // Same workload point (1:1 mix at a near-free round trip), two selectors:
  // on the role-inverting membarrier-pair plane the cell is
  // double-l-mfence; a selector bound to the signal plane proposes the
  // clamped asymmetric mix instead, so its bookings are always realizable.
  SelectorConfig cfg = crisp_selector(1);
  cfg.fixed_roundtrip_cycles = 10.0;
  cfg.backend = BackendId::kMembarrierPair;
  PolicySelector inverting_sel(cfg);
  std::uint64_t pops = 0, steals = 0;
  inverting_sel.update(pops += 100, steals += 100);
  EXPECT_EQ(inverting_sel.current(), PolicyMode::kDoubleLmfence);

  cfg.backend = BackendId::kSignal;
  PolicySelector sig_sel(cfg);
  pops = steals = 0;
  sig_sel.update(pops += 100, steals += 100);
  EXPECT_EQ(sig_sel.current(), PolicyMode::kAsymmetric);
}

TEST(PolicySelector, PricesAtTheDrainRoundTripUnlessFixed) {
  // Without a fixed price a window is priced at the drain's own round-trip
  // average, or its documented default before the first measurement (at
  // a 100:1 mix the membarrier-pair plane answers differently for its
  // ~2.5k-cycle default than for a ~10k-cycle trip). Nothing here
  // serializes, so the price holds still across the test.
  for (const BackendId b : {BackendId::kSignal, BackendId::kMembarrierPair}) {
    SelectorConfig cfg = crisp_selector(1);
    cfg.fixed_roundtrip_cycles = 0.0;
    cfg.backend = b;
    for (const std::uint64_t pops : {1, 100, 2'000, 10'000, 200'000}) {
      PolicySelector sel(cfg);
      sel.update(pops, 100);
      EXPECT_EQ(sel.current(),
                cfg.table.lookup(sel.monitor().freq_ratio(),
                                 roundtrip_cycles(b), to_string(b)))
          << to_string(b) << ", " << pops << " pops";
    }
  }
}

// ------------------------------------------------- PolicySelector::tick
//
// tick() drives a live AdaptiveFence primary. None of these cases
// serializes, so no signal round trip is measured before
// AdaptiveFence.ModeSwitchLifecycle runs.

TEST(PolicySelectorTick, SamplesOnlyOnEverySampleEveryThCall) {
  SelectorConfig cfg = crisp_selector(1);
  cfg.sample_every = 4;
  PolicySelector sel(cfg);
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  std::uint64_t pops = 0;
  for (int call = 1; call <= 12; ++call) {
    EXPECT_EQ(sel.tick<AdaptiveFence>(h, pops += 2'000, 1), call % 4 == 0)
        << "call " << call;
    EXPECT_EQ(sel.windows(), static_cast<std::uint64_t>(call / 4));
  }
  AdaptiveFence::unregister_primary(h);
}

TEST(PolicySelectorTick, AdoptsOnTheCallThatCompletesTheConfirmStreak) {
  // Pop-heavy windows at a 10^4-cycle trip propose the asymmetric mix.
  // With a 3-window streak sampled every 2nd call, the 6th call confirms
  // it, and the fence realizes it at that same call's quiescent point.
  SelectorConfig cfg = crisp_selector(3);
  cfg.sample_every = 2;
  PolicySelector sel(cfg);
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  std::uint64_t pops = 0;
  for (int call = 1; call <= 6; ++call) {
    sel.tick<AdaptiveFence>(h, pops += 1'000, 1);
    EXPECT_EQ(AdaptiveFence::realized_mode(h),
              call < 6 ? PolicyMode::kSymmetric : PolicyMode::kAsymmetric)
        << "call " << call;
  }
  EXPECT_EQ(sel.switches(), 1u);
  EXPECT_EQ(AdaptiveFence::switch_count(h), 1u);
  AdaptiveFence::unregister_primary(h);
}

TEST(PolicySelectorTick, BindsTheConfiguredBackend) {
  SelectorConfig cfg = crisp_selector(1);
  cfg.sample_every = 1;
  cfg.backend = BackendId::kMembarrierPair;
  PolicySelector sel(cfg);
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(AdaptiveFence::current_backend(h), BackendId::kSignal);
  // An idle window keeps the symmetric regime, which needs no drain, so
  // the binding is adopted on every host.
  EXPECT_TRUE(sel.tick<AdaptiveFence>(h, 0, 0));
  EXPECT_EQ(AdaptiveFence::current_backend(h), BackendId::kMembarrierPair);
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kSymmetric);
  AdaptiveFence::unregister_primary(h);
}

TEST(PolicySelectorTick, ReadsTheBoundBackendsPlane) {
  // One cell, three verdicts: the base grid and each backend's plane
  // disagree, so the booked mode shows which one the selector read.
  PolicyTable table({1}, {150}, {PolicyMode::kSymmetric});
  table.add_plane({"signal", {PolicyMode::kAsymmetric}});
  table.add_plane({"membarrier-pair", {PolicyMode::kDoubleLmfence}});
  for (const BackendId b : {BackendId::kSignal, BackendId::kMembarrierPair}) {
    SelectorConfig cfg = crisp_selector(1);
    cfg.table = table;
    cfg.sample_every = 1;
    cfg.backend = b;
    PolicySelector sel(cfg);
    AdaptiveFence::Handle h = AdaptiveFence::register_primary();
    ASSERT_TRUE(h.valid());
    sel.tick<AdaptiveFence>(h, 100, 100);
    // Booked as proposed, before the host's capability clamp.
    EXPECT_EQ(AdaptiveFence::booked_mode(h),
              b == BackendId::kSignal ? PolicyMode::kAsymmetric
                                      : PolicyMode::kDoubleLmfence)
        << to_string(b);
    AdaptiveFence::unregister_primary(h);
  }
}

// --------------------------------------------------------------- realize

// Every input of the capability clamp, so each degradation — EXPEDITED
// membarrier unavailable, signal registry full (no valid slot) — is
// exercised on every host, not only on hosts that lack the feature.
TEST(Realize, ClampsEveryInput) {
  constexpr PolicyMode S = PolicyMode::kSymmetric;
  constexpr PolicyMode A = PolicyMode::kAsymmetric;
  constexpr PolicyMode D = PolicyMode::kDoubleLmfence;
  constexpr BackendId kSig = BackendId::kSignal;
  constexpr BackendId kMb = BackendId::kMembarrierPair;
  struct Case {
    PolicyMode requested;
    BackendId mechanism;
    bool membarrier_available;
    bool signal_slot_valid;
    PolicyMode realized;
  };
  constexpr Case kCases[] = {
      // Symmetric needs nothing remote: never clamped.
      {S, kSig, false, false, S}, {S, kSig, false, true, S},
      {S, kSig, true, false, S},  {S, kSig, true, true, S},
      {S, kMb, false, false, S},  {S, kMb, false, true, S},
      {S, kMb, true, false, S},   {S, kMb, true, true, S},
      // Asymmetric needs the bound mechanism's drain: a valid signal slot,
      // or EXPEDITED membarrier.
      {A, kSig, false, false, S}, {A, kSig, false, true, A},
      {A, kSig, true, false, S},  {A, kSig, true, true, A},
      {A, kMb, false, false, S},  {A, kMb, false, true, S},
      {A, kMb, true, false, A},   {A, kMb, true, true, A},
      // Double needs role inversion, which only an EXPEDITED broadcast
      // gives; the signal drain falls back to the asymmetric mix.
      {D, kSig, false, false, S}, {D, kSig, false, true, A},
      {D, kSig, true, false, S},  {D, kSig, true, true, A},
      {D, kMb, false, false, S},  {D, kMb, false, true, S},
      {D, kMb, true, false, D},   {D, kMb, true, true, D},
  };
  static_assert(std::size(kCases) == 3 * 2 * 2 * 2);
  for (const Case& c : kCases) {
    EXPECT_EQ(realize(c.requested, c.mechanism, c.membarrier_available,
                      c.signal_slot_valid),
              c.realized)
        << to_string(c.requested) << " on " << to_string(c.mechanism)
        << ", membarrier " << c.membarrier_available << ", signal slot "
        << c.signal_slot_valid;
  }
}

// --------------------------------------------------------- AdaptiveFence
//
// NOTE ordering: ModeSwitchLifecycle must observe a measured round trip of
// exactly 0 before any asymmetric serialize() in this binary, so the
// AdaptiveFence tests that trigger signal round trips come after it.

TEST(AdaptiveFence, ModeSwitchLifecycle) {
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kSymmetric);
  EXPECT_EQ(AdaptiveFence::switch_count(h), 0u);

  // Symmetric mode: serialize() from a peer is a no-op success — the
  // primary fences for itself, so no signal (and no measured round trip)
  // may result.
  std::thread peer([h] { EXPECT_TRUE(AdaptiveFence::serialize(h)); });
  peer.join();
  EXPECT_DOUBLE_EQ(SerializerRegistry::measured_roundtrip_cycles(), 0.0);

  // A request is adopted only at a quiescent point.
  EXPECT_TRUE(AdaptiveFence::request_mode(h, PolicyMode::kAsymmetric));
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kSymmetric);
  EXPECT_EQ(AdaptiveFence::requested_mode(h), PolicyMode::kAsymmetric);
  EXPECT_TRUE(AdaptiveFence::quiescent_point(h));
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kAsymmetric);
  EXPECT_EQ(AdaptiveFence::switch_count(h), 1u);
  // Idempotent once adopted.
  EXPECT_FALSE(AdaptiveFence::quiescent_point(h));
  EXPECT_EQ(AdaptiveFence::switch_count(h), 1u);

  AdaptiveFence::unregister_primary(h);
  EXPECT_FALSE(h.valid());
}

TEST(AdaptiveFence, AsymmetricModeSerializesRemotely) {
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  AdaptiveFence::request_mode(h, PolicyMode::kAsymmetric);
  ASSERT_TRUE(AdaptiveFence::quiescent_point(h));

  std::thread peer([h] { EXPECT_TRUE(AdaptiveFence::serialize(h)); });
  peer.join();
  // The signal round trip was real: the registry measured it.
  EXPECT_GT(SerializerRegistry::measured_roundtrip_cycles(), 0.0);

  AdaptiveFence::unregister_primary(h);
}

TEST(AdaptiveFence, SerializeManyPartitionsByMode) {
  // Two primaries on helper threads, one symmetric and one asymmetric; a
  // wave over both (plus an invalid handle) must serialize both live ones.
  struct Primary {
    AdaptiveFence::Handle h;
    std::atomic<bool> ready{false};
    std::atomic<bool> done{false};
    std::thread t;
  };
  Primary sym, asym;
  auto body = [](Primary* p, PolicyMode m) {
    p->h = AdaptiveFence::register_primary();
    ASSERT_TRUE(p->h.valid());
    AdaptiveFence::request_mode(p->h, m);
    AdaptiveFence::quiescent_point(p->h);
    p->ready.store(true, std::memory_order_release);
    while (!p->done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    AdaptiveFence::unregister_primary(p->h);
  };
  sym.t = std::thread(body, &sym, PolicyMode::kSymmetric);
  asym.t = std::thread(body, &asym, PolicyMode::kAsymmetric);
  while (!sym.ready.load(std::memory_order_acquire) ||
         !asym.ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  const AdaptiveFence::Handle hs[] = {sym.h, asym.h, AdaptiveFence::Handle{}};
  EXPECT_EQ(AdaptiveFence::serialize_many(hs), 2u);

  sym.done.store(true, std::memory_order_release);
  asym.done.store(true, std::memory_order_release);
  sym.t.join();
  asym.t.join();
}

TEST(AdaptiveFence, SatisfiesBothConcepts) {
  static_assert(FencePolicy<AdaptiveFence>);
  static_assert(AdaptiveFencePolicy<AdaptiveFence>);
  static_assert(!AdaptiveFencePolicy<AsymmetricSignalFence>);
  EXPECT_STREQ(AdaptiveFence::name(), "adaptive");
}

TEST(AdaptiveFence, DoubleBookingDegradesLoudlyOnSignal) {
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(AdaptiveFence::current_backend(h), BackendId::kSignal);
  // The signal backend cannot invert roles: booking double-l-mfence must
  // clamp to the asymmetric mix at the quiescent point — and say so via
  // the degraded counter, not silently.
  EXPECT_TRUE(AdaptiveFence::request_mode(h, PolicyMode::kDoubleLmfence));
  EXPECT_TRUE(AdaptiveFence::quiescent_point(h));
  EXPECT_EQ(AdaptiveFence::booked_mode(h), PolicyMode::kDoubleLmfence);
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kAsymmetric);
  EXPECT_EQ(AdaptiveFence::switch_count(h), 1u);         // realized: S -> A
  EXPECT_EQ(AdaptiveFence::booked_switch_count(h), 1u);  // booked:   S -> D
  EXPECT_GE(AdaptiveFence::degraded_count(h), 1u);
  AdaptiveFence::unregister_primary(h);
}

// EXPEDITED membarrier registration is process-wide and costs
// milliseconds in a multithreaded process, so a primary bound to the
// signal drain must never trigger it. Registration survives fork(), and
// earlier tests in this binary register, so the check runs in a child the
// threadsafe death-test style re-executes from scratch.
TEST(AdaptiveFenceDeathTest, SignalBoundPrimaryLeavesMembarrierUnregistered) {
#ifdef SYS_membarrier
  constexpr int kCmdQuery = 0;                   // <linux/membarrier.h>
  constexpr int kCmdPrivateExpedited = 1 << 3;
  const long mask = ::syscall(SYS_membarrier, kCmdQuery, 0, 0);
  if (mask < 0 || (mask & kCmdPrivateExpedited) == 0) {
    GTEST_SKIP() << "kernel lacks PRIVATE_EXPEDITED membarrier (QUERY mask "
                 << mask << "): registration cannot be observed here";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        AdaptiveFence::Handle h = AdaptiveFence::register_primary();
        AdaptiveFence::request_mode(h, PolicyMode::kAsymmetric);
        AdaptiveFence::quiescent_point(h);
        if (AdaptiveFence::realized_mode(h) != PolicyMode::kAsymmetric) {
          std::fprintf(stderr, "signal-bound primary did not go asymmetric\n");
          std::_Exit(2);
        }
        const long rc =
            ::syscall(SYS_membarrier, kCmdPrivateExpedited, 0, 0);
        const int err = errno;
        if (rc != -1 || err != EPERM) {
          std::fprintf(stderr,
                       "raw PRIVATE_EXPEDITED returned %ld (errno %d): the "
                       "process registered\n",
                       rc, err);
          std::_Exit(1);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
#else
  GTEST_SKIP() << "no membarrier syscall on this platform";
#endif
}

TEST(AdaptiveFence, RoleInvertingBackendRealizesDouble) {
  if (!membarrier::available()) {
    GTEST_SKIP() << "membarrier PRIVATE_EXPEDITED not supported here";
  }
  AdaptiveFence::Handle h = AdaptiveFence::register_primary();
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(AdaptiveFence::request_backend(h, BackendId::kMembarrierPair));
  EXPECT_TRUE(AdaptiveFence::request_mode(h, PolicyMode::kDoubleLmfence));
  EXPECT_TRUE(AdaptiveFence::quiescent_point(h));
  EXPECT_EQ(AdaptiveFence::current_backend(h), BackendId::kMembarrierPair);
  EXPECT_EQ(AdaptiveFence::booked_mode(h), PolicyMode::kDoubleLmfence);
  EXPECT_EQ(AdaptiveFence::realized_mode(h), PolicyMode::kDoubleLmfence);
  EXPECT_EQ(AdaptiveFence::degraded_count(h), 0u);
  // Both sides run light: a peer's announce (compiler-only fence + drain)
  // and the primary's own peer drain both go through the membarrier
  // broadcast and must succeed.
  std::thread peer([h] {
    AdaptiveFence::secondary_fence(h);
    EXPECT_TRUE(AdaptiveFence::serialize(h));
  });
  peer.join();
  EXPECT_TRUE(AdaptiveFence::serialize_peers(h));
  AdaptiveFence::unregister_primary(h);
}

// Dekker mutual exclusion while the regime flips under load. Each round,
// both threads race one Dekker attempt and then meet at a barrier; the
// primary flips the requested mode every 8 rounds and adopts it at its
// quiescent point (no announce in flight — the contract the scheduler's
// adaptation hook relies on). The secondary runs the unconditional mfence
// and serializes the primary per the mode it observes, which may be one
// switch stale. Any mutual-exclusion violation means a switch dropped the
// Def. 2 serialization point. Round barriers are yield-spins so the test
// degrades to cooperative handoff on a single-CPU host instead of
// starving the serialize-paying secondary.
TEST(AdaptiveFenceThreaded, SwitchUnderLoadPreservesMutualExclusion) {
  constexpr std::uint64_t kRounds = 4000;
  std::atomic<int> pflag{0};
  std::atomic<int> sflag{0};
  std::atomic<int> in_cs{0};
  std::atomic<std::uint64_t> p_entries{0};
  std::atomic<std::uint64_t> s_entries{0};
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> p_round{0};
  std::atomic<std::uint64_t> s_round{0};
  std::atomic<bool> handle_ready{false};
  std::atomic<std::uint64_t> switches_seen{0};
  AdaptiveFence::Handle h;

  const auto enter_cs = [&](std::atomic<std::uint64_t>& entries) {
    if (in_cs.exchange(1, std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    for (int spin = 0; spin < 32; ++spin) {
      lbmf::compiler_fence();  // keep the dwell loop from being elided
    }
    in_cs.store(0, std::memory_order_relaxed);
    entries.fetch_add(1, std::memory_order_relaxed);
  };
  const auto await = [](std::atomic<std::uint64_t>& peer, std::uint64_t r) {
    while (peer.load(std::memory_order_acquire) < r) {
      std::this_thread::yield();
    }
  };

  std::thread primary([&] {
    h = AdaptiveFence::register_primary();
    ASSERT_TRUE(h.valid());
    handle_ready.store(true, std::memory_order_release);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      pflag.store(1, std::memory_order_relaxed);
      AdaptiveFence::primary_fence();
      if (sflag.load(std::memory_order_relaxed) == 0) {
        enter_cs(p_entries);
      }
      pflag.store(0, std::memory_order_relaxed);
      if (r % 8 == 0) {
        AdaptiveFence::request_mode(h, (r / 8) % 2 == 0
                                           ? PolicyMode::kAsymmetric
                                           : PolicyMode::kSymmetric);
      }
      // Between attempts: no announce in flight — the quiescent point.
      AdaptiveFence::quiescent_point(h);
      p_round.store(r + 1, std::memory_order_release);
      await(s_round, r + 1);
    }
    // The secondary publishes its round only after serialize() returns, so
    // seeing s_round == kRounds means no serialization is still in flight
    // and the handle can be retired (which invalidates it — grab the
    // switch tally first).
    switches_seen.store(AdaptiveFence::switch_count(h),
                        std::memory_order_relaxed);
    AdaptiveFence::unregister_primary(h);
  });

  while (!handle_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  std::thread secondary([&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      sflag.store(1, std::memory_order_relaxed);
      AdaptiveFence::secondary_fence();
      AdaptiveFence::serialize(h);
      if (pflag.load(std::memory_order_relaxed) == 0) {
        enter_cs(s_entries);
      }
      sflag.store(0, std::memory_order_relaxed);
      s_round.store(r + 1, std::memory_order_release);
      await(p_round, r + 1);
    }
  });

  secondary.join();
  primary.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(p_entries.load(), 0u);
  EXPECT_GT(s_entries.load(), 0u);
  EXPECT_GE(switches_seen.load(), 10u);
}

// ------------------------------------------------- Scheduler integration

// Spawn-recursive fib (mirrors ws_test's ws_fib, monomorphized).
template <typename P>
void ws_fib(long n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  typename ws::Scheduler<P>::TaskGroup tg;
  auto t = tg.capture([n, &a] { ws_fib<P>(n - 1, &a); });
  tg.spawn(t);
  ws_fib<P>(n - 2, &b);
  tg.sync();
  *out = a + b;
}

TEST(SchedulerAdaptation, WorkersSwitchUnderAnAllAsymmetricTable) {
  // Force-feed an all-asymmetric frontier with no hysteresis: every worker
  // must adopt kAsymmetric at its first sampling window and the run must
  // still compute the right answer.
  const std::size_t cells = 6 * 7;
  SelectorConfig opts;
  opts.table = adapt::PolicyTable(
      {1, 10, 100, 1'000, 10'000, 100'000},
      {10, 50, 150, 500, 1'500, 5'000, 15'000},
      std::vector<PolicyMode>(cells, PolicyMode::kAsymmetric));
  opts.confirm_windows = 1;
  opts.sample_every = 64;

  ws::Scheduler<AdaptiveFence> sched(3);
  sched.enable_adaptation(opts);
  long result = 0;
  sched.run([&] { ws_fib<AdaptiveFence>(20, &result); });
  EXPECT_EQ(result, 6765);  // fib(20)

  const ws::SchedulerStats s = sched.stats();
  EXPECT_GE(s.policy_switches, 1u);
  EXPECT_GT(s.spawns, 0u);
}

TEST(SchedulerAdaptation, StaticPoliciesReportZeroSwitches) {
  ws::Scheduler<SymmetricFence> sched(2);
  long result = 0;
  sched.run([&] { ws_fib<SymmetricFence>(15, &result); });
  EXPECT_EQ(result, 610);
  EXPECT_EQ(sched.stats().policy_switches, 0u);
}

}  // namespace
}  // namespace lbmf::adapt
