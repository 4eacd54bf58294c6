#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "lbmf/serve/shard.hpp"
#include "lbmf/util/affinity.hpp"
#include "lbmf/util/barrier.hpp"
#include "lbmf/util/cacheline.hpp"
#include "lbmf/util/check.hpp"
#include "lbmf/util/hash.hpp"
#include "lbmf/util/histogram.hpp"
#include "lbmf/util/json.hpp"
#include "lbmf/util/rng.hpp"
#include "lbmf/util/spin.hpp"
#include "lbmf/util/stats.hpp"
#include "lbmf/util/timing.hpp"

namespace lbmf {
namespace {

// ---------------------------------------------------------------- cacheline

TEST(CacheLine, AlignedWrapperIsLineSizedAndAligned) {
  EXPECT_EQ(sizeof(CacheAligned<int>), kCacheLineSize);
  EXPECT_EQ(alignof(CacheAligned<int>), kCacheLineSize);
  CacheAligned<int> a(7);
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % kCacheLineSize, 0u);
}

TEST(CacheLine, ArrayElementsDoNotShareLines) {
  CacheAligned<char> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto lo = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto hi = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(hi - lo, kCacheLineSize);
  }
}

TEST(CacheLine, LargePayloadRoundsUpToMultipleLines) {
  struct Big {
    char data[100];
  };
  EXPECT_EQ(sizeof(CacheAligned<Big>) % kCacheLineSize, 0u);
  EXPECT_GE(sizeof(CacheAligned<Big>), sizeof(Big));
}

TEST(CacheLine, ArrowOperatorReachesMembers) {
  struct S {
    int x = 3;
  };
  CacheAligned<S> s;
  EXPECT_EQ(s->x, 3);
  s->x = 9;
  EXPECT_EQ((*s).x, 9);
}

// --------------------------------------------------------------------- spin

TEST(SpinWait, CountsPauseRoundsThenYields) {
  SpinWait w(/*spin_limit=*/4);
  for (int i = 0; i < 4; ++i) w.wait();
  EXPECT_EQ(w.rounds(), 4u);
  EXPECT_EQ(w.wait(), 0u);  // yield path; rounds saturates at the limit
  EXPECT_EQ(w.rounds(), 4u);
  w.reset();
  EXPECT_EQ(w.rounds(), 0u);
  EXPECT_EQ(w.wait(), 1u);  // the backoff starts over too
}

// The pauses of each round up to the first yield.
std::vector<std::uint32_t> rounds_until_yield(SpinWait w) {
  std::vector<std::uint32_t> pauses;
  for (std::uint32_t p = w.wait(); p != 0; p = w.wait()) pauses.push_back(p);
  return pauses;
}

std::uint64_t sum(const std::vector<std::uint32_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(SpinWait, DefaultDoublesToSixtyFourPausesAndYieldsAfter3775) {
  const std::vector<std::uint32_t> p = rounds_until_yield(SpinWait());
  ASSERT_EQ(p.size(), 64u);
  EXPECT_EQ(std::vector<std::uint32_t>(p.begin(), p.begin() + 7),
            (std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(*std::max_element(p.begin(), p.end()), 64u);
  EXPECT_EQ(sum(p), 3775u);
}

TEST(SpinWait, ServeOwnerPollsEveryEightPausesOnTheDefaultBudget) {
  const std::vector<std::uint32_t> p =
      rounds_until_yield(serve::owner_idle_wait());
  ASSERT_GE(p.size(), 4u);
  EXPECT_EQ(std::vector<std::uint32_t>(p.begin(), p.begin() + 4),
            (std::vector<std::uint32_t>{1, 2, 4, 8}));
  EXPECT_EQ(*std::max_element(p.begin(), p.end()), 8u);
  EXPECT_EQ(sum(p), sum(rounds_until_yield(SpinWait())));
}

TEST(SpinWait, ZeroLimitYieldsImmediatelyWithoutCrashing) {
  SpinWait w(0);
  for (int i = 0; i < 8; ++i) w.wait();
  EXPECT_EQ(w.rounds(), 0u);
}

// ------------------------------------------------------------------ barrier

TEST(SenseBarrier, ReleasesAllThreadsEachCrossing) {
  constexpr int kThreads = 4;
  constexpr int kCrossings = 200;
  SenseBarrier b(kThreads);
  std::atomic<int> arrived{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      int sense = 0;
      for (int i = 0; i < kCrossings; ++i) {
        arrived.fetch_add(1);
        b.arrive(sense);
        // Everyone who will cross crossing i has already incremented.
        if (arrived.load() < (i + 1) * kThreads) bad.store(true);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(arrived.load(), kThreads * kCrossings);
}

// Regression for the xval native-leg bug: a start/end barrier pair in a
// loop, exactly as run_native uses it. With one shared local sense the
// sense flips twice per iteration, each barrier object is always crossed
// with the same local value, and after the first iteration neither barrier
// makes anyone wait — threads overlap iterations freely. With one sense
// per barrier, between crossing `end` for iteration i and crossing `start`
// for iteration i+1, thread 0 must see every thread finished with i and
// none yet inside i+1.
TEST(SenseBarrier, StartEndPairDoesNotOverlapIterations) {
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  SenseBarrier start(kThreads);
  SenseBarrier end(kThreads);
  std::vector<std::atomic<int>> entered(kIters + 1);
  for (auto& e : entered) e.store(0);
  std::atomic<bool> overlap{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      int start_sense = 0;
      int end_sense = 0;
      for (int i = 0; i < kIters; ++i) {
        start.arrive(start_sense);
        entered[i].fetch_add(1);
        end.arrive(end_sense);
        if (t == 0) {
          // Only thread 0 runs here until it re-arrives at `start`:
          // everyone else is parked waiting on the next start crossing.
          if (entered[i].load() != kThreads) overlap.store(true);
          if (entered[i + 1].load() != 0) overlap.store(true);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(overlap.load());
}

// ---------------------------------------------------------------------- rng

TEST(Rng, SplitMixIsDeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, XoshiroSequencesDifferAcrossSeeds) {
  Xoshiro256 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleIsInHalfOpenUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremesAreDegenerate) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

// -------------------------------------------------------------------- stats

TEST(Stats, RunningStatMatchesClosedForm) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, RunningStatSingleSampleHasZeroVariance) {
  RunningStat rs;
  rs.add(3.5);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.5);
  EXPECT_DOUBLE_EQ(rs.max(), 3.5);
}

TEST(Stats, PercentileInterpolatesBetweenPoints) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0 / 3.0), 20.0);
}

TEST(Stats, PercentileDegenerateInputs) {
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.9), 7.0);
  // Out-of-range q is clamped.
  std::vector<double> v{1, 2};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -3.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 5.0), 2.0);
}

TEST(Stats, SummarizeOrdersFields) {
  auto s = summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_FALSE(s.to_string().empty());
}

// ------------------------------------------------------------------- timing

TEST(Timing, TscIsMonotonicEnough) {
  const auto a = rdtsc();
  const auto b = rdtscp();
  const auto c = rdtsc();
  EXPECT_LE(a, c);
  (void)b;
}

TEST(Timing, CalibratedFrequencyIsPlausible) {
  const double hz = tsc_hz();
  // Any real machine is between 100 MHz and 10 GHz.
  EXPECT_GT(hz, 1e8);
  EXPECT_LT(hz, 1e10);
  EXPECT_NEAR(tsc_to_ns(static_cast<std::uint64_t>(hz)), 1e9, 1e9 * 0.01);
}

TEST(Timing, StopwatchMeasuresSleep) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.millis(), 9.0);
  sw.reset();
  EXPECT_LT(sw.millis(), 9.0);
}

// ----------------------------------------------------------------- affinity

TEST(Affinity, OnlineCpusIsPositive) { EXPECT_GE(online_cpus(), 1u); }

TEST(Affinity, PinWrapsModuloCpuCount) {
  // Pinning to an index beyond the CPU count must still succeed (wraps).
  EXPECT_TRUE(pin_to_cpu(0));
  EXPECT_TRUE(pin_to_cpu(online_cpus() + 3));
}

// ---------------------------------------------------------------- histogram

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_floor(LogHistogram::bucket_of(v)), v);
  }
}

TEST(LogHistogram, BucketFloorIsTightLowerBound) {
  // For any value, the bucket floor is <= the value and within the
  // advertised relative error (1/16 for kSubBits = 4).
  for (std::uint64_t v : {17ull, 100ull, 1000ull, 123456ull, 99999999ull,
                          (1ull << 40) + 12345, ~0ull - 5}) {
    const std::uint64_t floor =
        LogHistogram::bucket_floor(LogHistogram::bucket_of(v));
    EXPECT_LE(floor, v);
    EXPECT_GE(floor, v - v / LogHistogram::kSubBuckets - 1);
    // Floors map back to their own bucket (canonical representative).
    EXPECT_EQ(LogHistogram::bucket_of(floor), LogHistogram::bucket_of(v));
  }
}

TEST(LogHistogram, EmptyHistogram) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, PercentilesOnUniformRamp) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 5000.0, 5000.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 9900.0, 9900.0 / 16 + 1);
  EXPECT_EQ(h.percentile(100), 10000u);
  EXPECT_NEAR(h.mean(), 5000.5, 0.001);
  // Percentiles are monotone in pct.
  std::uint64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::uint64_t q = h.percentile(p);
    EXPECT_GE(q, prev) << p;
    prev = q;
  }
}

TEST(LogHistogram, SingleValueAllPercentiles) {
  LogHistogram h;
  h.record(777);
  for (double p : {0.1, 50.0, 99.0, 100.0}) EXPECT_EQ(h.percentile(p), 777u);
}

TEST(LogHistogram, MergeMatchesCombinedRecording) {
  LogHistogram a, b, combined;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    (v % 2 ? a : b).record(v * 3);
    combined.record(v * 3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {10.0, 50.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
  }
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
}

// --------------------------------------------------------------------- hash

TEST(WordHasher, MatchesHash128OverTheSameBytes) {
  std::vector<std::uint64_t> words;
  for (std::uint64_t n = 0; n < 9; ++n) {
    WordHasher h(7);
    for (const std::uint64_t w : words) h.add(w);
    EXPECT_TRUE(h.finish() ==
                hash128(words.data(), words.size() * sizeof(words[0]), 7))
        << n << " words";
    words.push_back(0x9e3779b97f4a7c15ULL * (n + 1));
  }
}

// --------------------------------------------------------------------- json

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.begin_array().string("say \"hi\"").string("C:\\dir").string("a\nb");
  w.string("tab\there\x01").string("").end_array();
  EXPECT_EQ(w.text(),
            R"(["say \"hi\"","C:\\dir","a\nb","tab\u0009here\u0001",""])");
  // Keys take the same escaping.
  JsonWriter k;
  k.begin_object().key("plane:\"x\"").integer(1).end_object();
  EXPECT_EQ(k.text(), R"({"plane:\"x\"":1})");
}

TEST(JsonWriter, CompactLayoutSeparatesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.key("a").integer(1);
  w.key("b").begin_array().integer(2).integer(3).end_array();
  w.key("empty_object").begin_object().end_object();
  w.key("empty_array").begin_array(/*one_per_line=*/true).end_array();
  w.key("c").begin_object().key("d").begin_array();
  w.begin_object().key("e").boolean(true).end_object().boolean(false);
  w.end_array().end_object();
  w.end_object();
  EXPECT_EQ(w.text(),
            R"({"a":1,"b":[2,3],"empty_object":{},"empty_array":[],)"
            R"("c":{"d":[{"e":true},false]}})");
}

TEST(JsonWriter, ReportLayoutBreaksTheRootAndMarkedArrays) {
  JsonWriter w(JsonWriter::Layout::kReport);
  w.begin_object();
  w.key("status").string("SAT");
  w.key("rows").begin_array(/*one_per_line=*/true);
  w.begin_object().key("x").integer(1);
  w.key("y").begin_array().integer(2).integer(3).end_array().end_object();
  w.begin_object().end_object();
  w.end_array();
  w.key("none").begin_array(/*one_per_line=*/true).end_array();
  w.key("inline").begin_array().string("p").string("q").end_array();
  w.key("empty").begin_array().end_array();
  w.key("obj").begin_object().key("k").boolean(false).end_object();
  w.end_object();
  EXPECT_EQ(w.text(),
            "{\n"
            "  \"status\": \"SAT\",\n"
            "  \"rows\": [\n"
            "    {\"x\": 1, \"y\": [2, 3]},\n"
            "    {}\n"
            "  ],\n"
            "  \"none\": [\n"
            "  ],\n"
            "  \"inline\": [\"p\", \"q\"],\n"
            "  \"empty\": [],\n"
            "  \"obj\": {\"k\": false}\n"
            "}");
}

TEST(JsonWriter, NumberForms) {
  JsonWriter w;
  w.begin_array();
  w.integer(-3).integer(std::numeric_limits<std::uint64_t>::max());
  w.fixed(2.6, 0).fixed(1.0 / 3, 1).fixed(2.3456, 2).fixed(0.5, 3);
  w.fixed(1, 4).fixed(-7.25, 2);
  w.general(3260).general(1e6).general(0.1).general(-3160).general(1.0 / 3);
  w.number(1000).number(0.5).number(326.5).number(-4);
  w.number(999999999999999.0).number(1e15).number(2.5e20);
  w.end_array();
  EXPECT_EQ(w.text(),
            "[-3,18446744073709551615,"
            "3,0.3,2.35,0.500,1.0000,-7.25,"
            "3260,1e+06,0.1,-3160,0.333333,"
            "1000,0.5,326.5,-4,999999999999999,1e+15,2.5e+20]");
}

TEST(JsonWriterDeath, MisnestingAborts) {
  EXPECT_DEATH(JsonWriter().begin_object().integer(1), "needs a key");
  EXPECT_DEATH(JsonWriter().begin_array().end_object(), "does not match");
  EXPECT_DEATH(JsonWriter().begin_array().key("k"), "belongs in an object");
}

}  // namespace
}  // namespace lbmf
