// Tests of the benchmark's own arithmetic: seeded inputs, the tail rule,
// span self time and open-loop lateness accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "harness.hpp"
#include "workloads.hpp"

namespace lbmfbench {
namespace {

std::size_t low_bit(std::uint64_t k) { return k & 1; }

TEST(SeededInputs, SameSeedSameInputs) {
  const ServeInputs a = make_serve_inputs(7, 1u << 12, 1u << 12, 1e5, 0.05, low_bit);
  const ServeInputs b = make_serve_inputs(7, 1u << 12, 1u << 12, 1e5, 0.05, low_bit);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.rules, b.rules);
  EXPECT_EQ(a.zipf, b.zipf);
  EXPECT_EQ(a.arrivals_ns, b.arrivals_ns);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    for (std::size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(a.waves[i][k].key, b.waves[i][k].key);
      EXPECT_EQ(a.waves[i][k].rule, b.waves[i][k].rule);
    }
  }
  const auto ka = make_knapsack_jobs(7, 16, 20);
  const auto kb = make_knapsack_jobs(7, 16, 20);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    ASSERT_EQ(ka[i].items.size(), kb[i].items.size());
    for (std::size_t k = 0; k < ka[i].items.size(); ++k) {
      EXPECT_EQ(ka[i].items[k].value, kb[i].items[k].value);
      EXPECT_EQ(ka[i].items[k].weight, kb[i].items[k].weight);
    }
    EXPECT_EQ(ka[i].expected, kb[i].expected);
  }
}

TEST(SeededInputs, OtherSeedOtherInputs) {
  const ServeInputs a = make_serve_inputs(7, 1u << 12, 1u << 12, 1e5, 0.05, low_bit);
  const ServeInputs b = make_serve_inputs(8, 1u << 12, 1u << 12, 1e5, 0.05, low_bit);
  EXPECT_NE(a.flows, b.flows);
  EXPECT_NE(a.zipf, b.zipf);
  EXPECT_NE(a.arrivals_ns, b.arrivals_ns);
  const auto k7 = make_knapsack_jobs(7, 1, 20)[0].items;
  const auto k8 = make_knapsack_jobs(8, 1, 20)[0].items;
  EXPECT_FALSE(std::equal(k7.begin(), k7.end(), k8.begin(),
                          [](const auto& x, const auto& y) {
                            return x.value == y.value && x.weight == y.weight;
                          }));
}

TEST(SeededInputs, ShapeOfTheInputs) {
  const ServeInputs in = make_serve_inputs(3, 1u << 12, 1u << 14, 1e5, 0.1, low_bit);
  std::vector<std::uint64_t> keys = in.flows;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_TRUE(std::is_sorted(in.arrivals_ns.begin(), in.arrivals_ns.end()));
  // 1e5/s for 0.1 s: about 10^4 Poisson arrivals.
  EXPECT_GT(in.arrivals_ns.size(), 9'500u);
  EXPECT_LT(in.arrivals_ns.size(), 10'500u);
  for (const auto& w : in.waves) {
    const bool mixed = std::any_of(w.begin(), w.end(), [&](const Update& u) {
      return low_bit(u.key) != low_bit(w[0].key);
    });
    EXPECT_TRUE(mixed);
  }
  // Zipf: the most popular flow takes far more than a uniform share.
  std::vector<std::uint32_t> hits(in.flows.size(), 0);
  for (std::uint32_t z : in.zipf) ++hits[z];
  EXPECT_GT(*std::max_element(hits.begin(), hits.end()), 100u * in.zipf.size() /
                                                              in.flows.size());
}

TEST(SeededInputs, KnapsackReferenceIsTheOptimum) {
  // Brute force over every subset of a small instance.
  const auto jobs = make_knapsack_jobs(11, 4, 12);
  for (const KnapsackJob& j : jobs) {
    int best = 0;
    for (unsigned mask = 0; mask < (1u << j.items.size()); ++mask) {
      int v = 0, w = 0;
      for (std::size_t i = 0; i < j.items.size(); ++i) {
        if (mask & (1u << i)) {
          v += j.items[i].value;
          w += j.items[i].weight;
        }
      }
      if (w <= j.capacity) best = std::max(best, v);
    }
    EXPECT_EQ(j.expected, best);
  }
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10'000), 99.9);
  EXPECT_EQ(highest_supported_percentile(1'000'000), 99.999);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
}

TEST(TailRule, NearestRankPercentileReturnsASample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0.0);
}

TEST(SelfTime, ChildrenCoverTheirUnionOnly) {
  Coverage c(0, 100);
  c.add(10, 20);
  c.add(15, 30);   // overlaps the first child: counted once
  c.add(50, 60);
  c.add(90, 130);  // clipped to the parent's end
  EXPECT_EQ(c.covered(), 20 + 10 + 10);  // self time 100 - 40
  Coverage early(50, 100);
  early.add(40, 60);  // starts before the parent: clipped to 50..60
  EXPECT_EQ(early.covered(), 10);
  EXPECT_EQ(Coverage(5, 25).covered(), 0);
}

TEST(SelfTime, TracerSubtractsNestedSpans) {
  Tracer t(0);
  t.begin(SpanName::kPhase, 0);
  t.begin(SpanName::kTrySubmit, 1);
  t.end();
  t.begin(SpanName::kPoll, 1);
  t.end();
  t.end();
  const auto& phase = t.agg(SpanName::kPhase);
  const auto& submit = t.agg(SpanName::kTrySubmit);
  const auto& poll = t.agg(SpanName::kPoll);
  EXPECT_EQ(phase.count, 1u);
  EXPECT_EQ(submit.count, 1u);
  EXPECT_EQ(phase.self_ns, phase.total_ns - submit.total_ns - poll.total_ns);
  EXPECT_EQ(submit.self_ns, submit.total_ns);  // a leaf is all self time
  EXPECT_EQ(t.spans(), 3u);
  EXPECT_EQ(t.kept(), 3u);
  std::string csv;
  t.write_csv(csv);
  EXPECT_NE(csv.find(",0,Client::try_submit,serve,1,"), std::string::npos);
}

TEST(Lateness, StalledGeneratorChargesLaterRequests) {
  // Due at 0, 10, 20, 30 (ns after start 1000). The generator stalls and
  // sends the third and fourth requests at 1050; responses come back at
  // 1005, 1015, 1055 and 1060.
  const std::vector<std::int64_t> due = {0, 10, 20, 30};
  Pacer p(due, 1000);
  EXPECT_FALSE(p.due(999));
  EXPECT_TRUE(p.due(1000));
  p.sent(1000);
  EXPECT_FALSE(p.due(1005));
  p.sent(1010);
  EXPECT_TRUE(p.due(1050));
  p.sent(1050);
  EXPECT_TRUE(p.due(1050));
  p.sent(1050);
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(p.due(5000));
  EXPECT_EQ(p.lag_ns(), (std::vector<double>{0, 0, 30, 20}));
  // Sojourn runs from the intended send time, not from the late send.
  const std::int64_t reaped[] = {1005, 1015, 1055, 1060};
  std::vector<double> sojourn;
  for (std::size_t i = 0; i < due.size(); ++i) {
    sojourn.push_back(static_cast<double>(reaped[i] - p.intended(i)));
  }
  EXPECT_EQ(sojourn, (std::vector<double>{5, 5, 35, 30}));
  EXPECT_EQ(percentile(p.lag_ns(), 50), 0.0);
  EXPECT_EQ(percentile(p.lag_ns(), 100), 30.0);
}

}  // namespace
}  // namespace lbmfbench
