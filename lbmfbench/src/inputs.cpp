#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "lbmf/util/rng.hpp"
#include "workloads.hpp"

namespace lbmfbench {

namespace {

// Independent streams per input kind, all derived from the one seed.
lbmf::Xoshiro256 stream(std::uint64_t seed, std::uint64_t kind) {
  return lbmf::Xoshiro256(lbmf::SplitMix64(seed ^ (kind * 0x9E3779B97F4A7C15ULL))
                              .next());
}

// Gray et al.'s Zipfian generator (as in YCSB): O(n) set-up, O(1) draws.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : n_(static_cast<double>(n)), theta_(theta) {
    double zeta2 = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
      const double term = 1.0 / std::pow(static_cast<double>(i), theta);
      zetan_ += term;
      if (i <= 2) zeta2 += term;
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n_, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }

  std::uint32_t draw(lbmf::Xoshiro256& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const double r = n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_);
    return static_cast<std::uint32_t>(std::min(r, n_ - 1.0));
  }

 private:
  double n_, theta_, zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

}  // namespace

ServeInputs make_serve_inputs(
    std::uint64_t seed, std::size_t flows, std::size_t zipf_draws,
    double rate_per_s, double seconds,
    const std::function<std::size_t(std::uint64_t)>& shard_of) {
  ServeInputs in;
  // Keys: the SplitMix64 output function is a bijection of its state, so
  // consecutive states give distinct keys.
  lbmf::SplitMix64 keys(stream(seed, 1).next());
  lbmf::Xoshiro256 rules = stream(seed, 2);
  in.flows.reserve(flows);
  in.rules.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    in.flows.push_back(keys.next());
    in.rules.push_back(static_cast<std::uint32_t>(rules.next_below(1000) + 1));
  }

  // Zipf ranks map onto flows through a seeded permutation, so the hot
  // flows are scattered over both shards and the whole table.
  std::vector<std::uint32_t> perm(flows);
  std::iota(perm.begin(), perm.end(), 0u);
  lbmf::Xoshiro256 shuffle = stream(seed, 3);
  for (std::size_t i = flows; i > 1; --i) {
    std::swap(perm[i - 1], perm[shuffle.next_below(i)]);
  }
  const Zipf zipf(flows, 0.99);
  lbmf::Xoshiro256 draws = stream(seed, 4);
  in.zipf.reserve(zipf_draws);
  for (std::size_t i = 0; i < zipf_draws; ++i) {
    in.zipf.push_back(perm[zipf.draw(draws)]);
  }

  // Poisson arrivals: exponential gaps at the offered rate.
  lbmf::Xoshiro256 gaps = stream(seed, 5);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  in.arrivals_ns.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.01));
  for (;;) {
    t += -std::log1p(-gaps.next_double()) * 1e9 / rate_per_s;
    if (t >= horizon_ns) break;
    in.arrivals_ns.push_back(static_cast<std::int64_t>(t));
  }

  // Control waves: 8 updates of existing flows, redrawn until they touch
  // more than one shard.
  lbmf::Xoshiro256 ctl = stream(seed, 6);
  in.waves.resize(1024);
  for (auto& w : in.waves) {
    for (;;) {
      for (Update& u : w) {
        u.key = in.flows[ctl.next_below(flows)];
        u.rule = static_cast<std::uint32_t>(ctl.next_below(1000) + 1);
      }
      const std::size_t s0 = shard_of(w[0].key);
      if (std::any_of(w.begin(), w.end(),
                      [&](const Update& u) { return shard_of(u.key) != s0; })) {
        break;
      }
    }
  }
  return in;
}

std::vector<KnapsackJob> make_knapsack_jobs(std::uint64_t seed,
                                            std::size_t count, int items) {
  lbmf::Xoshiro256 rng = stream(seed, 7);
  std::vector<KnapsackJob> jobs(count);
  for (KnapsackJob& j : jobs) {
    j.items = lbmf::cilkbench::make_knapsack_items(items, rng.next());
    // cilkbench::knapsack's capacity: half the total weight.
    for (const auto& it : j.items) j.capacity += it.weight;
    j.capacity /= 2;
    j.expected = knapsack_reference(j.items, j.capacity);
  }
  return jobs;
}

int knapsack_reference(
    const std::vector<lbmf::cilkbench::KnapsackItem>& items, int capacity) {
  std::vector<int> best(static_cast<std::size_t>(capacity) + 1, 0);
  for (const auto& it : items) {
    for (int c = capacity; c >= it.weight; --c) {
      const auto cu = static_cast<std::size_t>(c);
      best[cu] = std::max(
          best[cu], best[cu - static_cast<std::size_t>(it.weight)] + it.value);
    }
  }
  return best[static_cast<std::size_t>(capacity)];
}

void write_spans(const RunArgs& a, const std::vector<const Tracer*>& tracers) {
  if (a.trace_out.empty()) return;
  std::string out = "thread,index,parent,name,layer,id,begin_ns,end_ns\n";
  for (const Tracer* t : tracers) t->write_csv(out);
  std::ofstream(a.trace_out) << out;
}

}  // namespace lbmfbench
