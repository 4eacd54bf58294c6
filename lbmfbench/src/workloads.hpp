#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "lbmf/cilkbench/recursive.hpp"

namespace lbmfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string root;       // repository root: where the litmus inputs live
  std::string trace_out;  // CSV file for the kept spans; empty = none
};

// ------------------------------------------------------------ seeded inputs
//
// Every generated input comes from the one --seed argument; the layers
// under test receive only the generated values.

struct Update {
  std::uint64_t key;
  std::uint32_t rule;
};

struct ServeInputs {
  std::vector<std::uint64_t> flows;       // distinct flow keys
  std::vector<std::uint32_t> rules;       // initial rule per flow
  std::vector<std::uint32_t> zipf;        // Zipf-skewed flow indices
  std::vector<std::int64_t> arrivals_ns;  // Poisson send offsets
  std::vector<std::array<Update, 8>> waves;  // cross-shard rule waves
};

/// `shard_of` routes a key as the server will, so every control wave can
/// be drawn to span at least two shards.
ServeInputs make_serve_inputs(std::uint64_t seed, std::size_t flows,
                              std::size_t zipf_draws, double rate_per_s,
                              double seconds,
                              const std::function<std::size_t(std::uint64_t)>&
                                  shard_of);

struct KnapsackJob {
  // cilkbench::make_knapsack_items, one seed per job drawn from --seed.
  std::vector<lbmf::cilkbench::KnapsackItem> items;
  int capacity = 0;
  int expected = 0;  // serial dynamic-programming optimum
};

std::vector<KnapsackJob> make_knapsack_jobs(std::uint64_t seed,
                                            std::size_t count, int items);

/// Exact 0/1 knapsack optimum by dynamic programming over capacity: the
/// reference every parallel result is checked against.
int knapsack_reference(
    const std::vector<lbmf::cilkbench::KnapsackItem>& items, int capacity);

// ---------------------------------------------------------------- workloads

Outcome run_serve(const RunArgs& a, bool storm);
Outcome run_forkjoin(const RunArgs& a);
Outcome run_infer(const RunArgs& a);

/// Write the kept spans of every tracer to a.trace_out (if set).
void write_spans(const RunArgs& a, const std::vector<const Tracer*>& tracers);

}  // namespace lbmfbench
