// forkjoin: back-to-back seeded knapsack jobs on the work-stealing
// scheduler under the signal fence policy, on a fresh pool every half
// second; the traced run adds a short probe of the same jobs under the
// membarrier policy.

#include <algorithm>
#include <atomic>
#include <memory>

#include "lbmf/ws/scheduler.hpp"
#include "workloads.hpp"

namespace lbmfbench {

namespace {

// The membarrier policy issues one process-wide broadcast per deque pop,
// so its job time tracks this VM's IPI latency, which moved between 0.3
// and 7 us per broadcast within minutes (8 to 300 ms per job). The timed
// jobs therefore run under the signal policy; membarrier is measured by
// the unbounded per-layer probe in traced runs.
using Policy = lbmf::AsymmetricSignalFence;
using Scheduler = lbmf::ws::Scheduler<Policy>;
using MbScheduler = lbmf::ws::Scheduler<lbmf::AsymmetricMembarrierFence>;

constexpr std::size_t kWorkers = 3;  // plus the caller, which spins in run()
constexpr std::size_t kJobs = 256;   // distinct seeded instances, cycled
constexpr int kItems = 20;
// One pool set-up per round: construction plus the round's first job, so
// each set-up warms up on another instance (costs differ several-fold; one
// fixed warm-up job made setup_s follow the instance the seed put first).
// Spread over the pass, set-ups meet the host as the jobs do; back to back
// at process start they also paid for a cold host.
constexpr double kRoundS = 0.5;
// Short windows: a job stalled by the host spoils one window, not the run.
constexpr std::int64_t kWindowNs = 20'000'000;
constexpr int kMembarrierJobs = 8;

/// Run the next job of the cycle on `s` and check its result.
template <typename Sched>
void run_job(Sched& s, const std::vector<KnapsackJob>& jobs,
             std::size_t& cursor, std::uint64_t& op, Outcome& o, Tracer* tr) {
  using P = typename Sched::Policy;
  const std::size_t k = cursor++ % jobs.size();
  const KnapsackJob& j = jobs[k];
  std::atomic<int> best{0};
  {
    Scope span(tr, SpanName::kSchedulerRun, op++);
    s.run([&] {
      lbmf::cilkbench::detail::knapsack_rec<P>(j.items, 0, j.capacity, 0, best);
    });
  }
  o.attempted += 1;
  if (best.load() != j.expected) {
    o.fail("knapsack job " + std::to_string(k) + " returned " +
           std::to_string(best.load()) + ", reference " +
           std::to_string(j.expected));
  }
}

/// The counters the benchmark reports, summed over pools.
struct Counts {
  std::uint64_t spawns = 0, pops_fast = 0, pops_conflict = 0,
                victim_serializations = 0, steal_attempts = 0,
                steals_success = 0;
  void add(const lbmf::ws::SchedulerStats& a,
           const lbmf::ws::SchedulerStats& b) {
    spawns += b.spawns - a.spawns;
    pops_fast += b.pops_fast - a.pops_fast;
    pops_conflict += b.pops_conflict - a.pops_conflict;
    victim_serializations += b.victim_serializations - a.victim_serializations;
    steal_attempts += b.steal_attempts - a.steal_attempts;
    steals_success += b.steals_success - a.steals_success;
  }
};

struct PassResult {
  std::vector<double> setup_s, start_ms;
  std::vector<double> job_ns;
  std::vector<double> window_jps;  // jobs completed per second, per window
  double busy_ns = 0;
  Counts counts;  // timed jobs only
};

/// Rounds of a pool set-up (construction plus one warm-up job, the first
/// job of the round) followed by jobs back to back on that pool, for
/// `seconds` in all.
PassResult run_pass(const std::vector<KnapsackJob>& jobs, double seconds,
                    std::size_t& cursor, std::uint64_t& op, Outcome& o,
                    Tracer* tr) {
  PassResult r;
  Scope phase(tr, SpanName::kPhase, 0);
  const int rounds = std::max(1, static_cast<int>(seconds / kRoundS + 0.5));
  const auto round_ns = static_cast<std::int64_t>(seconds / rounds * 1e9);
  const std::int64_t start = now_ns();
  for (int k = 0; k < rounds; ++k) {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Scheduler> s;
    {
      Scope span(tr, SpanName::kSchedulerCreate, k);
      s = std::make_unique<Scheduler>(kWorkers);
    }
    const std::int64_t t1 = now_ns();
    run_job(*s, jobs, cursor, op, o, tr);
    const std::int64_t t2 = now_ns();
    r.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    r.start_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);

    const lbmf::ws::SchedulerStats before = s->stats();
    const std::int64_t end = start + (k + 1) * round_ns;
    std::int64_t window_start = t2;
    double window_jobs = 0;
    for (std::int64_t j0 = t2; j0 < end; j0 = now_ns()) {
      run_job(*s, jobs, cursor, op, o, tr);
      const std::int64_t j1 = now_ns();
      r.job_ns.push_back(static_cast<double>(j1 - j0));
      r.busy_ns += static_cast<double>(j1 - j0);
      window_jobs += 1;
      if (j1 - window_start >= kWindowNs) {
        r.window_jps.push_back(window_jobs * 1e9 /
                               static_cast<double>(j1 - window_start));
        window_jobs = 0;
        window_start = j1;
      }
    }
    r.counts.add(before, s->stats());
  }
  return r;
}

}  // namespace

Outcome run_forkjoin(const RunArgs& a) {
  Outcome o;
  Tracer tracer(0);
  Tracer* tr = a.trace ? &tracer : nullptr;

  const std::int64_t g0 = now_ns();
  const std::vector<KnapsackJob> jobs = make_knapsack_jobs(a.seed, kJobs, kItems);
  const double inputs_s = static_cast<double>(now_ns() - g0) * 1e-9;

  std::size_t cursor = 0;
  std::uint64_t op = 0;
  PassResult ref;
  if (a.trace) ref = run_pass(jobs, a.seconds / 2, cursor, op, o, nullptr);
  PassResult r =
      run_pass(jobs, a.trace ? a.seconds / 2 : a.seconds, cursor, op, o, tr);

  const double job_p50_ns = median(r.job_ns);
  o.set_e2e("setup_s", median(r.setup_s));
  o.set_e2e("req_p50_us", job_p50_ns / 1e3);
  o.set_e2e("sat_rps", median(r.window_jps));
  if (!a.trace) return o;

  o.set_span_layers(tracer);
  o.set_layer("trace.overhead_frac", job_p50_ns / median(ref.job_ns) - 1.0);
  o.set_layer("trace.sat_overhead_frac",
              median(ref.window_jps) / median(r.window_jps) - 1.0);
  o.set_layer("bench.inputs_s", inputs_s);
  const Counts& c = r.counts;
  const auto spawns = static_cast<double>(c.spawns);
  const auto attempts = static_cast<double>(c.steal_attempts);
  o.set_layer("ws.spawns", spawns);
  o.set_layer("ws.pops_fast", static_cast<double>(c.pops_fast));
  o.set_layer("ws.pops_conflict", static_cast<double>(c.pops_conflict));
  o.set_layer("ws.victim_serializations",
              static_cast<double>(c.victim_serializations));
  o.set_layer("ws.steal_attempts", attempts);
  o.set_layer("ws.steal_success_frac",
              attempts > 0 ? static_cast<double>(c.steals_success) / attempts
                           : 0.0);
  o.set_layer("ws.ns_per_spawn", spawns > 0 ? r.busy_ns / spawns : 0.0);
  o.set_layer("ws.job_p50_ms", job_p50_ns / 1e6);
  const bool p90_ok = highest_supported_percentile(r.job_ns.size()) >= 90.0;
  o.set_layer("ws.job_p90_ms", p90_ok ? percentile(r.job_ns, 90) / 1e6 : 0.0);
  o.set_layer("ws.start_ms", median(r.start_ms));

  // Membarrier probe: the first jobs of the cycle on a pool under the
  // membarrier policy.
  std::vector<double> mb_ns;
  lbmf::ws::SchedulerStats mb;
  {
    MbScheduler ms(kWorkers);
    std::size_t mb_cursor = 0;
    for (int k = 0; k < kMembarrierJobs; ++k) {
      const std::int64_t t0 = now_ns();
      run_job(ms, jobs, mb_cursor, op, o, tr);
      mb_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    mb = ms.stats();
  }
  o.set_layer("ws.mb_job_p50_ms", median(mb_ns) / 1e6);
  o.set_layer("ws.mb_victim_serializations",
              static_cast<double>(mb.victim_serializations));
  write_spans(a, {&tracer});
  return o;
}

}  // namespace lbmfbench
