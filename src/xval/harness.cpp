#include "lbmf/xval/harness.hpp"

#include <utility>

#include "lbmf/sim/explorer.hpp"
#include "lbmf/sim/litmus.hpp"
#include "lbmf/util/affinity.hpp"
#include "lbmf/util/json.hpp"

namespace lbmf::xval {
namespace {

/// Cap on snapshotted violating states; a litmus needing more than this is
/// mis-designed for xval (its tainted set would dominate the state space),
/// and the harness degrades to complete=false rather than OOMing.
constexpr std::size_t kMaxViolatingStates = 4096;

/// The program the native leg runs (native.hpp): LE is a plain load and the
/// link never arms, so every l-mfence is load; store; mfence.
sim::Machine make_machine(const sim::AssembleResult& lit) {
  sim::SimConfig cfg;
  cfg.num_cpus = lit.programs.size();
  cfg.sb_capacity = 4;  // litmus_runner's geometry: forced natural drains
  cfg.cache_capacity = 8;
  cfg.le_st_enabled = false;
  sim::Machine m(cfg);
  for (const auto& [a, v] : lit.initial_memory) m.set_memory(a, v);
  for (std::size_t i = 0; i < lit.programs.size(); ++i) {
    m.load_program(i, lit.programs[i]);
  }
  // No symmetry groups: canonicalization would merge permuted outcome
  // strings that the native runner keeps distinct.
  return m;
}

std::function<std::string(const sim::Machine&)> make_observe(
    const ObservationSchema& schema) {
  return [schema](const sim::Machine& m) {
    return schema.format(
        [&](std::size_t c, unsigned r) { return m.cpu(c).regs[r]; },
        [&](sim::Addr a) { return m.coherent_value(a); },
        [&](std::size_t c) { return !m.cpu(c).halted; });
  };
}

const char* host_arch() noexcept {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "other";
#endif
}

}  // namespace

ReachableSets compute_reachable(const sim::AssembleResult& lit,
                                const ObservationSchema& schema,
                                std::uint64_t max_states) {
  ReachableSets rs;

  // The checked graph: the litmus property (mutual exclusion + `final`
  // directives) runs as a custom check so every violating state can be
  // snapshotted; the built-in mutual-exclusion check would fire first and
  // hide the state from us. The custom check inspects intermediate
  // states, which POR does not guarantee to visit — so the reduction is
  // off for this run.
  std::vector<sim::Machine> bad;
  bool bad_overflow = false;
  {
    sim::Explorer::Options o;
    o.check_mutual_exclusion = false;
    o.por = false;
    o.stop_at_violation = false;
    o.observe = make_observe(schema);
    o.max_states = max_states;
    auto final_check = sim::final_state_check(lit.final_allowed);
    o.check = [&bad, &bad_overflow,
               final_check](const sim::Machine& m) -> std::optional<std::string> {
      std::optional<std::string> v;
      if (m.cpus_in_cs() > 1) {
        v = "mutual exclusion violated: " + std::to_string(m.cpus_in_cs()) +
            " CPUs in the critical section";
      }
      if (!v) v = final_check(m);
      if (v) {
        if (bad.size() < kMaxViolatingStates) {
          bad.push_back(m);
        } else {
          bad_overflow = true;
        }
      }
      return v;
    };
    sim::ExploreResult r = sim::explore_all(make_machine(lit), o);
    rs.safe = std::move(r.outcomes);
    rs.states_explored += r.states_explored;
    rs.complete = rs.complete && !r.hit_limit && !bad_overflow;
    if (r.violation) rs.violation = *r.violation;
  }
  rs.violating_states = bad.size();

  // Taint replay: the terminal outcomes *of* a violation are what the
  // violating states can still reach, so re-explore forward from each,
  // unchecked. (Plain "reachable minus safe" misses outcomes that are also
  // reachable by an innocent schedule — broken Dekker's both-entered
  // terminal state is reachable with temporally disjoint critical
  // sections too.)
  for (sim::Machine& m : bad) {
    sim::Explorer::Options o;
    o.check_mutual_exclusion = false;
    o.stop_at_violation = false;
    o.observe = make_observe(schema);
    o.max_states = max_states;
    sim::ExploreResult r = sim::explore_all(std::move(m), o);
    for (const std::string& out : r.outcomes) rs.violating.insert(out);
    rs.states_explored += r.states_explored;
    rs.complete = rs.complete && !r.hit_limit;
  }

  // Every path to a terminal state either avoids violating states, so its
  // end is in `safe`, or passes a first violating state, which the checked
  // run collected and the replay explored forward from.
  rs.reachable = rs.safe;
  rs.reachable.insert(rs.violating.begin(), rs.violating.end());
  return rs;
}

XvalReport diff_outcomes(std::string litmus_name, const NativeResult& native,
                         const ReachableSets& sim) {
  XvalReport r;
  r.litmus = std::move(litmus_name);
  r.arch = host_arch();
  r.online_cpus = online_cpus();
  r.sim = sim;
  r.observed = native.observed;
  r.iterations = native.iterations;
  r.wedged_iterations = native.wedged_iterations;
  for (const auto& [obs, count] : native.observed) {
    if (sim.reachable.count(obs) == 0) r.unexplained.push_back(obs);
    if (sim.violating.count(obs) != 0) r.violations_observed += count;
  }
  for (const std::string& o : sim.reachable) {
    if (native.observed.count(o) == 0) r.unobserved.push_back(o);
  }
  return r;
}

XvalReport cross_validate(std::string litmus_name,
                          const sim::AssembleResult& lit,
                          const XvalOptions& opts) {
  const ObservationSchema schema = ObservationSchema::from(lit);
  const ReachableSets sets = compute_reachable(lit, schema, opts.max_states);

  std::string reason;
  if (!native_host_supported(lit.programs.size(), &reason)) {
    XvalReport r;
    r.litmus = std::move(litmus_name);
    r.arch = host_arch();
    r.online_cpus = online_cpus();
    r.sim = sets;
    r.skipped = true;
    r.skip_reason = std::move(reason);
    // Everything reachable counts as unobserved coverage debt.
    r.unobserved.assign(sets.reachable.begin(), sets.reachable.end());
    return r;
  }

  const NativeResult native = run_native(lit, schema, opts.native);
  return diff_outcomes(std::move(litmus_name), native, sets);
}

std::string to_json(const XvalReport& r) {
  JsonWriter w;
  // Outcome lists are written sorted and without duplicates.
  const auto strings = [&w](const char* key,
                            const std::set<std::string>& v) {
    w.key(key).begin_array();
    for (const std::string& o : v) w.string(o);
    w.end_array();
  };
  w.begin_object();
  w.key("xval").string(r.litmus);
  w.key("arch").string(r.arch);
  w.key("online_cpus").integer(r.online_cpus);
  w.key("skipped").boolean(r.skipped);
  w.key("skip_reason").string(r.skip_reason);
  w.key("iterations").integer(r.iterations);
  w.key("wedged_iterations").integer(r.wedged_iterations);
  w.key("model_sound").boolean(r.model_sound());
  w.key("conclusive").boolean(r.conclusive());
  w.key("coverage").fixed(r.coverage(), 4);
  w.key("violations_observed").integer(r.violations_observed);
  w.key("sim").begin_object();
  w.key("states_explored").integer(r.sim.states_explored);
  w.key("violating_states").integer(r.sim.violating_states);
  w.key("complete").boolean(r.sim.complete);
  w.key("violation").string(r.sim.violation);
  strings("reachable", r.sim.reachable);
  strings("safe", r.sim.safe);
  strings("violating", r.sim.violating);
  w.end_object();
  w.key("observed").begin_object();
  for (const auto& [obs, count] : r.observed) w.key(obs).integer(count);
  w.end_object();
  strings("unexplained", {r.unexplained.begin(), r.unexplained.end()});
  strings("unobserved", {r.unobserved.begin(), r.unobserved.end()});
  w.end_object();
  return w.text() + "\n";
}

}  // namespace lbmf::xval
