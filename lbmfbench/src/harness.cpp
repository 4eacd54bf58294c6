#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <linux/membarrier.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#ifndef LBMFBENCH_BUILD_TYPE
#define LBMFBENCH_BUILD_TYPE "unknown"
#endif

namespace lbmfbench {

// ------------------------------------------------------------- statistics

namespace {

// 1-based nearest rank of `pct` among n samples, ceil(pct/100 * n), in
// integer thousandths of a percent so that 99.9% of 10000 is exactly 9990.
std::uint64_t nearest_rank(std::uint64_t n, double pct) {
  const auto k = static_cast<std::uint64_t>(std::llround(pct * 1000.0));
  return std::max<std::uint64_t>(1, (n * k + 99'999) / 100'000);
}

}  // namespace

double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0.0;
  if (!std::is_sorted(v.begin(), v.end())) std::sort(v.begin(), v.end());
  return v[std::min<std::uint64_t>(nearest_rank(v.size(), pct), v.size()) - 1];
}

std::uint64_t samples_beyond(std::uint64_t n, double pct) {
  const std::uint64_t r = nearest_rank(n, pct);
  return r >= n ? 0 : n - r;
}

double highest_supported_percentile(std::uint64_t n,
                                    std::uint64_t min_beyond) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0,
                                       99.9, 99.99, 99.999};
  double best = 0.0;
  for (double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

// ---------------------------------------------------------------- tracing

const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kPhase: return "phase";
    case SpanName::kServerStart: return "Server::start";
    case SpanName::kServerStop: return "Server::stop";
    case SpanName::kTrySubmit: return "Client::try_submit";
    case SpanName::kPoll: return "Client::poll";
    case SpanName::kPushRulesWave: return "Server::push_rules_wave";
    case SpanName::kTotalPackets: return "Server::total_packets";
    case SpanName::kSchedulerCreate: return "Scheduler::Scheduler";
    case SpanName::kSchedulerRun: return "Scheduler::run";
    case SpanName::kProblemFromSource: return "problem_from_source";
    case SpanName::kInferRun: return "InferenceEngine::run";
    case SpanName::kExplorerRun: return "Explorer::run";
    case SpanName::kCount: break;
  }
  return "?";
}

const char* layer_of(SpanName n) noexcept {
  switch (n) {
    case SpanName::kPhase: return "bench";
    case SpanName::kSchedulerCreate:
    case SpanName::kSchedulerRun: return "ws";
    case SpanName::kProblemFromSource:
    case SpanName::kInferRun: return "infer";
    case SpanName::kExplorerRun: return "sim";
    default: return "serve";
  }
}

void Tracer::begin(SpanName n, std::uint64_t id) {
  const std::int64_t t = now_ns();
  std::int64_t idx = -1;
  if (kept_.size() < kKeepSpans) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    idx = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Span{n, parent, id, t, t});
  }
  stack_.push_back(
      Frame{n, idx, t, Coverage(t, std::numeric_limits<std::int64_t>::max())});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  Frame f = std::move(stack_.back());
  stack_.pop_back();
  const std::int64_t dur = t - f.begin;
  Aggregate& a = aggs_[static_cast<std::size_t>(f.name)];
  ++a.count;
  ++spans_;
  a.total_ns += dur;
  a.self_ns += dur - f.kids.covered();
  if (dur >= 0 && static_cast<std::size_t>(dur) < kHistNs) {
    if (a.hist.empty()) a.hist.assign(kHistNs, 0);
    ++a.hist[static_cast<std::size_t>(dur)];
  } else {
    a.overflow.push_back(static_cast<double>(dur));
  }
  if (f.kept >= 0) kept_[static_cast<std::size_t>(f.kept)].end = t;
  if (!stack_.empty()) stack_.back().kids.add(f.begin, t);
}

void Tracer::merge(const Tracer& o) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
       ++i) {
    Aggregate& a = aggs_[i];
    const Aggregate& b = o.aggs_[i];
    a.count += b.count;
    a.total_ns += b.total_ns;
    a.self_ns += b.self_ns;
    if (!b.hist.empty()) {
      if (a.hist.empty()) a.hist.assign(kHistNs, 0);
      for (std::size_t d = 0; d < kHistNs; ++d) a.hist[d] += b.hist[d];
    }
    a.overflow.insert(a.overflow.end(), b.overflow.begin(), b.overflow.end());
  }
  spans_ += o.spans_;
}

double Tracer::median_ns(SpanName n) const {
  const Aggregate& a = agg(n);
  if (a.count == 0) return 0.0;
  const std::uint64_t want = (a.count + 1) / 2;  // nearest rank of p50
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < a.hist.size(); ++d) {
    seen += a.hist[d];
    if (seen >= want) return static_cast<double>(d);
  }
  std::vector<double> rest = a.overflow;
  std::sort(rest.begin(), rest.end());
  return rest[static_cast<std::size_t>(want - seen - 1)];
}

void Tracer::write_csv(std::string& out) const {
  char line[256];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::snprintf(line, sizeof line, "%d,%zu,%lld,%s,%s,%llu,%lld,%lld\n",
                  thread_, i, static_cast<long long>(s.parent),
                  to_string(s.name), layer_of(s.name),
                  static_cast<unsigned long long>(s.id),
                  static_cast<long long>(s.begin),
                  static_cast<long long>(s.end));
    out += line;
  }
}

// ---------------------------------------------------------------- metrics

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"req_p50_us", "us"},
    {"sat_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    // serve: data path
    {"serve.submit_ns_p50", "ns"},
    {"serve.poll_ns_p50", "ns"},
    {"serve.poll_hit_frac", "frac"},
    {"serve.refused_frac", "frac"},
    {"serve.gen_lag_p50_us", "us"},
    {"serve.gen_lag_p99_us", "us"},
    {"serve.req_p99_us", "us"},
    {"serve.req_p999_us", "us"},
    {"serve.req_samples", "count"},
    {"serve.late_requests", "count"},
    {"serve.requests", "count"},
    {"serve.packets", "count"},
    {"serve.grows", "count"},
    {"serve.self_s", "s"},
    {"serve.calls", "count"},
    // flowtable/dekker: the control plane's secondary side
    {"dekker.primary_acquires", "count"},
    {"dekker.primary_retreat_frac", "frac"},
    {"dekker.secondary_acquires", "count"},
    {"dekker.secondary_retreats", "count"},
    {"serve.ctl_tail_us", "us"},
    {"serve.ctl_tail_pct", "%"},
    {"serve.ctl_samples", "count"},
    {"serve.ctl_p50_us", "us"},
    {"serve.ctl_self_s", "s"},
    {"serve.export_p50_us", "us"},
    {"serve.exports", "count"},
    // core: signal serializer
    {"core.signals_posted", "count"},
    {"core.signals_received", "count"},
    {"core.resignals", "count"},
    {"core.coalesce_frac", "frac"},
    {"core.rtt_us", "us"},
    // ws (signal policy), plus a membarrier-policy probe
    {"ws.spawns", "count"},
    {"ws.pops_fast", "count"},
    {"ws.pops_conflict", "count"},
    {"ws.victim_serializations", "count"},
    {"ws.steal_attempts", "count"},
    {"ws.steal_success_frac", "frac"},
    {"ws.ns_per_spawn", "ns"},
    {"ws.job_p50_ms", "ms"},
    {"ws.job_p90_ms", "ms"},
    {"ws.self_s", "s"},
    {"ws.calls", "count"},
    {"ws.mb_job_p50_ms", "ms"},
    {"ws.mb_victim_serializations", "count"},
    // sim
    {"sim.explore_s", "s"},
    {"sim.states", "count"},
    {"sim.transitions", "count"},
    {"sim.dedup_frac", "frac"},
    {"sim.visited_mb", "MiB"},
    {"sim.states_per_s", "1/s"},
    {"sim.self_s", "s"},
    {"sim.calls", "count"},
    // infer
    {"infer.run_s", "s"},
    {"infer.candidates_generated", "count"},
    {"infer.candidates_verified", "count"},
    {"infer.candidates_pruned", "count"},
    {"infer.clauses", "count"},
    {"infer.states_total", "count"},
    {"infer.prefix_states", "count"},
    {"infer.incremental_reuses", "count"},
    {"infer.states_per_s", "1/s"},
    {"infer.self_s", "s"},
    {"infer.calls", "count"},
    // set-up
    {"serve.start_ms", "ms"},
    {"serve.prefill_s", "s"},
    {"ws.start_ms", "ms"},
    {"infer.parse_ms", "ms"},
    // the harness and its tracing
    {"bench.self_s", "s"},
    {"bench.inputs_s", "s"},
    {"trace.spans", "count"},
    {"trace.spans_kept", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.sat_overhead_frac", "frac"},
    // host (not a layer)
    {"host.steal_frac", "frac"},
    {"host.cpu_util", "frac"},
};

namespace {

bool known(const std::vector<MetricDef>& defs, std::string_view name) {
  return std::any_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; });
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Outcome::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

void Outcome::set_e2e(std::string_view name, double v) {
  if (!known(kEndToEnd, name)) {
    errors.push_back("unregistered metric " + std::string(name));
    correct = false;
    return;
  }
  e2e[std::string(name)] = v;
}

void Outcome::set_layer(std::string_view name, double v) {
  if (!known(kPerLayer, name)) {
    errors.push_back("unregistered metric " + std::string(name));
    correct = false;
    return;
  }
  layer[std::string(name)] = v;
}

void Outcome::set_span_layers(const Tracer& t) {
  std::map<std::string, std::pair<double, double>> by_layer;  // self, calls
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
       ++i) {
    const auto n = static_cast<SpanName>(i);
    auto& [self, calls] = by_layer[layer_of(n)];
    self += static_cast<double>(t.agg(n).self_ns) * 1e-9;
    calls += static_cast<double>(t.agg(n).count);
  }
  set_layer("bench.self_s", by_layer["bench"].first);
  for (const std::string l : {"serve", "ws", "infer", "sim"}) {
    set_layer(l + ".self_s", by_layer[l].first);
    set_layer(l + ".calls", by_layer[l].second);
  }
  set_layer("serve.ctl_self_s",
            static_cast<double>(t.agg(SpanName::kPushRulesWave).self_ns +
                                t.agg(SpanName::kTotalPackets).self_ns) *
                1e-9);
  set_layer("serve.submit_ns_p50", t.median_ns(SpanName::kTrySubmit));
  set_layer("serve.poll_ns_p50", t.median_ns(SpanName::kPoll));
  set_layer("trace.spans", static_cast<double>(t.spans()));
  set_layer("trace.spans_kept", static_cast<double>(t.kept()));
}

std::string result_json(const Outcome& o, bool trace) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  const auto& defs = trace ? kPerLayer : kEndToEnd;
  const auto& values = trace ? o.layer : o.e2e;
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out += first ? "\"" : ", \"";
    first = false;
    out += d.name;
    out += "\": {\"value\": ";
    append_number(out, it == values.end() ? 0.0 : it->second);
    out += ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------------- host

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  if (f >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      cpu == "cpu") {
    t.busy = user + nice + system + irq + softirq;
    t.idle = idle + iowait;
    t.steal = steal;
    t.ok = true;
  }
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  const double steal = static_cast<double>(b.steal - a.steal);
  const double busy = static_cast<double>(b.busy - a.busy) + steal;
  return a.ok && b.ok && busy > 0 ? steal / busy : 0.0;
}

double cpu_util(const CpuTimes& a, const CpuTimes& b) {
  const double busy = static_cast<double>(b.busy - a.busy);
  const double total = busy + static_cast<double>(b.idle - a.idle) +
                       static_cast<double>(b.steal - a.steal);
  return a.ok && b.ok && total > 0 ? busy / total : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_fingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  utsname u{};
  uname(&u);
  // QUERY only reports support; it registers nothing, so probing here
  // does not change what the workloads measure.
  const long cmds = syscall(SYS_membarrier, MEMBARRIER_CMD_QUERY, 0);
  const bool expedited =
      cmds > 0 && (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0;
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(model) << "\", \"nproc\": "
     << sysconf(_SC_NPROCESSORS_ONLN) << ", \"affinity_cpus\": " << affinity
     << ", \"kernel\": \"" << json_escape(u.release)
     << "\", \"membarrier_expedited\": " << (expedited ? "true" : "false")
     << ", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"build_type\": \"" << LBMFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

}  // namespace lbmfbench
