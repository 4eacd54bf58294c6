#pragma once

// Measurement plumbing shared by the workloads: sample statistics, the
// open-loop pacer, span tracing with self time, the metric registry and the
// host probes. Everything here is the benchmark's own code; the layers it
// measures are only ever called from the workload files.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lbmfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (0 < pct <= 100) of `v`, which is sorted in
/// place on first use. Returns a measured sample, never an interpolation.
/// 0 on an empty vector.
double percentile(std::vector<double>& v, double pct);

/// Median of `v` (nearest-rank p50); sorts `v`.
inline double median(std::vector<double>& v) { return percentile(v, 50.0); }

/// Samples strictly above the nearest-rank position of `pct` among `n`.
std::uint64_t samples_beyond(std::uint64_t n, double pct);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that still has at least `min_beyond` samples beyond it; 0 when even the
/// median has fewer. A tail is only reported at a percentile this returns.
double highest_supported_percentile(std::uint64_t n,
                                    std::uint64_t min_beyond = 10);

// -------------------------------------------------------- open-loop pacer

/// Releases a precomputed arrival schedule against the clock and keeps the
/// generator honest: each request is stamped with its *intended* send
/// time, and how late the generator actually sent it is recorded, so a
/// stall that delays later sends shows up in their latency instead of
/// being omitted.
class Pacer {
 public:
  /// `due_ns` are offsets from `start_ns`, non-decreasing.
  Pacer(const std::vector<std::int64_t>& due_ns, std::int64_t start_ns)
      : due_(due_ns), start_(start_ns) {
    lag_ns_.reserve(due_ns.size());
  }

  std::size_t next() const noexcept { return next_; }
  bool done() const noexcept { return next_ == due_.size(); }

  /// Is the next request due at `now`?
  bool due(std::int64_t now) const noexcept {
    return next_ < due_.size() && start_ + due_[next_] <= now;
  }
  std::int64_t intended(std::size_t i) const noexcept {
    return start_ + due_[i];
  }
  /// The next request went out at `sent_ns`; records its lateness.
  void sent(std::int64_t sent_ns) {
    lag_ns_.push_back(static_cast<double>(sent_ns - intended(next_)));
    ++next_;
  }

  std::vector<double>& lag_ns() noexcept { return lag_ns_; }

 private:
  const std::vector<std::int64_t>& due_;
  std::int64_t start_;
  std::size_t next_ = 0;
  std::vector<double> lag_ns_;
};

// ---------------------------------------------------------------- tracing

/// Union length of child intervals clipped to their parent's interval.
/// Children must be added in non-decreasing start order (which a single
/// thread's sequential calls guarantee); overlaps are counted once.
class Coverage {
 public:
  Coverage(std::int64_t begin, std::int64_t end) : end_(end), until_(begin) {}
  void add(std::int64_t b, std::int64_t e) noexcept {
    if (b < until_) b = until_;
    if (e > end_) e = end_;
    if (e > b) {
      covered_ += e - b;
      until_ = e;
    }
  }
  std::int64_t covered() const noexcept { return covered_; }

 private:
  std::int64_t end_, until_, covered_ = 0;
};

/// Names of the calls the benchmark wraps in spans, and the layer each
/// belongs to. kPhase spans are the benchmark's own work (their self time
/// is harness time).
enum class SpanName : std::uint8_t {
  kPhase,
  kServerStart,
  kServerStop,
  kTrySubmit,
  kPoll,
  kPushRulesWave,
  kTotalPackets,
  kSchedulerCreate,
  kSchedulerRun,
  kProblemFromSource,
  kInferRun,
  kExplorerRun,
  kCount
};
const char* to_string(SpanName n) noexcept;
/// "bench", "serve", "ws", "infer" or "sim".
const char* layer_of(SpanName n) noexcept;

/// Per-thread span recorder. Spans nest with stack discipline on one
/// thread; each carries the id of the request, wave or job it belongs to.
/// Aggregates (count, total and self time, a duration histogram) cover
/// every span; raw spans are kept up to a cap and written out at exit.
class Tracer {
 public:
  static constexpr std::size_t kKeepSpans = 1u << 18;
  static constexpr std::size_t kHistNs = 1u << 14;  // exact up to 16 µs

  struct Span {
    SpanName name;
    std::int64_t parent;  // index into the kept spans, -1 for a root
    std::uint64_t id;
    std::int64_t begin, end;
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<std::uint32_t> hist;        // duration -> count, < kHistNs
    std::vector<double> overflow;           // durations >= kHistNs
  };

  explicit Tracer(int thread) : thread_(thread) {}

  void begin(SpanName n, std::uint64_t id);
  void end();

  /// Merge another thread's aggregates into this one (spans are kept per
  /// thread and written with their thread number).
  void merge(const Tracer& o);

  const Aggregate& agg(SpanName n) const {
    return aggs_[static_cast<std::size_t>(n)];
  }
  std::uint64_t spans() const noexcept { return spans_; }
  std::uint64_t kept() const noexcept { return kept_.size(); }
  /// Median duration of `n`'s spans in ns (0 without samples).
  double median_ns(SpanName n) const;

  /// Append kept spans as CSV rows:
  /// thread,index,parent,name,layer,id,begin_ns,end_ns.
  void write_csv(std::string& out) const;

 private:
  struct Frame {
    SpanName name;
    std::int64_t kept;  // index into kept_, -1 once the cap is reached
    std::int64_t begin;
    Coverage kids;
  };
  int thread_;
  std::vector<Frame> stack_;
  Aggregate aggs_[static_cast<std::size_t>(SpanName::kCount)];
  std::vector<Span> kept_;
  std::uint64_t spans_ = 0;
};

/// RAII span on an optional tracer: a null tracer records nothing, so the
/// untraced run pays one predictable branch per call.
class Scope {
 public:
  Scope(Tracer* t, SpanName n, std::uint64_t id) : t_(t) {
    if (t_ != nullptr) t_->begin(n, id);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by every workload from the untraced
/// run, and the per-layer metrics, reported by every workload from the
/// traced run (0 for a layer the workload does not run). BENCHMARK.json
/// lists the same names and units; run.py checks that they agree.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// What one run reports. The setters refuse names outside the registries.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  static constexpr std::size_t kMaxErrors = 20;
  std::vector<std::string> errors;  // the first kMaxErrors failed checks
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  /// Record a failed output check covering `ops` operations.
  void fail(const std::string& what, std::uint64_t ops = 1);
  void check(bool ok, const std::string& what, std::uint64_t ops = 1) {
    if (!ok) fail(what, ops);
  }
  void set_e2e(std::string_view name, double v);
  void set_layer(std::string_view name, double v);
  /// Per-layer self time and call counts from a tracer's aggregates.
  void set_span_layers(const Tracer& t);
};

/// The final result line: exactly correct/attempted/failed/metrics.
std::string result_json(const Outcome& o, bool trace);

// ------------------------------------------------------------------- host

/// Aggregate CPU jiffies from /proc/stat.
struct CpuTimes {
  std::uint64_t busy = 0;   // user+nice+system+irq+softirq
  std::uint64_t idle = 0;   // idle+iowait
  std::uint64_t steal = 0;
  bool ok = false;
};
CpuTimes read_cpu_times();
/// steal / (busy + steal) and busy / total over an interval.
double steal_frac(const CpuTimes& a, const CpuTimes& b);
double cpu_util(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// CPU model, nproc, kernel, EXPEDITED membarrier support, compiler and
/// build type, as one JSON object.
std::string host_fingerprint();

}  // namespace lbmfbench
