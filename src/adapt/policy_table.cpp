#include "lbmf/adapt/policy_table.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "lbmf/util/check.hpp"
#include "lbmf/util/json.hpp"

namespace lbmf::adapt {

const char* to_string(PolicyMode m) noexcept {
  switch (m) {
    case PolicyMode::kSymmetric:
      return "symmetric";
    case PolicyMode::kAsymmetric:
      return "asymmetric";
    case PolicyMode::kDoubleLmfence:
      return "double-lmfence";
  }
  return "?";
}

std::optional<PolicyMode> mode_from_string(std::string_view s) noexcept {
  if (s == "symmetric") return PolicyMode::kSymmetric;
  if (s == "asymmetric") return PolicyMode::kAsymmetric;
  if (s == "double-lmfence") return PolicyMode::kDoubleLmfence;
  return std::nullopt;
}

PolicyTable::PolicyTable(std::vector<double> ratios,
                         std::vector<double> roundtrips,
                         std::vector<PolicyMode> modes)
    : ratios_(std::move(ratios)), roundtrips_(std::move(roundtrips)),
      modes_(std::move(modes)) {
  LBMF_CHECK_MSG(!ratios_.empty() && !roundtrips_.empty(),
                 "PolicyTable axes must be non-empty");
  LBMF_CHECK_MSG(modes_.size() == ratios_.size() * roundtrips_.size(),
                 "PolicyTable modes must cover the full grid");
  for (std::size_t i = 1; i < ratios_.size(); ++i) {
    LBMF_CHECK_MSG(ratios_[i - 1] < ratios_[i],
                   "PolicyTable ratio axis must ascend");
  }
  for (std::size_t i = 1; i < roundtrips_.size(); ++i) {
    LBMF_CHECK_MSG(roundtrips_[i - 1] < roundtrips_[i],
                   "PolicyTable roundtrip axis must ascend");
  }
}

namespace {

/// Index of the axis value nearest to `v` in log10 space (both the freq
/// and the round-trip axes are decade-ish scales; clamps outside the
/// range). Non-positive inputs clamp to the first entry.
std::size_t nearest_log(const std::vector<double>& axis, double v) {
  if (!(v > 0.0)) return 0;
  const double lv = std::log10(v);
  std::size_t best = 0;
  double best_d = std::fabs(std::log10(axis[0]) - lv);
  for (std::size_t i = 1; i < axis.size(); ++i) {
    const double d = std::fabs(std::log10(axis[i]) - lv);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace

PolicyMode PolicyTable::lookup(double freq_ratio,
                               double roundtrip_cycles) const noexcept {
  const std::size_t r = nearest_log(ratios_, freq_ratio);
  const std::size_t t = nearest_log(roundtrips_, roundtrip_cycles);
  return modes_[t * ratios_.size() + r];
}

PolicyMode PolicyTable::lookup(double freq_ratio, double roundtrip_cycles,
                               std::string_view backend) const noexcept {
  const std::size_t r = nearest_log(ratios_, freq_ratio);
  const std::size_t t = nearest_log(roundtrips_, roundtrip_cycles);
  const std::size_t cell = t * ratios_.size() + r;
  if (!backend.empty()) {
    for (const BackendPlane& p : planes_) {
      if (p.backend == backend) return p.modes[cell];
    }
  }
  return modes_[cell];
}

void PolicyTable::add_plane(BackendPlane plane) {
  LBMF_CHECK_MSG(plane.modes.size() == modes_.size(),
                 "BackendPlane must cover the full base grid");
  for (BackendPlane& p : planes_) {
    if (p.backend == plane.backend) {
      p = std::move(plane);
      return;
    }
  }
  planes_.push_back(std::move(plane));
}

PolicyTable PolicyTable::builtin_default() {
  constexpr PolicyMode S = PolicyMode::kSymmetric;
  constexpr PolicyMode A = PolicyMode::kAsymmetric;
  constexpr PolicyMode D = PolicyMode::kDoubleLmfence;
  // Rows 10..1500 are the shipped E17 sweep of the THE-deque litmus
  // (BENCH_sweep.json) collapsed by infer::policy_table; rows 5000/15000
  // extrapolate to signal-prototype territory with the same arithmetic the
  // sweep priced sites with: the asymmetric mix wins once
  // ratio · mfence_cycles(100) exceeds the serialization round trip.
  PolicyTable t(
      /*ratios=*/{1, 10, 100, 1'000, 10'000, 100'000},
      /*roundtrips=*/{10, 50, 150, 500, 1'500, 5'000, 15'000},
      {
          D, A, A, A, A, A,  // rt 10
          A, A, A, A, A, A,  // rt 50
          S, A, A, A, A, A,  // rt 150
          S, A, A, A, A, A,  // rt 500
          S, S, A, A, A, A,  // rt 1500
          S, S, A, A, A, A,  // rt 5000
          S, S, S, A, A, A,  // rt 15000 (signal prototype + primary penalty)
      });
  // Signal plane: signals only drain the registered primary, so roles are
  // fixed and double-l-mfence is unrealizable — clamp those cells to the
  // asymmetric mix, matching what adapt::realize would do anyway.
  std::vector<PolicyMode> signal_modes = t.modes();
  for (PolicyMode& m : signal_modes) {
    if (m == D) m = A;
  }
  t.add_plane({"signal", std::move(signal_modes)});
  // Role-inverting plane (membarrier-pair): in the symmetric-traffic
  // column (ratio ≈ 1) each side's announce is on the hot path, so per
  // announce the comparison is light fence + drain (≈ lest_victim 3 +
  // round trip) against mfence + remote serialization (≈ 100 + 200 in
  // the E18 window model). Double-l-mfence wins through the LE/ST-scale
  // rows (rt ≤ 150) and loses once the drain dominates (rt ≥ 500), where
  // the base grid's symmetric verdict stands.
  std::vector<PolicyMode> inverting_modes = t.modes();
  const std::size_t ncols = t.ratios().size();
  for (std::size_t row = 0; row < 3; ++row) {  // rt rows 10, 50, 150
    inverting_modes[row * ncols] = D;
  }
  t.add_plane({"membarrier-pair", std::move(inverting_modes)});
  return t;
}

namespace {

/// Minimal scanners for the compact table form. They tolerate whitespace
/// but not reordered nesting: keys are located by their quoted spelling at
/// any depth.

std::size_t find_key(std::string_view j, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += '"';
  return j.find(needle);
}

/// Parse `"key": [n, n, ...]`; empty on failure.
std::vector<double> parse_number_array(std::string_view j,
                                       std::string_view key) {
  std::vector<double> out;
  std::size_t p = find_key(j, key);
  if (p == std::string_view::npos) return out;
  p = j.find('[', p);
  if (p == std::string_view::npos) return out;
  const std::size_t end = j.find(']', p);
  if (end == std::string_view::npos) return out;
  ++p;
  while (p < end) {
    char* stop = nullptr;
    const double v = std::strtod(j.data() + p, &stop);
    if (stop == j.data() + p) break;
    out.push_back(v);
    p = static_cast<std::size_t>(stop - j.data());
    const std::size_t comma = j.find(',', p);
    if (comma == std::string_view::npos || comma > end) break;
    p = comma + 1;
  }
  return out;
}

/// Parse `"key": ["s", "s", ...]`; empty on failure.
std::vector<std::string> parse_string_array(std::string_view j,
                                            std::string_view key) {
  std::vector<std::string> out;
  std::size_t p = find_key(j, key);
  if (p == std::string_view::npos) return out;
  p = j.find('[', p);
  if (p == std::string_view::npos) return out;
  const std::size_t end = j.find(']', p);
  if (end == std::string_view::npos) return out;
  while (true) {
    const std::size_t open = j.find('"', p + 1);
    if (open == std::string_view::npos || open > end) break;
    const std::size_t close = j.find('"', open + 1);
    if (close == std::string_view::npos || close > end) break;
    out.emplace_back(j.substr(open + 1, close - open - 1));
    p = close;
  }
  return out;
}

/// The constructor's axis contract — non-empty and strictly ascending —
/// checked up front, so outside input yields nullopt instead of an abort.
bool valid_axis(const std::vector<double>& axis) {
  if (axis.empty()) return false;
  for (std::size_t i = 1; i < axis.size(); ++i) {
    if (!(axis[i - 1] < axis[i])) return false;
  }
  return true;
}

}  // namespace

std::optional<PolicyTable> PolicyTable::from_json(std::string_view j) {
  const std::vector<double> ratios = parse_number_array(j, "ratios");
  const std::vector<double> roundtrips = parse_number_array(j, "roundtrips");
  const std::vector<std::string> mode_names = parse_string_array(j, "modes");
  if (!valid_axis(ratios) || !valid_axis(roundtrips) ||
      mode_names.size() != ratios.size() * roundtrips.size()) {
    return std::nullopt;
  }
  std::vector<PolicyMode> modes;
  modes.reserve(mode_names.size());
  for (const std::string& n : mode_names) {
    const std::optional<PolicyMode> m = mode_from_string(n);
    if (!m) return std::nullopt;
    modes.push_back(*m);
  }
  PolicyTable table(ratios, roundtrips, std::move(modes));
  // Optional planes: a "backends" name list plus one "plane:<name>" mode
  // array per entry. A malformed plane is skipped, not fatal.
  for (const std::string& name : parse_string_array(j, "backends")) {
    const std::vector<std::string> plane_names =
        parse_string_array(j, std::string("plane:") + name);
    if (plane_names.size() != table.modes().size()) continue;
    std::vector<PolicyMode> pmodes;
    pmodes.reserve(plane_names.size());
    bool ok = true;
    for (const std::string& n : plane_names) {
      const std::optional<PolicyMode> m = mode_from_string(n);
      if (!m) {
        ok = false;
        break;
      }
      pmodes.push_back(*m);
    }
    if (ok) table.add_plane({name, std::move(pmodes)});
  }
  return table;
}

std::string PolicyTable::to_json() const {
  JsonWriter w;
  const auto axis = [&w](const char* key, const std::vector<double>& v) {
    w.key(key).begin_array();
    for (const double x : v) w.number(x);
    w.end_array();
  };
  const auto modes = [&w](const std::string& key,
                          const std::vector<PolicyMode>& v) {
    w.key(key).begin_array();
    for (const PolicyMode m : v) w.string(to_string(m));
    w.end_array();
  };
  w.begin_object().key("policy_table").integer(1);
  axis("ratios", ratios_);
  axis("roundtrips", roundtrips_);
  modes("modes", modes_);
  if (!planes_.empty()) {
    w.key("backends").begin_array();
    for (const BackendPlane& p : planes_) w.string(p.backend);
    w.end_array();
    for (const BackendPlane& p : planes_) modes("plane:" + p.backend, p.modes);
  }
  w.end_object();
  return w.text();
}

}  // namespace lbmf::adapt
