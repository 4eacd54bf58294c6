#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lbmf {

/// The one JSON writer behind every report the repo emits (policy tables,
/// sweep and inference reports, xval diffs, BENCH_* files). Separators,
/// escaping (`"`, `\` and every control character) and the number forms
/// are decided here only. kCompact writes {"a":1,"b":[2,3]}. kReport puts
/// the root's members, and the elements of arrays opened `one_per_line`,
/// on lines of their own, indented two spaces per level, and separates
/// everything else with ", " and ": ". Mis-nesting is a program bug and
/// aborts.
class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kCompact, kReport };

  explicit JsonWriter(Layout layout = Layout::kCompact) : layout_(layout) {}

  JsonWriter& begin_object() { return open(true, false); }
  JsonWriter& begin_array(bool one_per_line = false) {
    return open(false, one_per_line);
  }
  JsonWriter& end_object() { return close(true); }
  JsonWriter& end_array() { return close(false); }
  JsonWriter& key(std::string_view k);

  JsonWriter& string(std::string_view s);
  JsonWriter& boolean(bool b) { return scalar(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& integer(T v) {
    return scalar(std::to_string(v));
  }
  /// printf's %.Nf, N in [0, 4].
  JsonWriter& fixed(double v, int decimals);
  /// printf's %g, which is also what operator<< writes for a double.
  JsonWriter& general(double v);
  /// %.0f for an integral value below 1e15 in magnitude, else %g.
  JsonWriter& number(double v);

  const std::string& text() const noexcept { return out_; }

 private:
  struct Frame {
    bool object;
    bool one_per_line;
    std::size_t count;
  };

  void open_value();
  void separate();
  JsonWriter& scalar(std::string_view text);
  JsonWriter& open(bool object, bool one_per_line);
  JsonWriter& close(bool object);

  Layout layout_;
  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

}  // namespace lbmf
