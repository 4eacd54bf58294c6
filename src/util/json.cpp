#include "lbmf/util/json.hpp"

#include <cmath>
#include <cstdio>

#include "lbmf/util/check.hpp"

namespace lbmf {
namespace {

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

JsonWriter& JsonWriter::key(std::string_view k) {
  LBMF_CHECK_MSG(!stack_.empty() && stack_.back().object && !key_pending_,
                 "JsonWriter: a key belongs in an object, before its value");
  separate();
  append_quoted(out_, k);
  out_ += layout_ == Layout::kReport ? ": " : ":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view s) {
  open_value();
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::fixed(double v, int decimals) {
  LBMF_CHECK_MSG(decimals >= 0 && decimals <= 4,
                 "JsonWriter: fixed() takes 0 to 4 decimals");
  char buf[320];  // fits any double: DBL_MAX has 309 integral digits
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return scalar(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::general(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return scalar(buf);
}

JsonWriter& JsonWriter::number(double v) {
  return v == std::floor(v) && std::fabs(v) < 1e15 ? fixed(v, 0) : general(v);
}

// A value right after its key needs no separator; an array element does.
void JsonWriter::open_value() {
  if (key_pending_) {
    key_pending_ = false;
  } else if (!stack_.empty()) {
    LBMF_CHECK_MSG(!stack_.back().object,
                   "JsonWriter: an object member needs a key");
    separate();
  }
}

// Before every element but the first a comma; then a line break in a
// one-per-line container, or a space between the report layout's inline
// elements.
void JsonWriter::separate() {
  Frame& f = stack_.back();
  if (f.count++ > 0) out_ += ',';
  if (f.one_per_line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  } else if (f.count > 1 && layout_ == Layout::kReport) {
    out_ += ' ';
  }
}

JsonWriter& JsonWriter::scalar(std::string_view text) {
  open_value();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::open(bool object, bool one_per_line) {
  open_value();
  out_ += object ? '{' : '[';
  // The report layout always puts the root's members one per line.
  stack_.push_back(
      {object, layout_ == Layout::kReport && (one_per_line || stack_.empty()),
       0});
  return *this;
}

JsonWriter& JsonWriter::close(bool object) {
  LBMF_CHECK_MSG(
      !stack_.empty() && stack_.back().object == object && !key_pending_,
      "JsonWriter: close does not match the open container");
  const bool one_per_line = stack_.back().one_per_line;
  stack_.pop_back();
  if (one_per_line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += object ? '}' : ']';
  return *this;
}

}  // namespace lbmf
