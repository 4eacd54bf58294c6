#pragma once

// What the command-line tools share: the malformed-flag exit and reading
// the litmus source named on the command line.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace lbmf::cli {

[[noreturn]] inline void bad_flag(const std::string& flag) {
  std::fprintf(stderr, "unrecognized or malformed flag: %s\n", flag.c_str());
  std::exit(2);
}

/// The first argument that is not a `--flag`; empty when there is none.
inline std::string first_positional(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) return argv[i];
  }
  return {};
}

/// The text of the file at `path`, or of stdin when `path` is "-". Exits 2
/// with "cannot open PATH" when the file cannot be opened.
inline std::string read_source(const std::string& path) {
  std::ostringstream ss;
  if (path == "-") {
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace lbmf::cli
