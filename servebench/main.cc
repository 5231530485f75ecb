/// \file main.cc
/// \brief servebench: closed-loop serving benchmark of wqe.
///
///   servebench --workload cold_miss|hot_hits|republish --seed N
///              --seconds S --trace 0|1 [--work-dir DIR]
///
/// Prints one JSON object as the last line of stdout (see bench.h and
/// README.md); exits 1 without one when the run cannot produce a result.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

/// A whole number spanning all of `text`.
std::optional<uint64_t> ParseCount(const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<servebench::RunOptions> ParseArgs(int argc, char** argv) {
  servebench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      std::optional<servebench::Workload> workload =
          servebench::ParseWorkload(value);
      if (!workload.has_value()) return std::nullopt;
      options.workload = *workload;
      have_workload = true;
      continue;
    }
    if (flag == "--work-dir") {
      options.work_dir = value;
      continue;
    }
    if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      continue;
    }
    const std::optional<uint64_t> number = ParseCount(value);
    if (!number.has_value()) return std::nullopt;
    if (flag == "--seed") {
      options.seed = *number;
    } else if (flag == "--trace" && *number <= 1) {
      options.trace = *number == 1;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(options.seconds > 0.0 && options.seconds <= 3600.0)) {
    return std::nullopt;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<servebench::RunOptions> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::cerr << "usage: servebench --workload cold_miss|hot_hits|republish "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
    return 2;
  }
  wqe::Result<servebench::Outcome> outcome = servebench::RunBenchmark(*options);
  if (!outcome.ok()) {
    std::cerr << "servebench: " << outcome.status().ToString() << "\n";
    return 1;
  }
  std::cout << outcome->ToJson() << std::endl;
  return 0;
}
