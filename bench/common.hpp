// Shared helpers for the bench binaries: a minimal --flag=value parser and
// common formatting.
//
// Numeric flags parse STRICTLY (src/util/strings.hpp): an empty value,
// trailing garbage ("--threads=abc", "--vectors=1e4" for an integer flag) or
// an out-of-range literal is a fatal usage error — the binary prints a
// diagnostic to stderr and exits 2 instead of silently computing with 0.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/strings.hpp"

namespace sereep::bench {

/// Minimal command-line flags, one spelling each: --name=value, or a bare
/// --name stored as an empty value (boolean flags test has(); an empty path
/// means stdout where the caller writes text; numeric and get_path flags
/// exit 2 on it). `--name value` is NOT a value: the next word stays a
/// positional argument.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) continue;
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        kv_.emplace_back(std::string(arg.substr(0, eq)),
                         std::string(arg.substr(eq + 1)));
      } else {
        kv_.emplace_back(std::string(arg), std::string());
      }
    }
  }

  [[nodiscard]] bool has(std::string_view name) const {
    for (const auto& [k, v] : kv_) {
      if (k == name) return true;
    }
    return false;
  }

  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback) const {
    for (const auto& [k, v] : kv_) {
      if (k == name) return v;
    }
    return fallback;
  }

  /// A path that cannot mean stdout (a netlist to write): exits 2 with a
  /// diagnostic naming the flag when it is given bare.
  [[nodiscard]] std::string get_path(std::string_view name,
                                     std::string fallback) const {
    const std::string* raw = find(name);
    if (raw == nullptr) return fallback;
    if (raw->empty()) die(name, *raw, "a path");
    return *raw;
  }

  /// Strict integer flag: exits 2 with a diagnostic on a malformed or
  /// out-of-range value ("abc", "1e4", "", 9e99) instead of returning 0.
  [[nodiscard]] long get_int(std::string_view name, long fallback) const {
    const std::string* raw = find(name);
    if (raw == nullptr) return fallback;
    const std::optional<long> value = parse_long_strict(*raw);
    if (!value.has_value()) {
      die(name, *raw, "an integer");
    }
    return *value;
  }

  /// get_int plus a [min, max] domain check — the guard against the
  /// negative-count-wrapped-through-an-unsigned-cast bug class. Exits 2
  /// with a diagnostic when outside the domain.
  [[nodiscard]] long get_count(std::string_view name, long fallback, long min,
                               long max) const {
    const long value = get_int(name, fallback);
    if (value < min || value > max) {
      std::fprintf(stderr,
                   "error: --%.*s must be in [%ld, %ld], got %ld\n",
                   static_cast<int>(name.size()), name.data(), min, max,
                   value);
      std::exit(2);
    }
    return value;
  }

  /// Strict floating-point flag: exits 2 with a diagnostic on a malformed,
  /// non-finite or out-of-range value instead of returning 0.
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const {
    const std::string* raw = find(name);
    if (raw == nullptr) return fallback;
    const std::optional<double> value = parse_double_strict(*raw);
    if (!value.has_value()) {
      die(name, *raw, "a finite number");
    }
    return *value;
  }

 private:
  [[nodiscard]] const std::string* find(std::string_view name) const {
    for (const auto& [k, v] : kv_) {
      if (k == name) return &v;
    }
    return nullptr;
  }

  [[noreturn]] static void die(std::string_view name, const std::string& raw,
                               const char* expected) {
    std::fprintf(stderr, "error: --%.*s expects %s, got '%s'\n",
                 static_cast<int>(name.size()), name.data(), expected,
                 raw.c_str());
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace sereep::bench
