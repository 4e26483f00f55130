// Small string utilities shared by the .bench parser and report writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sereep {

/// Remove leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Split on a single delimiter character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char delim);

/// Split on any whitespace run; empty fields are dropped.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view text);

/// Case-insensitive ASCII equality (gate keywords in .bench files vary).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Uppercase ASCII copy.
[[nodiscard]] std::string to_upper(std::string_view text);

/// True if `text` starts with `prefix` (case-insensitive).
[[nodiscard]] bool istarts_with(std::string_view text,
                                std::string_view prefix) noexcept;

/// Strict base-10 integer parse of the WHOLE string: nullopt on an empty
/// string, leading/trailing garbage ("12x", "1e4", " 7"), or a value outside
/// long's range. The forgiving strtol convention (silently returning 0 and
/// ignoring trailing text) turned CLI typos like --threads=abc into valid
/// configurations; every user-facing numeric flag must parse through here.
[[nodiscard]] std::optional<long> parse_long_strict(
    std::string_view text) noexcept;

/// Strict floating-point parse of the WHOLE string: nullopt on an empty
/// string, trailing garbage, or overflow to +-inf ("1e999"). "inf"/"nan"
/// spellings are rejected too — no numeric flag means them.
[[nodiscard]] std::optional<double> parse_double_strict(
    std::string_view text) noexcept;

/// The round-trip form every golden CSV is pinned at: the characters of
/// printf("%.17g"), printed by std::to_chars (which the standard specifies
/// to produce them) at a fraction of snprintf's cost.
[[nodiscard]] std::string format_round_trip(double value);

/// Appends format_round_trip(value) to `out`, with no temporary string.
void append_round_trip(std::string& out, double value);

/// printf-style float with fixed decimals, used by table rendering.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Human-friendly engineering formatting: 12345 -> "12.3k".
[[nodiscard]] std::string format_si(double value);

}  // namespace sereep
