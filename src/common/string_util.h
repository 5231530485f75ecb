#pragma once

/// \file string_util.h
/// \brief Small string helpers shared across modules.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wqe {

/// \brief ASCII lowercase (non-ASCII bytes pass through unchanged).
std::string ToLower(std::string_view s);

/// \brief Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief Parses `s`, after `Trim`, as a decimal `uint32_t`.  Nullopt
/// when the text is empty, has anything but digits (a sign, a trailing
/// `x`), or is out of range.
std::optional<uint32_t> ParseUint32(std::string_view s);

/// \brief Splits on any run of ASCII whitespace; empty fields dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// \brief Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Formats a double with fixed precision (no locale surprises).
std::string FormatDouble(double v, int precision);

/// \brief Wikipedia-style title normalization: trim, collapse internal
/// whitespace/underscores to single spaces, lowercase.
///
/// Real Wikipedia capitalizes the first letter and is case-sensitive beyond
/// it; for entity linking the paper matches titles against free text, so we
/// normalize fully to lowercase on both sides.
std::string NormalizeTitle(std::string_view s);

}  // namespace wqe
