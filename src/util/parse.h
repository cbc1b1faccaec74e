#pragma once

// Whole-token number parsing for the command-line front ends (the bench
// binaries and surfnet_cli), so every program reads a flag value the same
// way.

#include <charconv>
#include <cstring>
#include <system_error>

namespace surfnet::util {

/// `text` parsed as a whole token by std::from_chars, so a leading '+' or
/// space and any trailing character fail ("+5", " 5", "5x").
template <typename T>
bool parse_whole(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace surfnet::util
