// Name <-> value tables for enums that are spelled out on the command
// line, in config files and on the daemon's wire. Each such enum has
// exactly one table, next to its definition; parsers and printers
// both read it, so a spelling cannot exist in one direction only.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace dcrm {

template <class E>
struct EnumName {
  const char* name;
  E value;
};

// The spelling of `v`, or "?" when the table lacks it.
template <class E, std::size_t N>
constexpr const char* NameOf(const EnumName<E> (&names)[N], E v) {
  for (const EnumName<E>& n : names) {
    if (n.value == v) return n.name;
  }
  return "?";
}

template <class E, std::size_t N>
constexpr std::optional<E> ValueOf(const EnumName<E> (&names)[N],
                                   std::string_view s) {
  for (const EnumName<E>& n : names) {
    if (s == n.name) return n.value;
  }
  return std::nullopt;
}

}  // namespace dcrm
