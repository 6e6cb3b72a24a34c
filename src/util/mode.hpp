// Mode tables: the one place each configuration enum's names live.
//
// Every switch of the system (exchange path, distribution strategy,
// partitioner, feature cache, serving cache, workspace pool, batch policy)
// is an enum whose values need stable lower-case names for logs, CLI flags,
// JSON and environment knobs. Instead of a hand-written name switch, parse
// chain and token list per enum, each enum specialises ModeTable beside its
// declaration:
//
//   template <>
//   struct util::ModeTable<core::PlanMode> {
//     static constexpr ModeRow<core::PlanMode> rows[] = {
//         {core::PlanMode::k1D, "1d"}, ...};  // every value, in order
//     static constexpr const char* env = "MGGCN_PLAN";     // optional
//     static constexpr core::PlanMode fallback = core::PlanMode::kAuto;
//   };
//
// and mode_name / parse_mode / env_mode below derive everything from it.
#pragma once

#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "util/env.hpp"

namespace mggcn::util {

template <typename E>
struct ModeRow {
  E value;
  const char* name;
};

/// Specialised next to each enum; see the file comment.
template <typename E>
struct ModeTable;

/// Number of values of `E` (the rows are indexable by enumerator value).
template <typename E>
constexpr std::size_t mode_count() {
  return std::size(ModeTable<E>::rows);
}

/// Stable lower-case name for logs, CLI, and JSON.
template <typename E>
[[nodiscard]] const char* mode_name(E mode) {
  for (const ModeRow<E>& row : ModeTable<E>::rows) {
    if (row.value == mode) return row.name;
  }
  return "unknown";
}

/// Parses a name; nullopt when unknown.
template <typename E>
[[nodiscard]] std::optional<E> parse_mode(std::string_view name) {
  for (const ModeRow<E>& row : ModeTable<E>::rows) {
    if (name == row.name) return row.value;
  }
  return std::nullopt;
}

/// The legal tokens as prose, e.g. "'off', 'embed', or 'auto'".
template <typename E>
[[nodiscard]] std::string mode_tokens() {
  constexpr std::size_t n = mode_count<E>();
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += n > 2 ? ", " : " ";
    if (i > 0 && i + 1 == n) out += "or ";
    out += '\'';
    out += ModeTable<E>::rows[i].name;
    out += '\'';
  }
  return out;
}

/// The table's environment knob, or its fallback when unset/empty. An
/// unknown token throws InvalidArgumentError naming the knob and every
/// legal token.
template <typename E>
[[nodiscard]] E env_mode() {
  return env_enum(ModeTable<E>::env, ModeTable<E>::fallback, parse_mode<E>,
                  mode_tokens<E>());
}

}  // namespace mggcn::util
