// Shared environment-knob parsing for the MGGCN_* knobs.
//
// Every knob (MGGCN_PLAN, MGGCN_PART, MGGCN_COMM, MGGCN_CACHE_CAP,
// MGGCN_SERVE_BATCH, ...) follows the same contract: an
// unset/empty value means "use the default", and anything unparsable fails
// loudly with a message naming the knob — experiment-script typos must
// never silently change the configuration under study. These helpers
// centralize that contract so a new knob cannot get it subtly wrong; the
// enum-valued knobs go through util::env_mode (util/mode.hpp).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace mggcn::util {

/// Reads an enum-valued knob. `parse` maps a token to std::optional<Enum>;
/// `allowed` is the human description of the legal tokens, e.g.
/// "'off', 'embed', or 'auto'".
/// Throws InvalidArgumentError naming the knob on an unknown token.
template <typename Enum, typename Parser>
Enum env_enum(const char* name, Enum fallback, Parser&& parse,
              std::string_view allowed) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = parse(std::string_view(env));
  MGGCN_CHECK_MSG(parsed.has_value(), std::string(name) + " must be " +
                                          std::string(allowed) + ", got '" +
                                          env + "'");
  return *parsed;
}

/// Reads an integer knob in [lo, hi]. The whole token must parse (trailing
/// garbage fails loudly, naming the knob).
inline long long env_int(const char* name, long long fallback, long long lo,
                         long long hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* tail = nullptr;
  const long long value = std::strtoll(env, &tail, 10);
  MGGCN_CHECK_MSG(tail != env && *tail == '\0' && value >= lo && value <= hi,
                  std::string(name) + " must be an integer in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "], got '" + env + "'");
  return value;
}

/// Reads a floating-point knob in [lo, hi], full-consumption like env_int.
/// `what` describes the expected value for the error message, e.g.
/// "a fraction in [0, 1]".
inline double env_double(const char* name, double fallback, double lo,
                         double hi, std::string_view what) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* tail = nullptr;
  const double value = std::strtod(env, &tail);
  MGGCN_CHECK_MSG(tail != env && *tail == '\0' && value >= lo && value <= hi,
                  std::string(name) + " must be " + std::string(what) +
                      ", got '" + env + "'");
  return value;
}

}  // namespace mggcn::util
