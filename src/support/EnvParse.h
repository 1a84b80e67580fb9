//===- support/EnvParse.h - Strict environment-variable parsing -*- C++ -*-===//
///
/// \file
/// Shared strict parse-and-warn helpers for DISTAL_* environment knobs.
/// Every consumer (FaultInjector, ResourceGovernor, the thread pool's
/// DISTAL_NUM_THREADS) follows the same
/// contract: an unset or *empty* variable is plain "unset" (GitHub-Actions
/// matrices export empty strings for absent entries), while a malformed or
/// out-of-range value is rejected with one warning line naming the
/// variable and treated as unset — a typo must never silently install a
/// different configuration than the one intended. The parsers consume the
/// whole string (no trailing junk) and reject range overflow.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_ENVPARSE_H
#define DISTAL_SUPPORT_ENVPARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace distal {
namespace envparse {

/// True when \p V is set to a non-empty value — GitHub-Actions-style
/// matrices export empty strings for absent entries, which must behave
/// like unset, not like a malformed value.
inline bool envSet(const char *V) { return V != nullptr && *V != '\0'; }

/// Appends one warning line to \p Warnings when it is non-null (the
/// process-start env consumers print the accumulated lines to stderr).
inline void warn(std::string *Warnings, const std::string &Line) {
  if (Warnings)
    *Warnings += Line + "\n";
}

/// Strict full-consume double parse; false on garbage, trailing junk, or
/// out-of-range representation.
inline bool parseDoubleStrict(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Strict full-consume unsigned parse; rejects signs up front because
/// strtoull silently accepts "-1" (wrapping).
inline bool parseU64Strict(const char *S, uint64_t &Out) {
  if (*S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  uint64_t V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Strict full-consume signed parse; false on garbage, trailing junk, or
/// overflow.
inline bool parseI64Strict(const char *S, int64_t &Out) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

} // namespace envparse
} // namespace distal

#endif // DISTAL_SUPPORT_ENVPARSE_H
