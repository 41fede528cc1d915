#include "core/error.h"

namespace ftsynth {

std::string_view to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kParse:
      return "parse";
    case ErrorKind::kModel:
      return "model";
    case ErrorKind::kLookup:
      return "lookup";
    case ErrorKind::kAnalysis:
      return "analysis";
    case ErrorKind::kInternal:
      return "internal";
  }
  return "unknown";
}

Error::Error(ErrorKind kind, const std::string& message)
    : std::runtime_error("[" + std::string(to_string(kind)) + "] " + message),
      kind_(kind) {}

ParseError::ParseError(const std::string& message, int line, int column)
    : Error(ErrorKind::kParse, message + " (line " + std::to_string(line) +
                                   ", column " + std::to_string(column) + ")"),
      line_(line),
      column_(column) {}

void require(bool condition, ErrorKind kind, const std::string& message) {
  if (!condition) throw Error(kind, message);
}

void check_internal(bool condition, const std::string& message) {
  if (!condition) throw Error(ErrorKind::kInternal, message);
}

void throw_internal(const char* message) {
  throw Error(ErrorKind::kInternal, message);
}

}  // namespace ftsynth
