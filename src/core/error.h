// Error handling for ftsynth.
//
// Following the C++ Core Guidelines (I.10, E.2) the library signals failure
// to perform a required task with exceptions. All ftsynth exceptions derive
// from ftsynth::Error, which carries an error category so callers can
// distinguish user-input problems (bad model file, malformed expression)
// from internal invariant violations.

#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ftsynth {

/// Broad classification of an Error, so tools wrapping the library can map
/// failures onto exit codes / diagnostics without string matching.
enum class ErrorKind {
  /// Malformed input: model file syntax, expression syntax, bad parameters.
  kParse,
  /// Structurally invalid model: dangling connection, duplicate name,
  /// type mismatch between connected ports.
  kModel,
  /// A requested entity does not exist (port, block, failure class, ...).
  kLookup,
  /// The synthesis or analysis hit an unsupported or inconsistent situation.
  kAnalysis,
  /// Internal invariant violation -- a bug in ftsynth itself.
  kInternal,
};

/// Human-readable name of an ErrorKind ("parse", "model", ...).
std::string_view to_string(ErrorKind kind) noexcept;

/// Base exception for all ftsynth failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message);

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Thrown by the .mdl and expression parsers; carries a source location.
class ParseError : public Error {
 public:
  ParseError(const std::string& message, int line, int column);

  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Throws Error{kind} with `message` unless `condition` holds.
void require(bool condition, ErrorKind kind, const std::string& message);

/// require() specialised for internal invariants (ErrorKind::kInternal).
void check_internal(bool condition, const std::string& message);

/// Throws Error{kInternal} with `message`; the out-of-line cold half of
/// the literal overload below.
[[noreturn]] void throw_internal(const char* message);

/// check_internal() for a literal message: hot loops pay one branch, and
/// the std::string is only built on the throwing path.
inline void check_internal(bool condition, const char* message) {
  if (!condition) [[unlikely]]
    throw_internal(message);
}

}  // namespace ftsynth
