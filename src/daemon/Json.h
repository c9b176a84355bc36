//===- Json.h - Minimal JSON value for the daemon protocol ------*- C++-*-===//
//
// The daemon speaks newline-delimited JSON over its control socket
// (docs/DAEMON.md), and the job journal stores each job's specification
// as a JSON payload so journals stay inspectable with standard tools.
// This is the small, dependency-free value type behind both: parse one
// line into a JsonValue, or build one and render it back to a single
// compact line (no embedded newlines, so NDJSON framing is trivial).
//
// Deliberately minimal: UTF-8 pass-through, doubles for every number
// (protocol integers fit in 53 bits — job ids, steps, cells), objects
// keep insertion order. Any malformed input parses to a recoverable
// Status, never UB — the daemon treats client bytes as hostile.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_DAEMON_JSON_H
#define LIMPET_DAEMON_JSON_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace limpet {
namespace daemon {

class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Object, Array };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool V) {
    JsonValue J;
    J.K = Kind::Bool;
    J.B = V;
    return J;
  }
  static JsonValue number(double V) {
    JsonValue J;
    J.K = Kind::Number;
    J.Num = V;
    return J;
  }
  static JsonValue number(int64_t V) { return number(double(V)); }
  static JsonValue number(uint64_t V) { return number(double(V)); }
  static JsonValue string(std::string_view V) {
    JsonValue J;
    J.K = Kind::String;
    J.Str = std::string(V);
    return J;
  }
  static JsonValue object() {
    JsonValue J;
    J.K = Kind::Object;
    return J;
  }
  static JsonValue array() {
    JsonValue J;
    J.K = Kind::Array;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &items() const { return Items; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Object member lookup; null for non-objects and absent keys.
  const JsonValue *find(std::string_view Key) const;

  // Typed member access with defaults: absent key or wrong type yields
  // the default. intOr also defaults on a number that is not an integer
  // an int64_t can hold, so no input reaches an undefined cast.
  double numberOr(std::string_view Key, double Default) const;
  int64_t intOr(std::string_view Key, int64_t Default) const;
  /// The checked integer read protocol fields take: \p Default when the
  /// key is absent, a recoverable error when the member is not an
  /// integral number within [Lo, Hi] (1e19, 1e400, 2.5, "7").
  Expected<int64_t> intField(std::string_view Key, int64_t Default,
                             int64_t Lo, int64_t Hi) const;
  bool boolOr(std::string_view Key, bool Default) const;
  std::string stringOr(std::string_view Key, std::string_view Default) const;

  /// Sets (or replaces) an object member. No-op on non-objects.
  JsonValue &set(std::string_view Key, JsonValue V);
  /// Appends to an array. No-op on non-arrays.
  JsonValue &push(JsonValue V);

  /// Compact single-line rendering (NDJSON-safe: strings escape control
  /// characters, so the output never contains a raw newline).
  std::string str() const;

  /// Parses one JSON document; trailing non-whitespace is an error.
  static Expected<JsonValue> parse(std::string_view Text);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<std::pair<std::string, JsonValue>> Members;
  std::vector<JsonValue> Items;
};

} // namespace daemon
} // namespace limpet

#endif // LIMPET_DAEMON_JSON_H
