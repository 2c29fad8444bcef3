//===- support/Json.h - Minimal JSON writer and reader ----------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer and a matching recursive-descent reader.
/// The writer backs every machine-readable artifact the system emits —
/// Chrome trace-event files, telemetry stats, bench result files, and the
/// suite run report — and the reader lets tests (and tools) validate and
/// inspect what was written without an external dependency.
///
/// The writer tracks nesting in a small state stack and inserts commas
/// automatically; misuse (a value where a key is required, unbalanced
/// end calls) trips an assert in debug builds and degrades to garbage
/// JSON, never UB, in release builds.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_JSON_H
#define SUPPORT_JSON_H

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sest {

/// Escapes \p S for use inside a JSON string literal (no quotes added).
std::string jsonEscape(std::string_view S);

/// Formats a double as a JSON number: integral values print without an
/// exponent or decimal point; non-finite values print as null (JSON has
/// no NaN/Infinity).
std::string jsonNumber(double Value);

/// A streaming JSON writer.
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; must be inside an object, before its value.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(double V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(bool V);
  JsonWriter &nullValue();

  /// Splices \p Json — one complete, pre-rendered JSON value — into the
  /// document verbatim. The caller guarantees it is valid JSON; this is
  /// how cached, already-rendered sub-documents (e.g. the analysis
  /// service's memoized result bodies) are embedded without re-parsing.
  JsonWriter &rawValue(std::string_view Json);

  /// Shorthand for key(K).value(V).
  template <typename T> JsonWriter &member(std::string_view K, T &&V) {
    key(K);
    return value(std::forward<T>(V));
  }

  /// True once every container has been closed and a value was written.
  bool complete() const { return Stack.empty() && !Out.empty(); }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  enum class Scope : uint8_t { Object, Array };
  void beforeValue();

  std::string Out;
  /// One entry per open container; .second = number of elements written.
  std::vector<std::pair<Scope, size_t>> Stack;
  bool PendingKey = false;
};

/// A parsed JSON value (reader side).
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool BoolVal = false;
  double NumberVal = 0.0;
  std::string StringVal;
  std::vector<JsonValue> Items; ///< For arrays.
  /// For objects, in document order (duplicate keys keep both).
  std::vector<std::pair<std::string, JsonValue>> Members;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// First member named \p Key, or null when absent / not an object.
  const JsonValue *find(std::string_view Key) const;
  JsonValue *find(std::string_view Key) {
    return const_cast<JsonValue *>(std::as_const(*this).find(Key));
  }
  /// Drills through nested objects ("a.b.c" style, one key per call).
  double numberOr(std::string_view Key, double Default) const;
};

/// Parses \p Text as one JSON document (surrounding whitespace allowed).
/// Returns nullopt on any syntax error or trailing garbage.
std::optional<JsonValue> parseJson(std::string_view Text);

} // namespace sest

#endif // SUPPORT_JSON_H
