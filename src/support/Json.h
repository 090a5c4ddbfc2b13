//===- support/Json.h - Minimal JSON writer and parser ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON layer for the telemetry exports
/// (docs/FORMATS.md): a streaming JsonWriter used by the trace, metrics and
/// run-report serializers, and a strict recursive-descent parser used by the
/// round-trip tests. Emitted numbers use enough digits for doubles to
/// round-trip exactly (the text of printf("%.17g"), see fmtExact).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_JSON_H
#define DRA_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dra {

/// Escapes and quotes \p S as a JSON string literal (including the quotes).
std::string jsonQuote(std::string_view S);

/// Renders \p V as a JSON number. Non-finite values (which JSON cannot
/// represent) render as null.
std::string jsonNumber(double V);

/// Incremental JSON document builder with automatic comma/nesting
/// management. Keys, strings and numbers go into the document as whole
/// spans; text needing no escaping is quoted with a single append. Usage:
/// \code
///   JsonWriter W;
///   W.beginObject();
///   W.key("count");
///   W.value(uint64_t(3));
///   W.endObject();
///   std::string Doc = W.take();
/// \endcode
class JsonWriter {
public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Emits an object key; the next value/beginX call becomes its value.
  void key(std::string_view K);

  void value(std::string_view S);
  /// Keeps string literals off the bool overload (pointer-to-bool is a
  /// standard conversion, pointer-to-string_view a user-defined one).
  void value(const char *S) { value(std::string_view(S)); }
  void value(double V);
  void value(uint64_t V);
  void value(int64_t V);
  void value(unsigned V) { value(uint64_t(V)); }
  void value(int V) { value(int64_t(V)); }
  void value(bool B);
  void null();

  /// Emits \p Json verbatim as the next value. The caller guarantees it is
  /// one well-formed JSON value (used to splice pre-rendered fragments).
  void rawValue(std::string_view Json);

  /// Finishes the document and returns it. The writer must be balanced
  /// (every begin closed).
  std::string take();

private:
  struct Frame {
    bool InObject = false;
    bool First = true;
    bool KeyPending = false;
  };

  void prefix();

  std::string Out;
  std::vector<Frame> Stack;
};

/// A parsed JSON value (strict parser; used by tests and validators).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
};

/// True when \p V is a finite number with no fractional part (of any sign
/// or magnitude).
bool isJsonInteger(const JsonValue &V);

/// Reads \p V as an integer in [\p Lo, \p Hi] into \p Out. The range is
/// checked on the double before any conversion, so a non-finite,
/// fractional, negative or too-large number is rejected instead of being
/// cast (a float-to-integer cast of an unrepresentable value is
/// undefined). \p Out is written only on success.
bool jsonUnsigned(const JsonValue &V, uint64_t &Out, uint64_t Lo = 0,
                  uint64_t Hi = UINT64_MAX);

/// Parses \p Text as one JSON document. Returns false (with \p Error set,
/// including the byte offset) on any syntax violation or trailing garbage.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

} // namespace dra

#endif // DRA_SUPPORT_JSON_H
