// The repository's one JSON reader, which parses standard JSON into a small
// DOM, and its one string/number writer. Documents are assembled by the code
// that owns the data (metrics, traces, perf reports, decision-trace headers,
// lint reports); every string or number they emit goes through
// WriteJsonString/WriteJsonNumber, so whatever they write reads back here.
// No streaming — every document read here fits in memory.
//
// Object members keep document order, and `\uXXXX` escapes decode to UTF-8,
// so a Chrome trace's args read back in the order the recorder wrote them
// and control characters survive the round trip. Nesting is capped, so a
// hostile document fails with an error instead of exhausting the stack.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace mudi {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  // Members in document order.
  const Members& object() const { return object_; }

  // First object member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double n);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(Members members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Members object_;
};

// Parses one complete JSON document (trailing whitespace allowed, anything
// else after the document is an error). Errors carry line/offset context.
StatusOr<JsonValue> ParseJson(const std::string& text);

// Reads and parses a JSON file.
StatusOr<JsonValue> ParseJsonFile(const std::string& path);

// Writes `s` as a quoted JSON string. `"`, `\`, newline and tab get their
// short escapes and every other byte below 0x20 is written as \u00XX, so the
// output never holds a raw control byte (a JSONL line stays one line).
// Bytes from 0x20 up, UTF-8 sequences included, pass through unchanged.
void WriteJsonString(std::ostream& os, std::string_view s);

// Writes `v` in the stream's current format; NaN and the infinities, which
// JSON cannot represent, are written as 0.
void WriteJsonNumber(std::ostream& os, double v);

}  // namespace mudi

#endif  // SRC_COMMON_JSON_H_
