#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

// Just enough JSON for the harness: a parser for /query response bodies and
// an append-only writer for the report it hands to run.py.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  // Member `key` of an object, or nullptr.
  const Json* Get(std::string_view key) const;
  // Numeric member `key`, or `fallback` when absent or not a number.
  double Number(std::string_view key, double fallback = 0) const;
};

// Receives the cells of an array of string arrays as they are parsed.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void Cell(std::string_view cell) = 0;
  virtual void EndRow() = 0;
};

// Parses one JSON document; false (with `error` set) on malformed input.
// When `rows_key` is given, that member of the top-level object must be an
// array of arrays of strings; it is streamed into `sink` instead of being
// stored in `out` (a query result can hold tens of thousands of rows).
bool ParseJson(std::string_view text, Json* out, std::string* error,
               std::string_view rows_key = {}, RowSink* sink = nullptr);

// Writes one JSON object incrementally: Key(...) then a value call, or the
// Field(...) shorthands. Nested objects/arrays via Begin*/End*.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(double value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(bool value);
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
