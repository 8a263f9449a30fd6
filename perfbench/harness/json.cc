#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace perfbench {

const Json* Json::Get(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::Number(std::string_view key, double fallback) const {
  const Json* value = Get(key);
  return value != nullptr && value->type == Type::kNumber ? value->number
                                                          : fallback;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string_view rows_key, RowSink* sink)
      : text_(text), rows_key_(rows_key), sink_(sink) {}

  bool Document(Json* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      *error = "trailing bytes at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(Json* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Fail("bad \\u escape");
          AppendUtf8(static_cast<uint32_t>(cp), out);
          pos_ += 4;
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected , or ]");
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      out->object.emplace_back();
      if (!String(&out->object.back().first)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Fail("expected :");
      }
      if (depth == 0 && sink_ != nullptr &&
          out->object.back().first == rows_key_) {
        if (!Rows()) return false;
      } else if (!Value(&out->object.back().second, depth + 1)) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected , or }");
    }
  }

  // An array of arrays of strings, streamed into sink_.
  bool Rows() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_++] != '[') {
      return Fail("rows: expected [");
    }
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_++] != '[') {
        return Fail("rows: expected a row");
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
      } else {
        while (true) {
          SkipSpace();
          if (pos_ >= text_.size() || text_[pos_] != '"') {
            return Fail("rows: expected a string cell");
          }
          if (!String(&cell_)) return false;
          sink_->Cell(cell_);
          SkipSpace();
          if (pos_ >= text_.size()) return Fail("rows: unterminated row");
          const char c = text_[pos_++];
          if (c == ']') break;
          if (c != ',') return Fail("rows: expected , or ]");
        }
      }
      sink_->EndRow();
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("rows: unterminated");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("rows: expected , or ]");
    }
  }

  std::string_view text_;
  std::string_view rows_key_;
  RowSink* sink_;
  size_t pos_ = 0;
  std::string error_;
  std::string cell_;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out, std::string* error,
               std::string_view rows_key, RowSink* sink) {
  *out = Json();
  return Parser(text, rows_key, sink).Document(out, error);
}

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += frappe::JsonQuote(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Separate();
  out_ += frappe::JsonQuote(value);
  return *this;
}

}  // namespace perfbench
