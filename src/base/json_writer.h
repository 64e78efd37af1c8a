// The one writer behind every bench JSON file: a root object, two-space
// indent, one member per line. scripts/ci_bench.sh and ci_supervised.sh read
// single members with line-based sed patterns, so the layout is a contract.
//
//   JsonWriter json;
//   json.Field("seed", 42).Array("cells");
//   json.Object().Field("rooms", 8).Counters("fabric", stats, kFabricCounters).End();
//   std::string text = json.End().Finish();
//
// Counters() prints a counter record whole by walking its named table
// (src/base/token_codec.h), every counter under its field name.

#ifndef SRC_BASE_JSON_WRITER_H_
#define SRC_BASE_JSON_WRITER_H_

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/base/token_codec.h"

namespace elsc {

class JsonWriter {
 public:
  JsonWriter() : out_("{"), closers_{'}'} {}

  // Opens a member object, or with no key an element of the open array.
  JsonWriter& Object(const char* key = nullptr) { return Open(key, '{', '}'); }
  JsonWriter& Array(const char* key) { return Open(key, '[', ']'); }

  // Closes the innermost open Object or Array.
  JsonWriter& End() {
    ELSC_CHECK_MSG(closers_.size() > 1, "End() without an open Object or Array");
    Close();
    return *this;
  }

  JsonWriter& Field(const char* key, bool v) { return Member(key, v ? "true" : "false"); }
  template <std::integral I>
  JsonWriter& Field(const char* key, I v) {
    return Member(key, std::to_string(v));
  }
  JsonWriter& Field(const char* key, std::string_view v) { return Member(key, Quote(v)); }
  JsonWriter& Field(const char* key, const char* v) { return Field(key, std::string_view(v)); }

  // `v` with `decimals` digits after the point.
  JsonWriter& Fixed(const char* key, double v, int decimals) {
    return Member(key, StrFormat("%.*f", decimals, v));
  }
  // `v` as a quoted %a hex-float string: exact, so readers compare bits.
  JsonWriter& HexFloat(const char* key, double v) { return Field(key, StrFormat("%a", v)); }

  template <typename T, size_t N>
  JsonWriter& Counters(const char* key, const T& record, const Counter<T> (&table)[N]) {
    static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
    Object(key);
    for (const Counter<T>& c : table) {
      Field(c.name, record.*c.field);
    }
    return End();
  }

  // Closes the root object; returns the document with a trailing newline.
  std::string Finish() {
    ELSC_CHECK_MSG(closers_.size() == 1, "an Object or Array was never Ended");
    Close();
    out_ += '\n';
    return std::move(out_);
  }

 private:
  JsonWriter& Open(const char* key, char open, char close) {
    Member(key, std::string(1, open));
    closers_.push_back(close);
    empty_ = true;
    return *this;
  }

  void Close() {
    if (!empty_) {
      NewLine(closers_.size() - 1);
    }
    out_ += closers_.back();
    closers_.pop_back();
    empty_ = false;
  }

  // Objects take keyed members, arrays unkeyed elements.
  JsonWriter& Member(const char* key, std::string_view value) {
    ELSC_CHECK_MSG((key == nullptr) == (closers_.back() == ']'),
                   "a key inside an array, or none inside an object");
    if (!empty_) {
      out_ += ',';
    }
    empty_ = false;
    NewLine(closers_.size());
    if (key != nullptr) {
      out_ += Quote(key) + ": ";
    }
    out_ += value;
    return *this;
  }

  void NewLine(size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }

  // Escapes '"', '\' and control characters.
  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += c == '\n' ? std::string("\\n") : StrFormat("\\u%04x", c);
      } else {
        out += c;
      }
    }
    return out + '"';
  }

  std::string out_;
  std::vector<char> closers_;  // '}' or ']' per open container, the root first.
  bool empty_ = true;          // The innermost open container has no member yet.
};

}  // namespace elsc

#endif  // SRC_BASE_JSON_WRITER_H_
