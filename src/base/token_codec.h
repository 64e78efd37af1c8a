// Space-separated text tokens: the one codec behind the run journal's
// RunStats/VolanoRun payloads and every federation checkpoint record.
//
// Each Append* writes one token and a trailing space. TokenReader reads them
// back strictly: a token must end at a space or at the end of input, so a
// torn or glued line is rejected instead of read as garbage.
//
// A counter record (a struct of uint64_t counters and nothing else) is
// listed once, beside its record, as a table of named counters in codec
// order. AppendCounters, ReadCounters and AddCounters walk that table, and
// so do the JSON writer (src/base/json_writer.h) and the /proc-style
// reports. Each checks that the table has one entry per counter, so a
// counter added to a record but missing from its table does not compile.

#ifndef SRC_BASE_TOKEN_CODEC_H_
#define SRC_BASE_TOKEN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/base/string_util.h"

namespace elsc {

inline void AppendU64(std::string* out, uint64_t v) {
  *out += std::to_string(v);
  *out += ' ';
}

inline void AppendI64(std::string* out, int64_t v) {
  *out += std::to_string(v);
  *out += ' ';
}

inline void AppendHex64(std::string* out, uint64_t v) {
  *out += StrFormat("%016llx ", static_cast<unsigned long long>(v));
}

// %a hex-float: strtod parses it back exactly, so no precision is lost.
inline void AppendF64(std::string* out, double v) {
  *out += StrFormat("%a ", v);
}

// Every getter returns false on a missing or malformed token.
class TokenReader {
 public:
  explicit TokenReader(std::string s) : s_(std::move(s)) {}

  bool U64(uint64_t* out) {
    return Next(out, [](const char* p, char** end) { return std::strtoull(p, end, 10); });
  }
  bool I64(int64_t* out) {
    return Next(out, [](const char* p, char** end) { return std::strtoll(p, end, 10); });
  }
  bool Hex64(uint64_t* out) {
    return Next(out, [](const char* p, char** end) { return std::strtoull(p, end, 16); });
  }
  bool F64(double* out) {
    return Next(out, [](const char* p, char** end) { return std::strtod(p, end); });
  }

  bool Bool(bool* out) {
    uint64_t v = 0;
    if (!U64(&v) || v > 1) {
      return false;
    }
    *out = v != 0;
    return true;
  }

  bool Int(int* out) {
    int64_t v = 0;
    if (!I64(&v) || v < INT32_MIN || v > INT32_MAX) {
      return false;
    }
    *out = static_cast<int>(v);
    return true;
  }

  // True when nothing but spaces is left.
  bool Done() {
    SkipSpaces();
    return pos_ >= s_.size();
  }

  // Everything after the tokens read so far: a free-form trailer such as a
  // failure string ("" at the end of input).
  std::string Rest() {
    SkipSpaces();
    return s_.substr(pos_);
  }

 private:
  template <typename T, typename Parse>
  bool Next(T* out, Parse parse) {
    SkipSpaces();
    if (pos_ >= s_.size()) {
      return false;
    }
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    *out = parse(start, &end);
    if (end == start) {
      return false;
    }
    pos_ = static_cast<size_t>(end - s_.c_str());
    return pos_ >= s_.size() || s_[pos_] == ' ';
  }

  void SkipSpaces() {
    while (pos_ < s_.size() && s_[pos_] == ' ') {
      ++pos_;
    }
  }

  // Owned copy: callers routinely pass `line.substr(n)` temporaries, and a
  // reference member would dangle the moment that statement ends.
  const std::string s_;
  size_t pos_ = 0;
};

// One counter of record T: its field's name and a pointer to it.
template <typename T>
struct Counter {
  const char* name;
  uint64_t T::* field;
};

// A table entry whose name is its field's own spelling, so the two cannot
// drift apart.
#define ELSC_COUNTER(Record, field) {#field, &Record::field}

// True when a table of N counters names every counter of T.
template <typename T, size_t N>
inline constexpr bool kTableCoversRecord = sizeof(T) == N * sizeof(uint64_t);

// Writes the counters of `record` in table order.
template <typename T, size_t N>
void AppendCounters(std::string* out, const T& record, const Counter<T> (&table)[N]) {
  static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
  for (const Counter<T>& c : table) {
    AppendU64(out, record.*c.field);
  }
}

// Reads back what AppendCounters wrote.
template <typename T, size_t N>
bool ReadCounters(TokenReader* in, T* record, const Counter<T> (&table)[N]) {
  static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
  for (const Counter<T>& c : table) {
    if (!in->U64(&(record->*c.field))) {
      return false;
    }
  }
  return true;
}

// Adds every counter of `from` into `into`.
template <typename T, size_t N>
void AddCounters(T* into, const T& from, const Counter<T> (&table)[N]) {
  static_assert(kTableCoversRecord<T, N>, "a counter is missing from its table");
  for (const Counter<T>& c : table) {
    into->*c.field += from.*c.field;
  }
}

}  // namespace elsc

#endif  // SRC_BASE_TOKEN_CODEC_H_
