#include "src/base/knob.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/string_util.h"

namespace elsc {

// The per-bench prefixes the shared sweep-knob names replaced.
constexpr const char* kRetiredKnobPrefixes[] = {"ELSC_SCALE_", "ELSC_FED_", "ELSC_O1_",
                                                "ELSC_OVERLOAD_"};

void BadKnob(const std::string& name, const std::string& value, const std::string& want) {
  std::fprintf(stderr, "elsc: bad %s value \"%s\": want %s\n", name.c_str(), value.c_str(),
               want.c_str());
  std::exit(2);
}

int64_t ParseInt(const std::string& name, const std::string& text, int64_t min_value,
                 int64_t max_value) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || value < min_value || value > max_value) {
    BadKnob(name, text,
            StrFormat("an integer from %lld to %lld", static_cast<long long>(min_value),
                      static_cast<long long>(max_value)));
  }
  return value;
}

double ParseNumber(const std::string& name, const std::string& text, bool positive) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0.0 ||
      (positive && value == 0.0)) {
    BadKnob(name, text, positive ? "a number > 0" : "a number >= 0");
  }
  return value;
}

std::string StringEnv(const char* name, const std::string& fallback) {
  for (const char* prefix : kRetiredKnobPrefixes) {
    const std::string retired = prefix + std::string(name + std::strlen("ELSC_"));
    if (std::getenv(retired.c_str()) != nullptr) {
      std::fprintf(stderr, "elsc: %s is retired; set %s instead\n", retired.c_str(), name);
      std::exit(2);
    }
  }
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' ? env : fallback;
}

std::vector<std::string> EnvFields(const char* name, const std::string& fallback) {
  const std::string spec = StringEnv(name, fallback);
  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    fields.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

std::vector<int> IntList(const char* name, const std::string& fallback, int min_value,
                         int max_value) {
  std::vector<int> values;
  for (const std::string& field : EnvFields(name, fallback)) {
    values.push_back(static_cast<int>(ParseInt(name, field, min_value, max_value)));
  }
  return values;
}

int64_t IntEnv(const char* name, int64_t fallback, int64_t min_value, int64_t max_value) {
  const std::string value = StringEnv(name);
  return value.empty() ? fallback : ParseInt(name, value, min_value, max_value);
}

double NumberEnv(const char* name, double fallback) {
  const std::string value = StringEnv(name);
  return value.empty() ? fallback : ParseNumber(name, value);
}

bool FlagEnv(const char* name, bool fallback) {
  const std::string value = StringEnv(name, fallback ? "1" : "0");
  if (value != "0" && value != "1") {
    BadKnob(name, value, "0 or 1");
  }
  return value == "1";
}

std::string ArgName(int index, const char* what) {
  return StrFormat("argument %d (%s)", index, what);
}

int64_t IntArg(int argc, char** argv, int index, const char* what, int64_t fallback,
               int64_t min_value, int64_t max_value) {
  return index < argc ? ParseInt(ArgName(index, what), argv[index], min_value, max_value)
                      : fallback;
}

}  // namespace elsc
