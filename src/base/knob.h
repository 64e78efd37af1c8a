// Program inputs: the ELSC_* environment knobs and the bench mains'
// positional arguments, all read through one strict parse.
//
// An unset or empty knob, and a positional argument the command line does
// not reach, take their default. Any other value must parse completely and
// lie in the input's range; otherwise BadKnob prints one stderr line naming
// the input, the value and what it accepts, and the process exits 2 before
// it simulates anything. A knob still set under a retired per-bench
// spelling, ELSC_{SCALE,FED,O1,OVERLOAD}_<rest of the name> (ELSC_SCALE_ROOMS
// for ELSC_ROOMS), exits 2 the same way. docs/HARNESS.md lists every knob
// and argument with what it accepts and its default.

#ifndef SRC_BASE_KNOB_H_
#define SRC_BASE_KNOB_H_

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

namespace elsc {

// Prints the input `name`, its bad `value` and what it accepts (`want`) to
// stderr; exits 2.
[[noreturn]] void BadKnob(const std::string& name, const std::string& value,
                          const std::string& want);

// The parses every reader shares: `text` must be exactly one base-10 integer
// in [min_value, max_value], or one finite number >= 0 (> 0 when
// `positive`). Anything else exits 2 through BadKnob, naming `name`.
// max_value defaults to INT_MAX, so the result fits an int.
int64_t ParseInt(const std::string& name, const std::string& text, int64_t min_value,
                 int64_t max_value = INT_MAX);
double ParseNumber(const std::string& name, const std::string& text, bool positive = false);

// Environment knobs; `fallback` applies when the knob is unset or empty.
//   StringEnv  the value as written;
//   EnvFields  its comma-separated fields;
//   IntList    the fields as integers, each in [min_value, max_value];
//   IntEnv     one integer in [min_value, max_value];
//   NumberEnv  one finite number >= 0;
//   FlagEnv    0 or 1.
std::string StringEnv(const char* name, const std::string& fallback = "");
std::vector<std::string> EnvFields(const char* name, const std::string& fallback);
std::vector<int> IntList(const char* name, const std::string& fallback, int min_value = 1,
                         int max_value = INT_MAX);
int64_t IntEnv(const char* name, int64_t fallback, int64_t min_value = 1,
               int64_t max_value = INT_MAX);
double NumberEnv(const char* name, double fallback);
bool FlagEnv(const char* name, bool fallback);

// Positional arguments of a main. ArgName(1, "seed") is "argument 1 (seed)",
// the name an error gives. IntArg parses argv[index] as ParseInt does, or
// returns `fallback` when the command line does not reach `index`.
std::string ArgName(int index, const char* what);
int64_t IntArg(int argc, char** argv, int index, const char* what, int64_t fallback,
               int64_t min_value, int64_t max_value = INT_MAX);

}  // namespace elsc

#endif  // SRC_BASE_KNOB_H_
