// FNV-1a 64: the one checksum behind journal lines, checkpoint segment
// trailers, config fingerprints and the federation's streaming run digest.
// Every stored value depends on these exact constants and byte order.

#ifndef SRC_BASE_FNV_H_
#define SRC_BASE_FNV_H_

#include <cstdint>
#include <string_view>

namespace elsc {

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

// FNV-1a 64 of `data`, continuing from `h`: pass an earlier result as `h` to
// fold more bytes into a running digest.
constexpr uint64_t Fnv1a64(std::string_view data, uint64_t h = kFnv1aOffset) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace elsc

#endif  // SRC_BASE_FNV_H_
