// Small string utilities shared by the assembler, blueprint parser and linker.
#ifndef OMOS_SRC_SUPPORT_STRINGS_H_
#define OMOS_SRC_SUPPORT_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace omos {

// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

// Strip ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Variadic streaming concatenation: StrCat("sym ", name, " at ", addr).
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr (sizeof...(args) == 0) {
    return std::string();
  } else {
    std::ostringstream out;
    (out << ... << args);
    return out.str();
  }
}

// Render `value` as 0x%08x.
std::string Hex32(uint32_t value);

// FNV-1a 64-bit hash; used for cache keys and generated hash tables.
// Byte-at-a-time and stable: anything serialized (snapshot check lines,
// golden fingerprints) must keep using this.
uint64_t Fnv1a(std::string_view data);
uint64_t Fnv1aBytes(const void* data, size_t size);

// Fast 64-bit hash for bulk, in-memory integrity sums (the image cache's
// page checksums). Whole 32-byte stripes go through four independent
// xxh64-style lanes, the rest word by word and then a tail; every step is a
// bijection of the running state, so changing any one word of the input
// always changes the result. NOT part of any serialized format — its value
// may change across versions.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = 0);

// True if `name` matches POSIX-ish extended regex `pattern` (full or partial
// per std::regex_search semantics — the paper's module operations take
// regular expressions as symbol selectors, e.g. "^_malloc$").
bool RegexMatch(std::string_view name, std::string_view pattern);

}  // namespace omos

#endif  // OMOS_SRC_SUPPORT_STRINGS_H_
