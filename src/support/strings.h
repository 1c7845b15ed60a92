// Small string utilities shared by the assembler, blueprint parser and linker.
#ifndef OMOS_SRC_SUPPORT_STRINGS_H_
#define OMOS_SRC_SUPPORT_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace omos {

// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

// Strip ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

namespace strings_internal {

// Appends what `write` streams into a default-formatted std::ostream.
void AppendStreamed(std::string& out, const void* value,
                    void (*write)(std::ostream&, const void*));
// Appends `value` as a default std::ostream writes a double: %g with
// precision 6.
void AppendFloat(std::string& out, double value);

template <typename T>
void Append(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out.push_back(value ? '1' : '0');
  } else if constexpr (std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out.push_back(static_cast<char>(value));  // int8_t and uint8_t stream as characters
  } else if constexpr (std::is_integral_v<T>) {
    char digits[std::numeric_limits<T>::digits10 + 2];  // every digit and a sign
    out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
  } else if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    AppendFloat(out, value);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    if constexpr (std::is_pointer_v<T>) {
      if (value == nullptr) {
        return;  // a stream writes nothing for a null C string
      }
    }
    out.append(std::string_view(value));
  } else {
    // Any other type formats through its operator<<.
    AppendStreamed(out, &value, [](std::ostream& stream, const void* v) {
      stream << *static_cast<const T*>(v);
    });
  }
}

}  // namespace strings_internal

// Variadic concatenation: StrCat("sym ", name, " at ", addr). Each argument
// appears as operator<< on a default std::ostream would write it: integers
// in decimal, bool as 0/1, char-sized integers (int8_t, uint8_t) as
// characters, floating point as %g with precision 6.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::Append(out, args), ...);
  return out;
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
