#include "src/support/strings.h"

#include "src/support/regex_cache.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <mutex>
#include <regex>
#include <sstream>

namespace omos {

namespace strings_internal {

void AppendStreamed(std::string& out, const void* value,
                    void (*write)(std::ostream&, const void*)) {
  std::ostringstream stream;
  write(stream, value);
  out += stream.view();
}

void AppendFloat(std::string& out, double value) {
  char digits[32];  // %.6g of any double fits
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value, std::chars_format::general, 6)
                 .ptr);
}

}  // namespace strings_internal

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string Hex32(uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", value);
  return buf;
}

uint64_t Fnv1aBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t Fnv1a(std::string_view data) { return Fnv1aBytes(data.data(), data.size()); }

namespace {

// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr uint64_t kLaneP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kLaneP2 = 0xC2B2AE3D27D4EB4Full;

// xxh64's round. For a fixed `word` it is a bijection of `acc`, and for a
// fixed `acc` a bijection of `word` (P1 and P2 are odd), so a lane can never
// absorb a changed word.
uint64_t LaneRound(uint64_t acc, uint64_t word) {
  acc += word * kLaneP2;
  acc = (acc << 31) | (acc >> 33);
  return acc * kLaneP1;
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word;
  __builtin_memcpy(&word, p, 8);
  return word;
}

}  // namespace

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t hash = Mix64(seed ^ (0x9E3779B97F4A7C15ull + size));
  if (size >= 32) {
    // Four independent lanes over 32-byte stripes, so the multiplies of
    // neighbouring words overlap instead of forming one dependent chain.
    uint64_t lane0 = hash + kLaneP1 + kLaneP2;
    uint64_t lane1 = hash + kLaneP2;
    uint64_t lane2 = hash;
    uint64_t lane3 = hash - kLaneP1;
    do {
      lane0 = LaneRound(lane0, LoadWord(p));
      lane1 = LaneRound(lane1, LoadWord(p + 8));
      lane2 = LaneRound(lane2, LoadWord(p + 16));
      lane3 = LaneRound(lane3, LoadWord(p + 24));
      p += 32;
      size -= 32;
    } while (size >= 32);
    hash = Mix64(hash ^ lane0);
    hash = Mix64(hash ^ lane1);
    hash = Mix64(hash ^ lane2);
    hash = Mix64(hash ^ lane3);
  }
  while (size >= 8) {
    hash = Mix64(hash ^ LoadWord(p));
    p += 8;
    size -= 8;
  }
  if (size > 0) {
    uint64_t tail = 0;
    __builtin_memcpy(&tail, p, size);
    hash = Mix64(hash ^ tail ^ (static_cast<uint64_t>(size) << 56));
  }
  return hash;
}

namespace {

// std::regex construction is expensive; module operations reuse a handful of
// selector patterns many times, so cache compiled regexes.
const std::regex& CompiledRegex(std::string_view pattern) {
  static std::mutex mu;
  static std::map<std::string, std::regex, std::less<>>* cache =
      new std::map<std::string, std::regex, std::less<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(pattern);
  if (it == cache->end()) {
    it = cache->emplace(std::string(pattern), std::regex(std::string(pattern),
                                                         std::regex::extended))
             .first;
  }
  return it->second;
}

}  // namespace

const std::regex* GetCompiledRegex(std::string_view pattern) {
  try {
    return &CompiledRegex(pattern);
  } catch (const std::regex_error&) {
    return nullptr;
  }
}

bool RegexMatch(std::string_view name, std::string_view pattern) {
  const std::regex* re = GetCompiledRegex(pattern);
  return re != nullptr && std::regex_search(name.begin(), name.end(), *re);
}

}  // namespace omos
