// Unit tests for src/support: Result, Error, string utilities, logging,
// fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/error.h"
#include "src/support/faultsim.h"
#include "src/support/flat_map.h"
#include "src/support/interner.h"
#include "src/support/log.h"
#include "src/support/result.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace omos {
namespace {

TEST(Error, ToStringIncludesCodeAndMessage) {
  Error e(ErrorCode::kUnresolvedSymbol, "reference to _foo has no definition");
  EXPECT_EQ(e.ToString(), "unresolved-symbol: reference to _foo has no definition");
}

// Exhaustiveness sweep: every code in [kOk, kInternal] must have its own
// name — none missing ("unknown") and no two codes sharing one. Adding a
// code to the enum without a name in ErrorCodeName fails here.
TEST(Error, EveryCodeHasAUniqueName) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    std::string name(ErrorCodeName(static_cast<ErrorCode>(i)));
    EXPECT_NE(name, "unknown") << "code " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name '" << name << "' at code " << i;
  }
}

TEST(Error, RobustnessCodesAreNamed) {
  EXPECT_EQ(ErrorCodeName(ErrorCode::kTimeout), "timeout");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnavailable), "unavailable");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kCorrupted), "corrupted");
}

TEST(Result, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, ErrorRoundTrip) {
  Result<int> r = Err(ErrorCode::kNotFound, "nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err(ErrorCode::kIoError, "disk on fire");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kIoError);
}

Result<int> Doubler(Result<int> in) {
  OMOS_TRY(int v, std::move(in));
  return v * 2;
}

TEST(Result, TryMacroPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  Result<int> failed = Doubler(Err(ErrorCode::kParseError, "x"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), ErrorCode::kParseError);
}

TEST(Strings, Split) {
  EXPECT_EQ(SplitString("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("/a/", '/'), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(SplitString("", '/'), (std::vector<std::string>{""}));
}

TEST(Strings, Strip) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(Strings, StrCat) {
  EXPECT_EQ(StrCat("sym ", "x", " at ", 16), "sym x at 16");
  EXPECT_EQ(StrCat(), "");
}

// StrCat writes each argument as a default-formatted std::ostream does.
// Each type's samples pin the exact text, and the stream must agree.
enum StrCatEnum : uint32_t { kStrCatEnumValue = 3 };
struct StrCatStreamOnly {
  int x = 0;
  int y = 0;
};
std::ostream& operator<<(std::ostream& out, const StrCatStreamOnly& p) {
  return out << "(" << p.x << "," << p.y << ")";
}

template <typename T>
std::vector<std::pair<T, std::string>> StrCatSamples() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if constexpr (std::is_same_v<T, bool>) {
    return {{false, "0"}, {true, "1"}};
  } else if constexpr (std::is_same_v<T, char>) {
    return {{'a', "a"}, {'\0', std::string(1, '\0')}};
  } else if constexpr (std::is_same_v<T, int8_t>) {
    return {{66, "B"}, {-128, "\x80"}};
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return {{65, "A"}, {255, "\xff"}};
  } else if constexpr (std::is_same_v<T, int16_t>) {
    return {{-32768, "-32768"}, {0, "0"}, {32767, "32767"}};
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    return {{65535, "65535"}};
  } else if constexpr (std::is_same_v<T, int32_t>) {
    return {{std::numeric_limits<int32_t>::min(), "-2147483648"}, {42, "42"}};
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return {{4294967295u, "4294967295"}};
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return {{std::numeric_limits<int64_t>::min(), "-9223372036854775808"}};
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return {{std::numeric_limits<uint64_t>::max(), "18446744073709551615"}};
  } else if constexpr (std::is_same_v<T, long long>) {
    return {{-5, "-5"}};
  } else if constexpr (std::is_same_v<T, unsigned long long>) {
    return {{7, "7"}};
  } else if constexpr (std::is_same_v<T, float>) {
    return {{2.5f, "2.5"}, {0.1f, "0.1"}, {1e10f, "1e+10"}, {-0.0f, "-0"}};
  } else if constexpr (std::is_same_v<T, double>) {
    return {{0.1 + 0.2, "0.3"},     {123456789.0, "1.23457e+08"}, {1e-5, "1e-05"},
            {100000.0, "100000"},   {1e6, "1e+06"},               {kInf, "inf"},
            {-kInf, "-inf"},        {std::nan(""), "nan"},        {-0.0, "-0"}};
  } else if constexpr (std::is_same_v<T, long double>) {
    return {{2.5L, "2.5"}, {1e30L, "1e+30"}};
  } else if constexpr (std::is_same_v<T, const char*>) {
    return {{"abc", "abc"}, {"", ""}};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return {{"x y", "x y"}, {std::string("a\0b", 3), std::string("a\0b", 3)}};
  } else if constexpr (std::is_same_v<T, std::string_view>) {
    return {{"sv", "sv"}};
  } else if constexpr (std::is_same_v<T, StrCatEnum>) {
    return {{kStrCatEnumValue, "3"}};
  } else {
    return {{StrCatStreamOnly{1, -2}, "(1,-2)"}};
  }
}

template <typename T>
class StrCatTyped : public ::testing::Test {};
using StrCatTypes =
    ::testing::Types<bool, char, int8_t, uint8_t, int16_t, uint16_t, int32_t, uint32_t, int64_t,
                     uint64_t, long long, unsigned long long, float, double, long double,
                     const char*, std::string, std::string_view, StrCatEnum, StrCatStreamOnly>;
TYPED_TEST_SUITE(StrCatTyped, StrCatTypes);

TYPED_TEST(StrCatTyped, WritesWhatAStreamWrites) {
  for (const auto& [value, text] : StrCatSamples<TypeParam>()) {
    std::ostringstream stream;
    stream << value;
    EXPECT_EQ(stream.str(), text);
    EXPECT_EQ(StrCat(value), text);
    EXPECT_EQ(StrCat("<", value, ">"), "<" + text + ">");
  }
}

TEST(Strings, Hex32) {
  EXPECT_EQ(Hex32(0), "0x00000000");
  EXPECT_EQ(Hex32(0xdeadbeef), "0xdeadbeef");
}

TEST(Strings, Fnv1aStableAndDistinct) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a(""), Fnv1a(std::string_view("\0", 1)));
}

TEST(Strings, RegexMatch) {
  EXPECT_TRUE(RegexMatch("_malloc", "^_malloc$"));
  EXPECT_FALSE(RegexMatch("_malloc2", "^_malloc$"));
  EXPECT_TRUE(RegexMatch("_malloc2", "_malloc"));  // substring search semantics
  EXPECT_TRUE(RegexMatch("c_17", "^(c_17|c_18)$"));
  EXPECT_FALSE(RegexMatch("x", "["));  // invalid pattern -> no match, no throw
}

// ---- Fault injection ----------------------------------------------------------

TEST(FaultSim, UnarmedSitesNeverFire) {
  FaultSim::Reset();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FaultSim::Trip("fs.read"));
  }
  EXPECT_EQ(FaultSim::TotalFires(), 0u);
}

TEST(FaultSim, NthHitFiresExactlyOnce) {
  ScopedFaultPlan plan(FaultPlan().Arm("fs.read", FaultSpec::Nth(3)));
  EXPECT_FALSE(FaultSim::Trip("fs.read"));
  EXPECT_FALSE(FaultSim::Trip("fs.read"));
  EXPECT_TRUE(FaultSim::Trip("fs.read"));
  EXPECT_FALSE(FaultSim::Trip("fs.read"));
  EXPECT_EQ(FaultSim::Hits("fs.read"), 4u);
  EXPECT_EQ(FaultSim::Fires("fs.read"), 1u);
}

TEST(FaultSim, EveryKthFiresPeriodically) {
  ScopedFaultPlan plan(FaultPlan().Arm("pipe.drop", FaultSpec::Every(2)));
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += FaultSim::Trip("pipe.drop") ? 1 : 0;
  }
  EXPECT_EQ(fires, 5);
}

TEST(FaultSim, MaxFiresCapsTheSchedule) {
  ScopedFaultPlan plan(FaultPlan().Arm("pipe.drop", FaultSpec::Every(1).WithMaxFires(2)));
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += FaultSim::Trip("pipe.drop") ? 1 : 0;
  }
  EXPECT_EQ(fires, 2);
}

// Probability triggers are hashed from (seed, hit index): the same seed must
// reproduce the identical fault schedule, and a different seed a different
// (but similarly dense) one.
TEST(FaultSim, ProbabilityIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    ScopedFaultPlan plan(FaultPlan().Arm("x", FaultSpec::Prob(0.3, seed)));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(FaultSim::Trip("x"));
    }
    return fired;
  };
  std::vector<bool> a = schedule(42);
  EXPECT_EQ(a, schedule(42));
  EXPECT_NE(a, schedule(43));
  int fires = 0;
  for (bool f : a) {
    fires += f ? 1 : 0;
  }
  EXPECT_GT(fires, 200 * 0.3 / 3);  // loose density check
  EXPECT_LT(fires, 200 * 0.3 * 3);
}

TEST(FaultSim, PayloadKnobDelivered) {
  ScopedFaultPlan plan(
      FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1).WithPayload(0xBEEF)));
  uint32_t knob = 0;
  EXPECT_TRUE(FaultSim::Trip("cache.bitrot", &knob));
  EXPECT_EQ(knob, 0xBEEFu);
}

TEST(FaultSim, ScopedPlanResetsOnExit) {
  {
    ScopedFaultPlan plan(FaultPlan().Arm("fs.write", FaultSpec::Every(1)));
    EXPECT_TRUE(FaultSim::Trip("fs.write"));
  }
  EXPECT_FALSE(FaultSim::Trip("fs.write"));
  EXPECT_EQ(FaultSim::TotalFires(), 0u);
}

TEST(Log, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kNone);
  LogMessage(LogLevel::kError, "test", "should be dropped silently");
  SetLogLevel(old);
}

// ---- Symbol interner -------------------------------------------------------------

TEST(Interner, SameStringSameId) {
  SymbolInterner& interner = SymbolInterner::Global();
  SymId a = interner.Intern("interner_test_sym_a");
  EXPECT_EQ(interner.Intern("interner_test_sym_a"), a);
  EXPECT_NE(interner.Intern("interner_test_sym_b"), a);
  EXPECT_EQ(interner.Name(a), "interner_test_sym_a");
}

TEST(Interner, FindDoesNotInsert) {
  SymbolInterner& interner = SymbolInterner::Global();
  size_t before = interner.size();
  EXPECT_EQ(interner.Find("interner_test_never_interned_xyzzy"), kNoSymId);
  EXPECT_EQ(interner.size(), before);
  SymId id = interner.Intern("interner_test_find_me");
  EXPECT_EQ(interner.Find("interner_test_find_me"), id);
}

TEST(Interner, NamesStableAcrossGrowth) {
  SymbolInterner& interner = SymbolInterner::Global();
  SymId first = interner.Intern("interner_test_stable");
  std::string_view name = interner.Name(first);
  for (int i = 0; i < 1000; ++i) {
    interner.Intern(StrCat("interner_test_growth_", i));
  }
  EXPECT_EQ(name.data(), interner.Name(first).data());  // no reallocation
}

// ---- Flat hash map ---------------------------------------------------------------

TEST(FlatMap, InsertFindEraseChurn) {
  FlatMap<uint64_t, int> map;
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(map.try_emplace(i * 7919, static_cast<int>(i)).second);
  }
  EXPECT_EQ(map.size(), 500u);
  EXPECT_FALSE(map.try_emplace(0, 99).second);  // already present
  for (uint64_t i = 0; i < 500; i += 2) {
    EXPECT_TRUE(map.erase(i * 7919));
  }
  EXPECT_EQ(map.size(), 250u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(map.contains(i * 7919), i % 2 == 1) << i;
  }
  // Re-insert into tombstoned slots.
  for (uint64_t i = 0; i < 500; i += 2) {
    EXPECT_TRUE(map.try_emplace(i * 7919, -1).second);
  }
  EXPECT_EQ(map.size(), 500u);
  EXPECT_EQ(map.at(0), -1);
  EXPECT_EQ(map.at(3 * 7919), 3);
}

TEST(FlatMap, IterationVisitsEveryLiveEntry) {
  FlatMap<uint64_t, uint64_t> map;
  uint64_t want_sum = 0;
  for (uint64_t i = 1; i <= 100; ++i) {
    map.insert_or_assign(i, i * 10);
    want_sum += i * 10;
  }
  map.erase(50);
  want_sum -= 500;
  uint64_t sum = 0;
  size_t count = 0;
  for (const auto& [key, value] : map) {
    sum += value;
    ++count;
  }
  EXPECT_EQ(count, 99u);
  EXPECT_EQ(sum, want_sum);
}

TEST(FlatMap, InsertOrAssignOverwrites) {
  FlatMap<uint64_t, std::string> map;
  map.insert_or_assign(1, "first");
  map.insert_or_assign(1, "second");
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(1), "second");
}

TEST(FlatMap, ClearKeepsCapacityAndForgetsEveryKey) {
  FlatMap<uint64_t, std::string> map;
  for (uint64_t key = 0; key < 100; ++key) {
    map.try_emplace(key, StrCat("v", key));
  }
  map.erase(7);  // a tombstone too
  size_t capacity = map.capacity();
  ASSERT_GE(capacity, 128u);
  map.clear();
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.begin() == map.end());
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(map.contains(key)) << key;
  }
  // Refilled to the same size: no regrowth, and only the new keys are found.
  for (uint64_t key = 1000; key < 1100; ++key) {
    map.try_emplace(key, StrCat("w", key));
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 100u);
  for (uint64_t key = 1000; key < 1100; ++key) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end()) << key;
    EXPECT_EQ(it->second, StrCat("w", key));
  }
  EXPECT_FALSE(map.contains(5));
  EXPECT_FALSE(map.contains(7));
}

// ---- Fast byte hashing -----------------------------------------------------------

TEST(HashBytes, SensitiveToEveryByte) {
  std::vector<uint8_t> buf(4096, 0xAB);
  uint64_t base = HashBytes(buf.data(), buf.size());
  EXPECT_EQ(HashBytes(buf.data(), buf.size()), base);  // deterministic
  for (size_t at : {size_t{0}, size_t{7}, size_t{4090}, size_t{4095}}) {
    buf[at] ^= 1;
    EXPECT_NE(HashBytes(buf.data(), buf.size()), base) << "byte " << at;
    buf[at] ^= 1;
  }
  // Length is part of the digest (trailing zero byte is not free).
  EXPECT_NE(HashBytes(buf.data(), buf.size() - 1), base);
  // Seed separates streams.
  EXPECT_NE(HashBytes(buf.data(), buf.size(), 1), base);
}

std::vector<uint8_t> PatternBytes(size_t size) {
  std::vector<uint8_t> buf(size);
  for (size_t i = 0; i < size; ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + (i >> 8) * 7 + 5);
  }
  return buf;
}

// Every lane step and every fold is a bijection of the running state, so no
// single-bit change can cancel out anywhere in a page.
TEST(HashBytes, EveryBitFlipOfAPageChangesTheSum) {
  std::vector<uint8_t> page = PatternBytes(4096);
  const uint64_t base = HashBytes(page.data(), page.size(), 42);
  for (size_t bit = 0; bit < page.size() * 8; ++bit) {
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_NE(HashBytes(page.data(), page.size(), 42), base) << "bit " << bit;
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// 1..40 bytes cross every stripe/word/tail boundary: below one stripe, exactly
// one, one plus whole words, one plus a tail.
TEST(HashBytes, EveryBitFlipOfShortBuffersChangesTheSum) {
  for (size_t size = 1; size <= 40; ++size) {
    std::vector<uint8_t> buf = PatternBytes(size);
    const uint64_t base = HashBytes(buf.data(), buf.size(), 7);
    for (size_t bit = 0; bit < size * 8; ++bit) {
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_NE(HashBytes(buf.data(), buf.size(), 7), base) << "size " << size << " bit " << bit;
      buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

// Pins the function: a change to it shows here rather than as a silent
// change in which corruptions the cache can see.
TEST(HashBytes, FixedSeedGivesFixedValue) {
  std::vector<uint8_t> page = PatternBytes(4096);
  EXPECT_EQ(HashBytes(page.data(), page.size(), 0x6b79616765ull), 0xD53C734E2D14B1D7ULL);
  EXPECT_EQ(HashBytes(page.data(), 37, 1), 0xE73C6D3D3FF6CA42ULL);
  EXPECT_EQ(HashBytes(nullptr, 0, 1), 0xE4D971771B652C20ULL);
}

// ---- Thread pool -----------------------------------------------------------------

TEST(ThreadPool, SubmitRunsEverythingBeforeWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(8, 1, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ZeroThreadsRunsInlineAndDefersBackground) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  int inline_ran = 0;
  pool.Submit([&] { ++inline_ran; });
  EXPECT_EQ(inline_ran, 1);  // Submit ran on the caller, immediately

  int background_ran = 0;
  pool.SubmitBackground([&] { ++background_ran; });
  EXPECT_EQ(background_ran, 0);  // deferred until idle-time drain
  EXPECT_EQ(pool.DrainBackground(), 1u);
  EXPECT_EQ(background_ran, 1);
}

TEST(ThreadPool, BackgroundRunsAfterForegroundDrains) {
  ThreadPool pool(2);
  std::atomic<int> foreground{0};
  std::atomic<int> background{0};
  pool.SubmitBackground([&] { background.fetch_add(1, std::memory_order_relaxed); });
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&] { foreground.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();  // idle = both lanes empty, so background ran too
  EXPECT_EQ(foreground.load(), 20);
  EXPECT_EQ(background.load(), 1);
}

TEST(ThreadPool, GlobalPoolIsCappedAndStable) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_LE(a.thread_count(), 8u);
}

}  // namespace
}  // namespace omos
