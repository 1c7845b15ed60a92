// omtrace tests: ring overflow semantics, concurrent emission (TSan lane),
// the disabled fast path, Chrome JSON round-trip, the profiler ring, and
// the kIntrospect wire protocol against locally-read counters.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/engine/engine.h"
#include "src/ipc/channel.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// Each test runs in its own process (gtest_discover_tests), but be tidy
// anyway: leave tracing off and rings clear on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSetEnabled(false);
    TraceClear();
  }
  void TearDown() override {
    TraceSetEnabled(false);
    TraceClear();
    CycleProfiler::Stop();
    CycleProfiler::Clear();
  }
};

TEST_F(TraceTest, RingOverflowKeepsNewest) {
  TraceSetEnabled(true);
  const size_t total = kTraceRingCapacity + 500;
  for (size_t i = 0; i < total; ++i) {
    TraceInstant("overflow.probe", std::to_string(i));
  }
  std::vector<TraceEvent> events = TraceSnapshot();
  size_t seen = 0;
  size_t min_index = total;
  for (const TraceEvent& ev : events) {
    if (std::string_view(ev.name) != "overflow.probe") {
      continue;
    }
    ++seen;
    size_t index = std::stoul(ev.detail);
    if (index < min_index) {
      min_index = index;
    }
  }
  // A full ring of the newest events survives; everything older is gone.
  EXPECT_EQ(seen, kTraceRingCapacity);
  EXPECT_EQ(min_index, total - kTraceRingCapacity);
}

TEST_F(TraceTest, ConcurrentEmitIsRaceFree) {
  TraceSetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;  // > ring capacity: wraps while read
  std::atomic<bool> stop{false};
  // Reader thread snapshots continuously while writers wrap their rings;
  // under OMOS_SANITIZE=thread this is the race check.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& ev : TraceSnapshot()) {
        ASSERT_NE(ev.name, nullptr);
        std::string_view name(ev.name);
        ASSERT_TRUE(name == "mt.span" || name == "mt.instant") << name;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("mt.span", std::to_string(t));
        span.AddSimCycles(i, t);
        TraceInstant("mt.instant");
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  std::vector<TraceEvent> events = TraceSnapshot();
  EXPECT_FALSE(events.empty());
  EXPECT_LE(events.size(), kThreads * kTraceRingCapacity + kTraceRingCapacity);
  // Snapshot is time-sorted.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(TraceTest, DisabledPathEmitsNothing) {
  ASSERT_FALSE(TraceEnabled());
  {
    TraceSpan span("off.span", "never recorded");
    span.AddSimCycles(1, 2);
    EXPECT_FALSE(span.armed());
  }
  TraceInstant("off.instant");
  TraceInstant("off.instant", "detail", 3, 4);
  EXPECT_TRUE(TraceSnapshot().empty());
  // And the export paths degrade to empty documents, not errors.
  EXPECT_NE(TraceToChromeJson().find("\"traceEvents\""), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::vector<ParsedTraceEvent> parsed,
                       ParseChromeTrace(TraceToChromeJson()));
  EXPECT_TRUE(parsed.empty());
}

TEST_F(TraceTest, CancelledSpanEmitsNothing) {
  TraceSetEnabled(true);
  {
    TraceSpan span("cancel.me", "about to be dropped");
    span.Cancel();
  }
  for (const TraceEvent& ev : TraceSnapshot()) {
    EXPECT_NE(std::string_view(ev.name), "cancel.me");
  }
}

TEST_F(TraceTest, ChromeJsonRoundTrips) {
  TraceSetEnabled(true);
  {
    TraceSpan span("roundtrip.work", "key=\"/bin/ls\"");  // exercises escaping
    span.AddSimCycles(123, 45);
  }
  TraceInstant("roundtrip.mark", "hello", 7, 8);
  std::string json = TraceToChromeJson();
  ASSERT_OK_AND_ASSIGN(std::vector<ParsedTraceEvent> parsed, ParseChromeTrace(json));

  const ParsedTraceEvent* span = nullptr;
  const ParsedTraceEvent* mark = nullptr;
  for (const ParsedTraceEvent& ev : parsed) {
    if (ev.name == "roundtrip.work") span = &ev;
    if (ev.name == "roundtrip.mark") mark = &ev;
  }
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->ph, "X");
  EXPECT_EQ(span->cat, "roundtrip");
  EXPECT_EQ(span->detail, "key=\"/bin/ls\"");
  EXPECT_EQ(span->sim_user, 123u);
  EXPECT_EQ(span->sim_sys, 45u);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->ph, "i");
  EXPECT_EQ(mark->detail, "hello");
  EXPECT_EQ(mark->sim_user, 7u);
  EXPECT_EQ(mark->sim_sys, 8u);
  EXPECT_GE(mark->ts_us, span->ts_us);

  // Malformed documents are protocol errors, not crashes.
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[{]}").ok());
  EXPECT_FALSE(ParseChromeTrace("not json").ok());
}

TEST_F(TraceTest, EngineDecodeDetailNamesThePage) {
  // Four block heads over two text pages: 10 movi + call at the entry and
  // the `sys` the call returns to on the first page, `f`'s addi + br and
  // `g`'s ret on the second. Each page decodes once, whole, when its first
  // block is entered; the detail is formatted in place and its bytes must
  // be Hex32(page base).
  std::string source = ".text\n.global _start\n_start:\n";
  for (int i = 0; i < 10; ++i) {
    source += StrCat("  movi r", i % 4, ", ", i, "\n");
  }
  source += "  call f\n  sys 0\n.align 4096\nf:\n  addi r0, r0, 1\n  br g\ng:\n  ret\n";
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(source, "decode.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "decode"));
  ASSERT_EQ(image.entry % kPageSize, 0u);
  Task& task = kernel.CreateTask("decode");
  ASSERT_OK(MapLinkedImage(kernel, task, image, ""));
  std::vector<std::string> args{"decode"};
  ASSERT_OK(StartTask(kernel, task, image.entry, args));
  TraceSetEnabled(true);
  ASSERT_OK(kernel.RunTask(task));
  TraceSetEnabled(false);
  ASSERT_EQ(task.state(), TaskState::kExited);

  std::vector<std::string> details;
  for (const TraceEvent& ev : TraceSnapshot()) {
    if (std::string_view(ev.name) == "engine.decode") {
      details.push_back(ev.detail);
    }
  }
  std::vector<std::string> expected = {Hex32(image.entry), Hex32(image.entry + kPageSize)};
  EXPECT_EQ(details, expected);
}

TEST_F(TraceTest, ProfilerRingAndPeriodMask) {
  CycleProfiler::Start(/*period=*/100);  // rounds down to 64
  EXPECT_TRUE(CycleProfiler::enabled());
  EXPECT_EQ(CycleProfiler::mask(), 63u);
  CycleProfiler::RecordSample(7, 0x1000);
  CycleProfiler::RecordSample(7, 0x1004);
  CycleProfiler::RecordSample(9, 0x2000);
  std::vector<CycleProfiler::Sample> samples = CycleProfiler::Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].task_id, 7u);
  EXPECT_EQ(samples[0].pc, 0x1000u);
  EXPECT_EQ(samples[2].task_id, 9u);
  CycleProfiler::Clear();
  EXPECT_TRUE(CycleProfiler::Samples().empty());
  CycleProfiler::Stop();
  EXPECT_FALSE(CycleProfiler::enabled());
}

// --- Introspect wire protocol --------------------------------------------

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

constexpr char kMain[] = R"(
.text
.global main
main:
  movi r0, 0
  ret
)";

class IntrospectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kMain, "main.o"));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
    ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o)"));
  }
  void TearDown() override {
    TraceSetEnabled(false);
    TraceClear();
  }

  OmosReply Introspect(Channel& channel, const std::string& cmd, uint32_t handle = 0) {
    OmosRequest request;
    request.op = OmosOp::kIntrospect;
    request.path = cmd;
    request.task_handle = handle;
    auto reply = channel.Call(request, nullptr);
    EXPECT_TRUE(reply.ok()) << reply.error().ToString();
    return reply.ok() ? std::move(reply).value() : OmosReply{};
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(IntrospectTest, SnapshotEqualsLocallyReadCounters) {
  // Generate cache traffic: one miss (cold build), one hit (warm).
  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", Specialization{}, &work));
  ASSERT_OK(server_->Instantiate("/bin/prog", Specialization{}, &work));

  Channel channel = server_->MakeChannel();
  OmosReply reply = Introspect(channel, "stats");
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_FALSE(reply.metrics.empty());

  auto wire_value = [&](std::string_view name) -> uint64_t {
    for (const auto& [metric, value] : reply.metrics) {
      if (metric == name) {
        return value;
      }
    }
    ADD_FAILURE() << "metric missing from wire snapshot: " << name;
    return ~0ull;
  };

  // The wire snapshot must agree with the counters read directly.
  const CacheStats& local = server_->cache_stats();
  EXPECT_EQ(wire_value("cache.hits"), local.hits.load());
  EXPECT_EQ(wire_value("cache.misses"), local.misses.load());
  EXPECT_EQ(wire_value("cache.inserts"), local.inserts.load());
  EXPECT_EQ(wire_value("cache.bytes_cached"), local.bytes_cached.load());
  EXPECT_GE(local.hits.load(), 1u);
  EXPECT_GE(local.misses.load(), 1u);
  // The introspect request itself went through the instrumented path.
  EXPECT_GE(wire_value("server.requests"), 1u);
  EXPECT_GE(wire_value("ipc.calls"), 1u);

  // Text form carries the same counters.
  OmosReply text = Introspect(channel, "stats-text");
  ASSERT_TRUE(text.ok);
  EXPECT_NE(text.payload.find("cache.hits"), std::string::npos);
  EXPECT_NE(text.payload.find("server.requests"), std::string::npos);
}

TEST_F(IntrospectTest, PlacementsReportsLayoutAndConflicts) {
  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", Specialization{}, &work));
  Channel channel = server_->MakeChannel();
  OmosReply reply = Introspect(channel, "placements");
  ASSERT_TRUE(reply.ok) << reply.error;
  // One place line per live object: its bases and its cache key.
  size_t place = reply.payload.find("place T=");
  ASSERT_NE(place, std::string::npos);
  std::string line = reply.payload.substr(place, reply.payload.find('\n', place) - place);
  EXPECT_NE(line.find(" D="), std::string::npos) << line;
  EXPECT_NE(line.find(MakeCacheKey("/bin/prog", "")), std::string::npos) << line;
  EXPECT_EQ(reply.payload.find("conflict "), std::string::npos);  // none yet
}

TEST_F(IntrospectTest, TraceControlAndExportOverWire) {
  Channel channel = server_->MakeChannel();
  ASSERT_TRUE(Introspect(channel, "trace-start").ok);
  EXPECT_TRUE(TraceEnabled());

  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", Specialization{}, &work));

  OmosReply trace = Introspect(channel, "trace");
  ASSERT_TRUE(trace.ok);
  ASSERT_OK_AND_ASSIGN(std::vector<ParsedTraceEvent> parsed,
                       ParseChromeTrace(trace.payload));
  bool saw_instantiate = false;
  bool saw_link = false;
  for (const ParsedTraceEvent& ev : parsed) {
    if (ev.name == "server.instantiate") saw_instantiate = true;
    if (ev.name == "link.image") saw_link = true;
  }
  EXPECT_TRUE(saw_instantiate);
  EXPECT_TRUE(saw_link);

  OmosReply summary = Introspect(channel, "trace-summary");
  ASSERT_TRUE(summary.ok);
  EXPECT_NE(summary.payload.find("server.instantiate"), std::string::npos);

  ASSERT_TRUE(Introspect(channel, "trace-stop").ok);
  EXPECT_FALSE(TraceEnabled());
  ASSERT_TRUE(Introspect(channel, "trace-clear").ok);
  EXPECT_TRUE(TraceSnapshot().empty());
}

TEST_F(IntrospectTest, ProfileOverWire) {
  Channel channel = server_->MakeChannel();
  // period request rides in task_handle; 0 -> default 64. Use 1 so even a
  // four-instruction program yields samples.
  ASSERT_TRUE(Introspect(channel, "profile-start", /*handle=*/1).ok);
  ASSERT_TRUE(CycleProfiler::enabled());

  ASSERT_OK_AND_ASSIGN(TaskId id,
                       server_->IntegratedExec("/bin/prog", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(kernel_.RunTask(*task));

  OmosReply profile = Introspect(channel, "profile", static_cast<uint32_t>(id));
  ASSERT_TRUE(profile.ok) << profile.error;
  EXPECT_NE(profile.payload.find("profile task="), std::string::npos);
  EXPECT_NE(profile.payload.find("samples="), std::string::npos);
  // The program spends its time in _start/main; at least one must resolve.
  bool resolved = profile.payload.find("_start") != std::string::npos ||
                  profile.payload.find("main") != std::string::npos;
  EXPECT_TRUE(resolved) << profile.payload;

  ASSERT_TRUE(Introspect(channel, "profile-stop").ok);
  EXPECT_FALSE(CycleProfiler::enabled());

  OmosReply unknown = Introspect(channel, "profile", /*handle=*/424242);
  EXPECT_FALSE(unknown.ok);

  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
}

TEST_F(IntrospectTest, UnknownSubcommandIsError) {
  Channel channel = server_->MakeChannel();
  OmosReply reply = Introspect(channel, "no-such-subcommand");
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.error.empty());
}

}  // namespace
}  // namespace omos
