// The IPC wire protocol: full-field round trips, malformed-message
// rejection (parameterized truncation sweep), channel cost billing.
#include <gtest/gtest.h>

#include "src/ipc/channel.h"
#include "src/core/server.h"
#include "src/ipc/message.h"
#include "src/ipc/ring_transport.h"
#include "src/os/kernel.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

OmosRequest SampleRequest() {
  OmosRequest request;
  request.op = OmosOp::kDynamicLoad;
  request.path = "(merge /obj/plugin.o)";
  request.specialization = "lib-constrained;T=0x01000000";
  request.task_handle = 42;
  request.symbols = {"plugin_entry", "plugin_data"};
  return request;
}

OmosReply SampleReply() {
  OmosReply reply;
  reply.ok = true;
  reply.entry = 0x101000;
  reply.segments = {SegmentDesc{0x101000, 0x2000, kProtRead | kProtExec, "prog.text"},
                    SegmentDesc{0x40001000, 0x1000, kProtRead | kProtWrite, "prog.data"}};
  reply.names = {"ls", "codegen"};
  reply.symbol_values = {0x101010, 0};
  reply.payload = "trace";
  reply.metrics = {{"cache.hits", 1234}, {"cache.misses", 7}};
  return reply;
}

TEST(IpcMessage, RequestRoundTrip) {
  OmosRequest request = SampleRequest();
  ASSERT_OK_AND_ASSIGN(OmosRequest decoded, DecodeRequest(EncodeRequest(request)));
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.path, request.path);
  EXPECT_EQ(decoded.specialization, request.specialization);
  EXPECT_EQ(decoded.task_handle, request.task_handle);
  EXPECT_EQ(decoded.symbols, request.symbols);
}

TEST(IpcMessage, ReplyRoundTrip) {
  OmosReply reply = SampleReply();
  ASSERT_OK_AND_ASSIGN(OmosReply decoded, DecodeReply(EncodeReply(reply)));
  EXPECT_EQ(decoded.ok, reply.ok);
  EXPECT_EQ(decoded.entry, reply.entry);
  ASSERT_EQ(decoded.segments.size(), 2u);
  EXPECT_EQ(decoded.segments[0].name, "prog.text");
  EXPECT_EQ(decoded.segments[1].prot, kProtRead | kProtWrite);
  EXPECT_EQ(decoded.names, reply.names);
  EXPECT_EQ(decoded.symbol_values, reply.symbol_values);
  EXPECT_EQ(decoded.payload, "trace");
  EXPECT_EQ(decoded.metrics, reply.metrics);
}

TEST(IpcMessage, ErrorReplyRoundTrip) {
  OmosReply reply;
  reply.ok = false;
  reply.error = "not-found: no such meta-object";
  ASSERT_OK_AND_ASSIGN(OmosReply decoded, DecodeReply(EncodeReply(reply)));
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, reply.error);
}

TEST(IpcMessage, WrongMagicRejected) {
  std::vector<uint8_t> reply_as_request = EncodeReply(SampleReply());
  auto result = DecodeRequest(reply_as_request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);

  std::vector<uint8_t> request_as_reply = EncodeRequest(SampleRequest());
  EXPECT_FALSE(DecodeReply(request_as_reply).ok());
}

TEST(IpcMessage, BadOpRejected) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleRequest());
  bytes[4] = 99;  // op field follows the 4-byte magic
  auto result = DecodeRequest(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);
}

// Op 5 once asked for cache statistics; kIntrospect "stats" serves them now,
// and the retired op is as malformed as any unknown one.
TEST(IpcMessage, RetiredStatsOpRejected) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleRequest());
  bytes[4] = 5;  // op field follows the 4-byte magic
  auto result = DecodeRequest(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);

  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK_AND_ASSIGN(OmosReply reply, DecodeReply(server.ServeMessage(bytes)));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("bad op 5"), std::string::npos) << reply.error;
}

// A specialization whose base does not parse is refused with an ok=false
// reply, alone or as one member of a batch whose other members are served.
OmosRequest MalformedInstantiate(uint32_t task_handle) {
  OmosRequest request;
  request.op = OmosOp::kInstantiate;
  request.path = "/bin/prog";
  request.specialization = "x;T=zz";
  request.task_handle = task_handle;
  return request;
}

class MalformedSpecialization : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ObjectFile prog, Assemble(R"(
.text
.global _start
_start:
  movi r0, 3
  sys 0
)", "prog.o"));
    ASSERT_OK(server_.AddFragment("/obj/prog.o", std::move(prog)));
    ASSERT_OK(server_.DefineMeta("/bin/prog", "(merge /obj/prog.o)"));
  }

  Kernel kernel_;
  OmosServer server_{kernel_};
};

TEST_F(MalformedSpecialization, RequestIsRefused) {
  Task& task = kernel_.CreateTask("client");
  ASSERT_OK_AND_ASSIGN(OmosReply reply, DecodeReply(server_.ServeMessage(
                                            EncodeRequest(MalformedInstantiate(task.id())))));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("bad base 'zz'"), std::string::npos) << reply.error;
  EXPECT_TRUE(task.space().Regions().empty());
}

TEST_F(MalformedSpecialization, BatchMemberIsRefusedAndTheOthersServed) {
  Task& bad = kernel_.CreateTask("bad");
  Task& good = kernel_.CreateTask("good");
  OmosRequest list;
  list.op = OmosOp::kListNamespace;
  list.path = "/bin";
  OmosRequest instantiate;
  instantiate.op = OmosOp::kInstantiate;
  instantiate.path = "/bin/prog";
  instantiate.task_handle = good.id();
  ASSERT_OK_AND_ASSIGN(std::vector<OmosReply> replies,
                       DecodeReplyBatch(server_.ServeMessage(EncodeRequestBatch(
                           {MalformedInstantiate(bad.id()), list, instantiate}))));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_NE(replies[0].error.find("bad base 'zz'"), std::string::npos) << replies[0].error;
  EXPECT_TRUE(replies[1].ok) << replies[1].error;
  EXPECT_FALSE(replies[1].names.empty());
  EXPECT_TRUE(replies[2].ok) << replies[2].error;
  EXPECT_FALSE(replies[2].segments.empty());
  EXPECT_TRUE(bad.space().Regions().empty());
}

// Truncating a valid message at any point must produce a clean error.
class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, RequestNeverCrashes) {
  std::vector<uint8_t> bytes = EncodeRequest(SampleRequest());
  size_t cut = bytes.size() * static_cast<size_t>(GetParam()) / 16;
  if (cut >= bytes.size()) {
    return;
  }
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
  EXPECT_FALSE(DecodeRequest(truncated).ok());
}

TEST_P(TruncationSweep, ReplyNeverCrashes) {
  std::vector<uint8_t> bytes = EncodeReply(SampleReply());
  size_t cut = bytes.size() * static_cast<size_t>(GetParam()) / 16;
  if (cut >= bytes.size()) {
    return;
  }
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
  EXPECT_FALSE(DecodeReply(truncated).ok());
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationSweep, ::testing::Range(0, 16));

TEST(Channel, BillsTaskSystemTime) {
  Kernel kernel;
  Task& task = kernel.CreateTask("client");
  uint64_t before = task.sys_cycles();
  Channel channel([](const std::vector<uint8_t>&) { return EncodeReply(OmosReply{}); }, 5000);
  ASSERT_OK(channel.Call(SampleRequest(), &task));
  EXPECT_EQ(task.sys_cycles() - before, 5000u);
  EXPECT_EQ(channel.calls_made(), 1u);
  EXPECT_EQ(channel.cycles_billed(), 0u);
}

TEST(Channel, BillsHostCounterWithoutTask) {
  Channel channel([](const std::vector<uint8_t>&) { return EncodeReply(OmosReply{}); }, 750);
  ASSERT_OK(channel.Call(SampleRequest(), nullptr));
  ASSERT_OK(channel.Call(SampleRequest(), nullptr));
  EXPECT_EQ(channel.cycles_billed(), 1500u);
}

TEST(Channel, MalformedServerReplyIsError) {
  Channel channel([](const std::vector<uint8_t>&) { return std::vector<uint8_t>{1, 2, 3}; }, 10);
  auto result = channel.Call(SampleRequest(), nullptr);
  ASSERT_FALSE(result.ok());  // truncated garbage -> parse error
}


// ---- Transports ---------------------------------------------------------------

TEST(Transport, BytePipeAndFraming) {
  BytePipe pipe;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  WriteFrame(pipe, payload);
  EXPECT_EQ(pipe.buffered(), kFrameHeaderSize + 5);  // length + checksum + 5 bytes
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read_back, ReadFrame(pipe));
  EXPECT_EQ(read_back, payload);
  EXPECT_EQ(pipe.buffered(), 0u);
}

TEST(Transport, FrameUnderrunDetected) {
  BytePipe pipe;
  uint8_t bogus_header[8] = {100, 0, 0, 0, 0, 0, 0, 0};  // claims 100 bytes
  pipe.Write(bogus_header, 8);
  uint8_t partial[10] = {0};
  pipe.Write(partial, 10);
  auto result = ReadFrame(pipe);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);
}

TEST(Transport, OversizedFrameRejected) {
  BytePipe pipe;
  uint8_t header[8] = {0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0};
  pipe.Write(header, 8);
  auto result = ReadFrame(pipe);
  ASSERT_FALSE(result.ok());
}

// Regression: a failed ReadFrame used to leave the unread tail in the pipe,
// so the next read misparsed payload bytes as a frame header and every
// subsequent frame on the stream was garbage. Any framing error now drains
// the pipe, and a fresh frame written afterwards round-trips cleanly.
TEST(Transport, FramingErrorDrainsPipeAndRecovers) {
  BytePipe pipe;
  uint8_t bogus_header[8] = {100, 0, 0, 0, 0, 0, 0, 0};  // claims 100 bytes
  pipe.Write(bogus_header, 8);
  uint8_t partial[10] = {7, 7, 7, 7, 7, 7, 7, 7, 7, 7};
  pipe.Write(partial, 10);
  ASSERT_FALSE(ReadFrame(pipe).ok());
  EXPECT_EQ(pipe.buffered(), 0u);  // the desync fix: no stale bytes survive
  std::vector<uint8_t> payload = {9, 8, 7};
  WriteFrame(pipe, payload);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read_back, ReadFrame(pipe));
  EXPECT_EQ(read_back, payload);
}

TEST(Transport, BitFlipDetectedByChecksum) {
  BytePipe pipe;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  WriteFrame(pipe, payload);
  pipe.FlipBits(kFrameHeaderSize + 2, 0x10);  // damage a payload byte in flight
  auto result = ReadFrame(pipe);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted);
  EXPECT_EQ(pipe.buffered(), 0u);
}

// ---- Fault injection and retry ------------------------------------------------

std::vector<uint8_t> OkServer(const std::vector<uint8_t>& request) {
  OmosReply reply;
  reply.ok = true;
  auto decoded = DecodeRequest(request);
  if (decoded.ok()) {
    reply.names.push_back(decoded->path);
  }
  return EncodeReply(reply);
}

TEST(Transport, StreamRecoversAfterTruncatedFrame) {
  Channel channel(MakeStreamTransport(OkServer, 1000, 2));
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  {
    ScopedFaultPlan plan(FaultPlan().Arm("pipe.truncate", FaultSpec::Nth(1)));
    auto first = channel.Call(request, nullptr);
    ASSERT_FALSE(first.ok());  // the damaged frame surfaces as a typed error
    EXPECT_TRUE(IsRetryableError(first.error().code()));
    // The stream resynchronized: the very next call succeeds with no retry.
    ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
    EXPECT_TRUE(reply.ok);
  }
  EXPECT_EQ(channel.retries_made(), 0u);
}

TEST(Channel, RetryPolicySurvivesDroppedMessage) {
  Channel channel(OkServer, /*round_trip_cost=*/1000);
  channel.set_retry_policy(RetryPolicy::Default());
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ScopedFaultPlan plan(FaultPlan().Arm("port.drop", FaultSpec::Nth(1)));
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(channel.retries_made(), 1u);
  EXPECT_EQ(channel.backoff_cycles_billed(), RetryPolicy::Default().base_backoff_cycles);
  // Both attempts' wire cost plus the backoff wait are billed.
  EXPECT_EQ(channel.cycles_billed(), 2 * 1000u + channel.backoff_cycles_billed());
}

TEST(Channel, RetryBacksOffExponentiallyAndBillsTask) {
  Kernel kernel;
  Task& task = kernel.CreateTask("client");
  Channel channel(MakeStreamTransport(OkServer, /*base=*/100, /*per_byte=*/0));
  channel.set_retry_policy(RetryPolicy{/*max_attempts=*/4, /*base=*/500, /*max=*/8000});
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  // Drop the first two request frames; the third attempt gets through.
  ScopedFaultPlan plan(FaultPlan().Arm("pipe.drop", FaultSpec::Every(1).WithMaxFires(2)));
  uint64_t before = task.sys_cycles();
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, &task));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(channel.retries_made(), 2u);
  EXPECT_EQ(channel.backoff_cycles_billed(), 500u + 1000u);  // 500 << 0, 500 << 1
  EXPECT_GE(task.sys_cycles() - before, channel.backoff_cycles_billed());
}

TEST(Channel, NonRetryableWithoutPolicy) {
  Channel channel(OkServer, /*round_trip_cost=*/10);
  ScopedFaultPlan plan(FaultPlan().Arm("port.drop", FaultSpec::Nth(1)));
  auto result = channel.Call(SampleRequest(), nullptr);
  ASSERT_FALSE(result.ok());  // RetryPolicy::None fails fast
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
}

TEST(Channel, RetriesExhaustedSurfacesLastError) {
  Channel channel(OkServer, /*round_trip_cost=*/10);
  channel.set_retry_policy(RetryPolicy{/*max_attempts=*/3, /*base=*/100, /*max=*/200});
  ScopedFaultPlan plan(FaultPlan().Arm("port.drop", FaultSpec::Every(1)));
  auto result = channel.Call(SampleRequest(), nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(channel.retries_made(), 2u);
  // Even the failed call bills its wire and backoff time: 3 trips + 100 + 200.
  EXPECT_EQ(channel.cycles_billed(), 3 * 10u + 100u + 200u);
}

TEST(Transport, StreamChannelDeliversAndBillsPerByte) {
  auto echo = [](const std::vector<uint8_t>& request) {
    OmosReply reply;
    reply.ok = true;
    auto decoded = DecodeRequest(request);
    if (decoded.ok()) {
      reply.names.push_back(decoded->path);
    }
    return EncodeReply(reply);
  };
  Channel port_channel(echo, /*round_trip_cost=*/1000);
  Channel stream_channel(MakeStreamTransport(echo, /*base=*/1000, /*per_byte=*/3));

  OmosRequest small;
  small.op = OmosOp::kListNamespace;
  small.path = "/bin";
  OmosRequest large = small;
  large.path = std::string(512, 'x');

  ASSERT_OK_AND_ASSIGN(OmosReply via_port, port_channel.Call(small, nullptr));
  ASSERT_OK_AND_ASSIGN(OmosReply via_stream, stream_channel.Call(small, nullptr));
  EXPECT_EQ(via_port.names, via_stream.names);  // transport-agnostic result
  uint64_t small_cost = stream_channel.cycles_billed();
  ASSERT_OK(stream_channel.Call(large, nullptr));
  uint64_t large_cost = stream_channel.cycles_billed() - small_cost;
  // Stream cost grows with payload; port cost is flat.
  EXPECT_GT(large_cost, small_cost);
  ASSERT_OK(port_channel.Call(large, nullptr));
  EXPECT_EQ(port_channel.cycles_billed(), 2000u);
}

// The empty pipe and the damaged pipe are different failures: a clean EOF
// mid-poll is kUnavailable (peer closed, nothing to drain), while a frame
// that lies about its length is kProtocolError (framing lost, pipe drained).
TEST(Transport, EmptyPipeReadIsPeerClosed) {
  BytePipe pipe;
  auto result = ReadFrame(pipe);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
}

TEST(Transport, PartialHeaderIsFramingLost) {
  BytePipe pipe;
  uint8_t stub[3] = {1, 2, 3};  // less than a frame header
  pipe.Write(stub, 3);
  auto result = ReadFrame(pipe);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);
  EXPECT_EQ(pipe.buffered(), 0u);  // framing loss drains; EOF would not
}

// ---- Ring transport -----------------------------------------------------------

TEST(Ring, MessageSpansSlotsAndWraps) {
  SharedMemoryRing ring(4, 16);
  for (int round = 0; round < 10; ++round) {
    std::vector<uint8_t> message(24, static_cast<uint8_t>(round));  // 2 slots
    ASSERT_OK(ring.Push(message));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> back, ring.Pop());
    EXPECT_EQ(back, message);
  }
  EXPECT_GT(ring.wraps(), 0u);  // 20 slots through a 4-slot ring
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, BackpressureWhenFull) {
  SharedMemoryRing ring(4, 16);
  std::vector<uint8_t> message(16, 7);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(ring.Push(message));
  }
  auto full = ring.Push(message);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code(), ErrorCode::kUnavailable);
  ASSERT_OK(ring.Pop());
  ASSERT_OK(ring.Push(message));  // the freed slot is reusable
}

TEST(Ring, OversizedMessageRejected) {
  SharedMemoryRing ring(2, 16);
  auto result = ring.Push(std::vector<uint8_t>(64, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(Ring, EmptyPopUnavailable) {
  SharedMemoryRing ring(4, 16);
  auto result = ring.Pop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
}

TEST(Ring, CorruptionDetectedAndRingRecovers) {
  SharedMemoryRing ring(4, 16);
  std::vector<uint8_t> message = {1, 2, 3, 4, 5};
  ASSERT_OK(ring.Push(message));
  ring.CorruptByte(0, 2, 0x40);
  auto result = ring.Pop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted);
  EXPECT_EQ(ring.corruptions_seen(), 1u);
  EXPECT_TRUE(ring.empty());  // Reset reclaimed the damaged slots
  ASSERT_OK(ring.Push(message));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> back, ring.Pop());
  EXPECT_EQ(back, message);
}

TEST(Transport, RingChannelDeliversAndBillsHandoff) {
  RingConfig config;
  Channel channel(MakeRingTransport(OkServer, config));
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  // One slot each direction: only the doorbell handoff is billed.
  EXPECT_EQ(channel.cycles_billed(), config.handoff_cost);
}

TEST(Transport, RingSlotCorruptionRecoveredByRetry) {
  Channel channel(MakeRingTransport(OkServer, RingConfig()));
  channel.set_retry_policy(RetryPolicy::Default());
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ScopedFaultPlan plan(FaultPlan().Arm("ring.corrupt", FaultSpec::Nth(1)));
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(channel.retries_made(), 1u);  // kCorrupted is retryable
}

TEST(Transport, RingStallSurfacesTimeoutThenRecovers) {
  RingConfig config;
  Channel channel(MakeRingTransport(OkServer, config));
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  {
    ScopedFaultPlan plan(FaultPlan().Arm("ring.stall", FaultSpec::Nth(1)));
    auto stalled = channel.Call(request, nullptr);
    ASSERT_FALSE(stalled.ok());
    EXPECT_EQ(stalled.error().code(), ErrorCode::kTimeout);
    // The bounded spin on the dead doorbell was billed in simulated time.
    EXPECT_GE(channel.cycles_billed(), config.stall_spin_cycles);
  }
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);  // slots were reclaimed; the ring is clean
}

TEST(Transport, PersistentRingCorruptionFallsBackToStream) {
  // Seeded fault: every ring round trip corrupts. Two consecutive kCorrupted
  // attempts hit the demotion threshold, the channel swaps to the armed
  // stream transport mid-call, and the request still succeeds — clients
  // never observe the swap except through the counter.
  Channel channel(MakeRingTransport(OkServer, RingConfig()));
  channel.set_retry_policy(RetryPolicy::Default());
  channel.ArmFallbackTransport(MakeStreamTransport(OkServer, 1000, 2), /*threshold=*/2);
  Counter* fallbacks = MetricsRegistry::Global().GetCounter("ipc.transport_fallbacks");
  uint64_t before = fallbacks->value();
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ScopedFaultPlan plan(FaultPlan().Arm("ring.corrupt", FaultSpec::Every(1)));
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  EXPECT_TRUE(channel.fallback_engaged());
  EXPECT_EQ(fallbacks->value(), before + 1);
  // The demotion is permanent: later calls ride the stream and never touch
  // the damaged ring again, so the still-armed fault plan cannot fire.
  ASSERT_OK_AND_ASSIGN(OmosReply again, channel.Call(request, nullptr));
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(fallbacks->value(), before + 1);
}

TEST(Transport, TransientRingCorruptionDoesNotDemote) {
  // One corrupted slot, then clean traffic: the retry absorbs it and the
  // streak reset keeps the channel on the (cheaper) ring.
  Channel channel(MakeRingTransport(OkServer, RingConfig()));
  channel.set_retry_policy(RetryPolicy::Default());
  channel.ArmFallbackTransport(MakeStreamTransport(OkServer, 1000, 2), /*threshold=*/2);
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  for (int i = 0; i < 3; ++i) {
    ScopedFaultPlan plan(FaultPlan().Arm("ring.corrupt", FaultSpec::Nth(1)));
    ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
    EXPECT_TRUE(reply.ok);
  }
  EXPECT_FALSE(channel.fallback_engaged());
}

TEST(Transport, RingRepromotedAfterQuietPeriod) {
  // The ring corrupts exactly twice (a transient mapping glitch), demoting
  // the channel to the stream. After `repromote_after` clean exchanges the
  // channel probes the ring again; the glitch has passed, so the probe
  // delivers and the channel rides the cheap ring from then on.
  Channel channel(MakeRingTransport(OkServer, RingConfig()));
  channel.set_retry_policy(RetryPolicy::Default());
  channel.ArmFallbackTransport(MakeStreamTransport(OkServer, 1000, 2), /*threshold=*/2,
                               /*repromote_after=*/2);
  Counter* repromotions = MetricsRegistry::Global().GetCounter("ipc.transport_repromotions");
  uint64_t before = repromotions->value();
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ScopedFaultPlan plan(
      FaultPlan().Arm("ring.corrupt", FaultSpec::Every(1).WithMaxFires(2)));
  // Two corrupted ring attempts demote mid-call; the stream finishes it.
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  ASSERT_TRUE(channel.fallback_engaged());
  // One more clean stream exchange completes the quiet period.
  ASSERT_OK_AND_ASSIGN(OmosReply quiet, channel.Call(request, nullptr));
  EXPECT_TRUE(quiet.ok);
  EXPECT_TRUE(channel.fallback_engaged());
  // This exchange probes the (now healthy) ring and re-promotes it.
  ASSERT_OK_AND_ASSIGN(OmosReply probe, channel.Call(request, nullptr));
  EXPECT_TRUE(probe.ok);
  EXPECT_FALSE(channel.fallback_engaged());
  EXPECT_EQ(repromotions->value(), before + 1);
}

TEST(Transport, FailedRepromotionProbeRetreatsToStream) {
  // The ring stays damaged (every slot corrupts): the re-promotion probe
  // hits the corruption, retreats to the stream within the same call, and
  // the request still succeeds. The channel remains demoted.
  Channel channel(MakeRingTransport(OkServer, RingConfig()));
  channel.set_retry_policy(RetryPolicy::Default());
  channel.ArmFallbackTransport(MakeStreamTransport(OkServer, 1000, 2), /*threshold=*/2,
                               /*repromote_after=*/2);
  Counter* repromotions = MetricsRegistry::Global().GetCounter("ipc.transport_repromotions");
  uint64_t before = repromotions->value();
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ScopedFaultPlan plan(FaultPlan().Arm("ring.corrupt", FaultSpec::Every(1)));
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  EXPECT_TRUE(reply.ok);
  ASSERT_TRUE(channel.fallback_engaged());
  for (int i = 0; i < 4; ++i) {
    // Calls 1-2 complete the quiet period; call 3 probes, retreats, and
    // still delivers on the stream; call 4 starts a fresh quiet period.
    ASSERT_OK_AND_ASSIGN(OmosReply again, channel.Call(request, nullptr));
    EXPECT_TRUE(again.ok);
    EXPECT_TRUE(channel.fallback_engaged());
  }
  EXPECT_EQ(repromotions->value(), before);
}

TEST(Transport, OmosServerReachableOverRingTransport) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta(
      "/bin/thing",
      "(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  sys 0\\n\"))"));
  server.SetExecTransport(OmosServer::ExecTransport::kRing);
  Channel channel = server.MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok);
  ASSERT_EQ(reply.names.size(), 1u);
  EXPECT_EQ(reply.names[0], "thing");
}

// ---- Exec channel reuse -------------------------------------------------------

// BootstrapExec of a warm `ls /data`: the server parks each exec's channel
// and the next exec reuses it, so channel construction is off the exec path
// while every exec still makes (and pays for) its own round trip.
class ExecChannelTest : public ::testing::Test {
 protected:
  struct ExecRun {
    std::string output;
    uint64_t user_cycles = 0;
    uint64_t sys_cycles = 0;
  };

  void SetUp() override {
    PopulateLsData(kernel_.fs());
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(Workloads w, BuildWorkloads(TinyWorkloadParams()));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", w.crt0));
    ASSERT_OK(server_->AddFragment("/obj/ls.o", w.ls_obj));
    ASSERT_OK(server_->AddArchive("/libc", w.libc));
    ASSERT_OK(server_->DefineLibrary("/lib/libc", "(merge /libc)"));
    ASSERT_OK(server_->DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"));
    // Warm the cache so no exec below bills a build.
    ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/ls", {"ls", "/data"}));
    ASSERT_OK(Finish(warm));
    expected_output_ = ExpectedLsShortOutput(kernel_.fs(), "/data");
  }

  // Run a task to completion, then release and destroy it.
  Result<ExecRun> Finish(TaskId id) {
    Task* task = kernel_.FindTask(id);
    if (task == nullptr) {
      return Err(ErrorCode::kNotFound, "no task");
    }
    OMOS_TRY_VOID(kernel_.RunTask(*task));
    ExecRun run{task->output(), task->user_cycles(), task->sys_cycles()};
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
    return run;
  }

  Result<ExecRun> BootLs() {
    OMOS_TRY(TaskId id, server_->BootstrapExec("/bin/ls", {"ls", "/data"}));
    return Finish(id);
  }

  static uint64_t Created() {
    return MetricsRegistry::Global().GetCounter("ipc.exec_channels.created")->value();
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
  std::string expected_output_;
};

TEST_F(ExecChannelTest, SequentialExecsBuildOneChannelPerTransport) {
  for (OmosServer::ExecTransport transport :
       {OmosServer::ExecTransport::kPort, OmosServer::ExecTransport::kStream,
        OmosServer::ExecTransport::kRing}) {
    server_->SetExecTransport(transport);
    uint64_t created = Created();
    ASSERT_OK_AND_ASSIGN(ExecRun first, BootLs());
    EXPECT_EQ(first.output, expected_output_);
    for (int i = 1; i < 100; ++i) {
      ASSERT_OK_AND_ASSIGN(ExecRun run, BootLs());
      ASSERT_EQ(run.output, first.output) << "exec " << i;
      ASSERT_EQ(run.user_cycles, first.user_cycles) << "exec " << i;
      ASSERT_EQ(run.sys_cycles, first.sys_cycles) << "exec " << i;
    }
    EXPECT_EQ(Created() - created, 1u) << "transport " << static_cast<int>(transport);
  }
}

TEST_F(ExecChannelTest, TransportSwitchPaysTheNewTransportsCost) {
  const CostModel& costs = kernel_.costs();
  ASSERT_OK_AND_ASSIGN(ExecRun port, BootLs());
  ASSERT_OK_AND_ASSIGN(ExecRun port_again, BootLs());
  EXPECT_EQ(port_again.sys_cycles, port.sys_cycles);
  uint64_t created = Created();
  // The parked port channel must not carry the next exec: it goes out on
  // the ring and pays a doorbell handoff instead of a queue round trip
  // (request and reply fit one slot each).
  server_->SetExecTransport(OmosServer::ExecTransport::kRing);
  ASSERT_OK_AND_ASSIGN(ExecRun ring, BootLs());
  EXPECT_EQ(ring.output, expected_output_);
  EXPECT_EQ(port.sys_cycles - ring.sys_cycles, costs.ipc_round_trip - costs.ring_handoff);
  EXPECT_EQ(Created() - created, 1u);
  // And back: the parked ring channel is dropped for a port channel.
  server_->SetExecTransport(OmosServer::ExecTransport::kPort);
  ASSERT_OK_AND_ASSIGN(ExecRun port_back, BootLs());
  EXPECT_EQ(port_back.sys_cycles, port.sys_cycles);
  EXPECT_EQ(Created() - created, 2u);
}

TEST_F(ExecChannelTest, PersistentRingCorruptionDoesNotCarryIntoNextExec) {
  server_->SetExecTransport(OmosServer::ExecTransport::kRing);
  ASSERT_OK_AND_ASSIGN(ExecRun clean, BootLs());
  Counter* fallbacks = MetricsRegistry::Global().GetCounter("ipc.transport_fallbacks");
  uint64_t fallbacks_before = fallbacks->value();
  uint64_t created = Created();
  {
    // Every ring slot corrupts. An exec channel makes one attempt, so each
    // exec fails; were the failed channel parked, the corruption streak
    // would carry over and the third exec would demote it to the stream
    // fallback, leaving later execs on the slower stream.
    ScopedFaultPlan plan(FaultPlan().Arm("ring.corrupt", FaultSpec::Every(1)));
    for (int i = 0; i < 4; ++i) {
      auto failed = server_->BootstrapExec("/bin/ls", {"ls", "/data"});
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.error().code(), ErrorCode::kCorrupted);
    }
  }
  // Each failed channel was dropped: the first exec took the parked one,
  // every later exec had to build its own.
  EXPECT_EQ(Created() - created, 3u);
  ASSERT_OK_AND_ASSIGN(ExecRun after, BootLs());
  EXPECT_EQ(after.output, expected_output_);
  EXPECT_EQ(after.sys_cycles, clean.sys_cycles);  // ring cost, not stream
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
}

TEST_F(ExecChannelTest, RingStallDoesNotParkTheChannel) {
  server_->SetExecTransport(OmosServer::ExecTransport::kRing);
  ASSERT_OK_AND_ASSIGN(ExecRun clean, BootLs());
  uint64_t created = Created();
  {
    ScopedFaultPlan plan(FaultPlan().Arm("ring.stall", FaultSpec::Nth(1)));
    auto stalled = server_->BootstrapExec("/bin/ls", {"ls", "/data"});
    ASSERT_FALSE(stalled.ok());
    EXPECT_EQ(stalled.error().code(), ErrorCode::kTimeout);
  }
  // The stalled exec took the parked channel and dropped it; the next exec
  // builds a fresh one and pays exactly the clean ring cost.
  ASSERT_OK_AND_ASSIGN(ExecRun after, BootLs());
  EXPECT_EQ(after.output, expected_output_);
  EXPECT_EQ(after.sys_cycles, clean.sys_cycles);
  EXPECT_EQ(Created() - created, 1u);
}

// ---- Request batching ---------------------------------------------------------

TEST(IpcMessage, BatchRoundTrip) {
  std::vector<OmosRequest> requests(3, SampleRequest());
  requests[1].path = "/obj/other.o";
  std::vector<uint8_t> wire = EncodeRequestBatch(requests);
  EXPECT_TRUE(IsBatchRequest(wire));
  EXPECT_FALSE(IsBatchRequest(EncodeRequest(requests[0])));
  ASSERT_OK_AND_ASSIGN(std::vector<OmosRequest> decoded, DecodeRequestBatch(wire));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[1].path, "/obj/other.o");
  EXPECT_EQ(decoded[2].symbols, requests[2].symbols);

  std::vector<OmosReply> replies(2, SampleReply());
  replies[1].ok = false;
  replies[1].error = "boom";
  std::vector<uint8_t> reply_wire = EncodeReplyBatch(replies);
  EXPECT_TRUE(IsBatchReply(reply_wire));
  ASSERT_OK_AND_ASSIGN(std::vector<OmosReply> decoded_replies, DecodeReplyBatch(reply_wire));
  ASSERT_EQ(decoded_replies.size(), 2u);
  EXPECT_TRUE(decoded_replies[0].ok);
  EXPECT_FALSE(decoded_replies[1].ok);
  EXPECT_EQ(decoded_replies[1].error, "boom");
  EXPECT_EQ(decoded_replies[0].metrics, replies[0].metrics);
}

TEST(IpcMessage, EmptyBatchIsProtocolError) {
  auto result = DecodeRequestBatch(EncodeRequestBatch({}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kProtocolError);
}

TEST(Channel, BatchSharesOneRoundTrip) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta(
      "/bin/thing",
      "(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  sys 0\\n\"))"));
  Channel channel = server.MakeChannel(OmosServer::ExecTransport::kRing);
  OmosRequest ping;
  ping.op = OmosOp::kListNamespace;
  ping.path = "/bin";
  std::vector<OmosRequest> requests(8, ping);
  ASSERT_OK_AND_ASSIGN(std::vector<OmosReply> replies, channel.CallBatch(requests, nullptr));
  ASSERT_EQ(replies.size(), 8u);
  for (const OmosReply& reply : replies) {
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.names, std::vector<std::string>{"thing"});
  }
  EXPECT_EQ(channel.calls_made(), 1u);  // one frame, one round trip
}

// One bad member must not poison the other N-1: it comes back ok=false in
// its slot while its neighbours succeed.
TEST(Channel, BatchPartialFailureIsolated) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta(
      "/bin/thing",
      "(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  sys 0\\n\"))"));
  Channel channel = server.MakeChannel(OmosServer::ExecTransport::kRing);
  OmosRequest good;
  good.op = OmosOp::kListNamespace;
  good.path = "/bin";
  OmosRequest bad;
  bad.op = OmosOp::kInstantiate;
  bad.path = "/bin/thing";
  bad.task_handle = 9999;  // no such task
  std::vector<OmosRequest> requests = {good, bad, good};
  ASSERT_OK_AND_ASSIGN(std::vector<OmosReply> replies, channel.CallBatch(requests, nullptr));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].ok);
  EXPECT_FALSE(replies[1].ok);
  EXPECT_EQ(replies[1].error, "bad task handle");
  EXPECT_TRUE(replies[2].ok);
}

// Seeded fault sweep: under probabilistic slot corruption and stalls the
// retry machinery must always converge to a fully correct batch reply.
TEST(Channel, BatchSurvivesSeededFaultSweep) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta(
      "/bin/thing",
      "(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  sys 0\\n\"))"));
  OmosRequest ping;
  ping.op = OmosOp::kListNamespace;
  ping.path = "/bin";
  std::vector<OmosRequest> requests(5, ping);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Channel channel = server.MakeChannel(OmosServer::ExecTransport::kRing);
    channel.set_retry_policy(RetryPolicy{/*max_attempts=*/8, /*base=*/100, /*max=*/800});
    ScopedFaultPlan plan(FaultPlan()
                             .Arm("ring.corrupt", FaultSpec::Prob(0.2, seed).WithMaxFires(3))
                             .Arm("ring.stall", FaultSpec::Prob(0.1, seed + 100).WithMaxFires(2)));
    ASSERT_OK_AND_ASSIGN(std::vector<OmosReply> replies, channel.CallBatch(requests, nullptr));
    ASSERT_EQ(replies.size(), 5u);
    for (const OmosReply& reply : replies) {
      ASSERT_TRUE(reply.ok) << "seed " << seed;
      EXPECT_EQ(reply.names, std::vector<std::string>{"thing"}) << "seed " << seed;
    }
  }
}

// ---- Coherence: every call reaches the server ---------------------------------

// A one-fragment program whose `_start` exits with `code`.
std::string ExitBlueprint(int code) {
  return StrCat("(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  movi r0, ",
                code, "\\n  sys 0\\n\"))");
}

OmosRequest InstantiateRequest(const std::string& path, const Task& task) {
  OmosRequest request;
  request.op = OmosOp::kInstantiate;
  request.path = path;
  request.specialization = Specialization().ToKeyString();
  request.task_handle = task.id();
  return request;
}

TEST(Channel, EveryCallMakesARoundTrip) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta("/bin/thing", ExitBlueprint(0)));
  Channel channel = server.MakeChannel();
  ASSERT_OK_AND_ASSIGN(
      OmosReply first,
      channel.Call(InstantiateRequest("/bin/thing", kernel.CreateTask("a")), nullptr));
  ASSERT_OK_AND_ASSIGN(
      OmosReply second,
      channel.Call(InstantiateRequest("/bin/thing", kernel.CreateTask("b")), nullptr));
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.entry, first.entry);
  EXPECT_EQ(channel.calls_made(), 2u);
}

// Map `path` into a fresh task over `channel`, then run the task.
Result<int> InstantiateAndRun(Kernel& kernel, Channel& channel, const std::string& path) {
  Task& task = kernel.CreateTask("client");
  OMOS_TRY(OmosReply reply, channel.Call(InstantiateRequest(path, task), nullptr));
  if (!reply.ok) {
    return Err(ErrorCode::kInternal, reply.error);
  }
  OMOS_TRY_VOID(StartTask(kernel, task, reply.entry, {}));
  OMOS_TRY_VOID(kernel.RunTask(task));
  return task.exit_code();
}

// A redefinition that arrives over another channel reaches this channel's
// very next Instantiate: no reply is kept anywhere but in the server's cache,
// which evicts the image whose input was redefined.
TEST(Channel, RedefinitionReachesTheNextInstantiate) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta("/bin/thing", ExitBlueprint(21)));
  Channel channel = server.MakeChannel(OmosServer::ExecTransport::kRing);
  ASSERT_OK_AND_ASSIGN(int before, InstantiateAndRun(kernel, channel, "/bin/thing"));
  EXPECT_EQ(before, 21);

  Channel admin = server.MakeChannel();
  OmosRequest define;
  define.op = OmosOp::kDefineMeta;
  define.path = "/bin/thing";
  define.specialization = ExitBlueprint(51);  // the blueprint travels here
  ASSERT_OK_AND_ASSIGN(OmosReply defined, admin.Call(define, nullptr));
  ASSERT_TRUE(defined.ok) << defined.error;

  uint64_t calls_before = channel.calls_made();
  ASSERT_OK_AND_ASSIGN(int after, InstantiateAndRun(kernel, channel, "/bin/thing"));
  EXPECT_EQ(after, 51);
  EXPECT_EQ(channel.calls_made(), calls_before + 1);
}

TEST(Transport, OmosServerReachableOverStreamTransport) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(server.DefineMeta("/bin/thing", "(merge (source \"asm\" \".text\\n.global _start\\n_start:\\n  sys 0\\n\"))"));
  Channel channel(MakeStreamTransport(
      [&server](const std::vector<uint8_t>& bytes) { return server.ServeMessage(bytes); },
      2000, 2));
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok);
  ASSERT_EQ(reply.names.size(), 1u);
  EXPECT_EQ(reply.names[0], "thing");
  EXPECT_GT(channel.cycles_billed(), 2000u);
}

}  // namespace
}  // namespace omos
