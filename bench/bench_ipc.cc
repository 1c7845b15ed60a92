// bench_ipc: the exec-protocol transports under load.
//
// Section 1 — simulated cycles per request for each transport (Mach-style
// port, SysV-style stream, doors-style shared-memory ring), alone and with
// request batching (one frame, one round trip for N requests).
//
// Section 2 — open-loop wall-clock: N simulated clients (1k/4k/10k), each
// issuing one request per round, driven by worker lanes with batching over
// the ring transport. Each of a load point's five rounds takes p50/p99 from
// its server.request_ns histogram delta, interpolated within the
// power-of-two bucket that holds them, and the point reports the median
// round. PASS line requires p99 to stay within 2x from 1k to 10k —
// per-request server work is constant, so the batched ring keeps the tail
// flat as the client count grows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/ipc/channel.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"

namespace omos {
namespace {

constexpr int kBatchSize = 16;
// Each load point repeats its clients' requests this many times and
// reports the median round, so one round that host noise slows moves no
// percentile. Odd, so the median is one round's.
constexpr int kRounds = 5;

OmosRequest PingRequest() {
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  return request;
}

uint64_t CyclesPerCall(Channel& channel, int calls) {
  OmosRequest request = PingRequest();
  uint64_t before = channel.cycles_billed();
  for (int i = 0; i < calls; ++i) {
    OmosReply reply = BENCH_UNWRAP(channel.Call(request, nullptr));
    if (!reply.ok) {
      std::fprintf(stderr, "ping failed: %s\n", reply.error.c_str());
      std::abort();
    }
  }
  return (channel.cycles_billed() - before) / static_cast<uint64_t>(calls);
}

uint64_t CyclesPerBatchedCall(Channel& channel, int batches) {
  std::vector<OmosRequest> requests(kBatchSize, PingRequest());
  uint64_t before = channel.cycles_billed();
  for (int i = 0; i < batches; ++i) {
    std::vector<OmosReply> replies = BENCH_UNWRAP(channel.CallBatch(requests, nullptr));
    for (const OmosReply& reply : replies) {
      if (!reply.ok) {
        std::fprintf(stderr, "batched ping failed: %s\n", reply.error.c_str());
        std::abort();
      }
    }
  }
  return (channel.cycles_billed() - before) / static_cast<uint64_t>(batches * kBatchSize);
}

void TransportCyclesTable(OmosWorld& world) {
  std::printf("=== Simulated cycles per request, by transport ===\n\n");
  std::printf("%10s %14s %22s\n", "transport", "cycles/req", "batched(16) cycles/req");
  struct Point {
    const char* name;
    OmosServer::ExecTransport transport;
  };
  for (const Point& point : {Point{"port", OmosServer::ExecTransport::kPort},
                             Point{"stream", OmosServer::ExecTransport::kStream},
                             Point{"ring", OmosServer::ExecTransport::kRing}}) {
    Channel single = world.server->MakeChannel(point.transport);
    Channel batched = world.server->MakeChannel(point.transport);
    uint64_t per_call = CyclesPerCall(single, 64);
    uint64_t per_batched = CyclesPerBatchedCall(batched, 4);
    std::printf("%10s %14llu %22llu\n", point.name,
                static_cast<unsigned long long>(per_call),
                static_cast<unsigned long long>(per_batched));
  }
  std::printf("\n");
}

// The p-th percentile of `snap`, interpolated linearly within the bucket
// that holds it: bucket i holds the values in [2^(i-1), 2^i - 1], and its
// samples are taken as spread evenly over that range. Continuous, unlike
// HistogramSnapshot::Percentile's bucket upper bound, whose ratios between
// two points can only be powers of two.
double InterpolatedPercentile(const HistogramSnapshot& snap, double p) {
  if (snap.count == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(snap.count) + 0.5);
  rank = std::max<uint64_t>(1, std::min(rank, snap.count));
  uint64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (seen + snap.buckets[i] >= rank) {
      double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
      double hi = i == 0 ? 1.0 : static_cast<double>((uint64_t{1} << i) - 1);
      return lo + (hi - lo) * static_cast<double>(rank - seen) /
                      static_cast<double>(snap.buckets[i]);
    }
    seen += snap.buckets[i];
  }
  return static_cast<double>(uint64_t{1} << (kHistogramBuckets - 1));
}

// One load point: `clients` simulated clients, each issuing one request in
// each of kRounds rounds, grouped into batches of kBatchSize per wire
// frame, spread over worker lanes that each own a private ring channel.
struct LoadPoint {
  int clients;
  uint64_t p50_ns;
  uint64_t p99_ns;
};

void RunRound(OmosWorld& world, int clients) {
  size_t lanes = 16;
  size_t per_lane = (static_cast<size_t>(clients) + lanes - 1) / lanes;
  ThreadPool::Global().ParallelFor(lanes, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t lane = begin; lane < end; ++lane) {
      Channel channel = world.server->MakeChannel(OmosServer::ExecTransport::kRing);
      size_t first = lane * per_lane;
      size_t last = std::min(first + per_lane, static_cast<size_t>(clients));
      size_t remaining = last > first ? last - first : 0;
      while (remaining > 0) {
        size_t group = std::min<size_t>(remaining, kBatchSize);
        std::vector<OmosRequest> requests(group, PingRequest());
        std::vector<OmosReply> replies = BENCH_UNWRAP(channel.CallBatch(requests, nullptr));
        for (const OmosReply& reply : replies) {
          if (!reply.ok) {
            std::fprintf(stderr, "load request failed: %s\n", reply.error.c_str());
            std::abort();
          }
        }
        remaining -= group;
      }
    }
  });
}

LoadPoint RunLoadPoint(OmosWorld& world, int clients) {
  Histogram* request_ns = MetricsRegistry::Global().GetHistogram("server.request_ns");
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int round = 0; round < kRounds; ++round) {
    HistogramSnapshot before = request_ns->Snapshot();
    RunRound(world, clients);
    HistogramSnapshot delta = request_ns->Snapshot().Since(before);
    if (delta.count != static_cast<uint64_t>(clients)) {
      std::fprintf(stderr, "load point served %llu != %d requests\n",
                   static_cast<unsigned long long>(delta.count), clients);
      std::abort();
    }
    p50s.push_back(InterpolatedPercentile(delta, 50));
    p99s.push_back(InterpolatedPercentile(delta, 99));
  }
  auto median = [](std::vector<double>& values) {
    std::nth_element(values.begin(), values.begin() + kRounds / 2, values.end());
    return static_cast<uint64_t>(values[kRounds / 2]);
  };
  return LoadPoint{clients, median(p50s), median(p99s)};
}

void OpenLoopSection(OmosWorld& world) {
  std::printf("=== Open loop: N clients, batched ring transport ===\n\n");
  std::printf("%10s %14s %14s\n", "clients", "p50 ns", "p99 ns");
  std::vector<LoadPoint> points;
  for (int clients : {1000, 4000, 10000}) {
    points.push_back(RunLoadPoint(world, clients));
    std::printf("%10d %14llu %14llu\n", points.back().clients,
                static_cast<unsigned long long>(points.back().p50_ns),
                static_cast<unsigned long long>(points.back().p99_ns));
  }
  // The percentiles are interpolated within their buckets, so the drift
  // ratio moves with the tail rather than jumping a whole bucket at a time,
  // and are medians of rounds, so one slowed round does not move it.
  uint64_t first_p99 = std::max<uint64_t>(points.front().p99_ns, 1);
  uint64_t last_p99 = points.back().p99_ns;
  bool flat = last_p99 <= 2 * first_p99;
  std::printf("\n  %s: p99 drift %dk -> %dk clients is %.2fx (budget: 2x)\n\n",
              flat ? "PASS" : "FAIL", points.front().clients / 1000,
              points.back().clients / 1000,
              static_cast<double>(last_p99) / static_cast<double>(first_p99));
}

}  // namespace
}  // namespace omos

int main() {
  using namespace omos;
  std::printf("=== bench_ipc: transports, batching ===\n\n");
  OmosWorld world = MakeOmosWorld();
  world.Warm();
  TransportCyclesTable(world);
  OpenLoopSection(world);
  return 0;
}
