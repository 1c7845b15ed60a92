// omtrace tracing: per-thread lock-free span/event ring buffers with a
// global collector, plus a cycle-sampling profiler for the SimISA
// interpreter.
//
// Design:
//  - Compiled in, runtime-toggled. The disabled fast path is one relaxed
//    atomic load (TraceSpan constructor checks once and stays disarmed).
//  - Each thread emits into its own fixed-capacity ring (kTraceRingCapacity
//    slots); overflow overwrites the oldest slots, so a snapshot always
//    holds the newest-N events per thread.
//  - Every slot word is a std::atomic<uint64_t> written with relaxed stores
//    and guarded by a per-slot sequence word (seqlock): the writer never
//    blocks and a concurrent reader discards torn slots. This is data-race
//    free under TSan without any lock on the emit path.
//  - Rings are owned by a global registry and never freed; when a thread
//    exits its ring is parked on a free list (events retained) and may be
//    reused by a later thread. Each event carries the emitting thread's
//    small dense tid, so reuse cannot misattribute.
//  - Timestamps are raw TSC ticks on x86_64 (steady_clock elsewhere),
//    converted to nanoseconds at export time via two-point calibration.
//
// Events carry wall time AND simulated cycles: a span can be annotated with
// the CostModel user/sys cycles attributed to the work it covers, so a
// Chrome trace shows both clocks side by side.
#ifndef OMOS_SRC_SUPPORT_TRACE_H_
#define OMOS_SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/result.h"

namespace omos {

// Slots per per-thread ring. Exposed for the overflow test.
inline constexpr size_t kTraceRingCapacity = 2048;
// Inline detail payload per event (truncated beyond this).
inline constexpr size_t kTraceDetailBytes = 64;

namespace trace_internal {
extern std::atomic<bool> g_trace_enabled;
void EmitSlot(const char* name, char phase, uint64_t start_ticks, uint64_t dur_ticks,
              uint64_t sim_user, uint64_t sim_sys, const char* detail, size_t detail_len);
uint64_t ClockTicks();
}  // namespace trace_internal

// --- Runtime toggle -------------------------------------------------------

inline bool TraceEnabled() {
  return trace_internal::g_trace_enabled.load(std::memory_order_relaxed);
}
void TraceSetEnabled(bool enabled);

// --- Emission -------------------------------------------------------------

// RAII span: records a complete ("X") event on destruction covering the
// scope's duration. `name` MUST be a string literal (or otherwise outlive
// the process) — the ring stores the pointer, not a copy.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(name), armed_(TraceEnabled()) {
    if (armed_) {
      start_ticks_ = trace_internal::ClockTicks();
    }
  }
  TraceSpan(const char* name, std::string_view detail) : TraceSpan(name) {
    if (armed_) {
      SetDetail(detail);
    }
  }
  ~TraceSpan() {
    if (armed_) {
      Finish();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool armed() const { return armed_; }

  // Attach a short free-form annotation (truncated to kTraceDetailBytes).
  void SetDetail(std::string_view detail) {
    if (!armed_) {
      return;
    }
    detail_len_ = detail.size() < kTraceDetailBytes ? detail.size() : kTraceDetailBytes;
    for (size_t i = 0; i < detail_len_; ++i) {
      detail_[i] = detail[i];
    }
  }

  // In-place formatting for hot callers (std::to_chars instead of a
  // string): write at most detail_buffer().size() bytes, then
  // set_detail_size(). Meaningful only on an armed span.
  std::span<char> detail_buffer() { return {detail_, kTraceDetailBytes}; }
  void set_detail_size(size_t size) {
    detail_len_ = size < kTraceDetailBytes ? size : kTraceDetailBytes;
  }

  // Attribute simulated cycles (CostModel) to this span.
  void AddSimCycles(uint64_t user, uint64_t sys) {
    sim_user_ += user;
    sim_sys_ += sys;
  }

  // Drop the span: nothing is emitted at scope exit. For hot paths where
  // only the slow branch is worth a ring slot (e.g. a cache hit that passes
  // its probe verify disarms the cache.get span).
  void Cancel() { armed_ = false; }

 private:
  void Finish();

  const char* name_;
  uint64_t start_ticks_ = 0;
  uint64_t sim_user_ = 0;
  uint64_t sim_sys_ = 0;
  char detail_[kTraceDetailBytes];
  size_t detail_len_ = 0;
  bool armed_;
};

// Zero-duration instant ("i") event. `name` must be a string literal.
void TraceInstant(const char* name);
void TraceInstant(const char* name, std::string_view detail);
void TraceInstant(const char* name, std::string_view detail, uint64_t sim_user,
                  uint64_t sim_sys);

// --- Collection / export --------------------------------------------------

struct TraceEvent {
  const char* name = "";
  char phase = 'X';  // 'X' complete span, 'i' instant
  uint32_t tid = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t sim_user = 0;
  uint64_t sim_sys = 0;
  std::string detail;
};

// Snapshot all rings (newest-N per thread), sorted by timestamp. Safe to
// call while other threads are emitting; torn slots are skipped.
std::vector<TraceEvent> TraceSnapshot();

// Drop all buffered events (threads keep their rings; only the visible
// window is reset).
void TraceClear();

// Chrome trace_event JSON ({"traceEvents":[...]}); open in chrome://tracing
// or https://ui.perfetto.dev. Span category is the name prefix before the
// first '.'; args carry detail and simulated cycles.
std::string TraceToChromeJson();

// Human-readable aggregate: per-span count/total/avg wall ns + simulated
// cycles, per-instant counts.
std::string TraceTextSummary();

// Minimal Chrome-trace JSON reader used by the round-trip test and the
// `ofe report` command. Parses only the subset TraceToChromeJson emits.
struct ParsedTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;
  double ts_us = 0;
  double dur_us = 0;
  uint64_t tid = 0;
  std::string detail;
  uint64_t sim_user = 0;
  uint64_t sim_sys = 0;
};
Result<std::vector<ParsedTraceEvent>> ParseChromeTrace(std::string_view json);

// --- SimISA cycle-sampling profiler ----------------------------------------
//
// When enabled, the interpreter records (task_id, pc) every `period`
// retired instructions into a global lock-free ring. The server resolves
// sampled PCs to symbols through the linked image's symbol index
// (OmosServer::ProfileForTask).
class CycleProfiler {
 public:
  struct Sample {
    uint32_t task_id = 0;
    uint32_t pc = 0;
  };

  // `period` is rounded down to a power of two (minimum 1).
  static void Start(uint64_t period = 64);
  static void Stop();
  static void Clear();

  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static uint64_t mask() { return mask_.load(std::memory_order_relaxed); }

  // Hot-path hook; call only when enabled().
  static void RecordSample(uint32_t task_id, uint32_t pc);

  // Newest samples (up to the ring capacity), oldest first.
  static std::vector<Sample> Samples();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> mask_;
};

}  // namespace omos

#endif  // OMOS_SRC_SUPPORT_TRACE_H_
