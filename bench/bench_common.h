// Shared setup for the benchmark binaries: full-size workloads wired into
// (a) a traditional-shared-library world and (b) an OMOS world.
#ifndef OMOS_BENCH_BENCH_COMMON_H_
#define OMOS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/dynlib.h"
#include "src/core/server.h"
#include "src/support/strings.h"
#include "src/workloads/workloads.h"

namespace omos {

// Abort-on-error unwrap for bench setup code.
template <typename T>
T BenchUnwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 result.error().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void BenchCheck(const Result<void>& result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 result.error().ToString().c_str());
    std::abort();
  }
}

#define BENCH_UNWRAP(expr) BenchUnwrap((expr), #expr)
#define BENCH_CHECK(expr) BenchCheck((expr), #expr)

// Full-size workloads (built once per process).
const Workloads& FullWorkloads();

// Simulated per-invocation cost of one program run.
struct InvocationCost {
  uint64_t user = 0;
  uint64_t sys = 0;
  uint64_t elapsed() const { return user + sys; }
};

// Page-sharing snapshot of one task sampled after it ran to completion but
// before teardown: shared = pages still referencing cached master frames
// (text + unbroken CoW data), private = per-task frames (stack, heap,
// CoW-broken and demand-filled pages), frames_in_use = pool-wide frames
// with the task still resident.
struct PageSharing {
  uint32_t shared_pages = 0;
  uint32_t private_pages = 0;
  uint32_t frames_in_use = 0;
};

// A world with the traditional shared-library scheme installed.
struct BaselineWorld {
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Rtld> rtld;

  // Programs installed: "ls" and "codegen".
  InvocationCost Run(const std::string& prog, std::vector<std::string> args);
  PageSharing SampleSharing(const std::string& prog, std::vector<std::string> args);
};

// A world with an OMOS server installed; meta-objects /bin/ls, /bin/codegen.
// The server holds segments in the kernel's PhysMemory, so it must die
// first: members destroy in reverse order, and move assignment (which
// would replace `kernel` before `server`) is deleted.
struct OmosWorld {
  OmosWorld() = default;
  OmosWorld(OmosWorld&&) = default;
  OmosWorld& operator=(OmosWorld&&) = delete;

  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<OmosServer> server;

  InvocationCost Run(const std::string& meta, std::vector<std::string> args, bool integrated);
  PageSharing SampleSharing(const std::string& meta, std::vector<std::string> args,
                            bool integrated);
  // Pre-build all images so timed runs measure the warm path (the paper
  // generates fixed versions "at installation time", §4.1).
  void Warm();
  // Fleet-wide prelink over /bin: solve the namespace-global layout once,
  // record every meta as prelinked, enable the subsystem. Warm
  // PrelinkedExec then maps cached images with zero per-exec relocations.
  void Prelink();
  InvocationCost RunPrelinked(const std::string& meta, std::vector<std::string> args);
  PageSharing SampleSharingPrelinked(const std::string& meta, std::vector<std::string> args);
};

BaselineWorld MakeBaselineWorld();
OmosWorld MakeOmosWorld();

// 67 MHz PA-RISC clock (HP9000/730) for cycle -> seconds conversion.
inline constexpr double kClockHz = 67.0e6;
inline double Seconds(uint64_t cycles) { return static_cast<double>(cycles) / kClockHz; }

}  // namespace omos

#endif  // OMOS_BENCH_BENCH_COMMON_H_
