// Deterministic fault injection for the simulator.
//
// Production code marks *fault sites* — named points where an I/O, transport
// or storage failure can be simulated — by calling FaultSim::Trip("site").
// With no plan installed every Trip is free and returns false, so the sites
// cost nothing on the normal path. Tests (and the robustness sweeps) install
// a FaultPlan arming specific sites with deterministic triggers: fire on the
// nth hit, on every kth hit, or with a seeded pseudo-random probability.
// The same plan always yields the same fault schedule, so every failure a
// sweep finds is replayable from its seed.
//
// Site names wired into the tree (see docs/robustness.md):
//   fs.read        SimFs::Lookup fails with kIoError
//   fs.write       SimFs::TryWriteFile / the unsynced write paths fail with
//                  kIoError
//   fs.fsync       SimFs::Fsync fails with kIoError (content stays volatile)
//   fs.rename      SimFs::Rename fails with kIoError before any mutation
//   pipe.drop      WriteFrame drops the whole frame (client sees kTimeout)
//   pipe.truncate  WriteFrame writes only half the payload
//   pipe.bitflip   WriteFrame flips a bit in the written payload
//   pipe.oversize  WriteFrame writes an absurd length header
//   port.drop      PortTransport loses the message (kTimeout)
//   ring.corrupt   RingTransport flips a byte in a just-published slot
//                  (reader sees kCorrupted; ring resets)
//   ring.stall     RingTransport's peer never takes the handoff (kTimeout
//                  after a bounded simulated spin; slots reclaimed)
//   cache.bitrot   ImageCache::Get corrupts a stored image byte
//   vm.fault       AddressSpace::HandleFault fails mid-resolution (demand-
//                  zero fill or CoW break) with kIoError, before any state
//                  is mutated — faulted pages stay absent/shared
//   store.crash    ImageStore kills the "process" between journal steps:
//                  the store fails the operation, enters a sticky crashed
//                  state (nothing further is written), and the test models
//                  the power loss with SimFs::DropUnsynced before reopening
//   upgrade.link       TaskRuntimes::Link dies before the new version
//                      links; the upgrade aborts, no task state was touched
//   upgrade.repoint    TaskRuntimes::RunRepoint dies before any task is
//                      made pending; the upgrade aborts consistently
//   upgrade.transfer   a safepoint frame transfer is killed before its
//                      planned rewrites apply: the task defers and retries
//                      at a later safepoint (never a torn frame)
//   upgrade.reclaim    TaskRuntimes::RunReclaim dies before the
//                      redefinition; the phase retreats to draining and
//                      DrainUpgrade retries
#ifndef OMOS_SRC_SUPPORT_FAULTSIM_H_
#define OMOS_SRC_SUPPORT_FAULTSIM_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omos {

// When an armed site fires. Triggers combine with OR; hit counts are 1-based
// and per-site.
struct FaultSpec {
  uint64_t nth = 0;          // fire exactly on hit `nth` (0 = off)
  uint64_t every = 0;        // fire on every hit divisible by `every` (0 = off)
  double probability = 0.0;  // per-hit chance, deterministic from `seed`
  uint64_t seed = 0;
  int max_fires = -1;        // stop firing after this many (-1 = unlimited)
  uint32_t payload = 0;      // site-specific knob (e.g. which byte to corrupt)

  static FaultSpec Nth(uint64_t n) {
    FaultSpec spec;
    spec.nth = n;
    return spec;
  }
  static FaultSpec Every(uint64_t e) {
    FaultSpec spec;
    spec.every = e;
    return spec;
  }
  static FaultSpec Prob(double p, uint64_t seed) {
    FaultSpec spec;
    spec.probability = p;
    spec.seed = seed;
    return spec;
  }
  FaultSpec& WithPayload(uint32_t value) {
    payload = value;
    return *this;
  }
  FaultSpec& WithMaxFires(int n) {
    max_fires = n;
    return *this;
  }
};

// A set of armed sites. Install via FaultSim::Install or ScopedFaultPlan.
class FaultPlan {
 public:
  FaultPlan& Arm(std::string site, FaultSpec spec) {
    sites_.insert_or_assign(std::move(site), spec);
    return *this;
  }
  bool empty() const { return sites_.empty(); }
  const std::map<std::string, FaultSpec, std::less<>>& sites() const { return sites_; }

 private:
  std::map<std::string, FaultSpec, std::less<>> sites_;
};

// Process-global fault controller. Thread-safe: the unarmed fast path is
// one relaxed atomic load; armed state is mutex-guarded. Counters stay
// exact under concurrent trips, but nth/every schedules are only
// deterministic when one thread trips the site — and Install/Reset assume
// no trips are in flight (single-writer; quiesce worker threads first).
// See the SimState comment in faultsim.cc.
class FaultSim {
 public:
  // Replace the active plan and zero all counters.
  static void Install(FaultPlan plan);
  // Remove the plan and zero all counters (every Trip returns false again).
  static void Reset();

  // Record a hit at `site`; true if the site is armed and its trigger fires.
  // On fire, `*payload_out` (if non-null) receives the spec's payload knob.
  static bool Trip(std::string_view site, uint32_t* payload_out = nullptr);

  // True if the active plan arms `site` at all, whether or not its trigger
  // would fire now. Does not count as a hit. Lets amortized checks (e.g. the
  // image cache's lazy verification) go exhaustive while a test or sweep has
  // the site under fault injection.
  static bool Armed(std::string_view site);

  // Counters for armed sites (0 for unarmed/unknown sites).
  static uint64_t Hits(std::string_view site);
  static uint64_t Fires(std::string_view site);
  // Total fires across all sites since the last Install/Reset.
  static uint64_t TotalFires();
  // (site, fires) for every armed site — the metrics-registry view.
  static std::vector<std::pair<std::string, uint64_t>> FireCounts();
};

// RAII plan installer for tests: installs on construction, resets on exit.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) { FaultSim::Install(std::move(plan)); }
  ~ScopedFaultPlan() { FaultSim::Reset(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace omos

#endif  // OMOS_SRC_SUPPORT_FAULTSIM_H_
