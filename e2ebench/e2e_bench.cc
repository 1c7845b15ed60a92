// e2e_bench: whole-request benchmark for the OMOS server.
//
// One closed-loop client thread issues a fixed number of identical requests
// (exec, run, exit code, teardown) against a warm server and times each one
// in host wall time. Three workloads, one request shape each:
//
//   ls          `ls /data` via BootstrapExec over the ring transport
//   codegen     `codegen` via PrelinkedExec (fleet-wide prelink, warm)
//   lib_update  DefineLibrary("/lib/libc", v) alternating two versions,
//               then IntegratedExec of `ls /data`
//
// Every request is checked against an independent reference: the expected
// exit code and output come from the traditional-scheme Rtld world in
// src/baseline (cross-checked with ExpectedLsShortOutput), never from the
// OMOS path under test. A lib_update request also has to observe the libc
// version it just defined (its symbols sit at that version's base).
//
// Usage:
//   e2e_bench --workload ls|codegen|lib_update [--seed N] [--seconds S]
//             [--trace 0|1] [--waterfall PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced blocks of requests and prints the per-layer split, the
// registry counts per request and the tracing overhead. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/dynlib.h"
#include "src/core/server.h"
#include "src/os/loader.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/workloads/workloads.h"

namespace omos {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(StrCat(what, ": ", result.error().ToString()));
  }
  return std::move(result).value();
}

void MustOk(const Result<void>& result, const char* what) {
  if (!result.ok()) {
    Die(StrCat(what, ": ", result.error().ToString()));
  }
}

// ---- Workloads ---------------------------------------------------------------

enum class Workload { kLs, kCodegen, kLibUpdate };

struct WorkloadSpec {
  Workload id;
  const char* name;
  // Requests per --seconds: the request count is fixed per run (derived
  // from --seconds, never from elapsed time) so a faster build cannot change
  // how much work a run does — lib_update's RSS grows with the op count.
  // The rates put a run near --seconds on a 4-core x86-64 host.
  double requests_per_second;
  int warmup_requests;  // even: lib_update ends warm-up on version 0
};

constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kLs, "ls", 12000, 400},
    {Workload::kCodegen, "codegen", 185, 10},
    {Workload::kLibUpdate, "lib_update", 1000, 40},
};

// The timed phase runs in this many blocks. Under --trace 1 they alternate
// untraced and traced; between every two, a fresh install is timed for
// setup_s (see Main).
constexpr uint64_t kBlocksPerRun = 40;

const std::vector<std::string> kLsArgs = {"ls", "/data"};
const std::vector<std::string> kCodegenArgs = {"codegen"};

// lib_update alternates /lib/libc between two versions at different fixed
// text bases; an exec observes which one it got from where libc's symbols
// landed. The window is generous: libc's text is a few KiB.
constexpr uint32_t kLibcBase[2] = {0x2000000, 0x2100000};
constexpr uint32_t kLibcWindow = 0x100000;

std::string LibcBlueprint(int version) {
  char base[32];
  std::snprintf(base, sizeof(base), "0x%x", kLibcBase[version]);
  return StrCat("(constraint-list \"T\" ", base, ")\n(merge /libc)");
}

// ---- Seeded inputs ---------------------------------------------------------------

// What the programs read: the /data listing and codegen's input files. The
// /data name lengths and codegen's input lengths are fixed, so every seed
// costs the same simulated work. `ls /data` prints names only, so the /data
// file sizes may vary with the seed.
struct Inputs {
  std::vector<std::pair<std::string, std::string>> data_files;  // name, bytes
  std::string data_subdir;
  std::array<std::string, 3> codegen_inputs;
};

std::string RandomWord(std::mt19937_64& rng, size_t length, const char* alphabet) {
  size_t size = std::strlen(alphabet);
  std::string word;
  for (size_t i = 0; i < length; ++i) {
    word += alphabet[rng() % size];
  }
  return word;
}

Inputs MakeInputs(uint64_t seed) {
  constexpr const char* kLower = "abcdefghijklmnopqrstuvwxyz";
  std::mt19937_64 rng(seed);
  Inputs inputs;
  std::set<std::string> names;
  while (names.size() < 14) {
    names.insert(RandomWord(rng, 8, kLower) + ".txt");
  }
  for (const std::string& name : names) {
    size_t length = 40 + rng() % 1024;
    inputs.data_files.emplace_back(name, RandomWord(rng, length, kLower));
  }
  do {
    inputs.data_subdir = RandomWord(rng, 6, kLower);
  } while (names.count(inputs.data_subdir) != 0);
  for (std::string& text : inputs.codegen_inputs) {
    text = RandomWord(rng, 27, "abcdefghijklmnopqrstuvwxyz ") + "\n";
  }
  return inputs;
}

void PopulateFs(SimFs& fs, const Inputs& inputs) {
  fs.Mkdir("/data");
  for (const auto& [name, bytes] : inputs.data_files) {
    fs.WriteFile("/data/" + name, bytes);
  }
  fs.Mkdir("/data/" + inputs.data_subdir);
  fs.Mkdir("/input");
  for (size_t i = 0; i < inputs.codegen_inputs.size(); ++i) {
    fs.WriteFile(StrCat("/input/f", i), inputs.codegen_inputs[i]);
  }
}

// ---- Independent reference: the traditional shared-library scheme -------------

struct Reference {
  std::string ls_output;
  std::string codegen_output;
};

std::string RunBaseline(Kernel& kernel, Rtld& rtld, const std::string& prog,
                        const std::vector<std::string>& args) {
  TaskId id = Must(rtld.Exec(prog, args), "baseline exec");
  Task* task = kernel.FindTask(id);
  MustOk(kernel.RunTask(*task), "baseline run");
  if (task->exit_code() != 0) {
    Die(StrCat("baseline ", prog, " exited ", task->exit_code()));
  }
  std::string output = task->output();
  rtld.ReleaseTask(id);
  kernel.DestroyTask(id);
  return output;
}

Reference MakeReference(const Workloads& w, const Inputs& inputs) {
  Kernel kernel;
  PopulateFs(kernel.fs(), inputs);
  Rtld rtld(kernel);
  DynLibBuilder builder;
  std::vector<const DynImage*> libs;
  for (const Archive* archive : {&w.libc, &w.alpha1, &w.alpha2, &w.libm, &w.libl, &w.libcpp}) {
    Module module = Must(ModuleFromArchive(*archive), "baseline library module");
    MustOk(rtld.Install(Must(builder.BuildLibrary(archive->name(), module), "baseline library")),
           "baseline install");
    libs.push_back(rtld.Find(archive->name()));
  }
  Module ls = Must(ModuleFromObjects({w.crt0, w.ls_obj}), "baseline ls module");
  MustOk(rtld.Install(Must(builder.BuildExecutable("ls", ls, {rtld.Find("libc")}), "baseline ls")),
         "baseline install ls");
  std::vector<ObjectFile> cg_objects = w.codegen_objs;
  cg_objects.insert(cg_objects.begin(), w.crt0);
  Module cg = Must(ModuleFromObjects(cg_objects), "baseline codegen module");
  MustOk(rtld.Install(Must(builder.BuildExecutable("codegen", cg, libs), "baseline codegen")),
         "baseline install codegen");

  Reference ref{RunBaseline(kernel, rtld, "ls", kLsArgs),
                RunBaseline(kernel, rtld, "codegen", kCodegenArgs)};
  if (ref.ls_output != ExpectedLsShortOutput(kernel.fs(), "/data")) {
    Die("baseline ls output disagrees with ExpectedLsShortOutput");
  }
  return ref;
}

// ---- A fresh OMOS install ---------------------------------------------------------

// Kernel + OmosServer with the namespace filled and every program the
// workload runs cold-built. The server holds a Kernel& and is destroyed
// first; the class is pinned in place so no move can reorder that.
class OmosInstall {
 public:
  OmosInstall(const Workloads& w, const Inputs& inputs, Workload workload)
      : kernel_(std::make_unique<Kernel>()) {
    PopulateFs(kernel_->fs(), inputs);
    server_ = std::make_unique<OmosServer>(*kernel_);
    OmosServer& server = *server_;
    MustOk(server.AddFragment("/lib/crt0.o", w.crt0), "add crt0");
    MustOk(server.AddFragment("/obj/ls.o", w.ls_obj), "add ls.o");
    const std::pair<const char*, const Archive*> archives[] = {
        {"/libc", &w.libc},   {"/alpha1", &w.alpha1}, {"/alpha2", &w.alpha2},
        {"/libm", &w.libm},   {"/libl", &w.libl},     {"/libC", &w.libcpp}};
    for (const auto& [dir, archive] : archives) {
      MustOk(server.AddArchive(dir, *archive), "add archive");
    }
    MustOk(server.DefineLibrary("/lib/libc", LibcBlueprint(0)), "define libc");
    MustOk(server.DefineLibrary("/lib/alpha1",
                                "(constraint-list \"T\" 0x3000000)\n(merge /alpha1)"),
           "define alpha1");
    MustOk(server.DefineLibrary("/lib/alpha2",
                                "(constraint-list \"T\" 0x4000000)\n(merge /alpha2)"),
           "define alpha2");
    MustOk(server.DefineLibrary("/lib/libm", "(constraint-list \"T\" 0x5000000)\n(merge /libm)"),
           "define libm");
    MustOk(server.DefineLibrary("/lib/libl", "(constraint-list \"T\" 0x6000000)\n(merge /libl)"),
           "define libl");
    MustOk(server.DefineLibrary("/lib/libC", "(constraint-list \"T\" 0x7000000)\n(merge /libC)"),
           "define libC");
    std::string cg_meta = "(merge /lib/crt0.o";
    for (size_t i = 0; i < w.codegen_objs.size(); ++i) {
      std::string path = StrCat("/obj/cg", i, ".o");
      MustOk(server.AddFragment(path, w.codegen_objs[i]), "add codegen object");
      cg_meta += " " + path;
    }
    cg_meta += " /lib/libc /lib/alpha1 /lib/alpha2 /lib/libm /lib/libl /lib/libC)";

    // /bin holds only what the workload runs, so the cold build (and, for
    // codegen, the /bin prelink) covers exactly that.
    if (workload == Workload::kCodegen) {
      MustOk(server.DefineMeta("/bin/codegen", cg_meta), "define codegen");
      Must(server.PrelinkNamespace("/bin"), "prelink /bin");
    } else {
      MustOk(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"),
             "define ls");
      Must(server.Instantiate("/bin/ls", {}, nullptr), "cold-build ls");
      if (workload == Workload::kLs) {
        server.SetExecTransport(OmosServer::ExecTransport::kRing);
      }
    }
  }
  ~OmosInstall() {
    server_.reset();
    kernel_.reset();
  }
  OmosInstall(const OmosInstall&) = delete;
  OmosInstall& operator=(const OmosInstall&) = delete;

  Kernel& kernel() { return *kernel_; }
  OmosServer& server() { return *server_; }

 private:
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<OmosServer> server_;
};

// ---- One request ---------------------------------------------------------------

enum Layer { kRedefine, kExec, kInstantiate, kMap, kRun, kTeardown, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"redefine", "exec",  "instantiate",
                                                 "map",      "run",   "teardown"};

struct Span {
  double start_us = 0;  // from the request's start
  double dur_us = 0;
};

struct Timing {
  double latency_us = 0;  // exec call .. teardown return, minus the output check
  double server_us = 0;   // server.request_ns accumulated during the exec
  Span layers[kNumLayers];
  Clock::time_point begin;
};

// What the simulated machine reports for one request; identical for every
// request of one shape (lib_update: per libc version).
struct Observed {
  uint64_t sim_cycles = 0;
  uint64_t sys_cycles = 0;
  uint64_t insns = 0;
  uint32_t private_pages = 0;
  bool operator==(const Observed&) const = default;
};

class Runner {
 public:
  Runner(Workload workload, OmosInstall& world, const Reference& ref)
      : workload_(workload),
        world_(world),
        expected_output_(workload == Workload::kCodegen ? ref.codegen_output : ref.ls_output),
        request_ns_(MetricsRegistry::Global().GetHistogram("server.request_ns")) {}

  // Issues the next request. With `traced`, timestamps every layer and
  // (lib_update) splits IntegratedExec into its public calls. Returns false
  // when the request failed or produced the wrong result.
  bool Request(bool traced, Timing& timing, Observed& observed, int& shape) {
    Kernel& kernel = world_.kernel();
    OmosServer& server = world_.server();
    auto stamp = [traced] { return traced ? Clock::now() : Clock::time_point(); };
    auto span = [&timing](Layer layer, Clock::time_point from, Clock::time_point to) {
      timing.layers[layer] = {MicrosBetween(timing.begin, from), MicrosBetween(from, to)};
    };

    shape = 0;
    timing.begin = Clock::now();
    if (workload_ == Workload::kLibUpdate) {
      shape = static_cast<int>((ops_++ + 1) & 1);
      Result<void> defined = server.DefineLibrary("/lib/libc", LibcBlueprint(shape));
      if (!defined.ok()) {
        return Fail("DefineLibrary", defined.error());
      }
    }
    Clock::time_point exec_start = stamp();
    uint64_t server_ns = traced ? request_ns_->sum() : 0;
    Result<TaskId> id = Exec(traced, timing);
    Clock::time_point exec_end = stamp();
    if (traced) {
      timing.server_us = static_cast<double>(request_ns_->sum() - server_ns) / 1000.0;
    }
    if (!id.ok()) {
      return Fail("exec", id.error());
    }
    Task* task = kernel.FindTask(*id);
    Clock::time_point run_start = stamp();
    Result<void> ran = kernel.RunTask(*task);
    Clock::time_point run_end = Clock::now();

    bool ok = ran.ok() && task->exit_code() == 0 && task->output() == expected_output_;
    if (ok && workload_ == Workload::kLibUpdate) {
      ok = ObservesLibc(server, *id, shape);
    }
    if (!ok && failures_logged_++ < 5) {
      std::fprintf(stderr, "e2e_bench: request failed: %s exit=%d output=%zu bytes\n",
                   ran.ok() ? "wrong result" : ran.error().ToString().c_str(), task->exit_code(),
                   task->output().size());
    }
    observed = {task->user_cycles() + task->sys_cycles(), task->sys_cycles(),
                task->instructions_retired(), task->space().private_pages()};

    Clock::time_point teardown_start = Clock::now();
    server.ReleaseTask(*id);
    kernel.DestroyTask(*id);
    Clock::time_point end = Clock::now();
    timing.latency_us =
        MicrosBetween(timing.begin, run_end) + MicrosBetween(teardown_start, end);
    if (traced) {
      if (workload_ == Workload::kLibUpdate) {
        span(kRedefine, timing.begin, exec_start);
      }
      span(kExec, exec_start, exec_end);
      span(kRun, run_start, run_end);
      span(kTeardown, teardown_start, end);
    }
    return ok;
  }

 private:
  Result<TaskId> Exec(bool traced, Timing& timing) {
    OmosServer& server = world_.server();
    switch (workload_) {
      case Workload::kLs:
        return server.BootstrapExec("/bin/ls", kLsArgs);
      case Workload::kCodegen:
        return server.PrelinkedExec("/bin/codegen", kCodegenArgs);
      case Workload::kLibUpdate:
        if (!traced) {
          return server.IntegratedExec("/bin/ls", kLsArgs);
        }
        return SplitIntegratedExec(timing);
    }
    return Err(ErrorCode::kInternal, "unknown workload");
  }

  // IntegratedExec through its public calls, timing Instantiate and
  // MapProgram. Bills exactly what IntegratedExec bills, so simulated
  // cycles match the untraced path (checked per request).
  Result<TaskId> SplitIntegratedExec(Timing& timing) {
    Kernel& kernel = world_.kernel();
    OmosServer& server = world_.server();
    Task& task = kernel.CreateTask("omos-exec:/bin/ls");
    TaskId id = task.id();
    Result<uint32_t> entry = [&]() -> Result<uint32_t> {
      ImageCache::ReadLease lease(server.cache());
      uint64_t work = 0;
      Clock::time_point start = Clock::now();
      Result<const CachedImage*> image = server.Instantiate("/bin/ls", {}, &work);
      Clock::time_point instantiated = Clock::now();
      timing.layers[kInstantiate] = {MicrosBetween(timing.begin, start),
                                     MicrosBetween(start, instantiated)};
      if (!image.ok()) {
        return image.error();
      }
      task.BillSys(work + kernel.costs().omos_cache_lookup);
      Result<uint32_t> mapped = server.MapProgram(task, **image);
      timing.layers[kMap] = {MicrosBetween(timing.begin, instantiated),
                             MicrosBetween(instantiated, Clock::now())};
      return mapped;
    }();
    Result<void> started =
        entry.ok() ? StartTask(kernel, task, *entry, kLsArgs) : Result<void>(entry.error());
    if (!started.ok()) {
      server.ReleaseTask(id);
      kernel.DestroyTask(id);
      return started.error();
    }
    return id;
  }

  static bool ObservesLibc(const OmosServer& server, TaskId id, int version) {
    Result<std::vector<ImageSymbol>> symbols = server.SymbolsForTask(id);
    if (!symbols.ok()) {
      return false;
    }
    for (const ImageSymbol& symbol : *symbols) {
      if (symbol.name == "strlen") {
        return symbol.addr >= kLibcBase[version] &&
               symbol.addr < kLibcBase[version] + kLibcWindow;
      }
    }
    return false;
  }

  bool Fail(const char* what, const Error& error) {
    if (failures_logged_++ < 5) {
      std::fprintf(stderr, "e2e_bench: %s failed: %s\n", what, error.ToString().c_str());
    }
    return false;
  }

  Workload workload_;
  OmosInstall& world_;
  const std::string& expected_output_;
  Histogram* request_ns_;
  uint64_t ops_ = 0;  // lib_update redefinitions so far (picks the version)
  int failures_logged_ = 0;
};

// ---- Statistics ----------------------------------------------------------------

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

using Counts = std::map<std::string, uint64_t>;

Counts RegistryCounts() {
  Counts counts;
  for (auto& [name, value] : MetricsRegistry::Global().Snapshot()) {
    counts[name] = value;
  }
  return counts;
}

uint64_t CountOf(const Counts& counts, const char* name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0 : it->second;
}

void AddDelta(Counts& into, const Counts& before, const Counts& after) {
  for (const auto& [name, value] : after) {
    into[name] += value - CountOf(before, name.c_str());
  }
}

// Registry counters reported per request. Each is a pure function of the
// request shape, so traced and untraced blocks must agree exactly.
constexpr const char* kCountMetrics[] = {
    "engine.blocks_decoded", "engine.block_hits", "engine.tlb_hits",   "engine.tlb_misses",
    "vm.cow_faults",         "vm.demand_zero_fills", "cache.pages_verified", "cache.misses",
    "solver.places",         "pool.tasks_submitted", "ipc.bytes_sent",    "ipc.bytes_received",
    "prelink.hits",          "link.relocations_at_map"};

// This process's resident-set high-water mark. getrusage's ru_maxrss would
// also count whatever ran in the process before exec (a Python launcher).
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0;
}

// ---- Output --------------------------------------------------------------------

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.10g", value);
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += StrCat("\"", name, "\": {\"value\": ", number, ", \"unit\": \"", unit, "\"}");
    std::fprintf(stderr, "  %-40s %14s %s\n", name.c_str(), number, unit);
  }
  std::string Finish(bool correct, uint64_t attempted, uint64_t failed) const {
    return StrCat("{\"correct\": ", correct ? "true" : "false", ", \"attempted\": ", attempted,
                  ", \"failed\": ", failed, ", \"metrics\": {", body_, "}}");
  }

 private:
  std::string body_;
};

// Chrome trace (chrome://tracing, Perfetto) of the first traced requests:
// one "request" span per request with its layer spans nested under it.
void WriteWaterfall(const std::string& path, const std::vector<Timing>& requests) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  auto event = [&](const char* name, size_t request, double ts, double dur) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"request\": %zu}}",
                  first ? "" : ",\n", name, ts, dur, request);
    out << line;
    first = false;
  };
  Clock::time_point origin = requests.empty() ? Clock::time_point() : requests[0].begin;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Timing& t = requests[i];
    double base = MicrosBetween(origin, t.begin);
    double end = 0;
    for (const Span& span : t.layers) {
      end = std::max(end, span.start_us + span.dur_us);
    }
    event("request", i, base, end);
    for (int layer = 0; layer < kNumLayers; ++layer) {
      if (t.layers[layer].dur_us > 0) {
        event(kLayerNames[layer], i, base + t.layers[layer].start_us, t.layers[layer].dur_us);
      }
    }
  }
  out << "\n]}\n";
}

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string waterfall;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die(StrCat("missing value for ", flag));
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) {
          options.workload = &spec;
        }
      }
      if (options.workload == nullptr) {
        Die(StrCat("unknown workload ", value));
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--waterfall") {
      options.waterfall = value;
    } else {
      Die(StrCat("unknown flag ", flag));
    }
  }
  if (options.workload == nullptr || !(options.seconds > 0 && options.seconds <= 600)) {
    Die("usage: e2e_bench --workload ls|codegen|lib_update [--seed N] [--seconds S] "
        "[--trace 0|1] [--waterfall PATH]");
  }
  return options;
}

// Everything the timed phase measured.
struct Phase {
  std::vector<double> latency_us[2];  // [traced], successful requests only
  std::vector<Timing> traced;         // per-layer timings of traced requests
  Counts counts[2];                   // [traced] registry deltas
  uint64_t block_attempted[2] = {};   // [traced]
  double block_seconds[2] = {};       // [traced] wall time of those blocks
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t nondeterministic = 0;  // billed differently from their shape's first
  // Sums over successful requests.
  double sim_cycles = 0;
  double sys_cycles = 0;
  double insns = 0;
  double private_pages = 0;

  uint64_t succeeded() const { return attempted - failed; }
  double PerSuccess(double sum) const {
    return sum / static_cast<double>(std::max<uint64_t>(1, succeeded()));
  }
};

// Runs `count` requests in blocks. Under `trace`, blocks alternate untraced
// and traced so both halves see the same drift; otherwise all are untraced.
// `between_blocks` runs after each block, outside its timing and counts.
Phase TimedPhase(Runner& runner, uint64_t count, bool trace, double deadline_s,
                 const std::function<void()>& between_blocks) {
  Phase phase;
  // Sample storage is reserved up front so it adds the same fixed amount to
  // peak RSS on every run.
  phase.latency_us[0].reserve(count);
  if (trace) {
    phase.latency_us[1].reserve(count);
    phase.traced.reserve(count);
  }
  uint64_t block = std::max<uint64_t>(2, (count / kBlocksPerRun) & ~1ull);
  std::array<std::optional<Observed>, 2> first;  // per shape
  Clock::time_point start = Clock::now();
  for (uint64_t b = 0; phase.attempted < count; ++b) {
    bool traced = trace && b % 2 == 1;
    TraceSetEnabled(traced);
    Counts before = RegistryCounts();
    Clock::time_point block_start = Clock::now();
    uint64_t block_first = phase.attempted;
    for (uint64_t i = 0; i < block && phase.attempted < count; ++i) {
      Timing timing;
      Observed observed;
      int shape = 0;
      bool ok = runner.Request(traced, timing, observed, shape);
      ++phase.attempted;
      if (!ok) {
        ++phase.failed;
        continue;
      }
      if (!first[shape].has_value()) {
        first[shape] = observed;
      } else if (!(observed == *first[shape])) {
        ++phase.nondeterministic;
      }
      phase.latency_us[traced].push_back(timing.latency_us);
      phase.sim_cycles += static_cast<double>(observed.sim_cycles);
      phase.sys_cycles += static_cast<double>(observed.sys_cycles);
      phase.insns += static_cast<double>(observed.insns);
      phase.private_pages += observed.private_pages;
      if (traced) {
        phase.traced.push_back(timing);
      }
    }
    phase.block_seconds[traced] += MicrosBetween(block_start, Clock::now()) / 1e6;
    phase.block_attempted[traced] += phase.attempted - block_first;
    TraceSetEnabled(false);
    AddDelta(phase.counts[traced], before, RegistryCounts());
    // A pathologically slow build stops early rather than overrun the
    // caller's time limit; `attempted` then reports what ran.
    if (MicrosBetween(start, Clock::now()) / 1e6 > deadline_s) {
      std::fprintf(stderr, "e2e_bench: deadline reached after %llu requests\n",
                   static_cast<unsigned long long>(phase.attempted));
      break;
    }
    if (phase.attempted < count) {
      between_blocks();
    }
  }
  phase.seconds = MicrosBetween(start, Clock::now()) / 1e6;
  return phase;
}

// Every request of one shape billed identically, and traced blocks counted
// per request exactly what untraced blocks counted.
bool Deterministic(const Phase& phase, bool trace) {
  bool ok = true;
  if (phase.nondeterministic > 0) {
    std::fprintf(stderr, "e2e_bench: %llu requests billed differently from their shape's first\n",
                 static_cast<unsigned long long>(phase.nondeterministic));
    ok = false;
  }
  if (!trace) {
    return ok;
  }
  uint64_t untraced = phase.latency_us[0].size();
  uint64_t traced = phase.latency_us[1].size();
  for (const char* name : kCountMetrics) {
    if (CountOf(phase.counts[0], name) * traced != CountOf(phase.counts[1], name) * untraced) {
      std::fprintf(stderr, "e2e_bench: %s differs between traced and untraced requests\n", name);
      ok = false;
    }
  }
  return ok;
}

void AddEndToEnd(MetricsJson& json, const Phase& phase, const std::vector<double>& setup_s) {
  json.Add("setup_s", Median(setup_s), "s");
  json.Add("latency_us_p50", Percentile(phase.latency_us[0], 0.5), "us");
  json.Add("sim_cycles_per_request", phase.PerSuccess(phase.sim_cycles), "cycles");
  json.Add("success_ratio",
           static_cast<double>(phase.succeeded()) / static_cast<double>(phase.attempted), "ratio");
  json.Add("peak_rss_mb", PeakRssKb() / 1024.0, "MB");
  json.Add("task_private_pages", phase.PerSuccess(phase.private_pages), "pages");
}

void AddPerLayer(MetricsJson& json, const Phase& phase, Workload workload) {
  // Per-layer medians over traced requests; `other` is what no layer span
  // covers (closure), `ipc` the exec time the server did not spend.
  std::vector<double> layer[kNumLayers];
  std::vector<double> server_us, ipc_us, other_us;
  double latency_sum = 0;
  double other_sum = 0;
  for (const Timing& t : phase.traced) {
    for (int l = 0; l < kNumLayers; ++l) {
      layer[l].push_back(t.layers[l].dur_us);
    }
    server_us.push_back(t.server_us);
    ipc_us.push_back(workload == Workload::kLs ? t.layers[kExec].dur_us - t.server_us : 0);
    double other = t.latency_us - t.layers[kRedefine].dur_us - t.layers[kExec].dur_us -
                   t.layers[kRun].dur_us - t.layers[kTeardown].dur_us;
    other_us.push_back(other);
    latency_sum += t.latency_us;
    other_sum += other;
  }
  double insns = phase.PerSuccess(phase.insns);
  double traced_p50 = Percentile(phase.latency_us[1], 0.5);
  double untraced_p50 = Percentile(phase.latency_us[0], 0.5);
  double per_request =
      1.0 / static_cast<double>(std::max<size_t>(1, phase.latency_us[1].size()));
  auto per = [&](const char* name) {
    return static_cast<double>(CountOf(phase.counts[1], name)) * per_request;
  };
  json.Add("exec_us", Median(layer[kExec]), "us");
  json.Add("server_us", Median(server_us), "us");
  json.Add("ipc_us", Median(ipc_us), "us");
  json.Add("redefine_us", Median(layer[kRedefine]), "us");
  json.Add("instantiate_us", Median(layer[kInstantiate]), "us");
  json.Add("map_us", Median(layer[kMap]), "us");
  json.Add("run_us", Median(layer[kRun]), "us");
  json.Add("run_ns_per_insn", insns > 0 ? Median(layer[kRun]) * 1000.0 / insns : 0, "ns");
  json.Add("teardown_us", Median(layer[kTeardown]), "us");
  json.Add("other_us", Median(other_us), "us");
  json.Add("other_share_pct", latency_sum > 0 ? 100.0 * other_sum / latency_sum : 0, "%");
  // The untraced tail and throughput ride here, ungated: on a shared host
  // lib_update's pool wake-ups make both swing with the host's load.
  json.Add("latency_us_p90", Percentile(phase.latency_us[0], 0.9), "us");
  json.Add("requests_per_s",
           static_cast<double>(phase.block_attempted[0]) / std::max(phase.block_seconds[0], 1e-9),
           "1/s");
  json.Add("traced_latency_us_p50", traced_p50, "us");
  json.Add("trace_overhead_pct",
           untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0, "%");
  json.Add("insns_per_request", insns, "count");
  json.Add("sim_sys_cycles_per_request", phase.PerSuccess(phase.sys_cycles), "cycles");
  json.Add("engine.blocks_decoded_per_request", per("engine.blocks_decoded"), "count");
  json.Add("engine.block_hits_per_request", per("engine.block_hits"), "count");
  double tlb = per("engine.tlb_hits") + per("engine.tlb_misses");
  json.Add("engine.tlb_miss_ratio", tlb > 0 ? per("engine.tlb_misses") / tlb : 0, "ratio");
  json.Add("vm.faults_per_request", per("vm.cow_faults") + per("vm.demand_zero_fills"), "count");
  json.Add("cache.pages_verified_per_request", per("cache.pages_verified"), "count");
  json.Add("cache.misses_per_request", per("cache.misses"), "count");
  json.Add("solver.places_per_request", per("solver.places"), "count");
  json.Add("pool.tasks_per_request", per("pool.tasks_submitted"), "count");
  json.Add("ipc.bytes_per_request", per("ipc.bytes_sent") + per("ipc.bytes_received"), "count");
  json.Add("prelink.hits_per_request", per("prelink.hits"), "count");
  json.Add("link.relocations_at_map_per_request", per("link.relocations_at_map"), "count");
}

int Main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *options.workload;

  // Inputs first: generating objects and the reference is not set-up time.
  Workloads objects = Must(BuildWorkloads(), "build workload objects");
  Inputs inputs = MakeInputs(options.seed);
  Reference ref = MakeReference(objects, inputs);

  // setup_s is the median of fresh installs spread over the whole run: the
  // one that serves it, then one between every two blocks of the timed
  // phase. On a shared host the speed of a core can shift by up to 1.7x
  // within seconds, so installs bunched at start-up would sample one moment
  // of it; spread out, they see the same mix of host speeds as the requests.
  std::vector<double> setup_s;
  auto install = [&] {
    Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<OmosInstall>(objects, inputs, spec.id);
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
    return fresh;
  };
  std::unique_ptr<OmosInstall> world = install();

  Runner runner(spec.id, *world, ref);
  bool correct = true;
  for (int i = 0; i < spec.warmup_requests; ++i) {
    Timing timing;
    Observed observed;
    int shape = 0;
    correct &= runner.Request(false, timing, observed, shape);
  }
  uint32_t frames_after_warmup = world->kernel().phys().frames_in_use();

  // Fixed request count (even, so lib_update ends on the warm-up version).
  uint64_t count = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::llround(options.seconds * spec.requests_per_second)) & ~1ull);
  Phase phase = TimedPhase(runner, count, options.trace, std::min(150.0, 10 + 4 * options.seconds),
                           [&] { install(); });

  correct &= Deterministic(phase, options.trace) && phase.failed == 0;
  uint32_t frames_after = world->kernel().phys().frames_in_use();
  if (frames_after != frames_after_warmup) {
    std::fprintf(stderr, "e2e_bench: frames in use %u after the run, %u after warm-up\n",
                 frames_after, frames_after_warmup);
    correct = false;
  }

  std::fprintf(stderr, "e2e_bench: %s seed=%llu requests=%llu (%.2fs) setups=%zu\n", spec.name,
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(phase.attempted), phase.seconds, setup_s.size());
  MetricsJson json;
  if (options.trace) {
    AddPerLayer(json, phase, spec.id);
    if (!options.waterfall.empty()) {
      phase.traced.resize(std::min<size_t>(phase.traced.size(), 64));
      WriteWaterfall(options.waterfall, phase.traced);
    }
  } else {
    AddEndToEnd(json, phase, setup_s);
  }

  // Teardown order: the server (and its background jobs) before the kernel.
  world.reset();
  std::printf("%s\n", json.Finish(correct, phase.attempted, phase.failed).c_str());
  return 0;
}

}  // namespace
}  // namespace omos

int main(int argc, char** argv) { return omos::Main(argc, argv); }
