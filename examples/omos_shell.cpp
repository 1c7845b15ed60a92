// A tiny "shell session" against an OMOS-backed /bin (§5): the server's
// namespace is exported into the filesystem as `#!omos` interpreter files,
// and each command line execs through the normal path-based route. Every
// program after the first warm-up run is served entirely from the image
// cache — the persistent-linker experience.
//
// Build & run:  ./build/examples/omos_shell
//
// Observability (omtrace): the session runs with tracing and the SimISA
// cycle profiler enabled. Three built-in commands talk to the server over
// the same IPC channel a remote system manager would use (kIntrospect):
//   help               list the built-in commands
//   stats              print the unified metrics snapshot
//   trace <file>       dump Chrome trace_event JSON (chrome://tracing)
//   profile            symbol-level profile of the last client that ran
//   placements         global layout: per-object bases and the
//                      conflict log
//   upgrade <lib> <blueprint>
//                      hot-patch a lib-dynamic library mid-session
//                      (docs/upgrade.md) and drive the roll to completion
#include <cstdio>
#include <sstream>

#include "src/core/server.h"
#include "src/ipc/channel.h"
#include "src/ipc/message.h"
#include "src/os/sim_fs.h"
#include "src/store/image_store.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/vasm/assembler.h"
#include "src/workloads/workloads.h"

using namespace omos;

namespace {
template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}
void Check(const Result<void>& r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.error().ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  Kernel kernel;
  OmosServer server(kernel);
  PopulateLsData(kernel.fs());

  // Persistence (PR 6): every image built this session is published to a
  // crash-safe on-disk store; a restarted shell would adopt them instead of
  // re-linking. The `stats` builtin reports the store counters.
  SimFs disk;
  ImageStore store(disk, "/omos/store", &kernel.costs());
  Check(store.Open(), "open image store");
  server.AttachStore(&store);

  // Observe the whole session: spans from every layer, plus PC samples
  // every 16 retired instructions of any client that runs.
  TraceSetEnabled(true);
  CycleProfiler::Start(/*period=*/16);

  // Stock the world: libc + three little utilities, all OMOS meta-objects.
  WorkloadParams params;
  params.libc_filler = 20;
  params.alpha_functions = 4;
  params.libm_functions = 4;
  params.libl_functions = 4;
  params.libcpp_functions = 4;
  params.codegen_files = 1;
  params.codegen_funcs_per_file = 1;
  Workloads w = Check(BuildWorkloads(params), "build workloads");
  Check(server.AddFragment("/lib/crt0.o", w.crt0), "crt0");
  Check(server.AddFragment("/obj/ls.o", w.ls_obj), "ls.o");
  Check(server.AddArchive("/libc", w.libc), "libc");
  Check(server.DefineLibrary("/lib/libc", "(constraint-list \"T\" 0x2000000)\n(merge /libc)"),
        "libc meta");
  Check(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"), "ls meta");

  Check(server.AddFragment("/obj/echo.o", Check(Assemble(R"(
.text
.global main
main:                 ; echo: print argv[1..] separated by spaces
  push lr
  push r4
  push r5
  push r6
  mov r4, r0          ; argc
  mov r5, r1          ; argv
  movi r6, 1
echo_loop:
  bge r6, r4, echo_done
  movi r1, 4
  mul r0, r6, r1
  add r0, r5, r0
  ld r0, [r0+0]
  call print_str
  addi r6, r6, 1
  blt r6, r4, echo_space
  br echo_loop
echo_space:
  lea r0, space
  call print_str
  br echo_loop
echo_done:
  lea r0, newline
  call print_str
  pop r6
  pop r5
  pop r4
  pop lr
  movi r0, 0
  ret
.data
space: .asciiz " "
newline: .asciiz "\n"
)", "echo.o"), "assemble echo")), "echo.o");
  Check(server.DefineMeta("/bin/echo", "(merge /lib/crt0.o /obj/echo.o /lib/libc)"),
        "echo meta");

  Check(server.AddFragment("/obj/true.o", Check(Assemble(R"(
.text
.global main
main:
  movi r0, 0
  ret
)", "true.o"), "assemble true")), "true.o");
  Check(server.DefineMeta("/bin/true", "(merge /lib/crt0.o /obj/true.o /lib/libc)"),
        "true meta");

  // A lib-dynamic utility for the live-upgrade demo: `version` exits with
  // whatever vernum() returns, and the library is hot-patched mid-session.
  Check(server.AddFragment("/obj/ver1.o", Check(Assemble(R"(
.text
.global vernum
vernum:
  movi r0, 1
  ret
)", "ver1.o"), "assemble ver1")), "ver1.o");
  Check(server.AddFragment("/obj/ver2.o", Check(Assemble(R"(
.text
.global vernum
vernum:
  movi r0, 3
  ret
)", "ver2.o"), "assemble ver2")), "ver2.o");
  Check(server.AddFragment("/obj/version.o", Check(Assemble(R"(
.text
.global main
main:
  push lr
  call vernum
  pop lr
  ret
)", "version.o"), "assemble version")), "version.o");
  Check(server.DefineLibrary("/lib/verlib", "(merge /obj/ver1.o)"), "verlib meta");
  Check(server.DefineMeta("/bin/version",
                          "(merge /lib/crt0.o /obj/version.o"
                          " (specialize \"lib-dynamic\" /lib/verlib))"),
        "version meta");

  // §5: /bin becomes a filesystem backed only by OMOS.
  int exported = Check(server.ExportNamespaceToFs("/bin", "/bin"), "export /bin");
  std::printf("exported %d OMOS meta-objects into /bin\n\n", exported);

  // Introspection goes over the wire, like a remote system manager would.
  Channel channel = server.MakeChannel();
  auto introspect = [&](const std::string& cmd, uint32_t handle,
                        const std::string& spec = "") -> OmosReply {
    OmosRequest request;
    request.op = OmosOp::kIntrospect;
    request.path = cmd;
    request.task_handle = handle;
    request.specialization = spec;
    OmosReply reply = Check(channel.Call(request, nullptr), "introspect");
    if (!reply.ok) {
      std::printf("sh: introspect %s: %s\n", cmd.c_str(), reply.error.c_str());
    }
    return reply;
  };

  // The last-run task stays alive until the next exec (or shell exit), so
  // `profile` can resolve its PCs through the server's runtime state.
  TaskId last_task = 0;
  bool have_last = false;
  auto retire_last = [&] {
    if (have_last) {
      server.ReleaseTask(last_task);
      kernel.DestroyTask(last_task);
      have_last = false;
    }
  };

  // The "session": each line is tokenized; built-ins run here, everything
  // else execs through /bin.
  const char* script[] = {
      "help",
      "true",
      "echo hello from the omos shell",
      "ls /data",
      "echo second ls is served from the image cache",
      "ls /data",
      "version",
      "upgrade /lib/verlib (merge /obj/ver2.o)",
      "version",
      "stats",
      "placements",
      "trace omos_shell.trace.json",
      "profile",
  };
  for (const char* line : script) {
    std::vector<std::string> args = SplitString(line, ' ');
    std::printf("$ %s\n", line);
    if (args[0] == "help") {
      std::printf("built-ins: help, stats, trace <file>, profile, placements,\n"
                  "           upgrade <lib> <blueprint>\n"
                  "anything else execs through the OMOS-backed /bin\n");
      continue;
    }
    if (args[0] == "upgrade") {
      if (args.size() < 3) {
        std::printf("usage: upgrade <libpath> <blueprint>\n");
        continue;
      }
      // The old version stays pinned while the last client is held for
      // `profile`; retire it so the roll can drain.
      retire_last();
      std::string blueprint = args[2];
      for (size_t i = 3; i < args.size(); ++i) {
        blueprint += " " + args[i];
      }
      // Kick the roll over the wire (blueprint rides in the spec field),
      // then drive it in-process the way a serving loop would.
      OmosReply reply = introspect(StrCat("upgrade ", args[1]), 0, blueprint);
      if (!reply.ok) {
        continue;
      }
      std::fputs(reply.payload.c_str(), stdout);
      OmosServer::UpgradeStatus status = server.DrainUpgrade();
      for (int round = 0; round < 64 && !status.terminal(); ++round) {
        status = server.DrainUpgrade();
      }
      OmosReply after = introspect("upgrade-status", 0);
      std::fputs(after.payload.c_str(), stdout);
      continue;
    }
    if (args[0] == "stats") {
      OmosReply reply = introspect("stats-text", 0);
      std::fputs(reply.payload.c_str(), stdout);
      // The store.* counters ride in the same wire snapshot.
      OmosReply metrics = introspect("stats", 0);
      std::printf("persistence:\n");
      for (const auto& [name, value] : metrics.metrics) {
        if (StartsWith(name, "store.")) {
          std::printf("  %-24s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        }
      }
      // Wire traffic: every exec-protocol byte this shell exchanged.
      std::printf("ipc:\n");
      for (const auto& [name, value] : metrics.metrics) {
        if (name == "ipc.bytes_sent" || name == "ipc.bytes_received") {
          std::printf("  %-24s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        }
      }
      // Live-upgrade counters (docs/upgrade.md): rolls, migrated frames,
      // repointed slots, degradations.
      std::printf("live upgrade:\n");
      for (const auto& [name, value] : metrics.metrics) {
        if (StartsWith(name, "upgrade.")) {
          std::printf("  %-24s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        }
      }
      // Block-engine counters (docs/perf.md): predecoded superblocks and
      // block/TLB reuse.
      std::printf("engine:\n");
      for (const auto& [name, value] : metrics.metrics) {
        if (StartsWith(name, "engine.")) {
          std::printf("  %-24s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        }
      }
      continue;
    }
    if (args[0] == "trace") {
      OmosReply reply = introspect("trace", 0);
      const char* path = args.size() > 1 ? args[1].c_str() : "omos_shell.trace.json";
      if (std::FILE* f = std::fopen(path, "w")) {
        std::fwrite(reply.payload.data(), 1, reply.payload.size(), f);
        std::fclose(f);
      }
      auto parsed = ParseChromeTrace(reply.payload);
      std::printf("wrote %s (%zu events; open in chrome://tracing)\n", path,
                  parsed.ok() ? parsed->size() : 0);
      continue;
    }
    if (args[0] == "profile") {
      OmosReply reply = introspect("profile", have_last ? last_task : 0);
      std::fputs(reply.payload.c_str(), stdout);
      continue;
    }
    if (args[0] == "placements") {
      // The namespace-global layout a fleet of clients shares: where every
      // cached image lives, and any recorded placement conflicts awaiting
      // a re-solve.
      OmosReply reply = introspect("placements", 0);
      std::fputs(reply.payload.c_str(), stdout);
      continue;
    }
    retire_last();
    auto exec = server.ExecFile(StrCat("/bin/", args[0]), args, /*integrated=*/true);
    if (!exec.ok()) {
      std::printf("sh: %s\n", exec.error().ToString().c_str());
      continue;
    }
    Task* task = kernel.FindTask(*exec);
    if (auto run = kernel.RunTask(*task); !run.ok()) {
      std::printf("sh: %s\n", run.error().ToString().c_str());
      continue;
    }
    std::fputs(task->output().c_str(), stdout);
    if (task->exit_code() != 0) {
      std::printf("[exit %d]\n", task->exit_code());
    }
    last_task = *exec;
    have_last = true;
  }
  retire_last();

  // A real session would end with a durable snapshot so the next boot
  // restores the namespace and adopts every image without re-linking.
  Check(server.PersistTo(store), "persist session");

  const CacheStats& stats = server.cache_stats();
  std::printf("\ncache after session: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("store after session: %llu images published, %zu live\n",
              static_cast<unsigned long long>(store.stats().puts.load()),
              store.entry_count());
  return 0;
}
