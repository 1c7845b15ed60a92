// Table 1 reproduction: "Constraint-based Shared Library Performance".
//
// The paper compares, over 1000 invocations of short-running programs:
//   HP-UX section:   vendor shared libraries  vs  OMOS bootstrap exec
//     ls              ratio 1.007 (parity)
//     ls -laF         ratio 0.93
//     codegen         ratio 0.82
//   OSF/1 section:   vendor shared libs vs OMOS bootstrap (0.60) vs OMOS
//                    integrated exec (0.44)
//
// Here all schemes run on the same simulated machine, so the table has one
// section with three columns. Simulated cycles are deterministic; each
// configuration is run warm and scaled to 1000 iterations. We expect the
// *shape*: parity (±few %) on tiny ls, growing OMOS advantage with syscall
// count (-laF) and with program/library size (codegen), and integrated exec
// strictly beating bootstrap exec.
#include <cstdio>

#include <string_view>

#include "bench/bench_common.h"
#include "src/support/metrics.h"

namespace omos {
namespace {

constexpr int kIterations = 1000;
constexpr int kMeasuredRuns = 3;  // deterministic; 3 verifies stability

struct Row {
  const char* test;
  InvocationCost baseline;
  InvocationCost bootstrap;
  InvocationCost integrated;
  InvocationCost prelinked;
  PageSharing baseline_pages;
  PageSharing bootstrap_pages;
  PageSharing integrated_pages;
  PageSharing prelinked_pages;
};

InvocationCost Median3(InvocationCost a, InvocationCost b, InvocationCost c) {
  // Deterministic simulation: verify and return the last (warm) run.
  if (b.elapsed() != c.elapsed()) {
    std::fprintf(stderr, "warning: nondeterministic simulation (%llu vs %llu)\n",
                 static_cast<unsigned long long>(b.elapsed()),
                 static_cast<unsigned long long>(c.elapsed()));
  }
  (void)a;
  return c;
}

template <typename RunFn>
InvocationCost Measure(RunFn run) {
  InvocationCost costs[kMeasuredRuns];
  for (int i = 0; i < kMeasuredRuns; ++i) {
    costs[i] = run();
  }
  return Median3(costs[0], costs[1], costs[2]);
}

void PrintRow(const char* scheme, InvocationCost cost, double ratio_vs_baseline,
              PageSharing pages) {
  std::printf("  %-28s %8.2f %8.2f %9.2f", scheme, Seconds(cost.user * kIterations),
              Seconds(cost.sys * kIterations), Seconds(cost.elapsed() * kIterations));
  if (ratio_vs_baseline > 0) {
    std::printf("   %5.3f", ratio_vs_baseline);
  } else {
    std::printf("   %5s", "");
  }
  // Per-task page sharing after one full run: shared pages still reference
  // cached master frames (text + unbroken CoW data); private pages are the
  // task's own (stack, heap, CoW-broken, demand-filled).
  std::printf("   %6u/%-6u %8u\n", pages.shared_pages, pages.private_pages,
              pages.frames_in_use);
}

void PrintTest(const Row& row) {
  std::printf("Test: %s (%d iterations)\n", row.test, kIterations);
  std::printf("  %-28s %8s %8s %9s   %5s   %13s %8s\n", "", "User", "System", "Elapsed", "Ratio",
              "Shared/Priv", "Frames");
  PrintRow("Traditional Shared Lib", row.baseline, 0, row.baseline_pages);
  PrintRow("OMOS bootstrap exec", row.bootstrap,
           static_cast<double>(row.bootstrap.elapsed()) / row.baseline.elapsed(),
           row.bootstrap_pages);
  PrintRow("OMOS integrated exec", row.integrated,
           static_cast<double>(row.integrated.elapsed()) / row.baseline.elapsed(),
           row.integrated_pages);
  PrintRow("OMOS prelinked exec", row.prelinked,
           static_cast<double>(row.prelinked.elapsed()) / row.baseline.elapsed(),
           row.prelinked_pages);
  std::printf("\n");
}

}  // namespace
}  // namespace omos

namespace omos {
namespace {

// --sweep: show that the orderings in Table 1 are robust to the one genuinely
// machine-specific cost parameter, the IPC round trip. Ratios move smoothly;
// no ordering flips until IPC becomes implausibly free or implausibly huge.
void SensitivitySweep() {
  std::printf("=== Sensitivity: Table 1 ls ratio vs IPC round-trip cost ===\n\n");
  std::printf("%14s %22s %22s\n", "ipc cycles", "bootstrap/traditional", "integrated/traditional");
  for (uint64_t ipc : {2000ull, 5000ull, 9000ull, 14000ull, 20000ull}) {
    BaselineWorld baseline = MakeBaselineWorld();
    OmosWorld world = MakeOmosWorld();
    world.kernel->mutable_costs().ipc_round_trip = ipc;
    world.Warm();
    (void)baseline.Run("ls", {"ls", "/data"});
    (void)world.Run("/bin/ls", {"ls", "/data"}, false);
    (void)world.Run("/bin/ls", {"ls", "/data"}, true);
    InvocationCost base = baseline.Run("ls", {"ls", "/data"});
    InvocationCost boot = world.Run("/bin/ls", {"ls", "/data"}, false);
    InvocationCost integ = world.Run("/bin/ls", {"ls", "/data"}, true);
    std::printf("%14llu %22.3f %22.3f\n", static_cast<unsigned long long>(ipc),
                static_cast<double>(boot.elapsed()) / base.elapsed(),
                static_cast<double>(integ.elapsed()) / base.elapsed());
  }
  std::printf("\nIntegrated exec never pays the IPC, so its ratio is flat; the\n");
  std::printf("bootstrap ratio crosses 1.0 as IPC grows — exactly the paper's\n");
  std::printf("observation that the bootstrap's IPC counteracts the relocation savings.\n");

  // Second axis: hold the cost model fixed and swap the exec transport.
  // The doors-style ring collapses the round trip from 9000 cycles to a few
  // hundred, pulling bootstrap exec to near-parity with integrated exec.
  std::printf("\n=== Sensitivity: Table 1 ls ratio vs exec transport ===\n\n");
  std::printf("%10s %22s %22s %22s\n", "transport", "bootstrap/traditional",
              "integrated/traditional", "bootstrap/integrated");
  struct TransportPoint {
    const char* name;
    OmosServer::ExecTransport transport;
  };
  for (const TransportPoint& point :
       {TransportPoint{"port", OmosServer::ExecTransport::kPort},
        TransportPoint{"stream", OmosServer::ExecTransport::kStream},
        TransportPoint{"ring", OmosServer::ExecTransport::kRing}}) {
    BaselineWorld baseline = MakeBaselineWorld();
    OmosWorld world = MakeOmosWorld();
    world.server->SetExecTransport(point.transport);
    world.Warm();
    (void)baseline.Run("ls", {"ls", "/data"});
    (void)world.Run("/bin/ls", {"ls", "/data"}, false);
    (void)world.Run("/bin/ls", {"ls", "/data"}, true);
    InvocationCost base = baseline.Run("ls", {"ls", "/data"});
    InvocationCost boot = world.Run("/bin/ls", {"ls", "/data"}, false);
    InvocationCost integ = world.Run("/bin/ls", {"ls", "/data"}, true);
    std::printf("%10s %22.3f %22.3f %22.3f\n", point.name,
                static_cast<double>(boot.elapsed()) / base.elapsed(),
                static_cast<double>(integ.elapsed()) / base.elapsed(),
                static_cast<double>(boot.elapsed()) / integ.elapsed());
  }
  std::printf("\nOver the shared-memory ring, bootstrap exec lands within 1.5x of\n");
  std::printf("integrated exec: the cheap handoff makes the extra exec-protocol\n");
  std::printf("round trip nearly free, without giving up the separate-server split.\n");
}

}  // namespace
}  // namespace omos

int main(int argc, char** argv) {
  using namespace omos;
  if (argc > 1 && std::string_view(argv[1]) == "--sweep") {
    SensitivitySweep();
    return 0;
  }
  std::printf("=== Table 1: Constraint-based Shared Library Performance ===\n");
  std::printf("(simulated cycles at %.0f MHz; times are for %d iterations)\n\n", kClockHz / 1e6,
              kIterations);

  BaselineWorld baseline = MakeBaselineWorld();
  OmosWorld world = MakeOmosWorld();
  world.Warm();
  world.Prelink();

  // Warm both worlds: one throwaway invocation per configuration.
  (void)baseline.Run("ls", {"ls", "/data"});
  (void)world.Run("/bin/ls", {"ls", "/data"}, false);
  (void)world.Run("/bin/ls", {"ls", "/data"}, true);
  (void)world.RunPrelinked("/bin/ls", {"ls", "/data"});

  Row ls_row{"ls"};
  ls_row.baseline = Measure([&] { return baseline.Run("ls", {"ls", "/data"}); });
  ls_row.bootstrap = Measure([&] { return world.Run("/bin/ls", {"ls", "/data"}, false); });
  ls_row.integrated = Measure([&] { return world.Run("/bin/ls", {"ls", "/data"}, true); });
  ls_row.prelinked = Measure([&] { return world.RunPrelinked("/bin/ls", {"ls", "/data"}); });
  ls_row.baseline_pages = baseline.SampleSharing("ls", {"ls", "/data"});
  ls_row.bootstrap_pages = world.SampleSharing("/bin/ls", {"ls", "/data"}, false);
  ls_row.integrated_pages = world.SampleSharing("/bin/ls", {"ls", "/data"}, true);
  ls_row.prelinked_pages = world.SampleSharingPrelinked("/bin/ls", {"ls", "/data"});
  PrintTest(ls_row);

  Row laf_row{"ls -laF"};
  laf_row.baseline = Measure([&] { return baseline.Run("ls", {"ls", "-laF", "/data"}); });
  laf_row.bootstrap =
      Measure([&] { return world.Run("/bin/ls", {"ls", "-laF", "/data"}, false); });
  laf_row.integrated =
      Measure([&] { return world.Run("/bin/ls", {"ls", "-laF", "/data"}, true); });
  laf_row.prelinked =
      Measure([&] { return world.RunPrelinked("/bin/ls", {"ls", "-laF", "/data"}); });
  laf_row.baseline_pages = baseline.SampleSharing("ls", {"ls", "-laF", "/data"});
  laf_row.bootstrap_pages = world.SampleSharing("/bin/ls", {"ls", "-laF", "/data"}, false);
  laf_row.integrated_pages = world.SampleSharing("/bin/ls", {"ls", "-laF", "/data"}, true);
  laf_row.prelinked_pages = world.SampleSharingPrelinked("/bin/ls", {"ls", "-laF", "/data"});
  PrintTest(laf_row);

  (void)baseline.Run("codegen", {"codegen"});
  (void)world.Run("/bin/codegen", {"codegen"}, false);
  (void)world.Run("/bin/codegen", {"codegen"}, true);
  (void)world.RunPrelinked("/bin/codegen", {"codegen"});
  Row cg_row{"codegen"};
  cg_row.baseline = Measure([&] { return baseline.Run("codegen", {"codegen"}); });
  cg_row.bootstrap = Measure([&] { return world.Run("/bin/codegen", {"codegen"}, false); });
  cg_row.integrated = Measure([&] { return world.Run("/bin/codegen", {"codegen"}, true); });
  cg_row.prelinked = Measure([&] { return world.RunPrelinked("/bin/codegen", {"codegen"}); });
  cg_row.baseline_pages = baseline.SampleSharing("codegen", {"codegen"});
  cg_row.bootstrap_pages = world.SampleSharing("/bin/codegen", {"codegen"}, false);
  cg_row.integrated_pages = world.SampleSharing("/bin/codegen", {"codegen"}, true);
  cg_row.prelinked_pages = world.SampleSharingPrelinked("/bin/codegen", {"codegen"});
  PrintTest(cg_row);

  std::printf("Paper shapes: ls ratio ~1.0; ls -laF < 1 (OMOS wins as syscalls grow);\n");
  std::printf("codegen markedly < 1 (per-invocation relocations dominate);\n");
  std::printf("integrated exec strictly faster than bootstrap exec (paper: .44 vs .60).\n");

  // Prelink gates: a warm prelinked exec maps cached images as-is — zero
  // per-exec relocation work (the link.relocations_at_map delta across one
  // run must be 0; the baseline rtld bumps it every exec) — and, paying
  // only the prelink-table probe instead of the full namespace + cache
  // lookup, never costs more than integrated exec.
  Counter* at_map = MetricsRegistry::Global().GetCounter("link.relocations_at_map");
  uint64_t map_before = at_map->value();
  (void)world.RunPrelinked("/bin/ls", {"ls", "/data"});
  (void)world.RunPrelinked("/bin/codegen", {"codegen"});
  uint64_t map_delta = at_map->value() - map_before;
  bool zero_reloc = map_delta == 0;
  bool no_worse = ls_row.prelinked.elapsed() <= ls_row.integrated.elapsed() &&
                  laf_row.prelinked.elapsed() <= laf_row.integrated.elapsed() &&
                  cg_row.prelinked.elapsed() <= cg_row.integrated.elapsed();
  std::printf("\n  %s: warm prelinked exec applied %llu relocations at map time (want 0)\n",
              zero_reloc ? "PASS" : "FAIL", static_cast<unsigned long long>(map_delta));
  std::printf("  %s: prelinked exec <= integrated exec on every test\n",
              no_worse ? "PASS" : "FAIL");
  return zero_reloc && no_worse ? 0 : 1;
}
