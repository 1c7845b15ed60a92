#!/usr/bin/env python3
"""Merge bench-smoke outputs into one machine-readable BENCH_RESULTS.json.

Inputs (all inside the directory given as argv[1], default ./bench-results):
  *.json             native google-benchmark JSON (--benchmark_out)
  BENCH_TABLE1.txt   table1 console output (rows + PASS/FAIL gate lines)
  BENCH_IPC.txt      bench_ipc console output (sections + PASS/FAIL gate lines)
  BENCH_UPGRADE.txt  bench_upgrade console output (latency windows across a
                     mid-run live library upgrade + PASS/FAIL gate lines)
  BENCH_INTERP.txt   bench_interp console output (legacy-vs-block-engine
                     steady-state throughput rows + PASS/FAIL speedup gates)

Output: BENCH_RESULTS.json in the same directory, schema
"omos-bench-results/1". Exits non-zero if any parsed gate line says FAIL,
so the CI lane stays red even if a later step forgets to grep.
"""

import json
import re
import sys
from pathlib import Path

SCHEMA = "omos-bench-results/1"

# "  OMOS prelinked exec    0.03  0.34  0.37  0.675  4/2  42" — the Ratio
# column is absent on the Traditional row.
TABLE1_ROW = re.compile(
    r"^  (?P<name>\S.*?)\s{2,}(?P<user>\d+\.\d+)\s+(?P<sys>\d+\.\d+)"
    r"\s+(?P<elapsed>\d+\.\d+)(?:\s+(?P<ratio>\d+\.\d+))?"
    r"\s+(?P<shared>\d+)/(?P<private>\d+)\s+(?P<frames>\d+)\s*$"
)
GATE_LINE = re.compile(r"^\s*(?P<verdict>PASS|FAIL): (?P<what>.*)$")
OPEN_LOOP_ROW = re.compile(r"^\s+(?P<clients>\d+)\s+(?P<p50>\d+)\s+(?P<p99>\d+)\s*$")
TRANSPORT_ROW = re.compile(
    r"^\s+(?P<transport>port|stream|ring)\s+(?P<single>\d+)\s+(?P<batched>\d+)\s*$"
)
UPGRADE_WINDOW_ROW = re.compile(
    r"^\s+(?P<window>pre-roll|mid-roll|post-roll)\s+(?P<requests>\d+)"
    r"\s+(?P<p50>\d+(?:\.\d+)?)\s+(?P<p99>\d+(?:\.\d+)?)\s*$"
)
UPGRADE_RATE_LINE = re.compile(r"^\s+(?P<rate>\d+) requests/sec across the roll")
# "alu           312.4         2784.1     8.91x" from bench_interp.
INTERP_ROW = re.compile(
    r"^(?P<mix>\w+)\s+(?P<interp>\d+\.\d+)\s+(?P<blocks>\d+\.\d+)"
    r"\s+(?P<speedup>\d+\.\d+)x\s*$"
)
INTERP_COUNTER_LINE = re.compile(
    r"^engine counters over the blocks runs: (?P<decoded>\d+) blocks decoded, "
    r"(?P<block_hits>\d+) block hits / (?P<l1_misses>\d+) L1 misses, "
    r"tlb (?P<tlb_hits>\d+) hits / (?P<tlb_misses>\d+) misses"
)


def parse_gates(text):
    return [
        {"name": m.group("what").strip(), "pass": m.group("verdict") == "PASS"}
        for m in (GATE_LINE.match(line) for line in text.splitlines())
        if m
    ]


def parse_table1(text):
    tests, current = {}, None
    for line in text.splitlines():
        header = re.match(r"^Test: (?P<test>.+?) \((?P<iters>\d+) iterations\)", line)
        if header:
            current = {"iterations": int(header.group("iters")), "rows": {}}
            tests[header.group("test")] = current
            continue
        row = TABLE1_ROW.match(line)
        if row and current is not None:
            current["rows"][row.group("name")] = {
                "user_s": float(row.group("user")),
                "sys_s": float(row.group("sys")),
                "elapsed_s": float(row.group("elapsed")),
                "ratio_vs_traditional": (
                    float(row.group("ratio")) if row.group("ratio") else None
                ),
                "shared_pages": int(row.group("shared")),
                "private_pages": int(row.group("private")),
                "frames_in_use": int(row.group("frames")),
            }
    return {"tests": tests, "gates": parse_gates(text)}


def parse_ipc(text):
    open_loop, transports = [], {}
    for line in text.splitlines():
        row = OPEN_LOOP_ROW.match(line)
        if row:
            open_loop.append(
                {
                    "clients": int(row.group("clients")),
                    "p50_ns": int(row.group("p50")),
                    "p99_ns": int(row.group("p99")),
                }
            )
            continue
        t = TRANSPORT_ROW.match(line)
        if t:
            transports[t.group("transport")] = {
                "cycles_per_request": int(t.group("single")),
                "batched16_cycles_per_request": int(t.group("batched")),
            }
    return {
        "transports": transports,
        "open_loop": open_loop,
        "gates": parse_gates(text),
    }


def parse_upgrade(text):
    windows, rate = {}, None
    for line in text.splitlines():
        row = UPGRADE_WINDOW_ROW.match(line)
        if row:
            windows[row.group("window")] = {
                "requests": int(row.group("requests")),
                "p50_us": float(row.group("p50")),
                "p99_us": float(row.group("p99")),
            }
            continue
        r = UPGRADE_RATE_LINE.match(line)
        if r:
            rate = int(r.group("rate"))
    return {
        "windows": windows,
        "requests_per_sec": rate,
        "gates": parse_gates(text),
    }


def parse_interp(text):
    mixes, counters = {}, None
    for line in text.splitlines():
        row = INTERP_ROW.match(line)
        if row:
            mixes[row.group("mix")] = {
                "interp_insns_per_s": float(row.group("interp")) * 1e6,
                "blocks_insns_per_s": float(row.group("blocks")) * 1e6,
                "speedup": float(row.group("speedup")),
            }
            continue
        c = INTERP_COUNTER_LINE.match(line)
        if c:
            counters = {
                "blocks_decoded": int(c.group("decoded")),
                "block_hits": int(c.group("block_hits")),
                "l1_misses": int(c.group("l1_misses")),
                "tlb_hits": int(c.group("tlb_hits")),
                "tlb_misses": int(c.group("tlb_misses")),
            }
    return {"mixes": mixes, "engine_counters": counters, "gates": parse_gates(text)}


def main():
    results_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "bench-results")
    out = {
        "schema": SCHEMA,
        "benchmarks": {},
        "table1": None,
        "ipc": None,
        "upgrade": None,
        "interp": None,
    }

    for path in sorted(results_dir.glob("*.json")):
        if path.name == "BENCH_RESULTS.json":
            continue
        try:
            out["benchmarks"][path.stem] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)

    table1_txt = results_dir / "BENCH_TABLE1.txt"
    if table1_txt.exists():
        out["table1"] = parse_table1(table1_txt.read_text())
    ipc_txt = results_dir / "BENCH_IPC.txt"
    if ipc_txt.exists():
        out["ipc"] = parse_ipc(ipc_txt.read_text())
    upgrade_txt = results_dir / "BENCH_UPGRADE.txt"
    if upgrade_txt.exists():
        out["upgrade"] = parse_upgrade(upgrade_txt.read_text())
    interp_txt = results_dir / "BENCH_INTERP.txt"
    if interp_txt.exists():
        out["interp"] = parse_interp(interp_txt.read_text())

    gates = (
        (out["table1"] or {}).get("gates", [])
        + (out["ipc"] or {}).get("gates", [])
        + (out["upgrade"] or {}).get("gates", [])
        + (out["interp"] or {}).get("gates", [])
    )
    out["gates_passed"] = all(g["pass"] for g in gates) if gates else None

    target = results_dir / "BENCH_RESULTS.json"
    target.write_text(json.dumps(out, indent=2) + "\n")
    print(
        f"{target}: {len(out['benchmarks'])} benchmark files, "
        f"{len(gates)} gates, gates_passed={out['gates_passed']}"
    )
    return 0 if out["gates_passed"] in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())
