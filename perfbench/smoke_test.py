#!/usr/bin/env python3
"""Smoke test of the SRSR benchmark at tiny size.

    python3 perfbench/smoke_test.py

Runs all three workloads on the tiny crawl (400 hosts), untraced and
traced, and checks that

  - each verdict is correct, with failed == 0;
  - the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its unit;
  - the workload-specific per-layer metrics are printed as detail lines;
  - every correctness gate fires: --corrupt sigma must trip each
    workload's sigma gates, --corrupt snapshot the snapshot gate.

Exits 0 when every check passes. Takes about a minute after the build.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIGMA_GATES = {
    "crawl_rank": ["sigma_vs_jacobi_reference", "spam_demoted_vs_kappa0"],
    "serve_kappa": ["warm_publish_vs_cold_solve"],
    "stream_updates": ["incremental_vs_cold_rebuild"],
}
SNAPSHOT_GATE = "snapshot_checksum_and_epoch_order"
DETAILS = {
    "crawl_rank": ["serve.query.compare_p50_us"],
    "serve_kappa": ["serve.recompute_s", "serve.queue_wait_ms",
                    "serve.coalesced", "serve.failed",
                    "serve.query.compare_p50_us"],
    "stream_updates": ["serve.recompute_s", "serve.queue_wait_ms",
                       "serve.coalesced", "serve.failed", "stream.commit_s",
                       "stream.dirty_rows", "stream.pushes", "stream.seed_mass",
                       "stream.path_delta_share", "stream.path_full_share",
                       "stream.path_fallback_share"],
}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--size", "tiny", "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        expect(False, f"{' '.join(cmd[2:])} exited {done.returncode}")
        return None, []
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(workload, trace, verdict, lines):
    listed = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in verdict["metrics"].items()}
    expect(got == want, f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float)) for v in verdict["metrics"].values()),
           f"{workload} trace={trace}: every value is a number")
    if trace:
        details = {line.split()[1] for line in lines if line.startswith("detail ")}
        missing = [d for d in DETAILS[workload] if d not in details]
        expect(not missing, f"{workload}: detail metrics present"
               + (f", missing {missing}" if missing else ""))
    else:
        expect(any(line.startswith("meta {") for line in lines),
               f"{workload}: run metadata line present")


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            verdict, lines = run(workload, trace)
            if verdict is None:
                continue
            expect(verdict["correct"] and verdict["failed"] == 0
                   and verdict["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, failed == 0")
            check_metrics(workload, trace, verdict, lines)
        for corrupt, gates in (("sigma", SIGMA_GATES[workload]),
                               ("snapshot", [SNAPSHOT_GATE])):
            verdict, lines = run(workload, 0, corrupt)
            if verdict is None:
                continue
            failed = {line.split()[1] for line in lines
                      if line.startswith("gate ") and line.split()[2] == "FAIL"}
            expect(not verdict["correct"] and verdict["failed"] >= len(gates)
                   and set(gates) <= failed,
                   f"{workload} --corrupt {corrupt}: gates {gates} fire")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
