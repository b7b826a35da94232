#!/usr/bin/env python3
"""SRSR benchmark entry point.

    python3 perfbench/run.py --workload crawl_rank|serve_kappa|stream_updates
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The script

  1. builds the harness (perfbench/CMakeLists.txt, Release) into
     .bench_build/perfbench — a no-op after the first run;
  2. generates the crawl text for --seed once, before any timing, into
     .bench_build/perfbench/crawls/ (the three most recent are kept);
  3. runs the workload and relays its report. The last line of stdout
     is the JSON verdict {"correct", "attempted", "failed", "metrics"}:
     end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Every report line is also kept under .bench_build/perfbench/results/
with the run metadata (git sha or source digest, build type, compiler,
nproc, OpenMP threads, seed, generator config, input sizes).

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "srsr_perfbench"
WORKLOADS = ("crawl_rank", "serve_kappa", "stream_updates")
KEEP_CRAWLS = 3
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SRSR sources under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "srsr_perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("harness build failed (" + " ".join(cmd[:2]) + ")")


def crawl_dir(size, seed):
    crawls = BUILD / "crawls"
    target = crawls / f"{size}-seed{seed}"
    if not (target / "spec.json").is_file():  # spec.json is written last
        shutil.rmtree(target, ignore_errors=True)
        done = subprocess.run([str(BINARY), "generate", "--out", str(target),
                               "--size", size, "--seed", str(seed)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            fail("crawl generation failed")
    os.utime(target)
    others = sorted((d for d in crawls.iterdir() if d.is_dir() and d != target),
                    key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in others[KEEP_CRAWLS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def source_identity():
    """Git sha when the checkout is a repository, plus a digest of the
    sources either way (benchmark checkouts are plain file trees)."""
    sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="crawl preset (tiny = the smoke test's)")
    parser.add_argument("--corrupt", choices=("sigma", "snapshot"),
                        help="smoke-test hook: feed the gates a corrupted "
                             "sigma or snapshot")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    crawl = crawl_dir(args.size, args.seed)
    sha, digest = source_identity()
    meta = (f'"git_sha": "{sha}", "source_sha256_16": "{digest}", '
            f'"crawl_dir": "{crawl.relative_to(ROOT)}"')
    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--crawl", str(crawl), "--size", args.size,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--meta-json", meta]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # The 2 readers hold 2 cores; the solver's team gets the rest instead
    # of oversubscribing them (an oversubscribed team waits at every
    # barrier for a descheduled thread).
    env = dict(os.environ, OMP_NUM_THREADS=str(max(1, (os.cpu_count() or 1) - 2)))
    before = cpu_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s")
    after = cpu_ticks()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    verdict = json.loads(lines[-1])
    if set(verdict) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed verdict line")
    if before and after and after[1] > before[1]:
        # Time the hypervisor gave this machine's CPUs to other guests:
        # context for a run that reads slow.
        steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
        lines.insert(-1, f"host cpu_steal_pct {steal:.2f}")
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(
        "\n".join(lines) + "\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
