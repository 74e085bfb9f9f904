#!/usr/bin/env python3
"""The repository benchmark: builds the `tdx` CLI and the `tdxbench`
workload binary from source, runs one workload, checks its outputs and prints the
result as one JSON object on the last line of stdout.

    python3 tdxbench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 tdxbench/run.py --workload serve --seconds 10 --repeat 10

Run it from the repository root. `--repeat N` runs the workload on seeds
seed..seed+N-1 and prints each metric's median, quartiles and spread
(interquartile range over median). See tdxbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("batch", "ingest", "serve")
# Knobs that would otherwise let the caller's environment change what is
# measured; every option they set is given explicitly instead.
PINNED_ENV = (
    "TDX_CHASE_THREADS",
    "TDX_CHASE_SERVERS",
    "TDX_CHASE_TRANSPORT",
    "TDX_CHASE_DEADLINE_MS",
)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
# One `tdx normalize` process after every two `tdx exchange` processes.
EXCHANGES_PER_NORMALIZE = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolated quantile, as `tdxbench` computes percentiles; 0
    for none."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    """The median, or 0 when every operation failed."""
    return statistics.median(values) if values else 0.0


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    return env, target


def build(env):
    """Builds the CLI and the workload binary; exits 3 if either fails."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "tdx"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log("tdxbench: build failed: " + " ".join(cmd))
            sys.exit(3)


def describe_env(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} commit={commit}", flush=True)


def cpu_ticks():
    """The machine-wide CPU tick counters (user, nice, system, idle, ...)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def report_steal(before):
    """Logs the share of CPU time the hypervisor stole during the run: the
    first thing to look at when a run reads slower than its neighbours."""
    after = cpu_ticks()
    if len(before) > 7 and len(after) == len(before):
        delta = [b - a for a, b in zip(before, after)]
        log(f"# host steal: {100.0 * delta[7] / max(sum(delta), 1):.1f}% of CPU time")


def run_process(cmd, env):
    """Runs one process; returns (exit code, stderr text, wall s, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stderr.close()
    return p.returncode, err, wall, usage.ru_maxrss / 1024.0


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_batch(args, env, bins):
    """`tdx exchange` (and `tdx normalize`) processes on the prepared file."""
    out = subprocess.run(
        [bins["tdxbench"], "batch-prep", "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work", WORK],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if out.returncode not in (0, 1) or not lines:
        log("tdxbench: batch-prep failed")
        return 2
    prep = json.loads(lines[-1])
    correct = prep["equivalent"]
    files = ["--mapping", prep["mapping"], "--data", prep["facts"]]
    exchange = re.compile(r"# (\d+) source facts → (\d+) target facts \(.*, (\d+) nulls\)")
    normalize = re.compile(r"# (\d+) facts → (\d+) facts")
    want = {
        "exchange": (prep["source_facts"], prep["target_facts"], prep["nulls"]),
        "normalize": (prep["source_facts"], prep["normalized_facts"]),
    }
    walls = {"exchange": [], "normalize": []}
    rss = []
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    # Until the deadline, and at least until one `tdx normalize` was tried.
    while time.monotonic() < deadline or attempted <= EXCHANGES_PER_NORMALIZE:
        turn = attempted % (EXCHANGES_PER_NORMALIZE + 1)
        kind = "normalize" if turn == EXCHANGES_PER_NORMALIZE else "exchange"
        code, err, wall, peak = run_process([bins["tdx"], kind] + files, env)
        attempted += 1
        if code != 0:
            failed += 1
            log(f"tdxbench: tdx {kind} exited {code}: {err.strip()[-300:]}")
            continue
        m = (exchange if kind == "exchange" else normalize).search(err)
        got = tuple(int(g) for g in m.groups()) if m else None
        if got != want[kind]:
            log(f"tdxbench: tdx {kind} reported {got}, library reference {want[kind]}")
            correct = False
        walls[kind].append(wall)
        if kind == "exchange":
            rss.append(peak)
    ex = walls["exchange"]
    if not ex or not walls["normalize"]:
        correct = False
    print(f"# samples: op={len(ex)} aux={len(walls['normalize'])}")
    if args.trace:
        metrics = {k: (m["value"], m["unit"]) for k, m in prep["layers"].items()}
        # The process wall not spent in the layers timed in-process.
        metrics["cli.overhead_ms"] = (
            median(ex) * 1e3 - prep["layer_sum_ms"], "ms")
    else:
        metrics = {
            "setup_s": (prep["setup_s"], "s"),
            "op_p50_ms": (median(ex) * 1e3, "ms"),
            "op_p95_ms": (quantile(ex, 0.95) * 1e3, "ms"),
            "aux_p50_ms": (median(walls["normalize"]) * 1e3, "ms"),
            "peak_rss_mb": (median(rss), "MB"),
        }
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def run_stream(args, env, bins):
    """ingest and serve run inside the `tdxbench` binary."""
    out = subprocess.run(
        [bins["tdxbench"], args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", WORK],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    return out.returncode


def repeat(args):
    """Runs the workload on `args.repeat` seeds and prints the spread."""
    values = {}
    units = {}
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            log(f"seed {seed}: exit {out.returncode}")
            return 1
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            log(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
        log(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()))
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{k:34} {units[k]:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    if args.repeat:
        return repeat(args)
    env, target = child_env()
    build(env)
    os.makedirs(WORK, exist_ok=True)
    describe_env(args)
    bins = {b: os.path.join(target, "release", b) for b in ("tdx", "tdxbench")}
    ticks = cpu_ticks()
    run = run_batch if args.workload == "batch" else run_stream
    code = run(args, env, bins)
    report_steal(ticks)
    return code


if __name__ == "__main__":
    sys.exit(main())
