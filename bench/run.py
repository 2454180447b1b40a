"""Benchmark entry point for chaincodes.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  `--trace 0` times the workload and prints the
end-to-end metrics; `--trace 1` makes the separate traced run and prints the
per-layer metrics.  Every metric is printed by name with its unit, the full
result (commit, seed, machine, input properties) goes to
bench/results/, and the last stdout line is one JSON object.  The exit code
is nonzero when any output check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPS = 3
STARTED = time.perf_counter()
DEADLINE_S = 150.0  # no op starts later than this after start; runs must end by 180 s


def prepare():
    """Put the checkout's own src/ first on the path; make a work dir.

    Exits with code 2 when the checkout holds no chaincodes sources, so an
    installed copy elsewhere can never be measured by mistake.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chaincodes", "__init__.py")):
        print(f"error: no chaincodes sources under {src}", file=sys.stderr)
        sys.exit(2)
    for path in (BENCH_DIR, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    import chaincodes

    if not os.path.abspath(chaincodes.__file__).startswith(src + os.sep):
        print(f"error: imported chaincodes from {chaincodes.__file__}", file=sys.stderr)
        sys.exit(2)
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    return tempfile.mkdtemp(dir=work_root)


def cleanup(workdir):
    shutil.rmtree(workdir, ignore_errors=True)


def metadata(args):
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }


def hd_quantile(samples, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  Op
    times cluster by op kind, and a plain order statistic jumps whenever
    the quantile falls between two clusters; these weights move smoothly.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], grid]), cdf)
    return float(np.dot(np.diff(edges), x))


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- set-up ----------------------------------------------------------------------


def setup_in_process(workload, seed):
    """Run an in-process workload's set-up once; returns (state, seconds)."""
    import workloads as wl

    state = wl.IN_PROCESS[workload](seed)
    spent = [0.0]

    def timer(fn):
        t0 = time.perf_counter()
        out = fn()
        spent[0] += time.perf_counter() - t0
        return out

    state.setup(timer)
    return state, spent[0]


def setup_in_child(workload, seed):
    """One set-up repetition in a fresh interpreter, so no cache carries over."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- timed run -------------------------------------------------------------------


def timed_run(args, workdir):
    import checks
    import workloads as wl

    tally = wl.Tally()
    deadline = STARTED + DEADLINE_S
    if args.workload == "cli-cold":
        env = wl.cli_env(ROOT)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.cli_setup(workdir, env)
            setups.append(time.perf_counter() - t0)
        rss = []
        round_ops = wl.cli_round_ops(args.seed, workdir, env, checks.load_digests(), rss, deadline)
        period, state = wl.CLI_PERIOD, None
    else:
        setups = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPS - 1)]
        state, spent = setup_in_process(args.workload, args.seed)
        setups.append(spent)
        round_ops, period = state.round_ops, state.period
        rss = None

    wl.run_rounds(round_ops, args.seconds, tally, deadline, period)
    # after the timed loop, so its cached idempotent systems cannot help set-up
    problems = checks.self_test(workdir)
    for line in problems:
        print(f"self-test: {line}", file=sys.stderr)

    times = tally.times
    peak_kib = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": metric(1e3 * hd_quantile(times, 0.5), "ms"),
        "op_p90_ms": metric(1e3 * hd_quantile(times, 0.9), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
    }
    info = {
        "samples": len(times),
        "error_rate": tally.failed / len(times),
        "setup_runs_s": setups,
        "ops_per_kind": dict(Counter(tally.kinds)),
        "first_failure": tally.first_error,
        "self_test_failures": problems,
        "input_properties": wl.input_properties(args.workload, state),
    }
    correct = tally.failed == 0 and not problems
    ops = [[kind, round(1e3 * t, 3)] for kind, t in zip(tally.kinds, times)]
    return correct, len(times), tally.failed, metrics, info, ops


# -- output ------------------------------------------------------------------------


def report(args, correct, attempted, failed, metrics, info, ops=()):
    """Print every metric by name, write the full result, print the JSON line.

    ops lists [kind, milliseconds] per timed op; it goes to the result file only.
    """
    meta = metadata(args)
    result = dict(meta, correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  info=info, ops_ms=list(ops))
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    m = meta["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {meta['commit']}"
          f"  src {meta['src_sha256'][:12]}")
    print(f"machine nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']}")
    for key, value in info.items():
        if key != "baselines":
            print(f"info {key} = {json.dumps(value, sort_keys=True)}")
    for line in info.get("baselines", []):
        print(f"baseline {line}")
    for name, entry in sorted(metrics.items()):
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"ops attempted {attempted}, failed {failed}; results in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-cold", "codes-build", "codes-query", "enumerate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", type=int, choices=[0, 1], help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = prepare()
    try:
        if args.setup_only:
            _, spent = setup_in_process(args.workload, args.seed)
            print(json.dumps({"setup_s": spent}))
            return 0
        if args.trace_child is not None or args.trace:
            import probes

            if args.trace_child is not None:
                probes.traced_child(args, workdir)
                return 0
            outcome = probes.traced_run(args, workdir)
        else:
            outcome = timed_run(args, workdir)
        report(args, *outcome)
        return 0 if outcome[0] else 1
    finally:
        cleanup(workdir)


if __name__ == "__main__":
    sys.exit(main())
