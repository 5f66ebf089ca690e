"""Benchmark of the odegeom command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every benchmarked workload in turn

Run it from the root of a checkout: the program is imported from `src/`.
The seed makes the odegeom command line and input files (workloads.py).
The load is a closed loop with one client: each report is one `odegeom`
invocation in a fresh interpreter (`report_proc.py`), and the next starts
only when the previous has ended, because users run the tool one-shot and
pay import and every lazy cache on each run.  Reports start while the time
the last one took still fits into --seconds, so a run holds at least one.

With --trace 0 the run reports the end-to-end metrics, importing
`odegeom.cli` alone as often as needed for five set-up samples in all.  With
--trace 1 it alternates untraced and traced reports and reports the
per-layer metrics of the traced ones (spans.py).
Every report is checked against its workload's expected check table; a
missing or extra check name, exit 2, a traceback, or reports of one command
line that are not byte-identical make the run fail (exit 1).  A check whose
status differs from the expected one only lowers checks_ok_ratio.

The last line of standard output is one JSON object with the keys correct,
attempted (reports run), failed (reports that broke the gate) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import METRICS as LAYER_METRICS, aggregate
from workloads import BENCHMARKED, WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SETUP_SAMPLES = 5     # imports alone top up the one in each report
HARD_LIMIT_S = 170.0      # a run must end within 180 s

END_TO_END_UNITS = {
    "report_s": "s",
    "report_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_ok_ratio": "ratio",
}
PER_LAYER_UNITS = dict(
    [(name, "s" if name.endswith("_s") else "count") for name, _, _ in LAYER_METRICS]
    + [("trace.overhead_s", "s"), ("machine.calibration_s", "s")]
)


class BenchError(Exception):
    """The benchmark could not run (no program, a report process died)."""


def calibrate() -> float:
    """Median time of a fixed pure-Python loop.  Recorded with every run to
    show machine drift next to a regression; no metric is rescaled by it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(workdir: str, argv: list, trace: bool, deadline: float) -> dict:
    """One report (or, with an empty argv, one import) in a fresh interpreter."""
    fd, out_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "report_proc.py"), out_path,
           "1" if trace else "0"] + argv
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"report process killed after the run's time limit: {argv}") from None
    if proc.returncode != 0:
        raise BenchError(f"report process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out_path)
    return result


def check_report(res: dict, expected: dict) -> tuple:
    """(gate violations, checks whose status differs from the expected one)."""
    everything = len(expected)
    if res["error"] is not None:
        return [f"cli.run raised:\n{res['error']}"], everything
    if res["exit"] not in (0, 1):
        return [f"exit {res['exit']}: {res['text'][:500]}"], everything
    try:
        rows = json.loads(res["text"])
        got = {row["name"]: row["status"] for row in rows}
    except (ValueError, TypeError, KeyError):
        return [f"report is not a JSON list of checks: {res['text'][:500]}"], everything
    if len(got) != len(rows) or set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return [f"check names differ: missing {missing}, extra {extra}, "
                f"{len(rows) - len(got)} duplicated"], everything
    violations = []
    if (res["exit"] == 0) != all(s == "pass" for s in got.values()):
        violations.append(f"exit {res['exit']} disagrees with the check statuses")
    mismatched = sorted(n for n, s in got.items() if s != expected[n])
    return violations, len(mismatched)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    workload = WORKLOADS[name]
    expected = dict(workload.expected)
    calibration = calibrate()
    argv, files = make_inputs(name, seed)
    for fname, text in files.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    log(f"workload {name} seed {seed} trace {int(trace)}: odegeom {' '.join(argv)}")
    log(f"calibration_s {calibration:.6f} (fixed pure-Python loop; no metric is rescaled)")

    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(run_child(workdir, argv, False, deadline))
        if trace:
            traced.append(run_child(workdir, argv, True, deadline))
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            break

    setup = [r["setup_s"] for r in plain]
    while not trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_child(workdir, [], False, deadline)["setup_s"])

    violations, mismatched, checks = [], 0, 0
    failed = 0
    for i, res in enumerate(plain + traced):
        v, m = check_report(res, expected)
        mismatched += m
        checks += len(expected)
        failed += bool(v)
        violations += [f"report {i + 1}: {msg}" for msg in v]
        log(f"report {i + 1}{' traced' if i >= len(plain) else ''}: exit {res['exit']} "
            f"report_s {res['report_s']:.4f} cpu_s {res['report_cpu_s']:.4f} "
            f"rss_mb {res['peak_rss_mb']:.1f} setup_s {res['setup_s']:.4f} "
            f"status mismatches {m}/{len(expected)}")
    texts = {res["text"] for res in plain + traced}
    if len(texts) > 1:
        violations.append(f"{len(plain) + len(traced)} reports of one command line "
                          f"gave {len(texts)} different JSON texts")
        failed = len(plain) + len(traced)

    if trace:
        layers = [aggregate(res["trace"]) for res in traced]
        metrics = {m: statistics.median(layer[m] for layer in layers) for m, _, _ in LAYER_METRICS}
        metrics["trace.overhead_s"] = (statistics.median(r["report_s"] for r in traced)
                                       - statistics.median(r["report_s"] for r in plain))
        metrics["machine.calibration_s"] = calibration
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "report_s": statistics.median(r["report_s"] for r in plain),
            "report_cpu_s": statistics.median(r["report_cpu_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "checks_ok_ratio": (checks - mismatched) / checks,
        }
        units = END_TO_END_UNITS
        log(f"samples: report_s/report_cpu_s/peak_rss_mb over {len(plain)} reports, "
            f"setup_s over {len(setup)} imports, checks_ok_ratio over {checks} checks")
    for v in violations:
        print(f"GATE {name}: {v}", file=sys.stderr)
    for m, value in metrics.items():
        log(f"  {m:32s} {value:14.6f} {units[m]}")
    return {
        "correct": not violations,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {m: {"value": value, "unit": units[m]} for m, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "odegeom", "cli.py")):
        print(f"error: no odegeom sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    names = list(BENCHMARKED) if args.workload == "all" else [args.workload]
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace), workdir, log)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
        for n, r in results.items():
            log(f"{n}: {json.dumps(r)}")
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
