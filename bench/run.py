"""Benchmark of mckaydeform: seeded workloads, one fresh process per pass.

    python3 bench/run.py --workload e6_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The command times the import of the
workload's modules in fresh interpreters (``setup_s``), then runs passes of
the workload, each in a fresh interpreter and one at a time, until
``--seconds`` have passed.  Afterwards, in this process, it checks every
verdict against references that do not use the code under test.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` instead of the end-to-end ones.

Every metric is printed by name and unit, with provenance; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Pass and unit times are reported at a fixed CPU speed.  The virtual CPUs
this benchmark was built on drift by +-20 % over seconds to minutes, so
plain wall times of identical passes spread by 15-20 % between runs.  The
worker times a fixed reference computation every 50 ms of the pass; a time
is multiplied by the mean of REFERENCE_S / (reference duration) over the
samples taken during it.  Over 61 repeated smoke passes the pass time and
the reference time correlated at r = 0.97 and the scaled times spread 3-4x
less (cv 0.04 against 0.14).  The unscaled wall time is printed as
``verdict_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
REFERENCE_S = 0.0006        # reference duration at the speed reported
UNIT_WINDOW_S = 0.25        # samples this close to a unit scale it
WORKER_TIMEOUT_S = 170
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def percentile(samples, q):
    """Nearest-rank q-th percentile, or None with < 10 samples beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def speed(samples, lo, hi):
    """Mean of REFERENCE_S / duration over the samples started in [lo, hi]."""
    factors = [REFERENCE_S / d for t, d in samples if lo <= t <= hi]
    return statistics.fmean(factors) if factors else None


def scale_times(p):
    """Set p["scaled_s"] and each unit's "scaled_ms" from the speed samples."""
    samples = p["speed_samples"]
    whole = speed(samples, 0.0, p["verdict_s"] + UNIT_WINDOW_S)
    p["scaled_s"] = p["verdict_s"] * whole
    for u in p["units"]:
        end = u["start_s"] + u["ms"] / 1000
        f = speed(samples, u["start_s"] - UNIT_WINDOW_S, end + UNIT_WINDOW_S)
        u["scaled_ms"] = u["ms"] * (whole if f is None else f)


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_ENV)
    return env


def run_worker(request):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(request),
        capture_output=True, text=True, cwd=ROOT, env=_env(),
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, probe):
    return {"python": platform.python_version(), "rational_backend":
            probe["qq"], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "blas_threads": THREAD_ENV,
            "git_commit": _git_commit(), "workload": args.workload,
            "workloads": list(workloads.WORKLOADS), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "package": probe["package"]}


def measure(args):
    inputs = workloads.make_inputs(args.workload, args.seed)
    base = {"workload": args.workload}
    # the first import compiles bytecode into the checkout; time the rest
    probe = run_worker({**base, "mode": "import"})
    if not Path(probe["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported {probe['package']}, not this checkout")
    setup = []
    for _ in range(SETUP_REPEATS):
        imp = run_worker({**base, "mode": "import"})
        setup.append(imp["import_s"] * speed(imp["speed_samples"], 0, 0))
    passes = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or len(passes) < (2 if args.trace else 1)):
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        result = run_worker({**base, "mode": "pass", "inputs": inputs,
                             "trace": traced, "pass_id": k})
        result["traced"] = traced
        passes.append(result)
    return inputs, probe, setup, passes


def declared():
    """{name: unit} of the end-to-end and the per-layer metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def evaluate(args, inputs, setup, passes):
    """(result object, report lines, problems found)."""
    end_to_end, per_layer = declared()
    refs = oracle.references(args.workload, inputs, ROOT)
    attempted = failed = 0
    problems = []
    first = [(u["verdict"], u["output"]) for u in passes[0]["units"]]
    for k, p in enumerate(passes):
        bad, global_problems = oracle.score(args.workload, inputs,
                                            p["units"], refs,
                                            p.get("extras"))
        attempted += len(p["units"])
        failed += len(bad)
        problems += [f"pass {k}: {uid}: {why}"
                     for uid, why in sorted(bad.items())]
        problems += global_problems
        if [(u["verdict"], u["output"]) for u in p["units"]] != first:
            problems.append("outputs differ between passes of one input")
    for p in passes:
        scale_times(p)
    plain = [p for p in passes if not p["traced"]]
    times = [u["scaled_ms"] for p in plain for u in p["units"]]
    verdict_s = statistics.median(p["scaled_s"] for p in plain)
    report = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh imports, "
                    "at the reference speed"),
        "verdict_s": (verdict_s, "s", f"median of {len(plain)} passes, "
                      "at the reference speed"),
        "verdict_wall_s": (statistics.median(p["verdict_s"] for p in plain),
                           "s", "the same, unscaled wall time"),
        "item_ms_p50": (percentile(times, 50), "ms", f"n={len(times)}"),
        "item_ms_p90": (percentile(times, 90), "ms", f"n={len(times)}"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain),
                        "MB", "median over passes"),
        "fail_ratio": (failed / attempted, "ratio",
                       f"{failed}/{attempted} units"),
    }
    exact, total = oracle.exact_points(plain[0]["units"])
    if total:
        report["exact_point_ratio"] = (exact / total, "ratio",
                                       f"{exact}/{total} singular points")
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = {"trace.overhead_ratio": statistics.median(
            p["scaled_s"] for p in traced) / verdict_s}
        for name in per_layer:
            if name not in layer:
                layer[name] = statistics.median(
                    p["layers"]["metrics"][name] for p in traced)
        for p in traced:
            problems += [f"traced pass: layer {m} recorded no call"
                         for m in p["layers"]["silent"]]
        metrics = {k: {"value": layer[k], "unit": unit}
                   for k, unit in per_layer.items()}
        lines = [f"  {k:<52} {layer[k]:.6g}" for k in per_layer]
    else:
        if any(report[k][0] is None for k in end_to_end):
            raise BenchError("too few units for the reported percentiles")
        metrics = {k: {"value": report[k][0], "unit": unit}
                   for k, unit in end_to_end.items()}
        lines = []
    lines = [f"  {k:<18} {'n/a' if v is None else format(v, '.6g'):>12} "
             f"{unit:<5} ({note})" for k, (v, unit, note) in report.items()
             ] + lines
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mckaydeform" / "__init__.py").is_file():
        print(f"error: no mckaydeform sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        inputs, probe, setup, passes = measure(args)
        result, lines, problems = evaluate(args, inputs, setup, passes)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args, probe)))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes")
    print("\n".join(lines))
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
