"""Benchmark of the ons-lab CLI recipes, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's commands run through ``ons_lab.cli.main`` in a fresh
process per pass (``child.py``), with the environment this program was
started with, minus ``ONS_LAB_THREADS`` and ``MALLOC_*``, which would
change the measured configuration.  Passes repeat for about ``--seconds``
(at least three untraced ones).  ``--seed`` draws the interior ``--x`` points of every
``mn-sweep`` (0 and 1 are always included) and the rows the oracle checks.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median
set-up time over several bare imports, median pass wall time, M_n(x)
values per second, and median peak RSS of the pass processes.
``--trace 1`` alternates untraced and traced passes (``spans.py`` wraps
the library from outside) and reports the per-layer metrics of
BENCHMARK.json.

Every pass must exit 0 on every command with byte-identical output across
passes; sampled ``mn-sweep`` rows are compared with ``oracle.py``.  A
command that misses either check counts as failed.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when
the checkout holds no ``src/ons_lab``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Bare ``import ons_lab.cli`` processes timed before each untraced pass
#: for ``setup_s``; spreading them over the run keeps a short burst of
#: machine noise from moving the median.
SETUPS_PER_PASS = 2
#: Untraced passes per run even when they overrun ``--seconds``.
MIN_PASSES = 3
#: Every child is killed once the run has lasted this long (the limit
#: for a whole run is 180 s).
DEADLINE_S = 165.0
#: A sampled row passes when |sweep - oracle| <= REL_TOL * |oracle| + ABS_TOL.
#: Some M_n(x) are zero in exact arithmetic (haar at n = 2, for one) and
#: come out as roundoff near 1e-18 on both paths; ABS_TOL covers those, and
#: they are left out of the reported relative error.
REL_TOL = 1e-9
ABS_TOL = 1e-15

# Predicted effect of each per-layer metric: which end-to-end metric it
# should move, on which workload.  Printed beside the value in traced runs.
PREDICTIONS = {
    "systems.eval_matrix": "wall_s, mn_evals_per_s on cosine-sweep; "
                           "peak_rss_mb on recipes",
    "systems.self_s": "wall_s, mn_evals_per_s on cosine-sweep",
    "systems.recommended_rule": "wall_s on haar-sweep; small on cosine-sweep",
    "kernels.KernelContext": "wall_s on haar-sweep; small on cosine-sweep",
    "kernels.self_s": "wall_s on haar-sweep; mesh-path share of recipes",
    "kernels.g_values": "wall_s on haar-sweep; mesh-path share of recipes",
    "proc.": "wall_s on haar-sweep; mesh-path share of recipes",
    "kernels.prefix_table": "wall_s on cosine-sweep (reuse 15/16 there)",
    "kernels.boundedness_functional": "wall_s on both sweeps and recipes",
    "kernels.antiderivative_kernel": "wall_s on recipes",
    "kernels.cell_abs_integral": "wall_s on recipes (lemma3)",
    "quadrature.": "wall_s on recipes; zero on both sweeps",
    "fourier.": "wall_s, peak_rss_mb on recipes",
    "analysis.growth_report": "control: negligible on every workload",
    "analysis.boundedness_values": "wall_s on both sweeps and recipes",
    "analysis.": "wall_s on recipes",
    "cli.": "setup_s, wall_s on recipes (parsing, CSV/JSON rendering)",
    "check.": "none: correctness evidence behind fail_ratio",
    "trace_overhead_s": "none: traced minus untraced wall_s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Sweep:
    """One ``mn-sweep`` command and how many of its rows the oracle checks."""

    system: str
    n_max: int
    xs: list
    oracle_n_max: int       # rows with n above this are too slow for the oracle
    samples: int

    @property
    def argv(self) -> list:
        return ["mn-sweep", "--system", self.system, "--n-max", str(self.n_max),
                "--x", ",".join(f"{x:.17g}" for x in self.xs)]

    @property
    def values(self) -> int:
        return (self.n_max - 1) * len(self.xs)


@dataclass
class Workload:
    commands: list
    sweeps: list = field(default_factory=list)

    @property
    def sweep_only(self) -> bool:
        return len(self.commands) == len(self.sweeps)


def _points(rng: random.Random, interior: int, lo: float, hi: float) -> list:
    """0, one point drawn in each of ``interior`` equal bins of (lo, hi), 1."""
    width = (hi - lo) / interior
    return [0.0, *(round(lo + (j + rng.uniform(0.001, 0.999)) * width, 6)
                   for j in range(interior)), 1.0]


def cosine_sweep(rng):
    sweep = Sweep("cosine", 1024, _points(rng, 14, 0.0, 1.0), 1024, 24)
    return Workload([sweep.argv], [sweep])


# Haar sweep cost grows with the number of distinct elements that are
# nonzero at the points: two points in the same dyadic interval of length
# 2^-s share the level-s element.  With 0, 1 and one point in each of
# (1/4, 1/2) and (1/2, 3/4), every seed shares exactly the same elements,
# so the per-point work is the same for every seed.
HAAR_BINS = (0.25, 0.75)


def haar_sweep(rng):
    sweep = Sweep("haar", 512, _points(rng, 2, *HAAR_BINS), 64, 6)
    return Workload([sweep.argv], [sweep])


def recipes(rng):
    # e-phi on haar stays at n_max 512: at 1024 the coefficients and
    # eval_matrix temporaries (n^2 growth) peak at 6.1 GB RSS, which risks
    # an OOM kill on an 8 GB machine; 512 still sets the 1.6 GB peak.
    fixed = [
        ["lemma3", "--system", "haar"], ["lemma3", "--system", "cosine"],
        ["theorem3-extremal", "--system", "haar"],
        ["theorem3-extremal", "--system", "cosine"],
        ["eq11"],
        ["lemma4", "--system", "haar"], ["lemma4", "--system", "cosine"],
        ["theorem4-moments", "--base", "cosine"],
        ["theorem4-moments", "--base", "haar"],
        ["gram", "--system", "reflect(haar)", "--n", "64"],
        ["gram", "--system", "reflect2(cosine)", "--n", "64"],
        ["bessel"],
        ["e-phi", "--system", "haar", "--n-max", "512"],
        ["theorem2", "--system", "cosine"], ["theorem2", "--system", "haar"],
    ]
    sweeps = [Sweep("reflect(haar)", 128, _points(rng, 2, *HAAR_BINS), 48, 3),
              Sweep("rademacher", 16, _points(rng, 2, 0.0, 1.0), 12, 3)]
    return Workload(fixed + [s.argv for s in sweeps], sweeps)


WORKLOADS = {"cosine-sweep": cosine_sweep, "haar-sweep": haar_sweep,
             "recipes": recipes}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    setup_s: float
    report: dict            # child.py's JSON; empty for setup children
    rusage: object


class Runner:
    """Starts each child fresh, times it, and reaps it with its rusage."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if k != "ONS_LAB_THREADS" and not k.startswith("MALLOC_")}
        self.scrubbed = sorted(set(os.environ) - set(self.env))

    def spawn(self, mode: str, commands=None) -> Child:
        remaining = self.started + DEADLINE_S - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC), mode],
            stdin=subprocess.DEVNULL if commands is None else subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=self.env)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            if commands is not None:
                proc.stdin.write(json.dumps(commands).encode())
                proc.stdin.close()
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        if ready != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"child.py {mode} exited {proc.returncode} "
                             f"(first line {ready[:80]!r})")
        return Child(setup, json.loads(rest) if rest.strip() else {}, rusage)

    def oracle(self, rows: list) -> list:
        proc = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), str(SRC)],
            input=json.dumps(rows).encode(), stdout=subprocess.PIPE,
            cwd=ROOT, env=self.env, check=True,
            timeout=max(1.0, self.started + DEADLINE_S - time.perf_counter()))
        return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def parse_sweep(sweep: Sweep, text: str) -> list:
    """Rows ``(x, n, m_n)`` of one sweep's CSV, after structural checks."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["x", "n", "m_n", "running_max"]:
        raise ValueError("unexpected header")
    rows = [(float(x), int(n), float(m), float(r)) for x, n, m, r in reader]
    expected = [(x, n) for x in sweep.xs for n in range(2, sweep.n_max + 1)]
    if [(x, n) for x, n, _, _ in rows] != expected:
        raise ValueError("rows do not cover every (x, n) in order")
    peak = {}
    for x, n, m, r in rows:
        peak[x] = max(peak.get(x, m), m)
        if not (math.isfinite(m) and m >= 0.0 and r == peak[x]):
            raise ValueError(f"bad row at x={x}, n={n}")
    return [(x, n, m) for x, n, m, _ in rows]


def check_sweeps(runner: Runner, work: Workload, first: dict,
                 rng: random.Random):
    """Oracle comparison of sampled rows; returns (missed argv, rows, max err)."""
    outputs = {tuple(c["argv"]): c["output"] for c in first["commands"]}
    missed, plan = set(), []
    for sweep in work.sweeps:
        try:
            rows = parse_sweep(sweep, outputs[tuple(sweep.argv)])
        except (ValueError, TypeError) as exc:
            print(f"# check: {sweep.system} sweep malformed: {exc}")
            missed.add(tuple(sweep.argv))
            continue
        eligible = [r for r in rows if r[1] <= sweep.oracle_n_max]
        for x, n, m in rng.sample(eligible, sweep.samples):
            plan.append((sweep, {"system": sweep.system, "n": n, "x": x}, m))
    refs = runner.oracle([row for _, row, _ in plan]) if plan else []
    worst = 0.0
    for (sweep, row, got), ref in zip(plan, refs):
        if abs(ref) > ABS_TOL:
            worst = max(worst, abs(got - ref) / abs(ref))
        if not abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL:
            print(f"# check: miss {row}: sweep {got!r}, oracle {ref!r}")
            missed.add(tuple(sweep.argv))
    return missed, len(plan), worst


def failed_commands(children: list, reference: dict, missed: set,
                    traced: bool) -> int:
    """Commands that exited non-zero, changed output, or missed the oracle."""
    ref = {tuple(c["argv"]): c["sha256"] for c in reference["commands"]}
    failed = 0
    for child in children:
        wrappers_ok = (child.report["wrappers"] > 0) == traced
        if not wrappers_ok:
            print(f"# check: {child.report['wrappers']} span wrappers "
                  f"installed in a {'traced' if traced else 'untraced'} pass")
        for c in child.report["commands"]:
            key = tuple(c["argv"])
            ok = (c["code"] == 0 and c["sha256"] == ref[key]
                  and key not in missed and wrappers_ok)
            if not ok:
                print(f"# check: failed {' '.join(key)} (exit {c['code']}) "
                      f"{c['stderr'][-300:]!r}")
            failed += not ok
    return failed


def self_checks(work: Workload, spans: dict) -> list:
    """Exact span counts that prove the wrappers saw every call."""
    if not work.sweep_only:
        return []
    checks = [
        ("kernels.boundedness_functional.calls",
         sum(s.values for s in work.sweeps)),
        ("kernels.KernelContext.calls", sum(s.n_max - 1 for s in work.sweeps)),
        ("quadrature.integrate.calls", 0),
    ]
    results = []
    for name, want in checks:
        got = spans.get(name)
        results.append(got == want)
        print(f"# self-check {name} = {got} (want {want}): "
              f"{'ok' if got == want else 'MISS'}")
    return results


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary_line(name: str, unit: str, values: list) -> str:
    """Median, quartiles, count and the highest percentile with at least
    ten samples beyond it (only once that percentile reaches the median)."""
    q1, q3 = quartiles(values)
    line = (f"{name:<16} {statistics.median(values):.6g} {unit}  "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")
    n = len(values)
    if n >= 20:
        line += f", p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}"
    return line + ")"


def environment(runner: Runner, versions: dict) -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    mem_kb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024
    return (f"# env: python {versions['python']} numpy {versions['numpy']} "
            f"scipy {versions['scipy']} ons_lab {versions['ons_lab']} "
            f"nproc {os.cpu_count()} cpu {model!r} mem_total_kb {mem_kb} "
            f"scrubbed {runner.scrubbed or 'none'}")


def predicted(name: str) -> str:
    key = max((k for k in PREDICTIONS if name.startswith(k)), key=len,
              default=None)
    return PREDICTIONS.get(key, "")


def layer_metrics(report: dict) -> dict:
    """Span totals under the per-layer names BENCHMARK.json uses."""
    out = dict(report)
    out["kernels.KernelContext.count"] = report["kernels.KernelContext.calls"]
    out["kernels.KernelContext.init_s"] = report["kernels.KernelContext.s"]
    calls = report["kernels.prefix_table.calls"]
    out["kernels.prefix_table.reuse_ratio"] = (
        report["kernels.prefix_table.hits"] / calls if calls else 0.0)
    return out


def run(args, spec: dict) -> dict:
    rng = random.Random(args.seed)
    work = WORKLOADS[args.workload](rng)
    runner = Runner()
    trace = args.trace == 1

    setups, plain, traced, rounds = [], [], [], []
    if not trace:
        runner.spawn("setup")       # warm the page cache, untimed
    start = time.perf_counter()
    # Start another round while it is expected to end no more than half a
    # round past --seconds.
    while (len(plain) < (1 if trace else MIN_PASSES)
           or time.perf_counter() - start + statistics.median(rounds) / 2
           <= args.seconds):
        t0 = time.perf_counter()
        if trace:
            traced.append(runner.spawn("trace", work.commands))
        else:
            setups += [runner.spawn("setup").setup_s
                       for _ in range(SETUPS_PER_PASS)]
        plain.append(runner.spawn("pass", work.commands))
        rounds.append(time.perf_counter() - t0)
    setups += [c.setup_s for c in plain]

    first = plain[0].report
    missed, checked, worst = check_sweeps(runner, work, first, rng)
    failed = failed_commands(plain, first, missed, False)
    failed += failed_commands(traced, first, missed, True)
    attempted = len(work.commands) * (len(plain) + len(traced))
    checks = []
    if trace:
        checks = self_checks(work, traced[0].report["spans"])
        attempted += len(checks)
        failed += checks.count(False)

    print(environment(runner, first["versions"]))
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of {len(work.commands)} commands, "
          f"{len(setups)} set-ups")
    walls = [c.report["wall_s"] for c in plain]
    values = {
        "setup_s": setups,
        "wall_s": walls,
        "mn_evals_per_s": [sum(s.values for s in work.sweeps) / w
                           for w in walls],
        "peak_rss_mb": [c.rusage.ru_maxrss / 1024 for c in plain],
    }
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            print(summary_line(m["name"], m["unit"], values[m["name"]]))
            metrics[m["name"]] = statistics.median(values[m["name"]])
    else:
        samples = [layer_metrics(c.report["spans"]) for c in traced]
        layer = {k: statistics.median(s[k] for s in samples)
                 for k in samples[0]}
        layer["proc.minflt"] = statistics.median(
            c.rusage.ru_minflt for c in plain)
        layer["proc.user_s"] = statistics.median(
            c.rusage.ru_utime for c in plain)
        layer["proc.sys_s"] = statistics.median(
            c.rusage.ru_stime for c in plain)
        layer["check.rows"] = checked
        layer["check.max_rel_err"] = worst
        layer["trace_overhead_s"] = statistics.median(
            c.report["wall_s"] for c in traced) - statistics.median(walls)
        for m in spec["per_layer"]:
            if m["name"] not in layer:
                raise BenchError(f"per-layer metric {m['name']} is not measured")
            metrics[m["name"]] = layer[m["name"]]
            print(f"{m['name']:<40} {layer[m['name']]:<14.6g} {m['unit']:<6} "
                  f"-> {predicted(m['name'])}")
    print(f"fail_ratio       {failed / attempted:.6g}  "
          f"({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ons_lab" / "cli.py").is_file():
        print(f"perfbench: no ons_lab sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        result = run(args, spec)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
