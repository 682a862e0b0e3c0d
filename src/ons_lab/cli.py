"""Command-line front end: named experiment recipes with CSV/JSON output.

Every command writes a header row plus data rows (CSV) or a single object
``{config, rows, summary}`` (JSON).  Numeric CSV cells carry 17
significant digits so values round-trip exactly; repeated runs with the
same configuration produce byte-identical output.

Exit codes: 0 on success, 1 on a usage error (unknown name, invalid
configuration), 2 when a command's invariant check fails (for example a
Gram matrix off identity beyond tolerance).

Flag values override config-file entries, which override built-in
defaults.  Config files are flat ``key=value`` text; keys match flag
names with either dashes or underscores.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, fourier, kernels, systems
from .analysis import ClassificationThresholds
from .errors import InvalidConfig, OnsLabError

COMMANDS = (
    "gram", "bessel", "lemma1", "lemma3", "lemma4", "eq11", "mn-sweep",
    "partial-sums", "e-phi", "theorem2", "theorem3-extremal",
    "theorem4-moments", "theorem5", "theorem6",
)

#: Systems swept by commands that default to the whole catalog.
CATALOG_SYSTEMS = ("cosine", "haar", "rademacher", "reflect(cosine)",
                   "reflect2(cosine)", "reflect(haar)")

_X_GRID_DEFAULT = (0.0, 0.3, 0.7071067811865476, 1.0)
_NINE_POINT_GRID = tuple(i / 8 for i in range(9))


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    command: str
    system: str = "cosine"
    function: Optional[str] = None
    x_points: tuple = (0.3,)
    n_max: int = 256
    tolerances: dict = field(default_factory=dict)
    output: Optional[str] = None
    fmt: str = "csv"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidConfig(f"command: unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise InvalidConfig(f"format: must be csv or json, got {self.fmt!r}")
        if not self.x_points:
            raise InvalidConfig("x_points: needs at least one point")
        for x in self.x_points:
            if not 0.0 <= float(x) <= 1.0:
                raise InvalidConfig(f"x_points: value {x} outside [0, 1]")
        if "n_values" in self.extras and not self.extras["n_values"]:
            raise InvalidConfig("n_values: needs at least one index")
        if self.n_max < 1:
            raise InvalidConfig(f"n_max: must be >= 1, got {self.n_max}")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _render(config: ExperimentConfig, header, rows, summary) -> str:
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
        return buf.getvalue()
    payload = {
        "config": {
            "command": config.command,
            "system": config.system,
            "function": config.function,
            "x_points": list(config.x_points),
            "n_max": config.n_max,
            "tolerances": _jsonable(config.tolerances),
            "output": config.output,
            "format": config.fmt,
            "extras": _jsonable(config.extras),
        },
        "rows": [dict(zip(header, map(_jsonable, row))) for row in rows],
        "summary": _jsonable(summary),
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(config: ExperimentConfig, header, rows, summary) -> None:
    text = _render(config, header, rows, summary)
    if config.output:
        with open(config.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _thresholds(config: ExperimentConfig) -> ClassificationThresholds:
    ex = config.extras
    return ClassificationThresholds(
        slope_bounded=ex.get("slope_bounded", 0.05),
        slope_growing=ex.get("slope_growing", 0.5),
        plateau_rise=ex.get("plateau_rise", 0.01),
    )


def _report_summary(report) -> dict:
    return {
        "classification": report.classification,
        "bound_estimate": report.bound_estimate,
        "slope_log": report.slope_log,
    }


def _require_cl(spec):
    if spec.class_tag != "CL" or spec.deriv is None:
        raise InvalidConfig(
            f"function: {spec.name!r} must have a Lipschitz derivative "
            f"(class_tag='CL') for this command")
    return spec


# ---------------------------------------------------------------------------
# command handlers: each returns (header, rows, summary, exit_code)
# ---------------------------------------------------------------------------

def _run_gram(config: ExperimentConfig):
    system = systems.get_system(config.system)
    n = config.extras.get("n", 8)
    tol = config.tolerances.get("check")
    if tol is None:
        tol = 1e-12 if system.piecewise_constant else 1e-8
    matrix = systems.gram_matrix(system, n)
    err = float(np.abs(matrix - np.eye(n)).max())
    rows = [(j + 1, k + 1, matrix[j, k]) for j in range(n) for k in range(n)]
    summary = {"system": system.name, "n": n, "max_abs_error": err,
               "tolerance": tol, "pass": err <= tol}
    return ("j", "k", "value"), rows, summary, (0 if err <= tol else 2)


def _run_bessel(config: ExperimentConfig):
    names = (CATALOG_SYSTEMS if config.system == "all"
             else (config.system,))
    points = config.extras.get("points", 33)
    if points < 1:
        raise InvalidConfig(f"points: the square-sum scan needs points >= 1, "
                            f"got {points}")
    tol = config.tolerances.get("check", 1e-8)
    us = np.linspace(0.0, 1.0, points)
    rows, worst = [], -np.inf
    for name in names:
        system = systems.get_system(name)
        sums = kernels.antiderivative_square_sum(system, config.n_max, us)
        worst = max(worst, float(sums.max()))
        rows.extend((name, float(u), float(s)) for u, s in zip(us, sums))
    ok = worst <= 1.0 + tol
    summary = {"n_max": config.n_max, "max_square_sum": worst,
               "bound": 1.0 + tol, "pass": ok}
    return ("system", "u", "sum_g_sq"), rows, summary, (0 if ok else 2)


def _run_lemma1(config: ExperimentConfig):
    system = systems.get_system(config.system)
    th = _thresholds(config)
    rows, per_x = [], []
    for x in config.x_points:
        rep = analysis.square_sum_ratio(system, x, config.n_max, th)
        rows.extend((float(x), i, v, m) for i, v, m
                    in zip(rep.indices, rep.values, rep.running_max))
        per_x.append({"x": float(x), **_report_summary(rep)})
    return ("x", "n", "value", "running_max"), rows, {"reports": per_x}, 0


def _run_lemma3(config: ExperimentConfig):
    system = systems.get_system(config.system)
    ns = config.extras.get("n_values", (4, 16, 64))
    tol = config.tolerances.get("check", 1e-8)
    rows, worst = [], -np.inf
    for n in ns:
        ctx = kernels.KernelContext(system, n)
        for x in config.x_points:
            phi = systems.system_values(system, n, x)
            rhs = float(np.sqrt((phi ** 2).sum()) / n)
            for i in range(1, n + 1):
                lhs = kernels.cell_abs_integral(ctx, i, x).value
                worst = max(worst, lhs - rhs)
                rows.append((n, float(x), i, lhs, rhs))
    ok = worst <= tol
    summary = {"worst_slack": worst, "tolerance": tol, "pass": ok}
    return ("n", "x", "i", "cell_abs_integral", "bound"), rows, summary, (
        0 if ok else 2)


def _run_lemma4(config: ExperimentConfig):
    system = systems.get_system(config.system)
    f = _require_cl(systems.get_function(config.function or "half-square"))
    n = config.extras.get("n", 16)
    tol = config.tolerances.get("check", 1e-6)
    table = fourier.coefficients(system, f, n)
    rows, worst = [], 0.0
    for x in config.x_points:
        split = fourier.partial_sum_by_parts(system, f, n, x, table=table)
        worst = max(worst, abs(split.residual))
        rows.append((float(x), split.partial_sum, split.boundary_term,
                     split.derivative_term, split.residual))
    ok = worst <= tol
    summary = {"system": system.name, "function": f.name, "n": n,
               "max_abs_residual": worst, "tolerance": tol, "pass": ok}
    return ("x", "partial_sum", "boundary_term", "derivative_term",
            "residual"), rows, summary, (0 if ok else 2)


def _run_eq11(config: ExperimentConfig):
    f = systems.get_function(config.function or "half-square")
    if f.deriv is None:
        raise InvalidConfig(f"function: {f.name!r} has no derivative")
    kernel_spec = config.extras.get("big_f_kernel")
    if kernel_spec is not None:
        sys_name, k_n, k_x = kernel_spec
        big_f = fourier.kernel_section(systems.get_system(sys_name),
                                       int(k_n), float(k_x))
        big_f_name = f"kernel[{sys_name}, n={int(k_n)}, x={float(k_x):g}]"
    else:
        spec = systems.get_function(config.extras.get("big_f", "one"))
        big_f, big_f_name = spec, spec.name
    ns = config.extras.get("n_values", (2, 4, 8, 16, 32))
    selected = config.extras.get("eq11_upper", "n-1")
    rows = []
    worst_sel = 0.0
    for n in ns:
        full = fourier.summation_identity(f, big_f, n, "n")
        printed = fourier.summation_identity(f, big_f, n, "n-1")
        sel_res = printed.residual if selected == "n-1" else full.residual
        worst_sel = max(worst_sel, abs(sel_res))
        rows.append((n, full.lhs, full.rhs, printed.rhs,
                     full.residual, printed.residual))
    summary = {"function": f.name, "big_f": big_f_name,
               "second_sum_upper": selected,
               "max_abs_residual_selected": worst_sel,
               "note": "the decomposition is exact when the local sum runs "
                       "over all n cells; stopping at n-1 leaves an O(1/n) "
                       "remainder, reported side by side"}
    return ("n", "lhs", "rhs_upper_n", "rhs_upper_n_minus_1",
            "residual_upper_n", "residual_upper_n_minus_1"), rows, summary, 0


def _sweep_rows(reports: dict):
    rows, per_x = [], []
    for x, rep in reports.items():
        rows.extend((float(x), i, v, m) for i, v, m
                    in zip(rep.indices, rep.values, rep.running_max))
        per_x.append({"x": float(x), **_report_summary(rep)})
    return rows, per_x


def _run_mn_sweep(config: ExperimentConfig):
    system = systems.get_system(config.system)
    reports = analysis.boundedness_experiment(system, config.x_points,
                                              config.n_max, _thresholds(config))
    rows, per_x = _sweep_rows(reports)
    return ("x", "n", "m_n", "running_max"), rows, {"reports": per_x}, 0


def _run_partial_sums(config: ExperimentConfig):
    system = systems.get_system(config.system)
    f = systems.get_function(config.function or "half-square")
    table = fourier.coefficients(system, f, config.n_max)
    rows = []
    for x in config.x_points:
        sums = fourier.partial_sum_sweep(table, x)
        rows.extend((float(x), n, s) for n, s in enumerate(sums, start=1))
    summary = {"system": system.name, "function": f.name, "n_max": config.n_max}
    return ("x", "n", "partial_sum"), rows, summary, 0


def _run_e_phi(config: ExperimentConfig):
    system = systems.get_system(config.system)
    f = systems.get_function(config.function or "half-square")
    table = fourier.coefficients(system, f, config.n_max)
    th = _thresholds(config)
    rows, per_x = [], []
    for x in config.x_points:
        rep = analysis.partial_sum_boundedness(system, f, x, config.n_max,
                                               table=table, thresholds=th)
        rows.extend((float(x), i, v, m) for i, v, m
                    in zip(rep.indices, rep.values, rep.running_max))
        per_x.append({"x": float(x), **_report_summary(rep)})
    return ("x", "n", "abs_partial_sum", "running_max"), rows, {
        "reports": per_x}, 0


def _run_theorem2(config: ExperimentConfig):
    system = systems.get_system(config.system)
    f = _require_cl(systems.get_function(config.function or "cos-bump"))
    cases = analysis.boundedness_transfer(system, f, config.x_points,
                                          config.n_max, _thresholds(config))
    rows = [(c.x,
             c.constant_report.classification,
             c.identity_report.classification,
             c.functional_report.classification,
             c.target_report.classification,
             c.hypothesis_bounded, c.conclusion_bounded, c.consistent)
            for c in cases]
    summary = {"system": system.name, "function": f.name,
               "all_consistent": all(c.consistent for c in cases)}
    return ("x", "constant_class", "identity_class", "functional_class",
            "target_class", "hypothesis_bounded", "conclusion_bounded",
            "consistent"), rows, summary, 0


def _run_theorem3_extremal(config: ExperimentConfig):
    system = systems.get_system(config.system)
    t = config.extras.get("t", 0.3)
    ns = config.extras.get("n_values", (4, 8, 16))
    grid_size = config.extras.get("grid_size", 1024)
    tol = config.tolerances.get("check", 1e-5)
    triples, report = analysis.extremal_pairing_sweep(
        system, t, ns, grid_size, _thresholds(config))
    rows, worst_split, worst_lip = [], 0.0, 0.0
    for n, f_n, split in triples:
        lip = systems.lipschitz_quotient(f_n.eval, samples=grid_size + 1)
        at_zero = float(np.asarray(f_n.eval(0.0), dtype=float))
        worst_split = max(worst_split, abs(split.residual))
        worst_lip = max(worst_lip, lip)
        rows.append((n, split.direct, split.boundary_sum, split.local_sum,
                     split.tail_term, split.residual, lip, at_zero))
    ok = (worst_split <= tol and worst_lip <= 1.0 + 1.0 / grid_size
          and all(row[-1] == 0.0 for row in rows))
    summary = {"system": system.name, "t": float(t),
               "pairing": _report_summary(report),
               "max_split_residual": worst_split,
               "max_lipschitz_quotient": worst_lip,
               "tolerance": tol, "pass": ok}
    return ("n", "pairing", "boundary_sum", "local_sum", "tail_term",
            "split_residual", "lipschitz_quotient", "value_at_0"), rows, \
        summary, (0 if ok else 2)


def _run_theorem4_moments(config: ExperimentConfig):
    base = systems.get_system(config.extras.get("base", config.system))
    once = systems.compress_reflect(base)
    twice = systems.compress_reflect(once)
    n_top = config.extras.get("n", 32)
    tol = config.tolerances.get("check", 1e-9)
    halving_tol = config.tolerances.get("halving", 1e-8)

    one = systems.get_function("one")
    ident = systems.get_function("id")
    q_once = fourier.coefficients(once, one, n_top).coeffs
    q_twice = fourier.coefficients(twice, one, n_top).coeffs
    p_twice = fourier.coefficients(twice, ident, n_top).coeffs
    halved = fourier.coefficients(once, systems.get_function("g-compressed"),
                                  n_top).coeffs
    doubled_down = fourier.coefficients(
        twice, systems.get_function("h-compressed"), n_top).coeffs
    halving_residual = float(np.abs(doubled_down - halved / 2.0).max())

    rows = [(n, q_twice[n - 1], p_twice[n - 1]) for n in range(1, n_top + 1)]
    worst_moment = float(max(np.abs(q_once).max(), np.abs(q_twice).max(),
                             np.abs(p_twice).max()))
    ok = worst_moment <= tol and halving_residual <= halving_tol
    summary = {
        "base": base.name, "n": n_top,
        "max_abs_mean_once_reflected": float(np.abs(q_once).max()),
        "max_abs_mean_twice_reflected": float(np.abs(q_twice).max()),
        "max_abs_first_moment_twice_reflected": float(np.abs(p_twice).max()),
        "coefficient_halving_max_residual": halving_residual,
        "tolerance": tol, "halving_tolerance": halving_tol, "pass": ok,
        "note": "means and first moments vanish as constructed; coefficients "
                "of the compressed bump against the twice-reflected system "
                "halve relative to the once-reflected system rather than "
                "vanishing outright",
    }
    return ("n", "c_q", "c_p"), rows, summary, (0 if ok else 2)


def _run_theorem5(config: ExperimentConfig):
    reports = analysis.cosine_boundedness_experiment(
        config.x_points, config.n_max, _thresholds(config))
    rows, per_x = _sweep_rows(reports)
    ok = all(rep.classification != "growing" for rep in reports.values())
    return ("x", "n", "m_n", "running_max"), rows, {
        "system": "cosine", "reports": per_x}, (0 if ok else 2)


def _run_theorem6(config: ExperimentConfig):
    reports = analysis.haar_boundedness_experiment(
        config.x_points, config.n_max, _thresholds(config))
    rows, per_x = _sweep_rows(reports)
    ok = all(rep.classification != "growing" for rep in reports.values())
    return ("x", "n", "m_n", "running_max"), rows, {
        "system": "haar", "reports": per_x}, (0 if ok else 2)


_HANDLERS = {
    "gram": _run_gram,
    "bessel": _run_bessel,
    "lemma1": _run_lemma1,
    "lemma3": _run_lemma3,
    "lemma4": _run_lemma4,
    "eq11": _run_eq11,
    "mn-sweep": _run_mn_sweep,
    "partial-sums": _run_partial_sums,
    "e-phi": _run_e_phi,
    "theorem2": _run_theorem2,
    "theorem3-extremal": _run_theorem3_extremal,
    "theorem4-moments": _run_theorem4_moments,
    "theorem5": _run_theorem5,
    "theorem6": _run_theorem6,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write its output; return the exit code."""
    header, rows, summary, code = _HANDLERS[config.command](config)
    _emit(config, header, rows, summary)
    return code


# ---------------------------------------------------------------------------
# argument parsing: defaults < config file < explicit flags
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_tuple(text: str) -> tuple:
    try:
        return tuple(float(p) for p in str(text).split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: "
                                         f"{text!r}")


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(p) for p in str(text).split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: "
                                         f"{text!r}")


_CONVERTERS = {
    "system": str, "function": str, "x": _float_tuple, "n_max": int,
    "output": str, "format": str, "n": int, "n_values": _int_tuple,
    "points": int, "check_tol": float, "halving_tol": float, "t": float,
    "grid_size": int, "base": str, "big_f": str, "eq11_upper": str,
    "slope_bounded": float, "slope_growing": float, "plateau_rise": float,
}

_COMMON_DEFAULTS = {"system": "cosine", "function": None, "x": (0.3,),
                    "n_max": 256, "output": None, "format": "csv",
                    "check_tol": None, "halving_tol": None,
                    "slope_bounded": 0.05, "slope_growing": 0.5,
                    "plateau_rise": 0.01}

_COMMAND_DEFAULTS = {
    "gram": {"n": 8},
    "bessel": {"system": "all", "points": 33},
    "lemma1": {},
    "lemma3": {"x": (0.0, 0.3, 0.7071067811865476), "n_values": (4, 16, 64)},
    "lemma4": {"function": "half-square", "x": _NINE_POINT_GRID, "n": 16},
    "eq11": {"function": "half-square", "big_f": "one",
             "n_values": (2, 4, 8, 16, 32), "eq11_upper": "n-1"},
    "mn-sweep": {},
    "partial-sums": {"function": "half-square", "n_max": 32},
    "e-phi": {"function": "half-square"},
    "theorem2": {"function": "cos-bump"},
    "theorem3-extremal": {"t": 0.3, "n_values": (4, 8, 16),
                          "grid_size": 1024},
    "theorem4-moments": {"base": "cosine", "n": 32},
    "theorem5": {"x": _X_GRID_DEFAULT, "n_max": 512},
    "theorem6": {"x": _X_GRID_DEFAULT, "n_max": 512},
}

_COLUMN_DOCS = {
    "gram": "columns: j, k, value (inner product of elements j and k)",
    "bessel": "columns: system, u, sum_g_sq",
    "lemma1": "columns: x, n, value, running_max",
    "lemma3": "columns: n, x, i, cell_abs_integral, bound",
    "lemma4": "columns: x, partial_sum, boundary_term, derivative_term, "
              "residual",
    "eq11": "columns: n, lhs, rhs_upper_n, rhs_upper_n_minus_1, "
            "residual_upper_n, residual_upper_n_minus_1",
    "mn-sweep": "columns: x, n, m_n, running_max",
    "partial-sums": "columns: x, n, partial_sum",
    "e-phi": "columns: x, n, abs_partial_sum, running_max",
    "theorem2": "columns: x, constant_class, identity_class, "
                "functional_class, target_class, hypothesis_bounded, "
                "conclusion_bounded, consistent",
    "theorem3-extremal": "columns: n, pairing, boundary_sum, local_sum, "
                         "tail_term, split_residual, lipschitz_quotient, "
                         "value_at_0",
    "theorem4-moments": "columns: n, c_q (mean), c_p (first moment), both "
                        "for the twice-reflected system",
    "theorem5": "columns: x, n, m_n, running_max",
    "theorem6": "columns: x, n, m_n, running_max",
}


def _add_option(sub, flag: str, **kwargs):
    sub.add_argument(flag, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="ons-lab",
                     description="Numerical experiments on Fourier partial "
                                 "sums over orthonormal systems on [0, 1].")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subs.add_parser(command, help=_COLUMN_DOCS[command],
                              description=_COLUMN_DOCS[command])
        _add_option(sub, "--config", type=str, help="flat key=value file")
        _add_option(sub, "--output", type=str, help="output file path")
        _add_option(sub, "--format", choices=("csv", "json"),
                    help="output format (default csv)")
        _add_option(sub, "--system", type=str,
                    help="system name, e.g. cosine, haar, reflect2(cosine)")
        _add_option(sub, "--function", type=str, help="catalog function name")
        _add_option(sub, "--x", type=_float_tuple,
                    help="comma-separated evaluation points in [0, 1]")
        _add_option(sub, "--n-max", dest="n_max", type=int,
                    help="largest index in sweeps")
        _add_option(sub, "--n", type=int, help="single index / matrix size")
        _add_option(sub, "--n-values", dest="n_values", type=_int_tuple,
                    help="comma-separated index list")
        _add_option(sub, "--check-tol", dest="check_tol", type=float,
                    help="override the command's pass/fail tolerance")
        _add_option(sub, "--slope-bounded", dest="slope_bounded", type=float)
        _add_option(sub, "--slope-growing", dest="slope_growing", type=float)
        _add_option(sub, "--plateau-rise", dest="plateau_rise", type=float)
        if command == "bessel":
            _add_option(sub, "--points", type=int,
                        help="grid points for the square-sum scan")
        if command == "eq11":
            _add_option(sub, "--big-f", dest="big_f", type=str,
                        help="catalog name for the paired factor")
            _add_option(sub, "--big-f-kernel", dest="big_f_kernel", nargs=3,
                        metavar=("SYSTEM", "N", "X"),
                        help="use an antiderivative-kernel section as the "
                             "paired factor")
            _add_option(sub, "--eq11-upper", dest="eq11_upper",
                        choices=("n", "n-1"),
                        help="which local-sum variant the summary reports")
        if command == "theorem3-extremal":
            _add_option(sub, "--t", type=float, help="pairing point")
            _add_option(sub, "--grid-size", dest="grid_size", type=int)
        if command == "theorem4-moments":
            _add_option(sub, "--base", type=str, help="base system name")
            _add_option(sub, "--halving-tol", dest="halving_tol", type=float)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"config: line {lineno} is not key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONVERTERS:
                raise InvalidConfig(f"config: unknown key {key!r}")
            try:
                values[key] = _CONVERTERS[key](value.strip())
            except (ValueError, argparse.ArgumentTypeError):
                raise InvalidConfig(f"config: bad value for {key!r}") from None
    return values


def config_from_namespace(ns: argparse.Namespace) -> ExperimentConfig:
    command = ns.command
    explicit = {k: v for k, v in vars(ns).items()
                if k not in ("command", "config")}
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS[command])
    if getattr(ns, "config", None):
        merged.update(_read_config_file(ns.config))
    merged.update(explicit)

    tolerances = {}
    if merged.get("check_tol") is not None:
        tolerances["check"] = merged["check_tol"]
    if merged.get("halving_tol") is not None:
        tolerances["halving"] = merged["halving_tol"]
    extras = {k: merged[k] for k in ("n", "n_values", "points", "t",
                                     "grid_size", "base", "big_f",
                                     "big_f_kernel", "eq11_upper",
                                     "slope_bounded", "slope_growing",
                                     "plateau_rise") if k in merged}
    return ExperimentConfig(
        command=command,
        system=merged.get("system", "cosine"),
        function=merged.get("function"),
        x_points=tuple(merged.get("x", (0.3,))),
        n_max=int(merged.get("n_max", 256)),
        tolerances=tolerances,
        output=merged.get("output"),
        fmt=merged.get("format", "csv"),
        extras=extras,
    )


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_namespace(ns)
        return run(config)
    except OnsLabError as exc:
        print(f"ons-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
