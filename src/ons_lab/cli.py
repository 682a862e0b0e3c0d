"""Command-line front end: named experiment recipes with CSV/JSON output.

Every command writes a header row plus data rows (CSV) or a single object
``{config, rows, summary}`` (JSON).  Numeric CSV cells carry 17
significant digits so values round-trip exactly; repeated runs with the
same configuration produce byte-identical output.

Each command is one entry of ``REGISTRY``: its handler, its column doc,
and the flags it reads with their defaults.  A command accepts only those
flags, plus ``--config``, ``--output`` and ``--format``; any other flag,
or a config-file key it does not read, is a usage error.
``ons-lab <command> --help`` lists them.  ``theorem5`` and ``theorem6`` are
``mn-sweep`` with the system fixed to cosine and Haar; they exit 2 when a
point classifies as growing.

The JSON ``config`` block is ``{"command": ..., <flag>: <value>, ...}``:
every flag the command reads, in the order of its registry entry, with
the value the run used (given or default; ``null`` for an unset optional
flag), after the fixed ``system`` of ``theorem5`` and ``theorem6``.

Exit codes: 0 on success, 1 on a usage error (unknown flag or name,
invalid configuration) with a one-line message, 2 when a command's
invariant check fails (for example a Gram matrix off identity beyond
tolerance).

Flag values override config-file entries, which override the registry
defaults.  Config files are flat ``key=value`` text; keys match flag
names with either dashes or underscores, and a flag that takes several
values takes them separated by spaces.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import analysis, fourier, kernels, systems
from .analysis import ClassificationThresholds
from .errors import InvalidConfig, OnsLabError

#: Systems swept by commands that default to the whole catalog.
CATALOG_SYSTEMS = ("cosine", "haar", "rademacher", "reflect(cosine)",
                   "reflect2(cosine)", "reflect(haar)")


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in str(text).split(",") if p != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}")
    return parse


@dataclass(frozen=True)
class Flag:
    """How a flag is parsed, on the command line and in config files."""

    type: Callable
    help: str
    nargs: Optional[int] = None
    choices: Optional[tuple] = None
    metavar: Optional[tuple] = None


#: Every flag a command can read.
FLAGS = {
    "system": Flag(str, "system name, e.g. cosine, haar, reflect2(cosine)"),
    "function": Flag(str, "catalog function name"),
    "x": Flag(_list_of(float), "comma-separated evaluation points in [0, 1]"),
    "n_max": Flag(int, "largest index in sweeps"),
    "output": Flag(str, "output file path (default stdout)"),
    "format": Flag(str, "output format", choices=("csv", "json")),
    "n": Flag(int, "single index / matrix size"),
    "n_values": Flag(_list_of(int), "comma-separated index list"),
    "points": Flag(int, "grid points for the square-sum scan"),
    "check_tol": Flag(float, "the command's pass/fail tolerance"),
    "halving_tol": Flag(float, "tolerance of the coefficient-halving law"),
    "t": Flag(float, "pairing point in [0, 1]"),
    "grid_size": Flag(int, "grid intervals for the Lipschitz quotient"),
    "base": Flag(str, "base system name"),
    "big_f": Flag(str, "catalog name for the paired factor"),
    "big_f_kernel": Flag(str, "use an antiderivative-kernel section as the "
                              "paired factor", nargs=3,
                         metavar=("SYSTEM", "N", "X")),
    "eq11_upper": Flag(str, "which local-sum variant the summary reports",
                       choices=("n", "n-1")),
    "slope_bounded": Flag(float, "largest log-slope classified bounded"),
    "slope_growing": Flag(float, "smallest log-slope classified growing"),
    "plateau_rise": Flag(float, "largest relative late rise of the running "
                                "maximum classified bounded"),
}


@dataclass
class ExperimentConfig:
    """One experiment run: a command and the value of every flag it reads.

    ``values`` is keyed by flag name (``x``, ``n_max``, ``check_tol``, ...)
    and may leave out any flag of ``REGISTRY[command].reads``: it then
    takes the registry default.  A key the command does not read is an
    error.  A command with a fixed system gets it as ``values["system"]``
    and accepts that value given back, so a config's values can be copied.
    """

    command: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = REGISTRY.get(self.command)
        if entry is None:
            raise InvalidConfig(f"command: unknown command {self.command!r}")
        unread = set(self.values) - set(entry.reads)
        if entry.system and self.values.get("system") == entry.system:
            unread.discard("system")        # the fixed system, given back
        if unread:
            raise InvalidConfig(f"{min(unread)}: not a flag that "
                                f"{self.command} reads")
        fixed = {} if entry.system is None else {"system": entry.system}
        self.values = values = {**fixed, **entry.reads, **self.values}
        if values["format"] not in ("csv", "json"):
            raise InvalidConfig(f"format: must be csv or json, got "
                                f"{values['format']!r}")
        if "x" in values and not values["x"]:
            raise InvalidConfig("x: needs at least one point")
        for x in values.get("x", ()):
            if not 0.0 <= float(x) <= 1.0:
                raise InvalidConfig(f"x: value {x} outside [0, 1]")
        if "n_values" in values and not values["n_values"]:
            raise InvalidConfig("n_values: needs at least one index")
        sizes = [(k, values[k]) for k in ("n", "n_max") if k in values]
        sizes += [("n_values", n) for n in values.get("n_values", ())]
        for key, n in sizes:
            if n < 1:
                raise InvalidConfig(f"{key}: must be >= 1, got {n}")


#: CSV text of a value by its column's numpy dtype kind: true/false,
#: floats to 17 significant digits, anything else str.
_CELL = {"b": lambda v: "true" if v else "false", "f": "%.17g".__mod__}
#: Rows formatted at a time: whole columns would hold the text of every
#: cell next to the output buffer (4 MB more peak RSS on a 16k-row sweep).
_CSV_BLOCK = 256


def _render(config: ExperimentConfig, header, rows, summary) -> str:
    if config.values["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        rows = iter(rows)
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            columns = map(np.asarray, zip(*block))
            writer.writerows(zip(*(map(_CELL.get(c.dtype.kind, str),
                                       c.tolist()) for c in columns)))
        return buf.getvalue()
    payload = {
        "config": {"command": config.command, **config.values},
        "rows": [dict(zip(header, row)) for row in rows],
        "summary": summary,
    }
    # numpy scalars that are not Python numbers already become their item()
    return json.dumps(payload, indent=2, default=np.generic.item) + "\n"


def _emit(config: ExperimentConfig, header, rows, summary) -> None:
    text = _render(config, header, rows, summary)
    output = config.values["output"]
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidConfig(f"output: {exc}") from None
    else:
        sys.stdout.write(text)


def _thresholds(config: ExperimentConfig) -> ClassificationThresholds:
    return ClassificationThresholds(
        **{k: config.values[k] for k in _THRESHOLDS})


def _report_summary(report) -> dict:
    return {
        "classification": report.classification,
        "bound_estimate": report.bound_estimate,
        "slope_log": report.slope_log,
    }


def _sweep_rows(reports):
    """Rows ``(x, n, value, running_max)`` and summary of (x, report) pairs."""
    rows, per_x = [], []
    for x, rep in reports:
        rows.extend((float(x), i, v, m) for i, v, m
                    in zip(rep.indices, rep.values, rep.running_max))
        per_x.append({"x": float(x), **_report_summary(rep)})
    return rows, {"reports": per_x}


def _require_cl(spec):
    if spec.class_tag != "CL" or spec.deriv is None:
        raise InvalidConfig(
            f"function: {spec.name!r} must have a Lipschitz derivative "
            f"(class_tag='CL') for this command")
    return spec


# ---------------------------------------------------------------------------
# command handlers: each returns (rows, summary, exit_code)
# ---------------------------------------------------------------------------

def _run_gram(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    n = config.values["n"]
    tol = config.values["check_tol"]
    if tol is None:
        tol = _GRAM_TOL[system.piecewise_constant]
    matrix = systems.gram_matrix(system, n)
    err = float(np.abs(matrix - np.eye(n)).max())
    # rows made as they are written: n^2 tuples outweigh the matrix
    rows = ((j, k, v) for j, row in enumerate(matrix, start=1)
            for k, v in enumerate(row.tolist(), start=1))
    summary = {"system": system.name, "n": n, "max_abs_error": err,
               "tolerance": tol, "pass": err <= tol}
    return rows, summary, (0 if err <= tol else 2)


def _run_bessel(config: ExperimentConfig):
    names = (CATALOG_SYSTEMS if config.values["system"] == "all"
             else (config.values["system"],))
    points = config.values["points"]
    if points < 1:
        raise InvalidConfig(f"points: the square-sum scan needs points >= 1, "
                            f"got {points}")
    tol, n_max = config.values["check_tol"], config.values["n_max"]
    us = np.linspace(0.0, 1.0, points)
    rows, worst = [], -np.inf
    for name in names:
        system = systems.get_system(name)
        sums = kernels.antiderivative_square_sum(system, n_max, us)
        worst = max(worst, float(sums.max()))
        rows.extend((name, float(u), float(s)) for u, s in zip(us, sums))
    ok = worst <= 1.0 + tol
    summary = {"n_max": n_max, "max_square_sum": worst,
               "bound": 1.0 + tol, "pass": ok}
    return rows, summary, (0 if ok else 2)


def _run_lemma1(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    th = _thresholds(config)
    rows, summary = _sweep_rows(
        (x, analysis.square_sum_ratio(system, x, config.values["n_max"], th))
        for x in config.values["x"])
    return rows, summary, 0


def _run_lemma3(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    tol = config.values["check_tol"]
    contexts = [kernels.KernelContext(system, n)
                for n in config.values["n_values"]]
    for ctx in contexts:
        ctx.rule            # an index the rule cannot be built for fails now
    rows, worst = [], -np.inf
    for ctx in contexts:
        n = ctx.n
        for x in config.values["x"]:
            phi = systems.system_values(system, n, x)
            rhs = float(np.sqrt((phi ** 2).sum()) / n)
            for i in range(1, n + 1):
                lhs = kernels.cell_abs_integral(ctx, i, x).value
                worst = max(worst, lhs - rhs)
                rows.append((n, float(x), i, lhs, rhs))
    ok = worst <= tol
    summary = {"worst_slack": worst, "tolerance": tol, "pass": ok}
    return rows, summary, (0 if ok else 2)


def _run_lemma4(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    f = _require_cl(systems.get_function(config.values["function"]))
    n = config.values["n"]
    tol = config.values["check_tol"]
    table = fourier.coefficients(system, f, n)
    ctx = kernels.KernelContext(system, n)
    rows, worst = [], 0.0
    for x in config.values["x"]:
        split = fourier.partial_sum_by_parts(ctx, f, x, table=table)
        worst = max(worst, abs(split.residual))
        rows.append((float(x), split.partial_sum, split.boundary_term,
                     split.derivative_term, split.residual))
    ok = worst <= tol
    summary = {"system": system.name, "function": f.name, "n": n,
               "max_abs_residual": worst, "tolerance": tol, "pass": ok}
    return rows, summary, (0 if ok else 2)


def _run_eq11(config: ExperimentConfig):
    f = systems.get_function(config.values["function"])
    if f.deriv is None:
        raise InvalidConfig(f"function: {f.name!r} has no derivative")
    kernel_spec = config.values["big_f_kernel"]
    if kernel_spec is not None:
        sys_name, k_n, k_x = kernel_spec
        try:
            k_n, k_x = int(k_n), float(k_x)
        except ValueError:
            raise InvalidConfig(f"big_f_kernel: N must be an integer and X a "
                                f"number, got {k_n!r} {k_x!r}") from None
        big_f = fourier.kernel_section(systems.get_system(sys_name), k_n, k_x)
        big_f_name = f"kernel[{sys_name}, n={k_n}, x={k_x:g}]"
    else:
        spec = systems.get_function(config.values["big_f"])
        big_f, big_f_name = spec, spec.name
    selected = config.values["eq11_upper"]
    rows = []
    worst_sel = 0.0
    for n in config.values["n_values"]:
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
    return rows, summary, 0


def _run_mn_sweep(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    reports = analysis.boundedness_experiment(
        system, config.values["x"], config.values["n_max"],
        _thresholds(config))
    rows, summary = _sweep_rows(reports.items())
    if REGISTRY[config.command].system is None:
        return rows, summary, 0
    # theorem5 and theorem6 claim M_n(x) bounded for their fixed system
    ok = all(rep.classification != "growing" for rep in reports.values())
    return rows, {"system": system.name, **summary}, (0 if ok else 2)


def _run_partial_sums(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    f = systems.get_function(config.values["function"])
    n_max = config.values["n_max"]
    table = fourier.coefficients(system, f, n_max)
    rows = []
    for x in config.values["x"]:
        sums = fourier.partial_sum_sweep(table, x)
        rows.extend((float(x), n, s) for n, s in enumerate(sums, start=1))
    summary = {"system": system.name, "function": f.name, "n_max": n_max}
    return rows, summary, 0


def _run_e_phi(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    f = systems.get_function(config.values["function"])
    n_max = config.values["n_max"]
    table = fourier.coefficients(system, f, n_max)
    th = _thresholds(config)
    rows, summary = _sweep_rows(
        (x, analysis.partial_sum_boundedness(system, f, x, n_max,
                                             table=table, thresholds=th))
        for x in config.values["x"])
    return rows, summary, 0


def _run_theorem2(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    f = _require_cl(systems.get_function(config.values["function"]))
    cases = analysis.boundedness_transfer(
        system, f, config.values["x"], config.values["n_max"],
        _thresholds(config))
    rows = [(c.x,
             c.constant_report.classification,
             c.identity_report.classification,
             c.functional_report.classification,
             c.target_report.classification,
             c.hypothesis_bounded, c.conclusion_bounded, c.consistent)
            for c in cases]
    summary = {"system": system.name, "function": f.name,
               "all_consistent": all(c.consistent for c in cases)}
    return rows, summary, 0


def _run_theorem3_extremal(config: ExperimentConfig):
    system = systems.get_system(config.values["system"])
    t = config.values["t"]
    grid_size = config.values["grid_size"]
    tol = config.values["check_tol"]
    triples, report = analysis.extremal_pairing_sweep(
        system, t, config.values["n_values"], grid_size, _thresholds(config))
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
    return rows, summary, (0 if ok else 2)


def _run_theorem4_moments(config: ExperimentConfig):
    base = systems.get_system(config.values["base"])
    once = systems.compress_reflect(base)
    twice = systems.compress_reflect(once)
    n_top = config.values["n"]
    tol = config.values["check_tol"]
    halving_tol = config.values["halving_tol"]

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
    return rows, summary, (0 if ok else 2)


# ---------------------------------------------------------------------------
# the command registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One command: handler, output columns, and the flags it reads.

    ``flags`` maps each flag the command reads to its default; a ``None``
    default means the flag is unset unless given.  ``system`` fixes the
    system of a command that has no ``--system``.
    """

    handler: Callable
    columns: tuple
    flags: dict
    system: Optional[str] = None
    note: str = ""

    @property
    def doc(self) -> str:
        return f"columns: {', '.join(self.columns)}{self.note}"

    @property
    def reads(self) -> dict:
        """Every flag the command accepts, with its default."""
        return {**self.flags, "output": None, "format": "csv"}


_THRESHOLDS = {k: getattr(ClassificationThresholds, k)
               for k in ("slope_bounded", "slope_growing", "plateau_rise")}
_SWEEP = {"system": "cosine", "x": (0.3,), "n_max": 256, **_THRESHOLDS}
_THEOREM_SWEEP = {"x": (0.0, 0.3, 0.7071067811865476, 1.0), "n_max": 512,
                  **_THRESHOLDS}
_SWEEP_COLUMNS = ("x", "n", "m_n", "running_max")
#: gram's check_tol when none is given, by ``system.piecewise_constant``
_GRAM_TOL = {True: 1e-12, False: 1e-8}

REGISTRY = {
    "gram": Command(_run_gram, ("j", "k", "value"),
                    {"system": "cosine", "n": 8, "check_tol": None},
                    note="; value is the inner product of elements j and k"),
    "bessel": Command(_run_bessel, ("system", "u", "sum_g_sq"),
                      {"system": "all", "n_max": 256, "points": 33,
                       "check_tol": 1e-8}),
    "lemma1": Command(_run_lemma1, ("x", "n", "value", "running_max"), _SWEEP),
    "lemma3": Command(_run_lemma3,
                      ("n", "x", "i", "cell_abs_integral", "bound"),
                      {"system": "cosine", "x": (0.0, 0.3, 0.7071067811865476),
                       "n_values": (4, 16, 64), "check_tol": 1e-8}),
    "lemma4": Command(_run_lemma4, ("x", "partial_sum", "boundary_term",
                                    "derivative_term", "residual"),
                      {"system": "cosine", "function": "half-square",
                       "x": tuple(i / 8 for i in range(9)), "n": 16,
                       "check_tol": 1e-6}),
    "eq11": Command(_run_eq11, ("n", "lhs", "rhs_upper_n",
                                "rhs_upper_n_minus_1", "residual_upper_n",
                                "residual_upper_n_minus_1"),
                    {"function": "half-square", "n_values": (2, 4, 8, 16, 32),
                     "big_f": "one", "big_f_kernel": None,
                     "eq11_upper": "n-1"}),
    "mn-sweep": Command(_run_mn_sweep, _SWEEP_COLUMNS, _SWEEP),
    "partial-sums": Command(_run_partial_sums, ("x", "n", "partial_sum"),
                            {"system": "cosine", "function": "half-square",
                             "x": (0.3,), "n_max": 32}),
    "e-phi": Command(_run_e_phi, ("x", "n", "abs_partial_sum", "running_max"),
                     {**_SWEEP, "function": "half-square"}),
    "theorem2": Command(_run_theorem2, (
        "x", "constant_class", "identity_class", "functional_class",
        "target_class", "hypothesis_bounded", "conclusion_bounded",
        "consistent"), {**_SWEEP, "function": "cos-bump"}),
    "theorem3-extremal": Command(_run_theorem3_extremal, (
        "n", "pairing", "boundary_sum", "local_sum", "tail_term",
        "split_residual", "lipschitz_quotient", "value_at_0"),
        {"system": "cosine", "t": 0.3, "n_values": (4, 8, 16),
         "grid_size": 1024, "check_tol": 1e-5, **_THRESHOLDS}),
    "theorem4-moments": Command(
        _run_theorem4_moments, ("n", "c_q", "c_p"),
        {"base": "cosine", "n": 32, "check_tol": 1e-9, "halving_tol": 1e-8},
        note="; mean and first moment of the twice-reflected system"),
    "theorem5": Command(_run_mn_sweep, _SWEEP_COLUMNS, _THEOREM_SWEEP,
                        system="cosine"),
    "theorem6": Command(_run_mn_sweep, _SWEEP_COLUMNS, _THEOREM_SWEEP,
                        system="haar"),
}

COMMANDS = tuple(REGISTRY)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write its output; return the exit code."""
    entry = REGISTRY[config.command]
    rows, summary, code = entry.handler(config)
    _emit(config, entry.columns, rows, summary)
    return code


# ---------------------------------------------------------------------------
# argument parsing: defaults < config file < explicit flags
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 and one line on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="ons-lab", allow_abbrev=False,
                     description="Numerical experiments on Fourier partial "
                                 "sums over orthonormal systems on [0, 1].")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, entry in REGISTRY.items():
        sub = subs.add_parser(command, help=entry.doc, description=entry.doc,
                              allow_abbrev=False)
        sub.add_argument("--config", type=str, default=argparse.SUPPRESS,
                         help="flat key=value file")
        for key, default in entry.reads.items():
            flag = FLAGS[key]
            sub.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=flag.type,
                nargs=flag.nargs, choices=flag.choices, metavar=flag.metavar,
                default=argparse.SUPPRESS, help=flag.help if default is None
                else f"{flag.help} (default {default})")
    return parser


def _read_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"config: cannot read {path!r}: {exc}") from None
    reads = REGISTRY[command].reads
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config: line {lineno} is not key=value")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in reads:
            raise InvalidConfig(f"config: {command} does not read {key!r}")
        flag = FLAGS[key]
        try:
            value = (tuple(map(flag.type, text.split())) if flag.nargs
                     else flag.type(text.strip()))
        except (ValueError, argparse.ArgumentTypeError):
            value = None
        if (value is None or (flag.nargs and len(value) != flag.nargs)
                or (flag.choices and value not in flag.choices)):
            raise InvalidConfig(f"config: bad value for {key!r}")
        values[key] = value
    return values


def config_from_namespace(ns: argparse.Namespace) -> ExperimentConfig:
    values = (_read_config_file(ns.config, ns.command)
              if getattr(ns, "config", None) else {})
    values.update((k, v) for k, v in vars(ns).items()
                  if k not in ("command", "config"))
    return ExperimentConfig(ns.command, values)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return run(config_from_namespace(ns))
    except OnsLabError as exc:
        print(f"ons-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
