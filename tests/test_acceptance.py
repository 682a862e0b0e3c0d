"""End-to-end acceptance checks at their stated tolerances.

Each test prints one pass/fail line; run ``pytest -s tests/test_acceptance.py``
to see them.  The final criterion records why the asymptotic divergence
statements stay out of scope and points at the constructive checks that
stand in for them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import ons_lab as ol

X_TRIPLE = (0.0, 0.3, 1.0 / np.sqrt(2.0))
X_QUAD = (0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0)
NINE_POINT_GRID = tuple(i / 8 for i in range(9))
CATALOG = ("cosine", "haar", "rademacher", "reflect(cosine)",
           "reflect2(cosine)", "reflect(haar)")


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_orthonormality_gram():
    started = time.perf_counter()
    worst = {}
    for name in CATALOG:
        system = ol.get_system(name)
        G = ol.gram_matrix(system, 32)
        err = float(np.abs(G - np.eye(32)).max())
        tol = 1e-12 if system.piecewise_constant else 1e-8
        worst[name] = (err, tol)
    elapsed = time.perf_counter() - started
    ok = all(err <= tol for err, tol in worst.values()) and elapsed < 30.0
    peak = max(worst.items(), key=lambda kv: kv[1][0] / kv[1][1])
    _report(1, "orthonormality-gram", ok,
            f"worst {peak[0]} err={peak[1][0]:.2e} tol={peak[1][1]:.0e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_antiderivative_square_sum_bound():
    us = np.linspace(0.0, 1.0, 33)
    worst = -np.inf
    for name in CATALOG:
        sums = ol.antiderivative_square_sum(ol.get_system(name), 256, us)
        worst = max(worst, float(sums.max()))
    ok = worst <= 1.0 + 1e-8
    _report(2, "antiderivative-square-sum", ok,
            f"max sum {worst:.9f} <= 1 + 1e-8")


def test_criterion_03_cell_integral_bound():
    worst_slack = -np.inf
    for name in ("cosine", "haar"):
        system = ol.get_system(name)
        for n in (4, 16, 64):
            ctx = ol.KernelContext(system, n)
            for x in X_TRIPLE:
                phi = ol.system_values(system, n, x)
                bound = float(np.sqrt((phi ** 2).sum()) / n)
                for i in range(1, n + 1):
                    lhs = ol.cell_abs_integral(ctx, i, x).value
                    worst_slack = max(worst_slack, lhs - bound)
    ok = worst_slack <= 1e-8
    _report(3, "cell-integral-bound", ok,
            f"worst lhs-bound = {worst_slack:.2e} <= 1e-8")


def test_criterion_04_by_parts_identity():
    worst = 0.0
    for sys_name in ("cosine", "haar"):
        system = ol.get_system(sys_name)
        for f_name in ("id", "half-square", "cos-bump"):
            f = ol.get_function(f_name)
            table = ol.coefficients(ol.KernelContext(system, 64), f)
            for n in (2, 4, 8, 16, 32, 64):
                ctx = ol.KernelContext(system, n)
                for x in NINE_POINT_GRID:
                    split = ol.partial_sum_by_parts(ctx, table, x)
                    worst = max(worst, abs(split.residual))
    ok = worst < 1e-6
    _report(4, "by-parts-identity", ok, f"max |residual| = {worst:.2e} < 1e-6")


def test_criterion_05_summation_identity():
    kernel_factor = ol.kernel_section(ol.cosine_system(), 8, 0.3)
    factors = [("one", ol.get_function("one")), ("kernel-8-0.3", kernel_factor)]
    worst = 0.0
    for f_name in ("id", "half-square"):
        f = ol.get_function(f_name)
        for _, factor in factors:
            for n in (2, 4, 8, 16, 32):
                res = ol.summation_identity(f, factor, n)
                worst = max(worst, abs(res.residual))
    ok = worst < 1e-6
    _report(5, "summation-identity", ok, f"max |residual| = {worst:.2e} < 1e-6")


def test_criterion_06_cosine_boundedness():
    started = time.perf_counter()
    reports = ol.boundedness_experiment(ol.cosine_system(), X_QUAD, 512)
    elapsed = time.perf_counter() - started
    classes = {x: rep.classification for x, rep in reports.items()}
    all_bounded = all(c == "bounded" for c in classes.values())

    # shape of the bound: values never exceed C * sqrt(sum k^-2) with C
    # fitted on the warmup range n <= 16 (5% headroom; the ratio is still
    # converging upward at n = 16 for the endpoint evaluation points)
    shape_ok = True
    ns = np.arange(2, 513)
    shape = ol.inverse_square_root_sum(ns)
    for rep in reports.values():
        values = np.asarray(rep.values)
        ratios = values / shape
        fitted = 1.05 * ratios[ns <= 16].max()
        shape_ok = shape_ok and bool(np.all(values <= fitted * shape))
    ok = all_bounded and shape_ok and elapsed < 120.0
    _report(6, "cosine-boundedness", ok,
            f"classes={sorted(set(classes.values()))}, shape_ok={shape_ok}, "
            f"{elapsed:.1f}s < 120s")


def test_criterion_07_haar_boundedness():
    reports = ol.boundedness_experiment(ol.haar_system(), X_QUAD, 512)
    classes = {x: rep.classification for x, rep in reports.items()}
    ok = all(c == "bounded" for c in classes.values())
    _report(7, "haar-boundedness", ok, f"classes={sorted(set(classes.values()))}")


def test_criterion_08_vanishing_moment_construction():
    once = ol.KernelContext(ol.get_system("reflect(cosine)"), 64)
    twice = ol.KernelContext(ol.get_system("reflect2(cosine)"), 64)
    one = ol.get_function("one")
    ident = ol.get_function("id")
    mean_once = np.abs(ol.coefficients(once, one).coeffs).max()
    mean_twice = np.abs(ol.coefficients(twice, one).coeffs).max()
    moment_twice = np.abs(ol.coefficients(twice, ident).coeffs).max()
    moments_ok = max(mean_once, mean_twice, moment_twice) < 1e-9

    halved = ol.coefficients(once, ol.get_function("g-compressed")).coeffs
    nested = ol.coefficients(twice, ol.get_function("h-compressed")).coeffs
    halving_err = float(np.abs(nested - halved / 2.0).max())
    ok = moments_ok and halving_err < 1e-8
    _report(8, "vanishing-moment-construction", ok,
            f"max moment {max(mean_once, mean_twice, moment_twice):.2e} < 1e-9, "
            f"halving residual {halving_err:.2e} < 1e-8")


def test_criterion_09_extremal_lipschitz_pairing():
    grid_size = 1024
    worst_split, worst_lip, zero_ok = 0.0, 0.0, True
    for n in (4, 8, 16):
        ctx = ol.KernelContext(ol.cosine_system(), n)
        f_n = ol.extremal_lipschitz(ctx, 0.3, grid_size)
        zero_ok = zero_ok and float(np.asarray(f_n.eval(0.0))) == 0.0
        worst_lip = max(worst_lip,
                        ol.lipschitz_quotient(f_n.eval, grid_size + 1))
        split = ol.pairing_split(ctx, f_n, 0.3)
        worst_split = max(worst_split, abs(split.residual))
    ok = zero_ok and worst_lip <= 1.0 + 1.0 / grid_size and worst_split < 1e-5
    _report(9, "extremal-lipschitz-pairing", ok,
            f"f(0)=0 exact: {zero_ok}, lip {worst_lip:.6f} <= 1+1/{grid_size}, "
            f"split residual {worst_split:.2e} < 1e-5")


def test_criterion_10_incremental_vs_naive_functional():
    cases = []
    for sys_name in ("cosine", "haar"):
        for n in (4, 8, 16, 32):
            for x in (0.3, 1.0 / np.sqrt(2.0)):
                cases.append((sys_name, n, x))
    for n in (4, 8):
        for x in (0.3, 1.0 / np.sqrt(2.0)):
            cases.append(("reflect(cosine)", n, x))
    assert len(cases) == 20
    worst = 0.0
    for sys_name, n, x in cases:
        ctx = ol.KernelContext(ol.get_system(sys_name), n)
        fast = ol.boundedness_functional(ctx, x)
        slow = ol.boundedness_functional_naive(ctx, x)
        worst = max(worst, abs(fast - slow))
    ok = worst < 1e-9
    _report(10, "incremental-vs-naive-functional", ok,
            f"20 cases, max |diff| = {worst:.2e} < 1e-9")


def test_criterion_11_asymptotic_scope_note():
    note = ("Divergence statements of the form limsup |S_n| = infinity over "
            "systems produced by non-constructive existence arguments are "
            "not reproducible at desk scale; this laboratory covers them "
            "only through the constructive checks: the vanishing-moment "
            "construction (criterion 8) and the extremal Lipschitz pairing "
            "(criterion 9).")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = ("Scope and limitations" in text
          and "not reproducible at desk scale" in text)
    print(f"note: {note}")
    _report(11, "asymptotic-scope-note", ok,
            "README carries the scope-and-limitations note")
