import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ons_lab import (
    InvalidInterval,
    NonFiniteIntegrand,
    QuadratureRule,
    cell_mesh,
    cumulative_integral,
    get_system,
    integrate,
    integrate_abs,
    recommended_rule,
)
from ons_lab.quadrature import _SAMPLE_BLOCK, _refine_zeros


def haar_x2(u):
    u = np.asarray(u, dtype=float)
    return np.where(u < 0.5, 1.0, -1.0)


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda u: np.ones_like(u), QuadratureRule())
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.est_error < 1e-14
        assert res.panels_used >= 1

    def test_full_period_cosine(self):
        res = integrate(lambda u: np.sqrt(2.0) * np.cos(2 * np.pi * u),
                        QuadratureRule(panels=8))
        assert abs(res.value) < 1e-14

    def test_step_weighted_identity(self):
        # int_0^1 u * X_2(u) du = 1/8 - 3/8 = -1/4 with the jump declared
        rule = QuadratureRule(breakpoints=(0.5,))
        res = integrate(lambda u: u * haar_x2(u), rule)
        assert res.value == pytest.approx(-0.25, abs=1e-14)

    def test_reversed_interval_raises(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda u: u, QuadratureRule(), 0.7, 0.2)

    def test_outside_domain_raises(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda u: u, QuadratureRule(), -0.1, 0.5)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrand):
            integrate(lambda u: np.where(u > 0.3, np.nan, 1.0),
                      QuadratureRule())

    def test_samples_in_blocks(self):
        # a mesh many blocks long: no call sees more than one block, and the
        # value is bitwise the one-call sum over the fine-pass nodes
        rule = QuadratureRule(panels=2, breakpoints=np.arange(1, 1024) / 1024)
        sizes = []

        def f(u):
            sizes.append(len(u))
            return np.cos(7.0 * u)

        got = integrate(f, rule).value
        nodes, weights, _ = cell_mesh((0.0, 1.0), rule, 2 * rule.panels)
        assert max(sizes) <= _SAMPLE_BLOCK < len(nodes)
        assert got == float(np.dot(weights, np.cos(7.0 * nodes)))

    def test_empty_interval(self):
        res = integrate(lambda u: u, QuadratureRule(), 0.4, 0.4)
        assert res.value == 0.0


class TestRuleValidation:
    @pytest.mark.parametrize("kwargs", [
        {"order": 1},
        {"panels": 0},
        {"breakpoints": (0.5, 0.5)},
        {"breakpoints": (0.2, 1.2)},
        # NaN fails every comparison, in the order test and the bounds test
        {"breakpoints": (0.2, float("nan"), 0.5)},
        {"breakpoints": (float("nan"),)},
    ])
    def test_bad_rule(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureRule(**kwargs)

    @pytest.mark.parametrize("bps, message", [
        ((0.2, float("nan"), 0.5), "strictly increasing"),
        ((0.5, 0.5), "strictly increasing"),
        ((float("nan"),), "within"),
        ((-0.0, 1.2), "within"),
    ])
    def test_each_breakpoint_check_keeps_its_message(self, bps, message):
        with pytest.raises(ValueError, match=message):
            QuadratureRule(breakpoints=bps)

    def test_breakpoints_are_stored_as_python_floats(self):
        rule = QuadratureRule(breakpoints=np.arange(1, 4) / 4)
        assert rule.breakpoints == (0.25, 0.5, 0.75)
        assert all(type(p) is float for p in rule.breakpoints)

    def test_with_breakpoints_merges_sorted(self):
        rule = QuadratureRule(breakpoints=(0.5,)).with_breakpoints([0.25, 0.75])
        assert rule.breakpoints == (0.25, 0.5, 0.75)


class TestPolynomialExactness:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_monomials_up_to_design_degree(self, order):
        rule = QuadratureRule(order=order)
        for degree in range(2 * order):
            res = integrate(lambda u, d=degree: u ** d, rule)
            assert abs(res.value - 1.0 / (degree + 1)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(split=st.floats(min_value=0.05, max_value=0.95),
       freq=st.integers(min_value=1, max_value=6))
def test_additivity_over_split(split, freq):
    rule = QuadratureRule(panels=8)

    def f(u):
        return np.cos(2 * np.pi * freq * u) + u ** 3

    whole = integrate(f, rule, 0.0, 1.0)
    left = integrate(f, rule, 0.0, split)
    right = integrate(f, rule, split, 1.0)
    assert abs(whole.value - (left.value + right.value)) < 2e-10


class TestCumulative:
    def test_identity_antiderivative(self):
        vals = cumulative_integral(lambda u: np.ones_like(u), (0.0, 0.5, 1.0),
                                   QuadratureRule())
        assert vals == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)

    def test_tent_antiderivative(self):
        vals = cumulative_integral(haar_x2, (0.0, 0.5, 1.0),
                                   QuadratureRule(breakpoints=(0.5,)))
        assert vals == pytest.approx([0.0, 0.5, 0.0], abs=1e-14)

    def test_single_point_grid(self):
        vals = cumulative_integral(lambda u: np.sqrt(2.0) * np.cos(2 * np.pi * u),
                                   (0.25,), QuadratureRule(panels=4))
        assert vals[0] == pytest.approx(np.sqrt(2.0) / (2 * np.pi), abs=1e-12)

    def test_matches_integrate_prefix(self):
        rule = QuadratureRule(panels=8)

        def f(u):
            return np.sin(2 * np.pi * u) + u

        grid = np.linspace(0.1, 0.9, 9)
        vals = cumulative_integral(f, grid, rule)
        for t, v in zip(grid, vals):
            direct = integrate(f, rule, 0.0, t).value
            assert abs(v - direct) < 2e-10

    def test_unsorted_grid_raises(self):
        with pytest.raises(InvalidInterval):
            cumulative_integral(lambda u: u, (0.5, 0.2), QuadratureRule())


def _reference_layout(rule: QuadratureRule, panels: int):
    """Nodes on [0, 1] as laid out segment by segment before cell_mesh."""
    xs, ws = np.polynomial.legendre.leggauss(rule.order)
    edges = np.array([0.0, *[p for p in rule.breakpoints if 0.0 < p < 1.0], 1.0])
    lo = np.repeat(edges[:-1], panels)
    width = np.repeat(np.diff(edges), panels) / panels
    lo = lo + width * np.tile(np.arange(panels), len(edges) - 1)
    mid = lo + width / 2
    half = width / 2
    return ((mid[:, None] + half[:, None] * xs[None, :]).ravel(),
            (half[:, None] * ws[None, :]).ravel())


class TestCellMesh:
    @pytest.mark.parametrize("rule", [
        QuadratureRule(),
        QuadratureRule(order=4, breakpoints=(0.0, 0.3, 0.5, 1.0)),
        recommended_rule(get_system("haar"), 64),
        recommended_rule(get_system("reflect2(cosine)"), 16),
    ], ids=["plain", "edge-breakpoints", "haar", "reflect2-cosine"])
    @pytest.mark.parametrize("panels", [1, 2, 5, 32])
    def test_unit_interval_matches_segment_layout(self, rule, panels):
        nodes, weights, starts = cell_mesh((0.0, 1.0), rule, panels)
        want_nodes, want_weights = _reference_layout(rule, panels)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)
        assert starts.tolist() == [0]

    def test_starts_mark_cells(self):
        rule = QuadratureRule(order=2, breakpoints=(0.25, 0.5))
        nodes, _, starts = cell_mesh((0.0, 0.0, 0.5, 0.5, 1.0), rule, 3)
        # segments [0, .25], [.25, .5], [.5, 1]; the repeated points make
        # cells 0 and 2 empty
        assert starts.tolist() == [0, 0, 12, 12]
        assert len(nodes) == 18

    @pytest.mark.parametrize("grid", [(0.5, 0.2), (-0.1, 0.5), (0.0, 1.5),
                                      (0.0, float("nan"), 1.0), (0.5,)])
    def test_bad_grid_raises(self, grid):
        with pytest.raises(InvalidInterval):
            cell_mesh(grid, QuadratureRule(), 1)


def _per_cell_cumulative(f, grid, rule):
    """Reference: one integrate call per cell of (0, *grid), prefix-summed."""
    cells = np.concatenate([[0.0], grid])
    return np.cumsum([integrate(f, rule, lo, hi).value
                      for lo, hi in zip(cells[:-1], cells[1:])])


_ANCHORS = (0.0, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0)


@st.composite
def _cumulative_case(draw):
    """A sorted grid with repeats and a rule with or without breakpoints."""
    pts = draw(st.lists(st.one_of(st.sampled_from(_ANCHORS),
                                  st.floats(0.0, 1.0)),
                        min_size=1, max_size=12))
    if draw(st.booleans()):
        pts.append(0.0)                  # a zero-width first cell
    bps = draw(st.one_of(
        st.just(()),
        st.lists(st.sampled_from(_ANCHORS[1:-1] + (0.625,)), unique=True,
                 min_size=1).map(sorted).map(tuple)))
    rule = QuadratureRule(order=draw(st.sampled_from([2, 5, 16])),
                          panels=draw(st.integers(1, 3)), breakpoints=bps)
    return sorted(pts), rule


def _jumpy(u):
    return np.cos(7.0 * u) + np.where(u < 0.5, u * u, -2.0) + (u >= 0.3)


@settings(max_examples=80, deadline=None)
@given(case=_cumulative_case())
def test_cumulative_matches_per_cell_integrate(case):
    grid, rule = case
    got = cumulative_integral(_jumpy, grid, rule)
    want = _per_cell_cumulative(_jumpy, grid, rule)
    assert got.shape == (len(grid),)
    assert np.abs(got - want).max() <= 1e-13


#: Integrands of the row-valued check; the last returns a scalar.
_ROW_INTEGRANDS = (_jumpy, lambda u: np.sin(40.0 * u), lambda u: 2.5)


@settings(max_examples=60, deadline=None)
@given(case=_cumulative_case(), many=st.booleans())
def test_row_valued_cumulative_is_bitwise_the_scalar_calls(case, many):
    grid, rule = case
    if many:            # several sample blocks of nodes
        rule = dataclasses.replace(rule, order=16, panels=150)

    def rows(u):
        return np.stack([np.broadcast_to(f(u), u.shape)
                         for f in _ROW_INTEGRANDS])

    table = cumulative_integral(rows, grid, rule)
    assert table.shape == (len(_ROW_INTEGRANDS), len(grid))
    for f, row in zip(_ROW_INTEGRANDS, table):
        alone = cumulative_integral(f, grid, rule)
        assert np.array_equal(alone.view(np.int64), row.view(np.int64))


def test_row_valued_cumulative_on_empty_cells_only():
    table = cumulative_integral(lambda u: np.ones((3, len(u))), (0.0, 0.0),
                                QuadratureRule())
    assert np.array_equal(table, np.zeros((3, 2)))


class TestIntegrateAbs:
    def test_abs_sine(self):
        res = integrate_abs(lambda u: np.sin(2 * np.pi * u),
                            QuadratureRule(panels=8))
        assert res.value == pytest.approx(2.0 / np.pi, abs=1e-12)

    def test_matches_plain_when_positive(self):
        rule = QuadratureRule(panels=4)
        plain = integrate(lambda u: 1.0 + u, rule).value
        absd = integrate_abs(lambda u: 1.0 + u, rule).value
        assert absd == pytest.approx(plain, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 24), ends=st.lists(st.floats(0.0, 1.0),
                                               min_size=2, max_size=2),
           bps=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_abs_sine_closed_form(self, m, ends, bps):
        # int_0^t |sin| = 2 q + 1 - cos(r) for t = q pi + r; every zero is
        # a panel edge, so one panel per piece resolves a half period
        a, b = sorted(ends)
        rule = QuadratureRule(panels=1).with_breakpoints(bps)
        w = 2 * np.pi * m

        def big_f(t):
            q, r = np.divmod(t, np.pi)
            return 2 * q + 1 - np.cos(r)

        want = (big_f(w * b) - big_f(w * a)) / w
        got = integrate_abs(lambda u: np.sin(w * u), rule, a, b).value
        assert got == pytest.approx(want, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                         unique=True),
           j=st.integers(1, 255))
    def test_exact_zero_at_a_scan_point(self, ends, j):
        # |u - z| is a kink that only a breakpoint at z integrates exactly;
        # u - z rounds to within eps |u| at every node
        a, b = sorted(ends)
        z = np.linspace(a, b, 257)[j]
        got = integrate_abs(lambda u: u - z, QuadratureRule(), a, b).value
        assert got == pytest.approx(((z - a) ** 2 + (b - z) ** 2) / 2,
                                    rel=1e-14, abs=2e-16 * (b - a))

    def test_bracket_that_stops_straddling_takes_its_midpoint(self):
        # the scan sees one sign change; evaluated again, the bracket is
        # positive at both ends, so its midpoint is the only new breakpoint
        calls = []

        def flaky(u):
            calls.append(len(u))
            return np.where(u < 0.5, -1.0, 1.0) if len(calls) == 1 else \
                np.ones_like(u)

        res = integrate_abs(flaky, QuadratureRule(panels=1))
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.panels_used == 2 * 2
        assert calls == [257, 2, 32, 64]

    def test_refined_zeros(self):
        # endpoints where f vanishes, brackets that straddle a zero and one
        # that does not, refined in one batch
        roots = np.array([0.123456789, 0.25, 0.65])
        got = _refine_zeros(lambda u: np.prod(u[:, None] - roots, axis=1),
                            np.array([0.1, 0.25, 0.6, 0.3]),
                            np.array([0.2, 0.4, 0.7, 0.5]))
        assert np.abs(got - [0.123456789, 0.25, 0.65, 0.4]).max() <= 2e-15

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 1.0), p=st.integers(1, 5),
           pad=st.lists(st.floats(1e-12, 0.2), min_size=2, max_size=2))
    def test_refined_zero_is_within_tolerance(self, r, p, pad):
        lo, hi = max(0.0, r - pad[0]), min(1.0, r + pad[1])
        if not lo < r < hi:
            return
        got = _refine_zeros(lambda u: np.sign(u - r) * np.abs(u - r) ** p,
                            np.array([lo]), np.array([hi]))
        assert abs(got[0] - r) <= 1e-15 + 4 * np.finfo(float).eps
