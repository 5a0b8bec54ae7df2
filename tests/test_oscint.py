"""Closed-form transforms, certified quadrature, and tail bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm.errors import BudgetExceeded, TailDivergence
from splitnorm.oscint import FTEvaluator, NumericNorm, ft_eval, norm_numeric, tail_bound
from splitnorm.normprofile import norm_profile
from splitnorm.polyalg import indicator, l2_inner, tent
from splitnorm.scalars import rat

from .helpers import rnd_pp

CHI = indicator(-1, 1)


# ---------------------------------------------------------------------------
# transform evaluation
# ---------------------------------------------------------------------------


def test_ft_indicator_closed_form():
    for y in [0.15, 0.7, 1.9, -2.3, 17.0]:
        ref = math.sin(2 * math.pi * y) / (math.pi * y)
        assert abs(ft_eval(CHI, y) - ref) < 1e-12 * max(1, abs(ref))


def test_ft_at_zero_is_exact_integral():
    from splitnorm.scalars import parts

    rng = np.random.default_rng(5)
    for _ in range(5):
        f = rnd_pp(rng, max_pieces=3, max_deg=3, complex_ok=True)
        re, im = parts(f.integral())
        want = complex(float(re), float(im))
        assert abs(ft_eval(f, 0.0) - want) < 1e-12 * (1 + abs(want))


def test_ft_tent_closed_form():
    tentf = tent(-1, 0, 1)
    for y in [0.25, 0.8, 1.3, -3.7]:
        ref = (math.sin(math.pi * y) / (math.pi * y)) ** 2
        assert abs(ft_eval(tentf, y) - ref) < 1e-12


def test_ft_series_and_boundary_branches_agree():
    f = rnd_pp(np.random.default_rng(6), max_pieces=3, max_deg=2, complex_ok=True)
    ev = FTEvaluator(f)
    # the branch switch sits at |2 pi y| * radius = 1/2: compare both sides
    r = float(f.support_radius())
    y0 = 0.5 / (2 * math.pi * r)
    for y in [y0 * 0.98, y0 * 1.02]:
        series = ev._eval_series(np.array([y]))[0]
        boundary = ev._eval_boundary(np.array([y]))[0]
        assert abs(series - boundary) < 1e-9 * (1 + abs(series))


def test_ft_vectorized_matches_scalar():
    f = rnd_pp(np.random.default_rng(7), complex_ok=True)
    ev = FTEvaluator(f)
    ys = np.linspace(-4, 4, 57)
    batch = ev(ys)
    for y, v in zip(ys, batch):
        assert abs(ev(float(y)) - v) == 0.0


def test_ft_hermitian_symmetry_for_real_input():
    f = rnd_pp(np.random.default_rng(8), complex_ok=False)
    ev = FTEvaluator(f)
    ys = np.linspace(0.1, 3.0, 11)
    assert np.allclose(ev(-ys), np.conj(ev(ys)), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_numeric_p2_plancherel():
    rng = np.random.default_rng(9)
    for _ in range(3):
        f = rnd_pp(rng, max_pieces=2, max_deg=2, complex_ok=True)
        exact = float(l2_inner(f, f))
        t = float(rng.integers(0, 3)) / 2
        res = norm_numeric(f, 2.0, t, target_abs_err=1e-6 * (1 + exact))
        assert abs(res.value - exact) <= res.abs_error
        assert res.abs_error <= 1e-6 * (1 + exact)


def test_norm_numeric_even_p_cross_check():
    prof = norm_profile(CHI, 4)
    for t in [rat(0), rat(1, 3), rat(1)]:
        exact = float(prof.value_at(t))
        res = norm_numeric(CHI, 4.0, float(t), target_abs_err=1e-6)
        assert abs(res.value - exact) <= res.abs_error <= 1e-6


def test_norm_numeric_p3_table():
    # numerically reproduced reference values for the split indicator
    targets = {0.25: 2.6247, 1.0: 2.6124, 5.0: 2.6116, 12.0: 2.6121}
    for t, ref in targets.items():
        res = norm_numeric(CHI, 3.0, t, target_abs_err=1e-3)
        assert res.abs_error <= 5e-3
        assert abs(res.value - ref) <= 0.01


def test_norm_numeric_rejects_p_at_most_one():
    with pytest.raises(TailDivergence):
        norm_numeric(CHI, 1.0, 0.0)
    with pytest.raises(TailDivergence):
        tail_bound(CHI, 0.8, 10.0)


def test_norm_numeric_budget_exceeded_carries_result():
    with pytest.raises(BudgetExceeded) as info:
        norm_numeric(CHI, 1.01, 0.5, target_abs_err=1e-9, node_cap=2 ** 12)
    # non-strict mode returns the best effort instead
    res = norm_numeric(CHI, 1.01, 0.5, target_abs_err=1e-9, node_cap=2 ** 12, strict=False)
    assert isinstance(res, NumericNorm)
    assert res.abs_error > 1e-9


def test_node_cap_message_reports_the_compared_node_count():
    # the two-bump function at p = 3, t = 1, 1e-6 needs more tail nodes than
    # the default cap; the message names the count that is compared with it
    two_bump = CHI + indicator(10, 11) + indicator(-11, -10)
    cap = 2 ** 20
    with pytest.raises(BudgetExceeded) as info:
        norm_numeric(two_bump, 3.0, 1.0, target_abs_err=1e-6, node_cap=cap)
    msg = str(info.value)
    assert "nodes" in msg and f"node cap {cap}" in msg
    assert float(msg.split()[0]) > cap


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_numeric_non_finite_result_raises():
    # |f^|^p overflows near y = 0, so the integral is inf and its error NaN
    with pytest.raises(BudgetExceeded) as info:
        norm_numeric(CHI, 1e6, 1.0, target_abs_err=1e-3)
    assert info.value.result.value == math.inf


def test_numeric_norm_json_fields():
    res = norm_numeric(CHI, 3.0, 0.25, target_abs_err=1e-3)
    doc = res.to_json_dict()
    assert set(doc) == {"p", "t", "value_pth_power", "abs_error"}
    assert doc["value_pth_power"] == res.value


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


def test_tail_bound_indicator_formula():
    # TV of the split halves is 4, envelope 2/pi, uniformly in t
    for p in (2.0, 3.0, 4.0):
        for Y in (5.0, 40.0):
            want = 2 * (2 / math.pi) ** p * Y ** (1 - p) / (p - 1)
            got = tail_bound(CHI, p, Y)
            assert math.isclose(got, want, rel_tol=1e-9)


def test_tail_bound_vanishes_at_infinity():
    assert tail_bound(CHI, 3.0, 1e9) < 1e-15


def test_tail_bound_monotone_in_p_past_crossing():
    # once the envelope constant / (2 pi Y) < 1, larger p gives smaller bounds
    assert tail_bound(CHI, 5.0, 10.0) < tail_bound(CHI, 3.0, 10.0)


def test_tail_bound_actually_bounds():
    # the bound must dominate the directly computed tail of |F[S_t f]|^p
    f = tent(-1, 0, 1) + indicator(rat(-1, 2), rat(1, 2))
    for t in (0.0, 0.8):
        for Y in (4.0, 9.0):
            bound = tail_bound(f, 3.0, Y)
            from splitnorm.splitcore import apply_split
            from splitnorm.scalars import rat_from_float

            ev = FTEvaluator(apply_split(f, rat_from_float(t)))
            ys = np.linspace(Y, Y * 60, 300001)
            vals = np.abs(ev(ys)) ** 3
            from .helpers import _trapezoid

            observed = 2 * float(_trapezoid(vals, ys))
            assert observed < bound


def test_tail_bound_dominates_complex_and_polynomial_tails():
    # |F[S_t f]|^p is not even for complex f: both half-lines are integrated
    from splitnorm.cli import parse_function_spec
    from splitnorm.scalars import gauss, rat_from_float
    from splitnorm.splitcore import apply_split

    from .helpers import _trapezoid

    for f in (indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), parse_function_spec("poly:[-1,1]:1,0,-1")):
        for t in (0.0, 0.8):
            ev = FTEvaluator(apply_split(f, rat_from_float(t)))
            for Y in (4.0, 9.0):
                ys = np.linspace(Y, Y * 60, 300001)
                vals = np.abs(ev(ys)) ** 3 + np.abs(ev(-ys)) ** 3
                observed = float(_trapezoid(vals, ys))
                assert 0 < observed < tail_bound(f, 3.0, Y)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plancherel_bracket_randomized(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    exact = float(l2_inner(f, f))
    res = norm_numeric(f, 2.0, 0.0, target_abs_err=1e-6 * (1 + exact))
    assert res.value - res.abs_error <= exact <= res.value + res.abs_error
