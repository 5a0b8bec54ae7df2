"""Closed-form transforms, certified quadrature, and tail bounds."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm.errors import BudgetExceeded, SplitnormError
from splitnorm.oscint import FTEvaluator, NumericNorm, _boundary_expansion, _envelope_tail, norm_numeric
from splitnorm.normprofile import norm_profile
from splitnorm.polyalg import indicator, l2_inner, tent
from splitnorm.scalars import rat
from splitnorm.splitcore import apply_split

from .helpers import ReferenceEvaluator, exactly, reference_norm_numeric, rnd_pp

CHI = indicator(-1, 1)
TWO_BUMP = CHI + indicator(10, 11) + indicator(-11, -10)


# ---------------------------------------------------------------------------
# transform evaluation
# ---------------------------------------------------------------------------


def test_ft_indicator_closed_form():
    for y in [0.15, 0.7, 1.9, -2.3, 17.0]:
        ref = math.sin(2 * math.pi * y) / (math.pi * y)
        assert abs(FTEvaluator(CHI)(y) - ref) < 1e-12 * max(1, abs(ref))


def test_ft_at_zero_is_exact_integral():
    from splitnorm.scalars import parts

    rng = np.random.default_rng(5)
    for _ in range(5):
        f = rnd_pp(rng, max_pieces=3, max_deg=3, complex_ok=True)
        pieces = [parts(q.integral(a, b)) for a, b, q in zip(f.breakpoints, f.breakpoints[1:], f.pieces)]
        want = complex(float(sum(re for re, _ in pieces)), float(sum(im for _, im in pieces)))
        assert abs(FTEvaluator(f)(0.0) - want) < 1e-12 * (1 + abs(want))


def test_ft_tent_closed_form():
    tentf = tent(-1, 0, 1)
    for y in [0.25, 0.8, 1.3, -3.7]:
        ref = (math.sin(math.pi * y) / (math.pi * y)) ** 2
        assert abs(FTEvaluator(tentf)(y) - ref) < 1e-12


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
    with pytest.raises(SplitnormError, match=exactly("(N_t f)^p requires p > 1, got 1.0")):
        norm_numeric(CHI, 1.0, 0.0)


def test_norm_numeric_budget_exceeded_carries_result():
    # the integration runs and then misses the target by its floating-point
    # allowance: the exception carries the result it reached
    with pytest.raises(BudgetExceeded, match="exceeds the target") as info:
        norm_numeric(CHI, 6.0, 0.5, target_abs_err=1e-13)
    res = info.value.result
    assert isinstance(res, NumericNorm)
    assert res.abs_error > 1e-13


def test_node_cap_message_reports_the_compared_node_count():
    # the two-bump function at p = 3, t = 1, 1e-6 needs more tail nodes than
    # the cap; the message names the count that is compared with it
    from splitnorm import oscint

    cap = oscint._NODE_CAP
    with pytest.raises(BudgetExceeded) as info:
        norm_numeric(TWO_BUMP, 3.0, 1.0, target_abs_err=1e-6)
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


def _bisecting_cases():
    from splitnorm.cli import parse_function_spec

    return [
        ("tent", tent(-1, 0, 1), 2.5, 0.25),
        ("ind", CHI, 3.0, 1.0),
        ("ind", CHI, 3.0, 5.0),
        ("complex", parse_function_spec("ind:0,1 + i*ind:-1,0"), 3.0, 1.0),
        ("two-bump", TWO_BUMP, 6.0, 5.0),
    ]


def test_norm_numeric_matches_the_reference_loop_bit_for_bit():
    # the batched rounds and the shared phases keep every bit of the
    # one-panel-at-a-time loop, on cases that do bisect
    for name, f, p, t in _bisecting_cases():
        stats = Counter()
        want = reference_norm_numeric(f, p, t, 1e-6, stats=stats)
        got = norm_numeric(f, p, t, target_abs_err=1e-6)
        assert stats["rounds"] > 0, name
        assert got.value.hex() == want.value.hex(), (name, p, t)
        assert got.abs_error.hex() == want.abs_error.hex(), (name, p, t)

    # the carried result of a run that ends at the node cap
    with pytest.raises(BudgetExceeded) as want:
        reference_norm_numeric(CHI, 6.0, 0.5, 1e-13)
    with pytest.raises(BudgetExceeded) as got:
        norm_numeric(CHI, 6.0, 0.5, target_abs_err=1e-13)
    assert str(got.value) == str(want.value)
    assert got.value.result.value.hex() == want.value.result.value.hex()
    assert got.value.result.abs_error.hex() == want.value.result.abs_error.hex()


def test_boundary_sum_matches_one_exp_per_breakpoint():
    from splitnorm.cli import parse_function_spec

    ys = np.concatenate([np.linspace(-9.0, 9.0, 1000), [-0.3, 0.3, 40.25, -40.25]])
    specs = [
        "ind:-1,1",                      # one +-b pair
        "tent:-1,0,1",                   # rows of length 2, and b = 0
        "poly:[-1,1]:1,0,-1",            # a quadratic piece: rows of length 3
        "ind:0,1 + ind:3,5",             # no +-b pair
        "ind:0,1 + i*ind:-1,0",          # complex jumps
        "ind:-1,1 + ind:10,11 + ind:-11,-10",
    ]
    longest_row = 0
    for spec in specs:
        f = parse_function_spec(spec)
        for t in (0, rat(1, 4), rat(5, 3)):
            g = apply_split(f, t)
            ev = FTEvaluator(g)
            want = ReferenceEvaluator(g)._eval_boundary(ys)
            assert np.array_equal(ev._eval_boundary(ys), want), (spec, t)
            longest_row = max(longest_row, *map(len, ev.rows))
    assert longest_row == 3


def test_each_bisection_round_is_one_evaluator_call(monkeypatch):
    # one call for the initial grid (210 panels, one batch) and one per
    # round, where the one-panel-at-a-time loop made one per bisected panel
    stats = Counter()
    want = reference_norm_numeric(CHI, 8.0, 0.25, 1e-11, stats=stats)
    assert stats["bisected"] > stats["rounds"] > 1

    calls = Counter()
    inner = FTEvaluator.__call__

    def counting_call(self, y):
        calls["n"] += 1
        return inner(self, y)

    monkeypatch.setattr(FTEvaluator, "__call__", counting_call)
    got = norm_numeric(CHI, 8.0, 0.25, target_abs_err=1e-11)
    assert calls["n"] == 1 + stats["rounds"]
    assert got == want


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


def tail_bound(f, t, p, Y):
    """The proved bound on int_{|y|>Y} |F[S_t f]|^p that norm_numeric closes its
    panels with: the envelope tail of the jump rows of S_t f."""
    return _envelope_tail(_boundary_expansion(apply_split(f, rat(t)))[1], p, Y)


def test_tail_bound_indicator_formula():
    # for t > 0 the split indicator has four unit jumps: K = 4, envelope 2/pi
    for p in (2.0, 3.0, 4.0):
        for Y in (5.0, 40.0):
            want = 2 * (2 / math.pi) ** p * Y ** (1 - p) / (p - 1)
            got = tail_bound(CHI, 0.5, p, Y)
            assert math.isclose(got, want, rel_tol=1e-9)


def test_tail_bound_vanishes_at_infinity():
    assert tail_bound(CHI, 0.5, 3.0, 1e9) < 1e-15


def test_tail_bound_monotone_in_p_past_crossing():
    # once the envelope constant / (2 pi Y) < 1, larger p gives smaller bounds
    assert tail_bound(CHI, 0.5, 5.0, 10.0) < tail_bound(CHI, 0.5, 3.0, 10.0)


def test_tail_bound_actually_bounds():
    # the bound must dominate the directly computed tail of |F[S_t f]|^p
    from .helpers import _trapezoid

    f = tent(-1, 0, 1) + indicator(rat(-1, 2), rat(1, 2))
    for t in (0.0, 0.8):
        for Y in (4.0, 9.0):
            bound = tail_bound(f, t, 3.0, Y)
            ev = FTEvaluator(apply_split(f, rat(t)))
            ys = np.linspace(Y, Y * 60, 300001)
            vals = np.abs(ev(ys)) ** 3
            observed = 2 * float(_trapezoid(vals, ys))
            assert observed < bound


def test_tail_bound_dominates_complex_and_polynomial_tails():
    # |F[S_t f]|^p is not even for complex f: both half-lines are integrated
    from splitnorm.cli import parse_function_spec
    from splitnorm.scalars import gauss

    from .helpers import _trapezoid

    for f in (indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), parse_function_spec("poly:[-1,1]:1,0,-1")):
        for t in (0.0, 0.8):
            ev = FTEvaluator(apply_split(f, rat(t)))
            for Y in (4.0, 9.0):
                ys = np.linspace(Y, Y * 60, 300001)
                vals = np.abs(ev(ys)) ** 3 + np.abs(ev(-ys)) ** 3
                observed = float(_trapezoid(vals, ys))
                assert 0 < observed < tail_bound(f, t, 3.0, Y)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plancherel_bracket_randomized(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    exact = float(l2_inner(f, f))
    res = norm_numeric(f, 2.0, 0.0, target_abs_err=1e-6 * (1 + exact))
    assert res.value - res.abs_error <= exact <= res.value + res.abs_error
