"""Exact piecewise-polynomial algebra: examples, oracles, and properties."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm import polyalg
from splitnorm.errors import SplitnormError
from splitnorm.polyalg import (
    IntLayout,
    PiecewisePoly,
    Poly,
    convolve,
    correlate,
    indicator,
    is_nonincreasing_on,
    is_nonnegative,
    isolate_real_roots,
    ZERO_PP,
    l2_inner,
    real_correlation_sum,
    tent,
)
from splitnorm.scalars import gauss, rat

from .helpers import (
    conj_reflect,
    conjugate,
    conv_numeric,
    conv_power,
    evaluate_float,
    exactly,
    fresh_layout,
    from_json_dict,
    grid_increase_search,
    poly_integral,
    rational_isolation_reference,
    reference_is_nondecreasing_on,
    reference_is_nonincreasing_on,
    reference_is_nonnegative,
    reference_real_correlation_sum,
    rnd_poly,
    rnd_pp,
    schoolbook_jump_pair_products,
)

RNG_SEED = 20240811


@pytest.mark.parametrize("breakpoints, pieces", [([0, 1], []), ([0, 1, 2], [[1]]), ([0], [[1]])])
def test_piecewise_poly_refuses_mismatched_lengths(breakpoints, pieces):
    with pytest.raises(ValueError, match=exactly("need len(breakpoints) == len(pieces) + 1")):
        PiecewisePoly(breakpoints, pieces)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolve_indicator_self_is_triangle():
    got = convolve(indicator(-1, 1), indicator(-1, 1))
    expected = PiecewisePoly([-2, 0, 2], [Poly([2, 1]), Poly([2, -1])])
    assert got == expected


def test_convolve_with_zero_annihilates():
    assert convolve(indicator(0, 1), ZERO_PP).is_zero()
    assert convolve(ZERO_PP, indicator(0, 1)).is_zero()


def test_convolve_disjoint_indicators_tent():
    # overlap measure peaks (height 1) at the sum of the midpoints, -10
    got = convolve(indicator(0, 1), indicator(-11, -10))
    assert got.support() == (rat(-11), rat(-9))
    assert got.eval(-10) == 1
    assert got == tent(-11, -10, -9)
    # cross-check a few points against trapezoid quadrature of the integral
    # (the quadrature oracle sees O(h) error at the jumps, hence the tolerance)
    for x in [-10.7, -10.0, -9.3]:
        assert abs(complex(evaluate_float(got, x)) - conv_numeric(indicator(0, 1), indicator(-11, -10), x, n=200001)) < 1e-4


def test_convolve_quadratic_pieces_match_quadrature():
    f = PiecewisePoly([rat(-1, 2), rat(1, 3)], [Poly([1, 2, 3])])
    g = PiecewisePoly([0, 2], [Poly([rat(1, 2), 0, 1])])
    conv = convolve(f, g)
    for x in [-0.3, 0.5, 1.1, 2.0]:
        assert abs(complex(evaluate_float(conv, x)) - conv_numeric(f, g, x, n=200001)) < 5e-4


# ---------------------------------------------------------------------------
# correlation and inner products
# ---------------------------------------------------------------------------


def _rnd_mixed_pp(rng):
    """Complex piecewise polynomial on breakpoints with mixed denominators."""
    while True:
        pool = {rat(int(rng.integers(-12, 13)), int(rng.choice([1, 2, 3, 5, 6, 7]))) for _ in range(8)}
        grid = sorted(b for b in pool if abs(b) <= 2)[: int(rng.integers(2, 6))]
        if len(grid) < 2:
            continue
        pieces = [rnd_poly(rng, max_deg=3, complex_ok=True) for _ in grid[1:]]
        f = PiecewisePoly(grid, pieces)
        if not f.is_zero():
            return f


def _convolve_oracle(f, g, x):
    """int f(y) g(x - y) dy, integrated exactly piece by piece in y."""
    cuts = sorted(set(f.breakpoints) | {x - c for c in g.breakpoints})
    re = im = rat(0)
    for a, b in zip(cuts, cuts[1:]):
        # on (a, b) no breakpoint of f or of y -> g(x - y) is crossed
        g_piece = g.piece_at(x - b).scale_arg(-1).shift(-x)  # y -> q(x - y)
        q = f.piece_at(a) * g_piece
        re, im = re + poly_integral(Poly(q.coeffs), a, b), im + poly_integral(Poly(q.im), a, b)
    return gauss(re, im)


def _correlate_oracle(f, g, s):
    """int g(y) conj(f(y - s)) dy, integrated exactly piece by piece in y."""
    cuts = sorted(set(g.breakpoints) | {s + c for c in f.breakpoints})
    re = im = rat(0)
    for a, b in zip(cuts, cuts[1:]):
        f_piece = conjugate(f.piece_at(a - s)).shift(-s)  # y -> conj(f(y - s))
        q = g.piece_at(a) * f_piece
        re, im = re + poly_integral(Poly(q.coeffs), a, b), im + poly_integral(Poly(q.im), a, b)
    return gauss(re, im)


@pytest.mark.parametrize("seed", range(12))
def test_convolve_and_correlate_match_piecewise_integration(seed):
    # mixed-denominator breakpoints (such as -5/6, 1/3, 2/7) exercise the
    # common integer scale of the kernel; values are compared exactly
    rng = np.random.default_rng([RNG_SEED, seed])
    f, g = _rnd_mixed_pp(rng), _rnd_mixed_pp(rng)
    if seed % 3 == 0:
        g = PiecewisePoly(g.breakpoints, [Poly(q.coeffs) for q in g.pieces])
    conv, corr = convolve(f, g), correlate(f, g)
    for h, support_pts, oracle in (
        (conv, [a + b for a in f.breakpoints for b in g.breakpoints], _convolve_oracle),
        (corr, [b - a for a in f.breakpoints for b in g.breakpoints], _correlate_oracle),
    ):
        pts = set(h.breakpoints) | set(support_pts)
        pts |= {(a + b) / 2 for a, b in zip(h.breakpoints, h.breakpoints[1:])}
        pts |= {rat(int(rng.integers(-40, 41)), 9) for _ in range(6)}
        for x in sorted(pts):
            assert h.eval(x) == oracle(f, g, x), x


def test_convolution_cancellation_check_survives_python_O():
    # the check that the one-sided terms cancel is a raise, not an assert:
    # with a jump dropped from the kernel it still fires under python -O
    script = (
        "import splitnorm.polyalg as P\n"
        "from splitnorm.errors import InvariantViolation\n"
        "jumps = P.IntLayout.jumps\n"
        "P.IntLayout.jumps = lambda self, part: jumps(self, part)[:-1]\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    P.convolve(P.indicator(0, 1), P.tent(0, 1, 2))\n"
        "except InvariantViolation as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "raised convolve: one-sided terms failed to cancel" in proc.stdout


def _assert_kept_jumps(h: IntLayout):
    # every part's jumps, and those of both reflections, against the jumps
    # an unmemoized copy forms from its pieces
    parts = ("re",) if h.im is None else ("re", "im", "sum")
    for g in (h, h.reflected(False), h.reflected(True), h.reflected(True).reflected(False)):
        for part in parts:
            assert g.jumps(part) == fresh_layout(g).jumps(part)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolutions_and_reflections_keep_the_jumps_their_pieces_give(seed):
    rng = np.random.default_rng(seed)
    f, g = (rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=rng.random() < 0.5) for _ in range(2))
    F, G = IntLayout.of(f, g)
    for h in (F, G, F.convolve(G), F.convolve(G.reflected(True)).convolve(F)):
        _assert_kept_jumps(h)


def test_a_start_whose_terms_cancel_keeps_its_breakpoint_but_no_jump(monkeypatch):
    # (ind[0,1) + 2 ind[1,2)) * ind[0,1) is x on [0, 2): the pairs starting
    # at 1 cancel, so 1 stays a breakpoint of the layout and has no jump.
    # Halved and doubled, in X = 2x, it is X over 2 / 2: the gcd divides
    F, G = IntLayout.of((indicator(0, rat(1, 2)) + indicator(rat(1, 2), 1) * 2) * 2, indicator(0, rat(1, 2)))
    H = F.convolve(G)
    assert 1 in H.bps and H.den == 1
    shifts = []
    shift = polyalg._taylor_shift
    monkeypatch.setattr(polyalg, "_taylor_shift", lambda cs, h: shifts.append(h) or shift(cs, h))
    kept = H.jumps("re")
    assert shifts == []  # read off the convolution, not rebuilt
    assert 1 not in [b for b, _ in kept]
    assert kept == fresh_layout(H).jumps("re")
    _assert_kept_jumps(H)


def _random_jumps(rng: random.Random, length: int, count: int, starts: list) -> list:
    """``count`` jumps of ``length`` integer coefficients: one-nonzero (as of
    a B-spline), dense or all zero, of either sign, some above 2^200."""
    out = []
    for _ in range(count):
        top = 1 << rng.choice((3, 40, 220))
        kind = rng.choice(("one", "dense", "zero"))
        cs = [0] * length
        if kind == "one":
            cs[rng.randrange(length)] = rng.choice((-1, 1)) * rng.randint(1, top)
        elif kind == "dense":
            cs = [rng.randint(-top, top) for _ in range(length)]
        out.append((rng.choice(starts), cs))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_packed_pair_products_match_the_schoolbook(seed):
    rng = random.Random(seed)
    la, le = rng.randint(1, 6), rng.randint(1, 6)
    # a narrow pool of breakpoints lands many pairs on one start
    starts = [rng.randint(-9, 9) for _ in range(rng.choice((1, 2, 8)))]
    fj = _random_jumps(rng, la, rng.randint(0, 6), starts)
    gj = _random_jumps(rng, le, rng.randint(0, 6), starts)
    assert polyalg._jump_pair_products(fj, gj) == schoolbook_jump_pair_products(fj, gj)


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_pair_products_reach_the_digit_bound(sign):
    # every coefficient at +-2^201 and every pair on one start: the middle
    # output coefficient is pairs * min(len) * max|a| * max|e| exactly
    top = 1 << 201
    fj = [(0, [top] * 5)] * 7
    gj = [(0, [sign * top] * 4)] * 6
    out = polyalg._jump_pair_products(fj, gj)
    assert out == schoolbook_jump_pair_products(fj, gj)
    assert max(abs(c) for c in out[0]) == 7 * 6 * 4 * top * top


def test_packed_pair_products_of_empty_and_zero_jumps():
    fj = [(1, [0, 0, 0]), (2, [0, 5, 0])]
    assert polyalg._jump_pair_products([], fj) == polyalg._jump_pair_products(fj, []) == {}
    assert polyalg._jump_pair_products(fj, [(0, [0, 0])]) == {1: [0] * 4, 2: [0] * 4}
    assert polyalg._jump_pair_products(fj, fj) == schoolbook_jump_pair_products(fj, fj)


def _correlation_terms(rng, count):
    """``count`` random ``(w, c, F, G)`` terms at one scale, real or complex,
    with mixed argument scales c."""
    fs = [rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=rng.random() < 0.5) for _ in range(2 * count)]
    lays = IntLayout.of(*fs)
    return [
        (int(rng.choice([-3, -1, 1, 2, 5])), int(rng.integers(1, 5)), lays[2 * k], lays[2 * k + 1])
        for k in range(count)
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_one_shift_per_start_matches_the_per_term_shift(seed):
    rng = np.random.default_rng(seed)
    terms = _correlation_terms(rng, int(rng.integers(1, 5)))
    assert real_correlation_sum(terms) == reference_real_correlation_sum(terms)


def test_real_correlation_sum_shifts_once_per_distinct_start(monkeypatch):
    rng = np.random.default_rng(RNG_SEED)
    terms = _correlation_terms(rng, 6)
    lcm_c = math.lcm(*(c for _, c, _, _ in terms))
    per_term = [
        {s * (lcm_c // c) for s in polyalg._product_jumps(G, F.reflected(True), real_only=True)[0]}
        for _, c, F, G in terms
    ]
    distinct = set().union(*per_term)
    assert min(distinct) < 0  # some starts are cut off at t = 0
    assert any(F.im is not None for _, _, F, _ in terms)
    # the layouts keep their jumps and reflections: a second sum forms none
    first = real_correlation_sum(terms)
    for _, _, F, G in terms:
        assert F.reflected(True) is F.reflected(True)
        assert G.jumps("re") is G.jumps("re")
    shifts = []  # the nonzero ones: a shift by 0 is a copy
    shift = polyalg._taylor_shift
    monkeypatch.setattr(polyalg, "_taylor_shift", lambda cs, h: (h and shifts.append(h)) or shift(cs, h))
    assert real_correlation_sum(terms) == first
    assert 0 < len(shifts) <= len(distinct) < sum(map(len, per_term))


def test_correlate_indicator_autocorrelation():
    assert correlate(indicator(0, 1), indicator(0, 1)) == tent(-1, 0, 1)


def test_correlate_at_zero_is_l2_norm():
    f = indicator(-1, 1)
    assert correlate(f, f).eval(0) == 2


def test_correlate_linear_example():
    f = PiecewisePoly([0, 1], [Poly([0, 1])])  # x on [0,1)
    assert correlate(f, indicator(0, 1)).eval(0) == rat(1, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_correlate_hermitian_symmetry(seed):
    # correlate(g, f)(s) = conj(correlate(f, g)(-s)), exactly
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=2, complex_ok=True)
    g = rnd_pp(rng, max_pieces=2, max_deg=2, complex_ok=True)
    assert correlate(g, f) == conj_reflect(correlate(f, g))


def test_l2_inner_examples():
    assert l2_inner(indicator(-1, 1), indicator(-1, 1)) == 2
    tri = convolve(indicator(-1, 1), indicator(-1, 1))
    assert l2_inner(tri, tri) == rat(16, 3)
    assert l2_inner(indicator(0, 1), indicator(3, 4)) == 0


def test_l2_inner_conjugates_second_argument():
    f = indicator(0, 1) * gauss(0, 1)  # i * chi
    g = indicator(0, 1)
    assert l2_inner(f, g) == gauss(0, 1)
    assert l2_inner(g, f) == gauss(0, -1)
    assert l2_inner(f, f) == 1


# ---------------------------------------------------------------------------
# translate / reflect / conv_power
# ---------------------------------------------------------------------------


def test_translate_examples():
    assert indicator(0, 1).translate(1) == indicator(1, 2)
    f = rnd_pp(np.random.default_rng(1), complex_ok=True)
    assert f.translate(0) == f
    assert f.translate(rat(5, 3)).translate(rat(-5, 3)) == f


def test_reflect_examples():
    assert indicator(0, 1).reflect() == indicator(-1, 0)
    tri = convolve(indicator(-1, 1), indicator(-1, 1))
    assert tri.reflect() == tri
    f = rnd_pp(np.random.default_rng(2), complex_ok=True)
    assert f.reflect().reflect() == f


def test_conv_power_basics():
    f = indicator(0, 1)
    assert conv_power(f, 1) == f
    assert conv_power(f, 2) == tent(0, 1, 2)


def test_conv_power_three_matches_uniform_sum_density():
    # density of the sum of three uniforms: the piecewise closed form
    # (1/2) sum_k (-1)^k C(3,k) (x-k)^2 sgn(x-k) serves as the oracle
    got = conv_power(indicator(0, 1), 3)

    def oracle(x):
        acc = 0.0
        for k in range(4):
            acc += (-1) ** k * math.comb(3, k) * (x - k) ** 2 * math.copysign(1, x - k)
        return acc / 4.0

    assert got.eval(rat(3, 2)) == rat(3, 4)
    for x in [0.25, 0.8, 1.5, 2.3, 2.9]:
        assert abs(complex(evaluate_float(got, x)) - oracle(x)) < 1e-12


# ---------------------------------------------------------------------------
# monotonicity / sign decisions
# ---------------------------------------------------------------------------


def test_nonincreasing_triangle():
    tri = PiecewisePoly([-1, 0, 1], [Poly([1, 1]), Poly([1, -1])])
    assert is_nonincreasing_on(tri, 0).ok


def test_nonincreasing_rejects_linear_growth():
    f = PiecewisePoly([0, 1], [Poly([0, 1])])
    verdict = is_nonincreasing_on(f, 0)
    assert not verdict.ok
    x1, x2 = verdict.witness
    assert x1 < x2 and f.eval(x1) < f.eval(x2)


def test_nonincreasing_two_bump_halves_convolution():
    plus = indicator(0, 1) + indicator(10, 11)
    minus = indicator(-1, 0) + indicator(-11, -10)
    verdict = is_nonincreasing_on(convolve(plus, minus), 0)
    assert not verdict.ok


def test_nonincreasing_detects_upward_jump():
    f = indicator(0, 1) + indicator(1, 2) * 2
    verdict = is_nonincreasing_on(f, 0)
    assert not verdict.ok
    x1, x2 = verdict.witness
    assert f.eval(x1) < f.eval(x2)


def test_nonincreasing_requires_real():
    with pytest.raises(SplitnormError, match=exactly("monotonicity is decided for real-valued functions only")):
        is_nonincreasing_on(indicator(0, 1) * gauss(0, 1), 0)


def test_nondecreasing_on_interval():
    # f is nondecreasing exactly where -f is nonincreasing
    f = PiecewisePoly([0, 1], [Poly([0, 1])])
    assert is_nonincreasing_on(-f, 0, 1).ok
    verdict = is_nonincreasing_on(-f.reflect(), -1, 0)
    assert not verdict.ok
    x1, x2 = verdict.witness
    assert x1 < x2 and f.reflect().eval(x1) > f.reflect().eval(x2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nondecreasing_is_nonincreasing_of_the_negation(seed):
    # the negation rule agrees with the reflect-and-mirror decision it
    # replaced, and its witnesses are decreasing pairs of f inside [a, b].
    # (The mirrored witnesses are not: at a downward jump of f the mirror
    # lands on the jump's right value, so f(x1) = f(x2) there.)
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, halfwidth=2, max_pieces=4, max_deg=3)
    a, b = sorted(rat(int(k), 4) for k in rng.choice(np.arange(-10, 11), size=2, replace=False))
    verdict = is_nonincreasing_on(-f, a, b)
    assert verdict.ok == reference_is_nondecreasing_on(f, a, b).ok
    if not verdict.ok:
        x1, x2 = verdict.witness
        assert a <= x1 < x2 <= b and f.eval(x1) > f.eval(x2)


def test_is_nonnegative():
    assert is_nonnegative(tent(-1, 0, 1)).ok
    verdict = is_nonnegative(PiecewisePoly([0, 2], [Poly([-1, 1])]))
    assert not verdict.ok
    assert verdict.witness is not None


def _decisions(f, a, b):
    """The monotone decisions on [a, b] and [a, oo) and the sign decision of f."""
    return [is_nonincreasing_on(f, a, b), is_nonincreasing_on(f, a), is_nonnegative(f)]


def _reference_decisions(f, a, b):
    return [reference_is_nonincreasing_on(f, a, b), reference_is_nonincreasing_on(f, a), reference_is_nonnegative(f)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_integer_decisions_match_the_fraction_oracle(seed):
    # verdict and witness, bit for bit, on random real functions, with a and
    # b at quarter points and with b = None
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, halfwidth=2, max_pieces=4, max_deg=3)
    a, b = sorted(rat(int(k), 4) for k in rng.choice(np.arange(-10, 11), size=2, replace=False))
    assert _decisions(f, a, b) == _reference_decisions(f, a, b)
    assert _decisions(-f, a, b) == _reference_decisions(-f, a, b)


def test_integer_decisions_match_the_fraction_oracle_on_benchmark_profiles():
    # the 23 profiles of the exact-profiles benchmark, and their negations
    from splitnorm.normprofile import check_monotone, norm_profile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
        import workloads
    finally:
        sys.path.pop(0)
    jobs = [j for j in workloads.exact_profiles(1) if "table" in j]
    assert len(jobs) == 23
    for job in jobs:
        prof = norm_profile(inputs.to_piecewise(job["table"]), job["p"])
        assert check_monotone(prof) == reference_is_nonincreasing_on(prof.profile, 0, prof.t_max), job["name"]
        for g in (prof.profile, -prof.profile):
            assert _decisions(g, 0, prof.t_max) == _reference_decisions(g, 0, prof.t_max), job["name"]


def _count_square_free(monkeypatch):
    calls = []
    real_square_free = polyalg._square_free
    monkeypatch.setattr(polyalg, "_square_free", lambda q: calls.append(q) or real_square_free(q))
    return calls


def test_root_free_pieces_take_no_square_free_part(monkeypatch):
    # every piece of the indicator's p = 4 profile has a derivative window
    # without sign variations: the double root at t = 1/2 is an end root
    from splitnorm.normprofile import check_monotone, norm_profile

    prof = norm_profile(indicator(-1, 1), 4)
    calls = _count_square_free(monkeypatch)
    assert check_monotone(prof).ok and is_nonnegative(prof.profile).ok
    assert calls == []


def test_double_root_inside_falls_back_to_isolation(monkeypatch):
    # -(x - 1/2)^3 on (0, 1): the derivative -3 (x - 1/2)^2 has a double
    # root at 1/2, so its window varies and the square-free part is formed
    f = PiecewisePoly([0, 1], [Poly([rat(1, 8), -rat(3, 4), rat(3, 2), -1])])
    calls = _count_square_free(monkeypatch)
    assert is_nonincreasing_on(f, 0, 1) == reference_is_nonincreasing_on(f, 0, 1) == polyalg.MonotoneVerdict(True)
    assert len(calls) == 1


def test_descartes_overcount_without_roots_matches_the_oracle(monkeypatch):
    # d = x^2 - x + 5/16 has no real root, but its window over (0, 1) has two
    # sign variations: isolation runs and finds one region
    d = Poly([rat(5, 16), -1, 1])
    f = PiecewisePoly([0, 1], [Poly([0, rat(5, 16), -rat(1, 2), rat(1, 3)])])  # f' = d > 0
    assert f.pieces[0].derivative() == d
    calls = _count_square_free(monkeypatch)
    for g in (f, -f):
        assert _decisions(g, 0, 1) == _reference_decisions(g, 0, 1)
    assert calls  # the pre-test passed it on
    assert not is_nonincreasing_on(f, 0, 1).ok and is_nonincreasing_on(-f, 0, 1).ok


def test_increase_witness_equals_the_oracle():
    # a rising line (no root: one region) and (x - 1/3)^2 (a root inside: the
    # rising region after it), on a quarter-point window and on [0, oo)
    for f in (PiecewisePoly([0, 1], [Poly([0, 1])]),
              PiecewisePoly([-1, rat(1, 2), 1], [Poly([rat(1, 9), -rat(2, 3), 1]), Poly([2])])):
        for a, b in ((rat(-1, 4), rat(3, 4)), (rat(0), None)):
            verdict = is_nonincreasing_on(f, a, b)
            assert not verdict.ok
            assert verdict == reference_is_nonincreasing_on(f, a, b)
            x1, x2 = verdict.witness
            assert x1 < x2 and f.eval(x1) < f.eval(x2)


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def test_isolate_sqrt2():
    ivs = isolate_real_roots(Poly([-2, 0, 1]), 0, 2)
    assert len(ivs) == 1
    a, b = ivs[0]
    assert a < b and a * a < 2 < b * b


def test_isolate_no_real_roots():
    assert isolate_real_roots(Poly([1, 0, 1]), -10, 10) == []


def test_isolate_three_roots():
    ivs = isolate_real_roots(Poly([-6, 11, -6, 1]), 0, 4)
    assert len(ivs) == 3
    for (a, b), r in zip(ivs, (1, 2, 3)):
        assert a <= r <= b
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        assert b1 <= a2


def test_isolate_open_interval_excludes_endpoints():
    ivs = isolate_real_roots(Poly([-6, 11, -6, 1]), 1, 3)
    assert len(ivs) == 1  # only the root at 2 is interior


def test_isolate_multiple_root():
    # (x-1)^2 (x+2): the square-free reduction still isolates both roots
    p = Poly([2, -3, 0, 1])
    ivs = isolate_real_roots(p, -5, 5)
    assert len(ivs) == 2


def test_isolate_zero_polynomial_raises():
    with pytest.raises(SplitnormError, match=exactly("cannot isolate roots of the zero polynomial")):
        isolate_real_roots(Poly([]), 0, 1)


def test_sign_regions_square_free_once(monkeypatch):
    # _sign_regions hands its square-free part to the isolation, which must
    # not compute it again; the regions stay those of the sign changes
    import splitnorm.polyalg as PA

    calls = []
    real_square_free = PA._square_free
    monkeypatch.setattr(PA, "_square_free", lambda q: calls.append(q) or real_square_free(q))
    cases = [
        ([-6, 11, -6, 1], 0, 4, [-1, 1, -1, 1]),  # (x-1)(x-2)(x-3)
        ([2, -3, 0, 1], -5, 5, [-1, 1, 1]),  # (x-1)^2 (x+2): no change at 1
        ([1, 0, 1], -10, 10, [1]),  # its window varies, so isolation runs
    ]
    for k, (cs, lo, hi, signs) in enumerate(cases, start=1):
        p = Poly(cs)
        regions = PA._sign_regions(cs, rat(lo), rat(hi))
        assert len(calls) == k
        assert [sign for _, _, sign in regions] == signs
        for sample, anchor, sign in regions:
            assert lo < sample < anchor < hi and sign * p.eval(sample) > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_isolate_products_of_known_roots(seed):
    # build p = prod (x - r_j) with distinct rationals, some clustered close
    rng = np.random.default_rng(seed)
    roots = set()
    while len(roots) < int(rng.integers(2, 7)):
        roots.add(rat(int(rng.integers(-12, 13)), int(rng.integers(1, 9))))
    p = Poly([1])
    for r in roots:
        p = p * Poly([-r, 1])
    ivs = isolate_real_roots(p, rat(-20), rat(20))
    assert len(ivs) == len(roots)
    for (a, b), r in zip(ivs, sorted(roots)):
        assert a <= r <= b
        if a < b:
            assert p.eval(a) != 0 and p.eval(b) != 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_isolation_matches_rational_reference(seed):
    # dense random polynomials and products with repeated rational roots, on
    # windows whose ends and dyadic midpoints are often roots
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        p = Poly([rat(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(int(rng.integers(2, 10)))])
    else:
        p = Poly([int(rng.integers(1, 4))])
        for _ in range(int(rng.integers(1, 6))):
            r = rat(int(rng.integers(-8, 9)), int(rng.choice([1, 2, 4, 3])))
            for _ in range(int(rng.integers(1, 4))):
                p = p * Poly([-r, 1])
    if p.degree < 1:
        return
    lo = rat(int(rng.integers(-8, 1)), int(rng.choice([1, 2])))
    hi = lo + int(rng.choice([1, 2, 4, 8]))
    assert isolate_real_roots(p, lo, hi) == rational_isolation_reference(p, lo, hi)


def test_square_free_certificate_skips_the_rational_gcd(monkeypatch):
    import splitnorm.polyalg as PA

    calls = []
    real_gcd = PA._poly_gcd
    monkeypatch.setattr(PA, "_poly_gcd", lambda a, b: calls.append(a) or real_gcd(a, b))
    p = Poly([rat(-6), rat(11, 2), rat(3), rat(1, 3)])  # square-free, rational coefficients
    assert PA._square_free(p) is p
    assert calls == []
    # (x - 1)^2 (x + 2): the modular gcd is x - 1, so the rational Euclid runs
    assert PA._square_free(Poly([2, -3, 0, 1])) == Poly([-2, 1, 1])
    assert len(calls) == 1


def test_square_free_fallback_when_the_prime_divides_the_leading_coefficient(monkeypatch):
    import splitnorm.polyalg as PA

    prime = (1 << 61) - 1
    calls = []
    real_gcd = PA._poly_gcd
    monkeypatch.setattr(PA, "_poly_gcd", lambda a, b: calls.append(a) or real_gcd(a, b))
    p = Poly([-1, 0, prime])  # square-free, but P | lc(p): no certificate
    assert PA._square_free(p) is p
    assert len(calls) == 1
    q = Poly([2, -3, 0, 1]) * prime  # (x - 1)^2 (x + 2) times P
    assert PA._square_free(q) == Poly([-2, 1, 1]) * prime
    assert len(calls) == 2
    # x^2 + P is square-free over Q, but x^2 mod P is not: an unlucky prime
    # makes the certificate fail and the exact fallback decide
    r = Poly([prime, 0, 1])
    assert PA._square_free(r) is r
    assert len(calls) == 3
    assert len(isolate_real_roots(Poly([-1, 0, prime]), 0, 1)) == 1  # the root 1/sqrt(P)


def test_isolate_repeated_roots_inside_at_ends_and_at_midpoints():
    def linear_power(r, k):
        out = Poly([1])
        for _ in range(k):
            out = out * Poly([-rat(r), 1])
        return out

    # roots -1 (double, at lo), 1 (double, the first midpoint), 2 (the
    # midpoint of the right half), 3 (triple, at hi) and 1/3 (inside)
    p = linear_power(-1, 2) * linear_power(1, 2) * linear_power(2, 1) * linear_power(3, 3) * linear_power(rat(1, 3), 1)
    ivs = isolate_real_roots(p, -1, 3)
    assert ivs == [(rat(0), rat(1, 2)), (rat(1), rat(1)), (rat(2), rat(2))]
    assert ivs == rational_isolation_reference(p, -1, 3)
    # a double root at a dyadic point found deep in the recursion
    q = linear_power(rat(5, 8), 2) * linear_power(rat(3, 4), 1) * Poly([-2, 0, 1])
    ivs = isolate_real_roots(q, 0, 2)
    assert (rat(5, 8), rat(5, 8)) in ivs and (rat(3, 4), rat(3, 4)) in ivs
    assert ivs == rational_isolation_reference(q, 0, 2)


def test_isolate_exact_root_hit_by_bisection():
    # (0, 1/2) isolates 1/4, but touches lo and the root 1/2: refining it
    # bisects onto the exact root 1/4
    p = Poly([-rat(1, 4), 1]) * Poly([-rat(1, 2), 1])
    assert isolate_real_roots(p, 0, 1) == [(rat(1, 4), rat(1, 4)), (rat(1, 2), rat(1, 2))]
    # (x - 1/3)(x - 3/4) on (0, 2) isolates (1/4, 1/2) and (1/2, 1); the
    # second region's sample is 1/2, and shrinking (1/2, 1) past it bisects
    # onto the exact root 3/4
    import splitnorm.polyalg as PA

    q = Poly([-rat(1, 3), 1]) * Poly([-rat(3, 4), 1])
    regions = PA._sign_regions([3, -13, 12], rat(0), rat(2))  # 12 q = (3x - 1)(4x - 3)
    assert regions[1] == (rat(1, 2), rat(5, 8), -1)
    assert [sign for _, _, sign in regions] == [1, -1, 1]
    for sample, anchor, sign in regions:
        assert 0 < sample < anchor < 2 and sign * q.eval(sample) > 0 and sign * q.eval(anchor) > 0


def test_root_isolation_invariants_raise():
    import splitnorm.polyalg as PA
    from splitnorm.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        PA._divide_root_at_one([1, 1])  # 1 + x does not vanish at 1
    assert PA._divide_root_at_one([-1, 0, 1]) == [1, 1]


def test_root_isolation_depth_guard_raises(monkeypatch):
    import splitnorm.polyalg as PA
    from splitnorm.errors import InvariantViolation

    monkeypatch.setattr(PA, "_variations_01", lambda w: 2)  # never settles
    with pytest.raises(InvariantViolation):
        isolate_real_roots(Poly([-2, 0, 1]), 0, 2)


def test_root_isolation_invariants_survive_python_O():
    # the checks are raises, not asserts, so `python -O` keeps them
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from splitnorm.errors import InvariantViolation\n"
        "import splitnorm.polyalg as PA\n"
        "try:\n    PA._divide_root_at_one([1, 1])\nexcept InvariantViolation:\n    print('raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_integer_coefficients_use_only_numerator_and_denominator():
    # the integer kernels read a rational through these two attributes
    # alone, never its arithmetic
    import splitnorm.polyalg as PA

    class Q:
        def __init__(self, n, d):
            self.numerator, self.denominator = n, d

    assert PA._int_primitive([Q(1, 2), Q(-3, 4), Q(0, 1)]) == [2, -3, 0]
    assert PA._int_primitive([Q(6, 1), Q(4, 1)]) == [3, 2]


# ---------------------------------------------------------------------------
# properties (randomized, exact assertions)
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_commutes(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    g = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    assert convolve(f, g) == convolve(g, f)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_associates(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1)
    g = rnd_pp(rng, max_pieces=2, max_deg=1)
    h = rnd_pp(rng, max_pieces=2, max_deg=1)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_support_additivity(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    g = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    conv = convolve(f, g)
    if conv.is_zero():
        return
    (flo, fhi), (glo, ghi) = f.support(), g.support()
    lo, hi = conv.support()
    assert flo + glo <= lo and hi <= fhi + ghi


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_is_continuous(seed):
    # convolving bounded compactly supported functions gives a continuous
    # function: one-sided limits agree exactly at every breakpoint
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    g = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    conv = convolve(f, g)
    for b in conv.breakpoints:
        assert conv.left_limit(b) == conv.eval(b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_l2_inner_positive_definite(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    value = l2_inner(f, f)
    assert value > 0  # canonical nonzero functions have positive energy


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_monotone_checker_agrees_with_grid_search(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=False)
    a = rat(int(rng.integers(-2, 2)), 2)
    verdict = is_nonincreasing_on(f, a)
    if verdict.ok:
        assert grid_increase_search(f, a) is None
    else:
        x1, x2 = verdict.witness
        assert a <= x1 < x2
        assert f.eval(x1) < f.eval(x2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_json_roundtrip_bit_exact(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=3, complex_ok=True)
    doc = json.loads(json.dumps(f.to_json_dict()))
    assert from_json_dict(doc) == f


def test_json_wire_format_shape():
    doc = indicator(-1, 1).to_json_dict()
    assert doc == {"breakpoints": ["-1", "1"], "pieces": [[["1", "0"]]]}


def test_canonical_form_merges_and_trims():
    f = PiecewisePoly([0, 1, 2], [Poly([1]), Poly([1])])
    assert f == indicator(0, 2)
    g = PiecewisePoly([0, 1, 2], [Poly([1]), Poly([])])
    assert g == indicator(0, 1)
    assert PiecewisePoly([0, 1], [Poly([])]).is_zero()


def test_interior_zero_piece_is_kept():
    f = indicator(0, 1) + indicator(2, 3)
    assert len(f.pieces) == 3
    assert f.eval(rat(3, 2)) == 0
