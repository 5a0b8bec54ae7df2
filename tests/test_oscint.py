"""Closed-form transforms, certified quadrature, and tail bounds."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm import oscint
from splitnorm.errors import BudgetExceeded, SplitnormError
from splitnorm.oscint import FTEvaluator, NumericNorm, _envelope_tail, norm_numeric
from splitnorm.normprofile import norm_profile
from splitnorm.polyalg import indicator, l2_inner, tent
from splitnorm.scalars import gauss, rat
from splitnorm.splitcore import apply_split

from .helpers import ReferenceEvaluator, exactly, poly_integral, reference_norm_numeric, rnd_pp

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
        pieces = [parts(poly_integral(q, a, b)) for a, b, q in zip(f.breakpoints, f.breakpoints[1:], f.pieces)]
        want = complex(float(sum(re for re, _ in pieces)), float(sum(im for _, im in pieces)))
        assert abs(FTEvaluator(f)(0.0) - want) < 1e-12 * (1 + abs(want))


def test_evaluator_reads_the_split_function_off_the_halves_of_f():
    # FTEvaluator(f, t) moves f's jump rows, cut at 0, to b -+ t: its rows,
    # breakpoints, phases and radius are those of the split function's own
    # evaluator bit for bit, and each moment is the exact int x^n S_t f dx,
    # rounded once
    from splitnorm.cli import parse_function_spec
    from splitnorm.polyalg import Poly
    from splitnorm.scalars import parts

    specs = (
        "ind:-1,1", "tent:-1,0,1", "ind:-1,1 + ind:10,11 + ind:-11,-10", "ind:0,1 + i*ind:-1,0",
        "ind:0,1", "tent:-2,-1,0",           # supports that touch 0 from either side
        "ind:1,2", "ind:-3,-1/3",            # supports that miss 0
        "poly:[-1,1]:1,0,-1", "tent:-1,0,1 + ind:-1/2,1/2",  # continuous at 0
    )
    fns = [parse_function_spec(s) for s in specs]
    fns += [rnd_pp(np.random.default_rng(seed), max_pieces=3, max_deg=3, complex_ok=seed % 2 == 1) for seed in range(8)]
    assert {f.is_real() for f in fns} == {True, False}
    for f in fns:
        for t in (0, rat(1, 4), rat(1, 3), rat(12)):
            g = apply_split(f, t)
            got, want = FTEvaluator(f, t), FTEvaluator(g)
            assert got.breaks == want.breaks, (f, t)
            for name in ("jumps", "_freqs", "radius"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (f, t, name)
            for n, moment in enumerate(got._moments):
                xn = (rat(0),) * n
                exact = [parts(poly_integral(Poly(xn + q.coeffs, xn + q.im), a, b))
                         for a, b, q in zip(g.breakpoints, g.breakpoints[1:], g.pieces)]
                assert moment == complex(float(sum(re for re, _ in exact)), float(sum(im for _, im in exact))), (f, t, n)


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
        # the one-node panel form of the jump rows, which __call__ takes only past y0
        s = np.array([[1.0 / (2j * math.pi * y)]])
        boundary = ev._jump_sum(np.array([y]), np.zeros(1), (0.0,), s)[0, 0]
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


# real and complex, with ||f||_2^2 a float (2) and not one (2/3, 32/3, 20/3)
P2_CASES = (
    CHI,
    tent(-1, 0, 1),
    TWO_BUMP + tent(-1, 0, 1) * 2,
    indicator(0, 1) + indicator(-1, 0) * gauss(0, 1),
    indicator(0, 1) * gauss(1, 1) + tent(-1, 0, 1) * gauss(0, 2),
)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.1, 12.0])
def test_norm_numeric_p2_is_the_rounded_l2_norm(t):
    # Plancherel: (N_t f)^2 = ||S_t f||_2^2 = ||f||_2^2 for every t, and
    # norm_numeric returns that rational rounded once, with an error bar of
    # 0 exactly where the rounding is exact
    exact_floats = set()
    for f in P2_CASES:
        want = l2_inner(f, f)
        res = norm_numeric(f, 2.0, t, target_abs_err=1e-6)
        assert abs(rat(res.value) - want) <= rat(res.abs_error)
        assert (res.abs_error == 0.0) == (rat(res.value) == want)
        assert res.value == float(want) and res.abs_error <= math.ulp(res.value)
        exact_floats.add(res.abs_error == 0.0)
    assert exact_floats == {True, False}


def test_norm_numeric_p2_builds_no_split_function(monkeypatch):
    # no p builds S_t f: the evaluator reads its rows off the halves of f, and
    # ||S_t f||_2 = ||f||_2, so p = 2 builds no evaluator either; an infinite
    # or NaN t is still refused, as at every other p, by its conversion
    from splitnorm import splitcore

    calls = Counter()
    split, evaluator = splitcore.apply_split, oscint.FTEvaluator

    def counting_split(f, t):
        calls["split"] += 1
        return split(f, t)

    class CountingEvaluator(evaluator):
        def __init__(self, *args):
            calls["evaluator"] += 1
            super().__init__(*args)

    monkeypatch.setattr(splitcore, "apply_split", counting_split)
    monkeypatch.setattr(oscint, "FTEvaluator", CountingEvaluator)
    for f in P2_CASES:
        for t in (0.0, 0.25, 12.0):
            norm_numeric(f, 2.0, t, target_abs_err=1e-6)
    assert calls == Counter()
    for p in (2.0, 3.0):
        with pytest.raises(OverflowError, match="cannot convert Infinity to integer ratio"):
            norm_numeric(CHI, p, math.inf)
        with pytest.raises(ValueError, match="cannot convert NaN to integer ratio"):
            norm_numeric(CHI, p, math.nan)
    assert calls == Counter()
    norm_numeric(CHI, 3.0, 1.0, target_abs_err=1e-3)
    assert calls == Counter(evaluator=1)


def test_norm_numeric_p2_budget_exceeded_carries_result():
    # 2/3 is no float, so the one rounding is the error: a target below it fails
    res = norm_numeric(tent(-1, 0, 1), 2.0, 0.25, target_abs_err=1e-6)
    assert res.abs_error > 0.0
    with pytest.raises(BudgetExceeded, match="exceeds the target") as info:
        norm_numeric(tent(-1, 0, 1), 2.0, 0.25, target_abs_err=res.abs_error / 2)
    assert info.value.result == res


def test_norm_numeric_even_p_cross_check():
    # at p = 4 and 6 the exact engine gives (N_t f)^p: on the benchmark's four
    # inputs, at every t and target, the reported error bar encloses it at
    # the float t (1/3 is no dyadic rational, so its tail takes the envelope)
    from splitnorm.cli import parse_function_spec

    complex_f = parse_function_spec("ind:0,1 + i*ind:-1,0")
    for f in (CHI, tent(-1, 0, 1), TWO_BUMP, complex_f):
        for p in (4, 6):
            prof = norm_profile(f, p)
            for t, target in itertools.product((0.0, 1 / 3, 0.25, 1.0, 5.0, 12.0), (1e-3, 1e-6)):
                res = norm_numeric(f, p, t, target_abs_err=target)
                assert abs(rat(res.value) - prof.value_at(rat(t))) <= rat(res.abs_error), (f, p, t, target)


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
    # the two-bump function at p = 3, t = 0.1, 1e-6 needs more nodes than the
    # cap: the float 0.1 is exactly a dyadic rational whose denominator gives
    # the transform's leading term a period near 2^55, so the envelope tail
    # places Y.  The message names the count that is
    # compared with the cap
    from splitnorm import oscint

    cap = oscint._NODE_CAP
    with pytest.raises(BudgetExceeded) as info:
        norm_numeric(TWO_BUMP, 3.0, 0.1, target_abs_err=1e-6)
    msg = str(info.value)
    assert "nodes" in msg and f"node cap {cap}" in msg
    assert float(msg.split()[0]) > cap


def test_node_cap_jobs_finish_under_the_periodic_mean_tail():
    # these exited 4 before integrating, with the envelope tail's Y near
    # err^{-1/(p-1)}; the periodic-mean tail ends the grid near err^{-1/p}.
    # I(p) = int |F|^p is log-convex in p (Lyapunov), I(2) = ||f||_2^2 and
    # I(4) comes from the exact engine
    def run(f, p, t, target):
        res = norm_numeric(f, p, t, target_abs_err=target)
        assert res.abs_error <= target
        return res

    i3 = run(CHI, 3.0, 1.0, 1e-6)
    i4 = float(norm_profile(CHI, 4).value_at(rat(1)))
    # ind, p = 1.5, t = 1, 1e-3: I(2) <= I(1.5)^{2/3} I(3)^{1/3}
    i15 = run(CHI, 1.5, 1.0, 1e-3)
    assert i15.value + i15.abs_error >= (2.0 ** 3 / (i3.value + i3.abs_error)) ** 0.5
    # ind, p = 2.5, t = 1, 1e-6: between I(3)^{3/2} / I(4)^{1/2} and (I(2) I(3))^{1/2}
    i25 = run(CHI, 2.5, 1.0, 1e-6)
    assert i25.value - i25.abs_error <= (2.0 * (i3.value + i3.abs_error)) ** 0.5
    assert i25.value + i25.abs_error >= (i3.value - i3.abs_error) ** 1.5 / i4 ** 0.5
    # ind, p = 3, t = 12, 1e-6: the paper's table
    assert abs(run(CHI, 3.0, 12.0, 1e-6).value - 2.6121) <= 0.01
    # ind, p = 3, t = 1, 1e-9: the 1e-6 result and the table
    i3_fine = run(CHI, 3.0, 1.0, 1e-9)
    assert abs(i3_fine.value - i3.value) <= i3_fine.abs_error + i3.abs_error
    assert abs(i3_fine.value - 2.6124) <= 0.01
    # two-bump, p = 3, t = 1, 1e-6: the 1e-3 result, and I(3) <= (I(2) I(4))^{1/2}
    tb = run(TWO_BUMP, 3.0, 1.0, 1e-6)
    tb_coarse = norm_numeric(TWO_BUMP, 3.0, 1.0, target_abs_err=1e-3)
    assert abs(tb.value - tb_coarse.value) <= tb.abs_error + tb_coarse.abs_error
    tb4 = float(norm_profile(TWO_BUMP, 4).value_at(rat(1)))
    assert tb.value - tb.abs_error <= (float(l2_inner(TWO_BUMP, TWO_BUMP)) * tb4) ** 0.5


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

    # the carried result of a run that misses its target: it stops below half
    # the quadrature target, short of the node cap, and misses only through
    # the 1e-13 (1 + |I|) floating-point allowance
    with pytest.raises(BudgetExceeded) as want:
        reference_norm_numeric(CHI, 6.0, 0.5, 1e-13)
    with pytest.raises(BudgetExceeded) as got:
        norm_numeric(CHI, 6.0, 0.5, target_abs_err=1e-13)
    assert str(got.value) == str(want.value)
    assert got.value.result.value.hex() == want.value.result.value.hex()
    assert got.value.result.abs_error.hex() == want.value.result.abs_error.hex()


def _mixed_width_grid(radius, Y, seed):
    """Panel (mid, half) of the norm_numeric grid on [-Y, Y], with a random
    eighth of its panels bisected as a round would, so that widths mix."""
    width = oscint._panel_width(radius)
    edges = np.linspace(-Y, Y, 2 * int(math.ceil(Y / width)) + 1)
    lo, hi = edges[:-1], edges[1:]
    split = np.random.default_rng(seed).random(len(lo)) < 0.125
    a, b = lo[split], hi[split]
    m = 0.5 * (a + b)
    lo = np.concatenate((lo[~split], np.column_stack((a, m)).ravel()))
    hi = np.concatenate((hi[~split], np.column_stack((m, b)).ravel()))
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _phase_allowance(ev, y, reach):
    """sum_k (2 pi |b_k| reach + 16 + 2K) sum_r |J[k][r]| |s|^{r+1} at the nodes
    y, s = 1 / (2 pi i y): the docstring's phase rounding in units of u, for
    argument errors of 2 pi |b_k| reach u."""
    abs_s = 1.0 / np.abs(2.0 * np.pi * y)
    bound = np.zeros(y.shape)
    for b, row in zip(ev.breaks, ev.jumps):
        weight = sum(abs(c) * abs_s ** (r + 1) for r, c in enumerate(row))
        bound += weight * (2.0 * math.pi * abs(float(b)) * reach + 16.0 + 2.0 * len(ev.jumps))
    return bound


def test_boundary_sum_matches_one_exp_per_breakpoint():
    # the product e^{-2 pi i b mid} e^{-2 pi i b half x} against the direct
    # e^{-2 pi i b y}, one exp per breakpoint and node, on panel grids out to
    # |y| = 400, within the docstring's phase rounding: each term moves by
    # its argument errors times sum_r |J[k][r]| |s|^{r+1}.  The direct argument
    # rounds y, 2 pi y and its product with b; the product form rounds
    # 2 pi b, then its products with mid and with half x.  That is at most
    # 2 pi |b| (3 |y| + 2 |mid| + 4 |half|) u, and 16 + 2 K units cover the
    # exps, the two complex products, the powers of s and the K-term sums
    from splitnorm.cli import parse_function_spec

    specs = [
        "ind:-1,1",                      # one +-b pair
        "tent:-1,0,1",                   # rows of length 2, and b = 0
        "poly:[-1,1]:1,0,-1",            # a quadratic piece: rows of length 3
        "ind:0,1 + ind:3,5",             # no +-b pair
        "ind:0,1 + i*ind:-1,0",          # complex jumps
        "ind:-1,1 + ind:10,11 + ind:-11,-10",
    ]
    u = 2.0 ** -53
    nodes = np.asarray(oscint._GK_NODES)
    longest_row, worst = 0, 0.0
    for spec in specs:
        f = parse_function_spec(spec)
        for t in (0, rat(1, 4), rat(5, 3)):
            ev = ReferenceEvaluator(apply_split(f, t))
            mid, half = _mixed_width_grid(ev.radius, 400.0, len(spec))
            y = mid[:, None] + half[:, None] * nodes
            far = np.abs(2.0 * np.pi * y) * ev.radius >= 0.5  # the nodes the jump rows serve
            got = ev.on_panels(mid, half)[far]
            want = ev.direct(y[far])
            reach = (3.0 * np.abs(y) + 2.0 * np.abs(mid)[:, None] + 4.0 * half[:, None])[far]
            bound = _phase_allowance(ev, y[far], reach)
            gap = np.abs(got - want)
            assert np.all(gap <= u * bound), (spec, t, float(np.max(gap / (u * bound))))
            worst = max(worst, float(np.max(gap)))
            longest_row = max(longest_row, ev.jumps.shape[1])
    assert longest_row == 3
    assert 0.0 < worst < 1e-12


def test_a_panels_bits_do_not_depend_on_its_batch():
    # the bisection oracles compare bits, so the panel form must give each
    # panel the same values whichever panels share its call, and so must
    # _panel_integrate, whose K15 and G7 sums are one in-order einsum a panel
    ev = FTEvaluator(apply_split(TWO_BUMP, rat(5, 3)))
    mid, half = _mixed_width_grid(ev.radius, 60.0, 1)
    order = np.random.default_rng(2).permutation(len(mid))[:3000]
    mid, half = mid[order], half[order]
    assert len(set(half.tolist())) > 1

    def integrand(m, h):
        return np.abs(ev.on_panels(m, h)) ** 3.0

    whole, sums = ev.on_panels(mid, half), oscint._panel_integrate(integrand, mid, half)
    for size in (1, 2, 3, 64):
        chunks = [ev.on_panels(mid[k : k + size], half[k : k + size]) for k in range(0, len(mid), size)]
        assert np.array_equal(np.concatenate(chunks), whole), size
        chunks = [oscint._panel_integrate(integrand, mid[k : k + size], half[k : k + size]) for k in range(0, len(mid), size)]
        for got, want in zip(map(np.concatenate, zip(*chunks)), sums):
            assert np.array_equal(got, want), size


def test_mirrored_panels_are_conjugate_for_real_input():
    # the fold rests on F(-y) = conj F(y) for a real split function: the
    # panel (-mid, half) holds the conjugates of (mid, half)'s nodes, in
    # reverse order, within the docstring's phase rounding for each of the
    # two calls (the product form's share of the allowance above,
    # 2 pi |b| (2 |mid| + 4 |half|) u and 16 + 2 K units); near the origin
    # the moment series, whose moments are then real, within 64 u of them
    u = 2.0 ** -53
    nodes = np.asarray(oscint._GK_NODES)
    for f in (CHI, tent(-1, 0, 1), TWO_BUMP):
        for t in (rat(1, 4), rat(12)):
            ev = FTEvaluator(apply_split(f, t))
            mid, half = _mixed_width_grid(ev.radius, 400.0, 3)
            y = mid[:, None] + half[:, None] * nodes
            far = np.abs(2.0 * np.pi * y) * ev.radius >= 0.5
            gap = np.abs(ev.on_panels(-mid, half)[:, ::-1] - np.conj(ev.on_panels(mid, half)))
            reach = np.broadcast_to(2.0 * np.abs(mid)[:, None] + 4.0 * half[:, None], y.shape)[far]
            bound = _phase_allowance(ev, y[far], reach)
            assert np.all(gap[far] <= 2.0 * u * bound), (f, t)
            assert np.all(gap[~far] <= 64.0 * u * np.sum(np.abs(ev._moments))), (f, t)


def test_each_bisection_round_is_one_evaluator_call(monkeypatch):
    # one call for the initial grid (168 panels on [0, Y], one batch) and one
    # per round, where the one-panel-at-a-time loop made one per bisected
    # panel: here 3 rounds bisect 29 panels
    stats = Counter()
    want = reference_norm_numeric(CHI, 6.0, 0.25, 1e-11, stats=stats)
    assert stats["bisected"] > stats["rounds"] > 1

    calls = Counter()
    inner = FTEvaluator.on_panels

    def counting_call(self, mid, half):
        calls["n"] += 1
        return inner(self, mid, half)

    monkeypatch.setattr(FTEvaluator, "on_panels", counting_call)
    got = norm_numeric(CHI, 6.0, 0.25, target_abs_err=1e-11)
    assert calls["n"] == 1 + stats["rounds"]
    assert got == want


def test_no_bisection_round_passes_the_node_cap(monkeypatch):
    # a cap one node short of the first round's bisections cuts that round
    # to one panel fewer and ends the run there, in the library and in the
    # oracle alike (both read the cap at call time)
    sizes = []
    inner = FTEvaluator.on_panels

    def recording_call(self, mid, half):
        sizes.append(len(mid))
        return inner(self, mid, half)

    monkeypatch.setattr(FTEvaluator, "on_panels", recording_call)
    norm_numeric(CHI, 6.0, 0.25, target_abs_err=1e-11)
    n_half, first = sizes[0], sizes[1] // 2
    assert first > 1
    monkeypatch.setattr(oscint, "_NODE_CAP", 30 * (n_half + first) - 1)
    sizes.clear()
    with pytest.raises(BudgetExceeded) as got:
        norm_numeric(CHI, 6.0, 0.25, target_abs_err=1e-11)
    assert sizes == [n_half, 2 * (first - 1)]
    with pytest.raises(BudgetExceeded) as want:
        reference_norm_numeric(CHI, 6.0, 0.25, 1e-11)
    assert got.value.result.value.hex() == want.value.result.value.hex()
    assert got.value.result.abs_error.hex() == want.value.result.abs_error.hex()


def test_folded_norm_matches_the_full_line():
    # a real input integrates 2 |f^|^p on [0, Y]; the full-line oracle
    # integrates |f^|^p on [-Y, Y].  They agree within the summed error bars,
    # and a job that the node cap refuses up front is refused by both alike
    def outcome(run):
        try:
            return run(), None
        except BudgetExceeded as exc:
            return exc.result, str(exc)

    for f in (CHI, tent(-1, 0, 1), TWO_BUMP):
        # no p = 2: norm_numeric answers it exactly and integrates nothing
        for p in (2.5, 3.0, 4.0, 6.0):
            for t, target in itertools.product((0.25, 12.0), (1e-3, 1e-6)):
                got, got_msg = outcome(lambda: norm_numeric(f, p, t, target_abs_err=target))
                want, want_msg = outcome(lambda: reference_norm_numeric(f, p, t, target, full_line=True))
                if got is None or want is None:
                    assert got is want is None and got_msg == want_msg, (f, p, t, target)
                else:
                    assert abs(got.value - want.value) <= got.abs_error + want.abs_error, (f, p, t, target)


def test_each_grid_level_has_one_bitwise_width(monkeypatch):
    # the initial grid is n panels (start + (k + 1/2) h, h/2): every one of
    # its chunks reaches the evaluator with the one bitwise half h/2, and
    # the implied ends mid -+ half tile [start, Y] up to the rounding of mid.
    # A bisected panel (m, q) gives the pair (m - q/2, q/2), (m + q/2, q/2),
    # each child an exact half of a panel evaluated before
    from splitnorm.cli import parse_function_spec

    calls = []
    inner = FTEvaluator.on_panels

    def recording_call(self, mid, half):
        calls.append((mid.copy(), half.copy()))
        return inner(self, mid, half)

    monkeypatch.setattr(FTEvaluator, "on_panels", recording_call)
    complex_f = parse_function_spec("ind:0,1 + i*ind:-1,0")
    chunked = mixed = 0
    # the first two span two chunks of the initial grid (3178 and 2954 panels)
    for f, p, t, target in ((CHI, 3.0, 5.0, 1e-7), (complex_f, 3.0, 5.0, 1e-6), (CHI, 6.0, 0.25, 1e-11)):
        calls.clear()
        norm_numeric(f, p, t, target_abs_err=target)
        g = apply_split(f, rat(t))
        Y = oscint._place_tail(FTEvaluator(g), p, target)[0]
        n_half = math.ceil(Y / oscint._panel_width(float(g.support_radius())))
        start, n_panels = (0.0, n_half) if g.is_real() else (-Y, 2 * n_half)
        n_chunks = -(-n_panels // oscint._PANEL_CHUNK)
        chunked += n_chunks > 1
        initial, rounds = calls[:n_chunks], calls[n_chunks:]
        assert [len(set(half.tolist())) for _, half in initial] == [1] * n_chunks
        mid, half = (np.concatenate(col) for col in zip(*initial))
        assert len(mid) == n_panels and set(half.tolist()) == {0.5 * ((Y - start) / n_panels)}
        assert mid[0] - half[0] == start and abs(mid[-1] + half[-1] - Y) <= math.ulp(Y)
        # each mid within 1.5 ulp(Y) (its product and its sum), each end 1/2 more
        assert np.all(np.abs((mid[1:] - half[1:]) - (mid[:-1] + half[:-1])) <= 4.0 * math.ulp(Y))

        seen = {}  # half -> the mids evaluated at that half-width
        for m, q in zip(mid.tolist(), half.tolist()):
            seen.setdefault(q, set()).add(m)
        assert rounds, (f, p, t)
        for sub_mid, sub_half in rounds:
            mixed += len(set(sub_half.tolist())) > 1
            for (lo_mid, hi_mid), (q, q2) in zip(sub_mid.reshape(-1, 2).tolist(), sub_half.reshape(-1, 2).tolist()):
                assert q == q2
                # the parent (m, 2q): m is lo_mid + q up to its rounding
                guess = lo_mid + q
                parents = [m for m in (guess, *np.nextafter(guess, [-math.inf, math.inf]).tolist())
                           if m in seen.get(2.0 * q, ()) and m - q == lo_mid and m + q == hi_mid]
                assert parents, (f, p, t, lo_mid, hi_mid, q)
            for m, q in zip(sub_mid.tolist(), sub_half.tolist()):
                seen.setdefault(q, set()).add(m)
    assert chunked == 2 and mixed > 0


def test_only_real_inputs_fold(monkeypatch):
    # the panels norm_numeric evaluates lie in [0, Y] for a real split
    # function and reach below 0 for a complex one
    from splitnorm.cli import parse_function_spec

    lowest = []
    inner = FTEvaluator.on_panels

    def recording_call(self, mid, half):
        lowest.append(float(np.min(mid - half)))
        return inner(self, mid, half)

    monkeypatch.setattr(FTEvaluator, "on_panels", recording_call)
    for f in (CHI, tent(-1, 0, 1), TWO_BUMP):
        for p, t in ((3.0, 1.0), (6.0, 5.0)):
            lowest.clear()
            norm_numeric(f, p, t, target_abs_err=1e-6)
            assert lowest and min(lowest) >= 0.0, (f, p, t)
    lowest.clear()
    norm_numeric(parse_function_spec("ind:0,1 + i*ind:-1,0"), 3.0, 1.0, target_abs_err=1e-6)
    assert min(lowest) < 0.0


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


def tail_bound(f, t, p, Y):
    """The envelope tail of the jump rows of S_t f: a proved bound on
    int_{|y|>Y} |F[S_t f]|^p, one of the tails norm_numeric closes its
    panels with."""
    return _envelope_tail(FTEvaluator(f, rat(t)).jumps, p, Y)


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

    from .helpers import _trapezoid

    for f in (indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), parse_function_spec("poly:[-1,1]:1,0,-1")):
        for t in (0.0, 0.8):
            ev = FTEvaluator(apply_split(f, rat(t)))
            for Y in (4.0, 9.0):
                ys = np.linspace(Y, Y * 60, 300001)
                vals = np.abs(ev(ys)) ** 3 + np.abs(ev(-ys)) ** 3
                observed = float(_trapezoid(vals, ys))
                assert 0 < observed < tail_bound(f, t, 3.0, Y)


def test_periodic_tail_encloses_the_integrated_tail():
    # value +- error must hold the tail of |F[S_t f]|^p on both half-lines:
    # at least the trapezoid sum on [Y, 60 Y], at most that plus the
    # envelope bound beyond 60 Y
    from splitnorm.cli import parse_function_spec
    from splitnorm.oscint import _periodic_tail

    from .helpers import _trapezoid

    fns = (indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), parse_function_spec("poly:[-1,1]:1,0,-1"), TWO_BUMP)
    for f in fns:
        ev = FTEvaluator(apply_split(f, rat(1)))
        for p in (1.5, 2.5, 3.0, 4.0, 6.0):
            budget = {1.5: 1e-3, 2.5: 1e-4}.get(p, 1e-7)
            Y, value, err = _periodic_tail(ev.breaks, ev.jumps, p, budget, 8.0, 1e6)
            assert err <= budget
            ys = np.linspace(Y, 60 * Y, 300001)
            observed = float(_trapezoid(np.abs(ev(ys)) ** p + np.abs(ev(-ys)) ** p, ys))
            beyond = _envelope_tail(ev.jumps, p, 60 * Y)
            assert value - err <= observed + beyond and observed <= value + err, (f, p)


def _lead_terms(f, t):
    """(s_k, J[k][0], C1) of the leading term P of S_t f's transform, as
    ``_periodic_tail`` hands them to ``_periodic_mean``: s_k = (b_k - b_0) / T."""
    ev = FTEvaluator(apply_split(f, rat(t)))
    lead = [(b, complex(c)) for b, c in zip(ev.breaks, ev.jumps[:, 0]) if c != 0]
    den = math.lcm(*(b.denominator for b, _ in lead))
    nums = [int((b - lead[0][0]) * den) for b, _ in lead]
    g = math.gcd(*nums)
    return [k // g for k in nums], [c for _, c in lead], (1.0 + 1e-12) * sum(abs(c) for _, c in lead)


@pytest.mark.parametrize("n", [256, 12473, 30721, 2 ** 16])
def test_fft_periodic_mean_matches_the_root_table_sum(n):
    # the mean of |P / C1|^p by one FFT against the sum over a table of 2n
    # roots, within the two allowances summed.  256 is the fewest samples the
    # mean takes; 12473 (a prime) is the largest sample goal of a seed-1
    # numeric-norms round, which takes the power of two above it, 16384, but
    # _periodic_mean still takes a prime; 30721 is one past the root-table
    # sum's first block, 2^16 the cap
    from .helpers import reference_periodic_mean

    for f, t in ((TWO_BUMP, 12), (indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), 1)):
        steps, coeffs, C1 = _lead_terms(f, t)
        for p in (1.5, 2.5, 3.0, 6.0):
            mu, fp = oscint._periodic_mean(steps, coeffs, C1, p, n)
            want, want_fp = reference_periodic_mean(steps, coeffs, C1, p, n)
            assert abs(mu - want) <= fp + want_fp and fp < 1e-6, (n, p)
            # far inside that allowance: sampling at jT/n, not the
            # midpoints, misses this by 4e-12 or more at every n here
            assert abs(mu - want) <= 64 * math.log2(n) * 2 ** -53, (n, p)


def test_periodic_tail_returns_none_past_the_sample_cap(monkeypatch):
    # two-bump at p = 4, t = 12, 1e-6 asks for 12473 samples, a seed-1
    # round's most, and takes the next power of two, n = 16384: a cap of
    # 16384 keeps its tail; one less, and the periodic tail returns None, so
    # the envelope places a larger Y
    ev = FTEvaluator(apply_split(TWO_BUMP, rat(12)))
    taken, tails = [], []
    mean, tail = oscint._periodic_mean, oscint._periodic_tail
    monkeypatch.setattr(oscint, "_periodic_mean", lambda *args: taken.append(args[-1]) or mean(*args))
    monkeypatch.setattr(oscint, "_periodic_tail", lambda *args: tails.append(tail(*args)) or tails[-1])
    want = oscint._place_tail(ev, 4.0, 1e-6)
    assert taken == [16384] and tails == [want]
    monkeypatch.setattr(oscint, "_MEAN_SAMPLES", (256, 16384))
    assert oscint._place_tail(ev, 4.0, 1e-6) == want
    monkeypatch.setattr(oscint, "_MEAN_SAMPLES", (256, 16383))
    assert oscint._place_tail(ev, 4.0, 1e-6)[0] > want[0]
    assert tails[-1] is None and taken == [16384, 16384]


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plancherel_bracket_randomized(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    exact = float(l2_inner(f, f))
    res = norm_numeric(f, 2.0, 0.0, target_abs_err=1e-6 * (1 + exact))
    assert res.value - res.abs_error <= exact <= res.value + res.abs_error
