"""Multiplier constants, the inequality ledger, and the norm estimator."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from splitnorm.errors import InapplicableHypothesis, SplitnormError
from splitnorm.multnorm import (
    _RANDOM_STARTS,
    DiscreteMultiplier,
    bound_report,
    constants,
    estimate_lower,
    exact_norm_positive_kernel,
    halfline_multiplier,
    segment_multiplier,
    split_multiplier,
    tent_multiplier,
)
from splitnorm.polyalg import indicator, tent
from splitnorm.scalars import rat

from .helpers import (
    _REFERENCE_QUANTITIES,
    exactly,
    from_function,
    is_even_real,
    reference_bound_report,
    reference_estimate_lower,
    reference_split_multiplier,
    require_applicable,
    sup_norm,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_p2():
    c = constants(2.0)
    assert abs(c.c_p - 1.0) < 1e-15
    assert abs(c.c_p_real - 1 / SQRT2) < 1e-15
    assert abs(c.n_p - 1.0) < 1e-15


def test_constants_p4():
    c = constants(4.0)
    assert abs(c.c_p - SQRT2) < 1e-14
    assert abs(c.n_p - (1 + SQRT2)) < 1e-14


def test_constants_dual_symmetry():
    for p in (1.3, 2.5, 4.0, 7.0):
        a, b = constants(p), constants(p / (p - 1.0))
        assert abs(a.n_p - b.n_p) < 1e-12
        assert abs(a.c_p - b.c_p) < 1e-12
        assert abs(a.c_p_real - b.c_p_real) < 1e-12


def test_constants_real_below_complex():
    for p in (1.5, 2.0, 3.0, 4.0, 10.0):
        c = constants(p)
        assert c.c_p_real < c.c_p


def test_constants_blow_up_toward_endpoints():
    assert constants(1.001).c_p > 100
    assert constants(1000.0).c_p > 100
    with pytest.raises(SplitnormError, match=exactly("constants are defined for 1 < p < oo, got 1.0")):
        constants(1.0)
    with pytest.raises(SplitnormError, match=exactly("constants are defined for 1 < p < oo, got 0.5")):
        constants(0.5)


# ---------------------------------------------------------------------------
# the inequality ledger
# ---------------------------------------------------------------------------


def test_square_example_numbers():
    rep = bound_report("square", {"p": 4, "A": 1.0, "t": 0.5})
    assert rep.applicable
    assert abs(rep.lower - (1 + SQRT2) * SQRT2) < 1e-10
    assert abs(rep.upper - 6 ** 0.25 * (2 * SQRT2)) < 1e-10
    assert rep.lower <= rep.upper


def test_split_upper_real_improves_on_trivial_doubling():
    rep = bound_report(
        "split_upper_real",
        {"p": 4, "A": 1.0, "t": 1.0, "m_plus_norm": 1.0, "even_real": True},
    )
    assert rep.applicable
    assert abs(rep.upper - 6 ** 0.25) < 1e-12
    assert rep.upper < 2.0  # better than the trivial two-piece estimate


def test_split_lower_requires_positive_ell():
    rep = bound_report("split_lower", {"p": 4, "ell": 0.0})
    assert not rep.applicable
    with pytest.raises(InapplicableHypothesis):
        require_applicable(rep)
    rep2 = bound_report("split_lower", {"p": 3.0, "ell": 2.0, "t": 0.7})
    assert rep2.applicable
    assert abs(rep2.lower - 2.0 * constants(3.0).c_p) < 1e-12


def test_split_upper_gates():
    base = {"p": 4, "A": 1.0, "m_plus_norm": 1.0, "m_minus_norm": 1.0, "in_R": True}
    assert bound_report("split_upper", {**base, "t": 0.5}).applicable
    assert not bound_report("split_upper", {**base, "t": 0.25}).applicable
    assert not bound_report("split_upper", {**base, "p": 3, "t": 5.0}).applicable
    assert not bound_report(
        "split_upper", {"p": 4, "A": 1.0, "t": 0.5, "m_plus_norm": 1.0, "m_minus_norm": 1.0}
    ).applicable  # in_R not declared


def test_missing_inputs_raise():
    with pytest.raises(SplitnormError, match=exactly("missing inputs: m_plus_norm, m_minus_norm")):
        bound_report("split_upper", {"p": 4, "A": 1.0, "t": 1.0, "in_R": True})
    with pytest.raises(SplitnormError, match=exactly("missing inputs: m_norm")):
        bound_report("m_plus_upper", {"p": 4})
    with pytest.raises(SplitnormError, match=exactly(
        "unknown quantity 'nonsense'; choose from ['dual', 'm_plus_two_way', 'm_plus_upper', "
        "'m_plus_upper_real', 'poly_two_way', 'split_lower', 'split_upper', 'split_upper_real', "
        "'square', 'two_way']"
    )):
        bound_report("nonsense", {"p": 4})


def test_two_way_interval():
    rep = bound_report(
        "two_way", {"p": 4, "A": 1.0, "t": 0.6, "ell": 1.0, "m_norm": 1.0, "in_R": True}
    )
    assert rep.applicable
    assert abs(rep.lower - SQRT2) < 1e-12
    assert abs(rep.upper - SQRT2 * 6 ** 0.25) < 1e-12
    assert rep.lower <= rep.upper


def test_m_plus_two_way_variants():
    rep = bound_report("m_plus_two_way", {"p": 4, "ell": 1.0, "m_norm": 1.0})
    assert abs(rep.lower - SQRT2) < 1e-12 and abs(rep.upper - SQRT2) < 1e-12
    repr_ = bound_report(
        "m_plus_two_way",
        {"p": 4, "ell": 1.0, "m_norm": 1.0, "real_variant": True, "even_real": True},
    )
    c4r = constants(4.0).c_p_real
    assert abs(repr_.lower - c4r) < 1e-12 and abs(repr_.upper - c4r) < 1e-12


def test_dual_report_matches_primal():
    primal = bound_report(
        "split_upper",
        {"p": 4, "A": 1.0, "t": 0.5, "m_plus_norm": 2.0, "m_minus_norm": 2.0, "in_R": True},
    )
    dual = bound_report(
        "dual",
        {"p": 4, "A": 1.0, "t": 0.5, "m_plus_norm": 2.0, "m_minus_norm": 2.0, "in_R": True},
    )
    assert abs(primal.upper - dual.upper) < 1e-15
    assert abs(dual.inputs["p_dual"] - 4 / 3) < 1e-15


C4_REAL = 1 / (2 * math.sin(math.pi / 8))  # c_4^R = max(sec, csc)(pi/8) / 2
TWO_WAY = {"p": 4, "A": 1.0, "t": 0.6, "m_norm": 1.0}
POLY = {"p": 4, "A": 1.0, "t": 0.5, "m_plus_norm": 1.0}


@pytest.mark.parametrize("quantity, inputs, want", [
    ("split_upper_real", {"p": 4, "A": 1.0, "t": 1.0, "m_plus_norm": 1.0},
     (False, None, None, "requires m real and even in the split variable (declare even_real)")),
    ("m_plus_upper_real", {"p": 4, "m_norm_real": 2.0, "in_R": True},
     (True, None, 2 * C4_REAL, "")),
    ("m_plus_upper_real", {"p": 4, "m_norm_real": 2.0},
     (False, None, None, "requires T_m to preserve real data (declare in_R)")),
    ("split_lower", {"p": 4, "ell": 1.0, "t": 0.0},
     (False, None, None, "requires t > 0")),
    ("two_way", {**TWO_WAY, "ell": 1.0},
     (False, None, None, "requires the split multiplier to map real data to real data (declare in_R)")),
    ("two_way", {**TWO_WAY, "ell": 0.0, "in_R": True},
     (False, None, None, "requires ell > 0 (got 0.0)")),
    ("m_plus_two_way", {"p": 4, "ell": 0.0, "m_norm": 1.0},
     (False, None, None, "requires ell = m(0) != 0")),
    ("m_plus_two_way", {"p": 4, "ell": 1.0, "m_norm": 1.0, "real_variant": True},
     (False, None, None, "the real variant requires m real-valued and even")),
    ("poly_two_way", {**POLY, "symmetric": True},
     (True, (1 + SQRT2) * SQRT2, 6 ** 0.25, "")),
    ("poly_two_way", POLY,
     (False, None, None, "requires the polygon indicator to be even in both variables")),
    ("square", {"p": 3, "A": 1.0, "t": 1.0},
     (False, None, None, "requires an even integer p (got 3)")),
    ("square", {"p": 4, "A": 1.0, "t": 0.25},
     (False, None, None, "requires t >= t0 = 0.5 (got t = 0.25)")),
    ("square", {"p": 4, "A": 1.0}, "missing inputs: t"),
    ("square", {"A": 1.0, "t": 1.0}, "missing inputs: p"),
    ("square", {"p": 4, "t": 1.0}, "missing inputs: A"),
])
def test_bound_report_gates(quantity, inputs, want):
    if isinstance(want, str):
        with pytest.raises(SplitnormError, match=exactly(want)):
            bound_report(quantity, inputs)
        return
    applicable, lower, upper, reason = want
    rep = bound_report(quantity, inputs)
    assert (rep.applicable, rep.reason) == (applicable, reason)
    assert rep.lower == (None if lower is None else pytest.approx(lower, rel=1e-12))
    assert rep.upper == (None if upper is None else pytest.approx(upper, rel=1e-12))


@pytest.mark.parametrize("quantity, inputs, names", [
    ("square", {"p": 4, "A": 1, "t": math.nan}, "t"),
    ("square", {"p": 4, "A": math.nan, "t": 0}, "A"),
    ("m_plus_two_way", {"p": 4, "ell": math.nan, "m_norm": 1.0}, "ell"),
    ("m_plus_upper", {"p": 4, "m_norm": math.nan}, "m_norm"),
    ("square", {"p": math.nan, "A": 1, "t": 1}, "p"),
    ("split_lower", {"t": math.nan, "ell": math.nan}, "ell, t"),
])
def test_bound_report_refuses_a_nan_input(quantity, inputs, names):
    # each once printed a report: applicable, or with a "NaN" bound
    with pytest.raises(SplitnormError, match=exactly(f"NaN inputs: {names}")):
        bound_report(quantity, inputs)


def test_bound_report_keeps_an_infinite_input():
    rep = bound_report("m_plus_upper", {"p": 4, "m_norm": math.inf})
    assert (rep.applicable, rep.upper) == (True, math.inf)
    rep = bound_report("square", {"p": 4, "A": math.inf, "t": 1})
    assert (rep.applicable, rep.reason) == (False, "requires t >= t0 = inf (got t = 1)")


_ABSENT = object()
# every input the ledger reads, with the values the sweep draws from
_LEDGER_DOMAIN = {
    "p": (_ABSENT, 2, 3, 4, 4.0, 6, 1.5),
    "A": (_ABSENT, 1, -1),
    "t": (_ABSENT, 0, 0.25, 0.6, 5),
    "ell": (_ABSENT, 0, 1, -2),
    **{norm: (_ABSENT, 2.0) for norm in ("m_norm", "m_norm_real", "m_plus_norm", "m_minus_norm")},
    **{flag: (_ABSENT, True) for flag in ("in_R", "even_real", "real_variant", "symmetric")},
}


def _ledger_outcome(report_fn, quantity, inputs):
    try:
        rep = report_fn(quantity, inputs)
    except Exception as exc:
        return type(exc), str(exc)
    return rep.to_json_dict(), rep.applicable, rep.reason


def test_bound_report_matches_the_ledger_of_one_branch_per_quantity():
    # the domain has 11 * 7 * 3 * 5 * 4 * 2^8 = 1,182,720 points; a seeded
    # draw of 30,000 covers every quantity about 2,700 times.  Reading
    # two_way's ell before its other inputs differs from the oracle in 1 of
    # 2,640 points ("missing inputs: ell" for "ell, m_norm")
    rng = random.Random(23)
    quantities = sorted(_REFERENCE_QUANTITIES) + ["cube"]
    for _ in range(30000):
        quantity = rng.choice(quantities)
        inputs = {name: v for name, values in _LEDGER_DOMAIN.items()
                  if (v := rng.choice(values)) is not _ABSENT}
        want = _ledger_outcome(reference_bound_report, quantity, inputs)
        assert _ledger_outcome(bound_report, quantity, inputs) == want, (quantity, inputs)


# ---------------------------------------------------------------------------
# positive-kernel exact norms
# ---------------------------------------------------------------------------


def test_tent_kernel_exact_norm():
    assert exact_norm_positive_kernel(tent(-1, 0, 1)) == 1.0
    c = constants(4.0)
    assert abs(c.c_p * 1.0 - SQRT2) < 1e-14  # |||m_+||| = c_p * ell


def test_tent_kernel_scales():
    lam = rat(7, 3)
    got = exact_norm_positive_kernel(tent(-1, 0, 1) * lam)
    assert abs(got - 7 / 3) < 1e-15


def test_unverified_kernel_raises_and_can_be_asserted():
    box = indicator(-1, 1)
    with pytest.raises(InapplicableHypothesis, match=exactly(
        "kernel positivity is only known for positive multiples of the unit tent; "
        "pass positive_transform_asserted=True to override"
    )):
        exact_norm_positive_kernel(box)  # discontinuous at 0? no: not a tent
    # a genuinely positive-kernel example, asserted by the caller:
    # the square of the tent transform corresponds to tent self-convolution
    from splitnorm.polyalg import convolve

    quartic = convolve(tent(-1, 0, 1), tent(-1, 0, 1))
    got = exact_norm_positive_kernel(quartic, positive_transform_asserted=True)
    assert abs(got - float(quartic.eval(0))) < 1e-15


def test_discontinuous_multiplier_rejected():
    step = indicator(0, 1)
    with pytest.raises(InapplicableHypothesis, match=exactly(
        "a multiplier with integrable nonnegative kernel is continuous, "
        "but the one-sided limits at 0 differ"
    )):
        exact_norm_positive_kernel(step, positive_transform_asserted=True)


# ---------------------------------------------------------------------------
# discrete multipliers and splitting
# ---------------------------------------------------------------------------


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        DiscreteMultiplier(np.zeros(100), 8.0)


def test_split_multiplier_identity_at_zero():
    m = tent_multiplier(256, 4.0)
    out, snapped = split_multiplier(m, 0.0)
    assert snapped == 0.0
    assert np.array_equal(out.samples, m.samples)


def test_split_multiplier_even_real_and_sup_preserved():
    m = tent_multiplier(512, 4.0)
    out, snapped = split_multiplier(m, 1.0)
    assert is_even_real(out)
    assert sup_norm(out) == sup_norm(m)  # the 0-sample is duplicated
    # zero fill between the moving halves
    ys = out.grid()
    inside = (np.abs(ys) < snapped - out.step / 2)
    assert np.all(out.samples[inside] == 0)


def test_split_multiplier_snaps_to_grid():
    m = tent_multiplier(256, 4.0)
    out, snapped = split_multiplier(m, 0.3)
    assert abs(snapped - 0.3) <= m.step / 2
    assert snapped % m.step == pytest.approx(0.0, abs=1e-12)


def test_split_multiplier_overflow():
    m = segment_multiplier(256, 2.0, -1.0, 1.0)
    with pytest.raises(SplitnormError, match=exactly("positive support would shift beyond the grid")):
        split_multiplier(m, 1.5)


def _split_or_message(split_fn, m, t):
    try:
        return split_fn(m, t)
    except SplitnormError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_split_multiplier_matches_the_index_array_oracle(n):
    # samples, snapped shift, ell and refusals all agree with the old
    # index-array split, for every shift from 0 to past the grid
    rng = np.random.default_rng(n)
    z = n // 2
    supports = [np.ones(n), np.zeros(n)]  # full grid, then nothing
    for lo, hi in ((0, z), (z + 1, n), (max(z - 1, 0), min(z + 2, n)), (0, 1), (n - 1, n)):
        s = np.zeros(n)
        s[lo:hi] = 1.0
        supports.append(s)
    supports.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cases = []
    for support in supports:
        for origin in (0.0, 0.5 - 0.25j):  # a zero and a nonzero origin sample
            samples = np.array(support, dtype=complex)
            samples[z] = origin
            cases.append(samples)
    for samples in cases:
        for ell in (None, 0.5):
            m = DiscreteMultiplier(samples, 2.0, ell=ell)
            for k in range(n + 3):
                t = k * m.step
                got = _split_or_message(split_multiplier, m, t)
                want = _split_or_message(reference_split_multiplier, m, t)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert not isinstance(got, str), got
                assert np.array_equal(got[0].samples, want[0].samples)
                assert got[1] == want[1] and got[0].ell == want[0].ell and got[0].omega == want[0].omega


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def test_estimator_deterministic_and_monotone_history():
    m = halfline_multiplier(1024, 8.0)
    r1 = estimate_lower(m, 4.0, iterations=80, seed=42)
    r2 = estimate_lower(m, 4.0, iterations=80, seed=42)
    assert r1.estimate == r2.estimate
    assert all(a <= b + 1e-15 for a, b in zip(r1.history, r1.history[1:]))


def test_estimator_p2_never_exceeds_sup():
    rng = np.random.default_rng(0)
    for _ in range(4):
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        m = DiscreteMultiplier(samples, 4.0)
        r = estimate_lower(m, 2.0, iterations=60, seed=1)
        assert r.estimate <= sup_norm(m) * (1 + 1e-9)
        assert r.estimate >= 0.99 * sup_norm(m)


def test_estimator_halfline_benchmark_small():
    m = halfline_multiplier(1024, 8.0)
    r = estimate_lower(m, 4.0, iterations=150, seed=1)
    assert r.estimate >= 0.93 * SQRT2  # full-size benchmark lives in acceptance


def test_estimator_shifted_halfline_reaches_its_sup_at_p2():
    # at p = 2 the norm of a multiplier is the sup of its symbol, here 1
    m = halfline_multiplier(512, 8.0, shift=-1.0)
    r = estimate_lower(m, 2.0, iterations=60, seed=0, real_test_functions=True)
    assert r.estimate >= 0.99


def test_estimator_quotient_is_certified():
    # the returned test function really achieves the reported quotient
    m = segment_multiplier(512, 4.0)
    r = estimate_lower(m, 4.0, iterations=60, seed=3)
    f = r.test_function
    mhat = np.fft.ifftshift(m.samples)
    g = np.fft.ifft(mhat * np.fft.fft(f))
    quotient = (np.sum(np.abs(g) ** 4) ** 0.25) / (np.sum(np.abs(f) ** 4) ** 0.25)
    assert quotient == pytest.approx(r.estimate, rel=1e-9)


def test_estimator_positive_kernel_equality_benchmark():
    # |||tent_+||| = c_p exactly; the discrete estimate approaches it from
    # below fast enough to land within 5% for p <= 2.5 at this grid (the
    # defect grows with p: about 8% at p=3 and 17% at p=4 on N=2^12)
    n = 2 ** 12
    base = tent_multiplier(n, 2.0)
    ys = base.grid()
    samples = base.samples.copy()
    samples[ys < 0] = 0
    samples[np.isclose(ys, 0.0, atol=1e-12)] *= 0.5
    tplus = DiscreteMultiplier(samples, 2.0, ell=1.0)
    for p in (2.2, 2.5):
        want = constants(p).c_p
        r = estimate_lower(tplus, p, iterations=300, seed=1)
        assert abs(r.estimate - want) <= 0.05 * want


def test_estimator_split_tent_two_way_advisory():
    # for the split tent the analytic interval is [c_p, c_p 6^{1/4}]; the
    # estimate must respect the proven upper bound and, advisorily, come
    # within the measured discretization defect of the lower edge
    m = tent_multiplier(2 ** 12, 4.0)
    stm, _ = split_multiplier(m, 2.0)
    rep = bound_report(
        "two_way", {"p": 4, "A": 1.0, "t": 2.0, "ell": 1.0, "m_norm": 1.0, "in_R": True}
    )
    r = estimate_lower(stm, 4.0, iterations=200, seed=1)
    assert r.estimate <= rep.upper * 1.02
    assert r.estimate >= 0.75 * rep.lower


def test_is_even_real_detection():
    assert is_even_real(tent_multiplier(128, 2.0))
    assert not is_even_real(halfline_multiplier(128, 2.0))
    m = DiscreteMultiplier(1j * np.ones(64), 2.0)
    assert not is_even_real(m)


def test_estimator_grid_doubling_probe():
    # convergence probe: doubling the grid may only raise the estimate
    # (within a 2% slack for the optimizer)
    e_small = estimate_lower(segment_multiplier(2 ** 10, 2.0), 4.0, iterations=150, seed=1)
    e_big = estimate_lower(segment_multiplier(2 ** 11, 2.0), 4.0, iterations=150, seed=1)
    assert e_small.estimate <= e_big.estimate * 1.02


def test_from_function_sampling():
    m = from_function(lambda y: max(0.0, 1.0 - abs(y)), 128, 2.0)
    assert np.allclose(m.samples, tent_multiplier(128, 2.0).samples)
    assert m.grid()[64] == 0.0


def _same_as_reference(m, p, paths, **kwargs):
    got = estimate_lower(m, p, **kwargs)
    want = reference_estimate_lower(m, p, paths=paths, **kwargs)
    assert got.estimate == want[0]
    assert np.array_equal(got.test_function, want[1])
    assert (got.converged, got.iterations) == (want[2], want[3])
    assert got.history == want[4]
    return got


def test_estimator_matches_the_reference_loop_bit_for_bit():
    # carrying the accepted image over must not move a bit of any output
    from splitnorm.cli import _MULT_BUILDERS

    paths = Counter()
    for name in ("halfline", "segment", "tent", "tent-plus"):
        m = _MULT_BUILDERS[name](2 ** 10, 8.0)
        for p in (4.0, 4.0 / 3.0, 3.0):
            for real in (False, True):
                _same_as_reference(m, p, paths, seed=1, real_test_functions=real)
    # no input found makes the ascent step down, as it cannot in exact
    # arithmetic.  At p = 1.001 the dual power |u|^1000 overflows in the
    # reference, whose candidate is NaN after 6 iterations; the estimator
    # divides u by max|u| there first, so its ascent runs on and converges
    m = halfline_multiplier(2 ** 10, 8.0)
    got = estimate_lower(m, 1.001, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_estimate_lower(m, 1.001, paths=paths, seed=1)
    assert want[3] == 6
    assert got.iterations > 6 and got.converged is True
    assert want[0] == 3.059488059848977 and got.estimate >= want[0]
    assert paths["damped"] >= 1 and paths["stall"] >= 1, paths


def test_estimator_near_p1_on_a_small_multiplier_is_homogeneous():
    # |u|^1000 of a small dual image underflowed to zero, so the candidate's
    # norm was 0 and the start ended after 3 iterations at 7.2e-4; dividing u
    # by max|u| there too keeps the norm homogeneous in the multiplier
    m = halfline_multiplier(2 ** 10, 8.0)
    small = estimate_lower(DiscreteMultiplier(1e-3 * m.samples, 8.0), 1.001, seed=1)
    full = estimate_lower(m, 1.001, seed=1)
    assert small.iterations > 3
    assert abs(small.estimate - 1e-3 * full.estimate) <= 1e-9 * full.estimate


def test_estimator_step_costs_two_fft_pairs(monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(np.fft, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "fft", counting("fft"))
    monkeypatch.setattr(np.fft, "ifft", counting("ifft"))
    m = segment_multiplier(2 ** 10, 8.0)
    paths = Counter()
    r = estimate_lower(m, 4.0, iterations=60, seed=1)
    new_calls = sum(calls.values())
    calls.clear()
    reference_estimate_lower(m, 4.0, iterations=60, seed=1, paths=paths)
    assert not paths["damped"] and r.iterations == 60
    assert new_calls <= 4 * r.iterations + 2 * _RANDOM_STARTS
    assert sum(calls.values()) == 6 * r.iterations  # the loop that recomputed f's image


# ---------------------------------------------------------------------------
# argument checks and grid continuation
# ---------------------------------------------------------------------------


def test_estimator_refuses_a_nan_p():
    m = halfline_multiplier(256, 8.0)
    with pytest.raises(SplitnormError, match=exactly("estimation needs 1 < p < oo, got nan")):
        estimate_lower(m, math.nan)


def test_estimator_refuses_an_infinite_p():
    m = halfline_multiplier(256, 8.0)
    with pytest.raises(SplitnormError, match=exactly("estimation needs 1 < p < oo, got inf")):
        estimate_lower(m, math.inf)
    with pytest.raises(SplitnormError, match=exactly("estimation needs 1 < p < oo, got 1.0")):
        estimate_lower(m, 1.0)


@pytest.mark.parametrize("iterations", [0, -5])
def test_estimator_refuses_a_budget_below_one_iteration(iterations):
    m = halfline_multiplier(256, 8.0)
    want = f"estimation needs at least one iteration, got {iterations}"
    with pytest.raises(SplitnormError, match=exactly(want)):
        estimate_lower(m, 4.0, iterations=iterations)


@pytest.mark.parametrize("omega", [2.0, 8.0])
def test_subsampled_symbol_is_the_coarse_builders(omega):
    # a coarse grid of the continuation reads every (N/n)-th fine sample;
    # for the builders that is the symbol they build at n, bit for bit
    from splitnorm.cli import _MULT_BUILDERS

    for name, build in _MULT_BUILDERS.items():
        fine = build(2 ** 14, omega)
        for n in (2 ** 12, 2 ** 13):
            coarse = build(n, omega)
            assert np.array_equal(fine.samples[:: 2 ** 14 // n], coarse.samples), (name, n)


def test_continuation_ascends_the_subsampled_split_symbol(monkeypatch):
    # a split symbol rebuilt at 2^12 snaps t = 0.6 to another bin than the
    # fine grid does, so it is another operator; the ascent reads the fine
    # samples instead
    import splitnorm.multnorm as MN

    fine, t_fine = split_multiplier(tent_multiplier(2 ** 14, 8.0), 0.6)
    rebuilt, t_coarse = split_multiplier(tent_multiplier(2 ** 12, 8.0), 0.6)
    assert t_fine != t_coarse
    assert not np.array_equal(fine.samples[::4], rebuilt.samples)
    symbols = []
    real = MN._ascend

    def spy(mhat, *args):
        symbols.append(mhat)
        return real(mhat, *args)

    monkeypatch.setattr(MN, "_ascend", spy)
    estimate_lower(fine, 4.0, iterations=30, seed=1)
    assert [s.size for s in symbols] == [2 ** 12, 2 ** 13, 2 ** 14]
    for s in symbols:
        assert np.array_equal(s, np.fft.ifftshift(fine.samples[:: 2 ** 14 // s.size]))



def test_continuation_redraws_its_starts_when_the_coarse_symbol_vanishes():
    # a symbol on the odd bins alone is zero at every 2^12 frequency, so the
    # coarse grid finds no test function and the fine grid starts afresh
    samples = np.zeros(2 ** 13)
    samples[1::2] = 1.0
    r = estimate_lower(DiscreteMultiplier(samples, 8.0), 4.0, iterations=60, seed=1)
    assert r.estimate >= 0.99 and r.history[-1] == r.estimate
    assert r.test_function.shape == (2 ** 13,)

@pytest.mark.parametrize("name", ["halfline", "segment"])
def test_continuation_keeps_the_benchmark_invariants(name):
    from splitnorm.cli import _MULT_BUILDERS

    m = _MULT_BUILDERS[name](2 ** 14, 8.0 if name == "halfline" else 2.0)
    r = estimate_lower(m, 4.0, iterations=90, seed=1)
    f = r.test_function
    assert f.shape == (2 ** 14,)
    g = np.fft.ifft(np.fft.ifftshift(m.samples) * np.fft.fft(f))
    quotient = (np.sum(np.abs(g) ** 4) ** 0.25) / (np.sum(np.abs(f) ** 4) ** 0.25)
    assert quotient == pytest.approx(r.estimate, rel=1e-9)
    assert r.iterations == 90 or r.converged
    assert r.history[-1] == r.estimate
    assert all(a <= b for a, b in zip(r.history, r.history[1:]))
    assert len(r.history) < r.iterations  # the finest grid's iterations alone
    again = estimate_lower(m, 4.0, iterations=90, seed=1)
    assert (again.estimate, again.iterations, again.converged) == (r.estimate, r.iterations, r.converged)
    assert np.array_equal(again.test_function, f) and again.history == r.history


def test_continuation_costs_at_most_half_the_fft_points(monkeypatch):
    import splitnorm.multnorm as MN

    points = Counter()

    def counting(name):
        real = getattr(np.fft, name)

        def wrapped(a, *args, **kwargs):
            points[name] += len(a)
            return real(a, *args, **kwargs)

        return wrapped

    calls = Counter()
    real_estimate = MN.estimate_lower

    def entered(*args, **kwargs):
        calls["estimate_lower"] += 1
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting("fft"))
    monkeypatch.setattr(np.fft, "ifft", counting("ifft"))
    monkeypatch.setattr(MN, "estimate_lower", entered)
    m = halfline_multiplier(2 ** 14, 8.0)
    MN.estimate_lower(m, 4.0, iterations=100)
    assert calls["estimate_lower"] == 1  # one traced span per call
    new_points = sum(points.values())
    points.clear()
    reference_estimate_lower(m, 4.0, iterations=100)
    assert 0 < new_points <= sum(points.values()) / 2


def test_estimator_on_one_grid_matches_the_reference_loop_bit_for_bit():
    # N = 2^12 and a budget too small for the levels leave the one grid N,
    # the estimator as it was before the continuation
    paths = Counter()
    _same_as_reference(halfline_multiplier(2 ** 12, 8.0), 4.0, paths, seed=1)
    _same_as_reference(segment_multiplier(2 ** 12, 2.0), 3.0, paths, seed=0, real_test_functions=True)
    _same_as_reference(segment_multiplier(2 ** 13, 2.0), 4.0, paths, iterations=2, seed=1)
    assert not paths["damped"]


def test_a_start_that_spends_its_share_takes_no_unread_step(monkeypatch):
    # three starts share six iterations, two each, and none stalls: a start
    # costs its first image and one step (two FFT pairs), not the further
    # step whose quotient the share has no iteration left to record
    m = halfline_multiplier(2 ** 10, 8.0)
    want = reference_estimate_lower(m, 4.0, iterations=6, seed=1)
    calls = Counter()

    def counting(name):
        real = getattr(np.fft, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.fft, "fft", counting("fft"))
    monkeypatch.setattr(np.fft, "ifft", counting("ifft"))
    got = estimate_lower(m, 4.0, iterations=6, seed=1)
    assert calls == {"fft": 3 * 3, "ifft": 3 * 3}
    assert (got.estimate, got.converged, got.iterations, got.history) == (want[0], want[2], want[3], want[4])
    assert np.array_equal(got.test_function, want[1])
