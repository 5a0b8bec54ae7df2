"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria need a precise reading, pinned here by exact assertions (the
README's provenance notes record the background):

* criterion 7 (series constancy from ceil((p-2)A/4)): the onset is strictly
  past t0 = (p-2)A/4.  When t0 is not an integer that is ceil(t0); when t0
  is an integer the split blocks touch at one index at t = t0, the profile
  drops by an exact closed-form edge term from t0 to t0 + 1, and is
  constant from t0 + 1 on;
* criterion 9's segment benchmark (N = 2^12, 200 iterations): with
  omega = 2 the segment (-1, 1) is exactly half of the periodic frequency
  band, so the grid operator is the symmetric half-band (Riesz) projection
  shifted by N/4 bins.  Its constant is c_p, not the segment constant n_p,
  and the benchmark is the same 95% of c_p that the half-line clause meets.
"""

import math
import time

import numpy as np

from splitnorm.multnorm import (
    DiscreteMultiplier,
    bound_report,
    constants,
    estimate_lower,
    halfline_multiplier,
    segment_multiplier,
)
from splitnorm.normprofile import (
    CoeffSeq,
    check_constancy,
    check_monotone,
    newt_constant,
    norm_profile,
    series_profile,
)
from splitnorm.oscint import norm_numeric
from splitnorm.polyalg import indicator, is_nonincreasing_on
from splitnorm.scalars import gauss, rat

from .helpers import rnd_class_s_member, rnd_even_nonneg, rnd_pp

CHI = indicator(-1, 1)
TWO_BUMP = indicator(-1, 1) + indicator(10, 11) + indicator(-11, -10)
SQRT2 = math.sqrt(2.0)


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_01_constancy_theorem_exact_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    halfwidths = [rat(1, 2), rat(1), rat(3)]
    exponents = [2, 4, 6]
    checked = 0
    worst_margin = None
    while checked < 200:
        a = halfwidths[checked % 3]
        p = exponents[(checked // 3) % 3]
        if p == 6:
            f = rnd_pp(rng, halfwidth=a, max_pieces=2, max_deg=1, complex_ok=True)
        else:
            f = rnd_pp(rng, halfwidth=a, max_pieces=3, max_deg=2, complex_ok=True)
        prof = norm_profile(f, p)
        verdict = check_constancy(prof, a)
        assert verdict.theorem_holds, (f, p, a, verdict)
        margin = verdict.threshold - verdict.constant_from
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        checked += 1
    elapsed = time.time() - start
    assert _verdict(
        1,
        elapsed < 60,
        f"200 randomized profiles constant from <= (p-2)A/4 exactly "
        f"(min slack {worst_margin}), {elapsed:.1f}s < 60s",
    )


def test_acceptance_02_sharpness_of_the_threshold():
    prof = norm_profile(CHI, 4)
    assert prof.constancy_onset == rat(1, 2)
    # non-constant on every interval ending at 1/2: the piece to the left of
    # the onset is a genuinely non-constant polynomial
    pre = prof.profile.piece_at(rat(1, 4))
    assert not pre.is_constant() and pre.degree == 3
    assert prof.tail_value == 4
    assert newt_constant(CHI, 4) == 4
    # shape of the quoted closed form (1/24)(6+(1-2t)^3+|1-2t|^3): breakpoint
    # and cubic pieces agree; the leading constant differs by a uniform
    # factor, measured here and recorded rather than asserted as 1
    u = 1 - 2 * rat(1, 8)
    reference = rat(1, 24) * (6 + u ** 3 + abs(u) ** 3)
    scale = prof.value_at(rat(1, 8)) / reference
    assert scale == prof.tail_value / rat(1, 4)  # uniform across the profile
    assert _verdict(
        2,
        True,
        f"onset exactly 1/2, cubic approach, tail = newt = 4; "
        f"closed-form scale factor recorded: {scale}",
    )


def test_acceptance_03_monotonicity_theorem_and_counterexample():
    start = time.time()
    rng = np.random.default_rng(303)
    for k in range(100):
        p = 4 if k % 5 < 3 else 6
        f = rnd_class_s_member(rng, max_steps=3 if p == 4 else 2)
        assert check_monotone(norm_profile(f, p)).ok, (k, p, f)
    witness = None
    for p in (4, 6):
        prof = norm_profile(TWO_BUMP, p)
        verdict = check_monotone(prof)
        assert not verdict.ok
        if p == 4:
            local = is_nonincreasing_on(prof.profile, 4, 5)
            assert not local.ok
            witness = local.witness
            assert 4 < witness[0] < witness[1] < 5
            assert prof.profile.eval(witness[0]) < prof.profile.eval(witness[1])
    elapsed = time.time() - start
    assert _verdict(
        3,
        elapsed < 120,
        f"100 class-S profiles nonincreasing exactly; two-bump increases "
        f"with witness {tuple(str(w) for w in witness)} in (4,5); {elapsed:.1f}s < 120s",
    )


def test_acceptance_04_newt_constant_consistency():
    rng = np.random.default_rng(404)
    for k in range(100):
        p = 4 if k % 2 == 0 else 6
        f = rnd_even_nonneg(rng)
        assert newt_constant(f, p) == norm_profile(f, p).tail_value, (k, p, f)
    assert _verdict(4, True, "newt == tail exactly on 100 random real even nonnegative f")


def test_acceptance_05_p3_reproduction():
    start = time.time()
    table = {rat(1, 4): 2.6247, rat(1): 2.6124, rat(5): 2.6116, rat(12): 2.6121}
    results = {}
    for t, ref in table.items():
        res = norm_numeric(CHI, 3.0, float(t), target_abs_err=1e-3)
        assert res.abs_error <= 5e-3
        assert abs(res.value - ref) <= 0.01, (t, res.value, ref)
        results[t] = res
    # non-constancy beyond the summed budgets
    gap = abs(results[rat(1, 4)].value - results[rat(5)].value)
    budget = 3 * (results[rat(1, 4)].abs_error + results[rat(5)].abs_error)
    assert gap > budget
    # non-monotonicity beyond budgets: the profile rises from t=3/4 to t=1
    # (the quoted pair (5, 12) turns out to be integration noise: at
    # 2e-5 accuracy N(5)^3 exceeds N(12)^3 by ~4e-6; reported, not asserted)
    lo = norm_numeric(CHI, 3.0, 0.75, target_abs_err=2e-5)
    hi = norm_numeric(CHI, 3.0, 1.0, target_abs_err=2e-5)
    rise = hi.value - lo.value
    assert rise > 3 * (lo.abs_error + hi.abs_error)
    sharp5 = norm_numeric(CHI, 3.0, 5.0, target_abs_err=2e-5)
    sharp12 = norm_numeric(CHI, 3.0, 12.0, target_abs_err=2e-5)
    data_dependent = sharp5.value < sharp12.value
    elapsed = time.time() - start
    assert _verdict(
        5,
        elapsed < 60,
        f"table matched within 0.01 (scale factor 1); non-constant "
        f"(gap {gap:.4f} > {budget:.4f}); non-monotone (rise {rise:.2e} on "
        f"[3/4,1]); quoted 5-vs-12 ordering holds: {data_dependent} "
        f"(data-dependent); {elapsed:.1f}s < 60s",
    )


def test_acceptance_06_exact_numeric_cross_validation():
    rng = np.random.default_rng(606)
    for k in range(50):
        p = (2, 4, 6)[k % 3]
        if p == 2:
            f = rnd_pp(rng, halfwidth=rat(1), max_pieces=2, max_deg=2, complex_ok=True)
        else:
            f = rnd_pp(rng, halfwidth=rat(1), max_pieces=2, max_deg=1, complex_ok=True)
        t = rat(int(rng.integers(0, 9)), 4)
        exact = float(norm_profile(f, p).value_at(t))
        res = norm_numeric(f, float(p), float(t), target_abs_err=1e-6 * (1 + exact))
        assert abs(res.value - exact) <= res.abs_error, (k, p, f)
        assert res.abs_error <= 1e-6 * (1 + exact), (k, p, f)
    assert _verdict(6, True, "50 random (f, t): |numeric - exact| <= abs_error <= 1e-6 (1 + exact)")


def _random_sequences(count):
    rng = np.random.default_rng(707)
    out = []
    for k in range(count):
        p = (2, 4, 6)[k % 3]
        bound = int(rng.integers(0, 7))
        coeffs = {}
        for idx in range(-bound, bound + 1):
            if rng.random() < 0.6:
                coeffs[idx] = gauss(
                    rat(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                    rat(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                )
        if not any(coeffs.values()):
            coeffs[0] = rat(1)
        out.append((p, CoeffSeq.from_mapping(coeffs, bound)))
    return out


def _edge_term(seq, p):
    """value(t0) - value(t0 + 1) at an integer threshold t0 = (p-2)A/4 >= 1.

    Write p = 2m, h = c_0/2, P for the positive split block (c_k at k + t
    for k > 0, h at t) and N for the negative one.  (P + N)^m is the sum of
    the terms C(m,j) P^j N^(m-j), the j-th supported on
    [(2j-m)t - (m-j)A, (2j-m)t + jA].  Past t0 the terms are disjoint
    translates, so Parseval's sum of squared moduli is constant; at t = t0
    neighbours j and j+1 share exactly one index, where the top coefficient
    C(m,j) c_A^j h^(m-j) of term j meets the bottom coefficient
    C(m,j+1) h^(j+1) c_{-A}^(m-j-1) of term j+1.  The drop is the sum of
    their cross terms 2 Re[x conj(y)].
    """
    m = p // 2
    coeffs = {k: (re, im) for k, re, im in seq.entries}  # c_k as (Re, Im)
    zero = (rat(0), rat(0))
    h = tuple(part / 2 for part in coeffs.get(0, zero))
    top, bottom = coeffs.get(seq.bound, zero), coeffs.get(-seq.bound, zero)

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def power(u, n):
        out = (rat(1), rat(0))
        for _ in range(n):
            out = mul(out, u)
        return out

    drop = rat(0)
    for j in range(m):
        x = [math.comb(m, j) * part for part in mul(power(top, j), power(h, m - j))]
        y = [math.comb(m, j + 1) * part for part in mul(power(h, j + 1), power(bottom, m - j - 1))]
        drop = drop + 2 * (x[0] * y[0] + x[1] * y[1])  # 2 Re[x conj(y)]
    return drop


def test_acceptance_07_series_constancy_as_stated():
    # The contract line: constancy from ceil(t0), t0 = (p-2)A/4, over the
    # positive integer shifts the split sequence is defined for.  The README
    # and SeriesProfile promise constancy only strictly past t0.  For a
    # non-integer t0 (and for t0 = 0, where shifts start at 1) the two
    # onsets coincide and the clause is asserted as stated.  For an integer
    # t0 >= 1 the discrete edge coefficient at t = t0 survives, unlike a
    # continuum convolution at the endpoint of its support: the profile is
    # constant from t0 + 1, and the drop from t0 to t0 + 1 is exactly the
    # closed-form edge term computed above.  Zero tolerance throughout.
    ceil_onsets = edge_checks = nonzero_edges = 0
    for p, seq in _random_sequences(200):
        prof = series_profile(seq, p)
        t0 = rat(p - 2) * seq.bound / 4
        if t0.denominator == 1 and t0 >= 1:
            onset = int(t0) + 1
            drop = prof.value(int(t0)) - prof.value(onset)
            assert drop == _edge_term(seq, p), (p, seq, drop)
            edge_checks += 1
            nonzero_edges += drop != 0
        else:
            onset = max(1, math.ceil(t0))
            ceil_onsets += 1
        first = prof.value(onset)
        for t in list(range(onset, onset + 5)) + [onset + 11]:
            assert prof.value(t) == first, (p, seq, t)
    # both branches are exercised, and the edge term is not vacuously zero
    assert ceil_onsets and edge_checks and nonzero_edges

    # the documented counterexample: p = 6, c_-2 = -i/3, c_0 = -1+3i, t0 = 2
    seq = CoeffSeq.from_mapping({-2: gauss(0, rat(-1, 3)), 0: gauss(-1, 3)}, 2)
    prof = series_profile(seq, 6)
    assert prof.value(2) == rat(257986, 729)
    assert prof.value(3) == rat(255556, 729)
    assert _edge_term(seq, 6) == rat(10, 3) == prof.value(2) - prof.value(3)
    assert _verdict(
        7,
        True,
        f"200 random sequences: {ceil_onsets} constant from max(1, ceil(t0)); "
        f"{edge_checks} integer t0 >= 1 constant from t0 + 1 with the exact "
        f"closed-form edge drop at t0 ({nonzero_edges} nonzero); "
        f"counterexample 257986/729 -> 255556/729 (see README)",
    )


def test_acceptance_07_series_constancy_strict_onset():
    # the provable form of the same suite: constancy from strictly past the
    # threshold, max(1, floor((p-2)A/4) + 1), zero tolerance
    for p, seq in _random_sequences(200):
        prof = series_profile(seq, p)
        onset = prof.guaranteed_onset
        first = prof.value(onset)
        for t in list(range(onset, onset + 5)) + [onset + 11]:
            assert prof.value(t) == first, (p, seq)
    assert _verdict(
        7, True, "200 random sequences constant from max(1, floor((p-2)A/4) + 1), exactly"
    )


def test_acceptance_08_multiplier_constants():
    c2 = constants(2.0)
    c4 = constants(4.0)
    assert abs(c2.c_p_real - 1 / SQRT2) < 1e-12
    assert abs(c4.c_p - SQRT2) < 1e-12
    assert abs(c4.n_p - (1 + SQRT2)) < 1e-12
    for p in (1.2, 1.7, 2.4, 4.0, 9.0):
        a, b = constants(p), constants(p / (p - 1))
        for x, y in [(a.n_p, b.n_p), (a.c_p, b.c_p), (a.c_p_real, b.c_p_real)]:
            assert abs(x - y) < 1e-12
    assert _verdict(8, True, "c2R, c4, n4 and p <-> p' symmetry at 1e-12")


def test_acceptance_09_estimator_benchmarks():
    start = time.time()
    n = 2 ** 12
    half = halfline_multiplier(n, 8.0)
    r_half = estimate_lower(half, 4.0, iterations=200, seed=1)
    assert r_half.estimate >= 0.95 * SQRT2

    shifted = halfline_multiplier(n, 8.0, shift=-1.0)
    r_shift = estimate_lower(shifted, 2.0, iterations=200, seed=1, real_test_functions=True)
    assert r_shift.estimate >= 0.99

    rng = np.random.default_rng(909)
    for _ in range(3):
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = DiscreteMultiplier(samples, 8.0)
        r = estimate_lower(m, 2.0, iterations=120, seed=2)
        assert r.estimate <= m.sup_norm() * (1 + 1e-9)
    elapsed = time.time() - start
    assert _verdict(
        9,
        elapsed < 120,
        f"halfline {r_half.estimate:.4f} >= 0.95 sqrt2; shifted real "
        f"{r_shift.estimate:.4f} >= 0.99; p=2 cap holds; {elapsed:.1f}s < 120s "
        f"(segment clause reported separately)",
    )


def test_acceptance_09_segment_benchmark_as_stated():
    # The contract line: segment_multiplier(2^12, 2.0), 200 iterations,
    # seed 1, a 95% benchmark.  The grid symbol is periodic with period
    # 2 omega = 4, so the segment (-1, 1) is exactly half of the frequency
    # band: its samples are the half-line samples, with the bin at -omega
    # also set to 1/2, rolled by N/4 bins.  Rolling the symbol conjugates
    # the operator by a modulation, an isometry of l^p, so this is the
    # symmetric half-band (Riesz) projection, whose constant is c_p
    # (Hollenbeck & Verbitsky 2000), not the segment constant n_p.  The
    # benchmark is therefore the one the half-line clause meets: 0.95 c_4.
    n = 2 ** 12
    seg = segment_multiplier(n, 2.0)
    band = halfline_multiplier(n, 2.0).samples.copy()
    band[0] = 0.5
    assert np.array_equal(seg.samples, np.roll(band, -n // 4))

    c4 = constants(4.0).c_p
    r = estimate_lower(seg, 4.0, iterations=200, seed=1)
    ok = r.estimate >= 0.95 * c4
    _verdict(
        9,
        ok,
        f"segment grid = half-band projection shifted by N/4 bins (exact); "
        f"estimate {r.estimate:.4f} vs required 0.95 c_4 = {0.95 * c4:.4f} (see README)",
    )
    assert ok, (
        "the segment grid operator at omega = 2 is a shifted half-band "
        "projection and should reach 0.95 c_4 at N = 2^12 (see README)"
    )


def test_acceptance_10_inequality_ledger():
    start = time.time()
    checked = 0
    for p in (4, 6):
        cs = constants(float(p))
        binom = math.comb(p, p // 2) ** (1 / p)
        # the square example: exact numbers from the formulas
        rep = bound_report("square", {"p": p, "A": 1.0, "t": (p - 2) / 4 + 0.1})
        assert rep.applicable and rep.lower <= rep.upper
        assert abs(rep.lower - cs.n_p * cs.c_p) < 1e-10
        assert abs(rep.upper - binom * cs.c_p ** 3) < 1e-10
        checked += 1
        # the tent multiplier: ell = m(0) = 1, |||m||| = 1 (positive kernel)
        for quantity, inputs in [
            ("two_way", {"p": p, "A": 1.0, "t": float(p), "ell": 1.0, "m_norm": 1.0, "in_R": True}),
            ("m_plus_two_way", {"p": p, "ell": 1.0, "m_norm": 1.0}),
            (
                "m_plus_two_way",
                {"p": p, "ell": 1.0, "m_norm": 1.0, "real_variant": True, "even_real": True},
            ),
            ("split_lower", {"p": p, "ell": 1.0, "t": 1.0}),
            ("m_plus_upper", {"p": p, "m_norm": 1.0}),
            (
                "split_upper",
                {"p": p, "A": 1.0, "t": float(p), "m_plus_norm": cs.c_p, "m_minus_norm": cs.c_p, "in_R": True},
            ),
            ("split_upper_real", {"p": p, "A": 1.0, "t": float(p), "m_plus_norm": cs.c_p, "even_real": True}),
            ("poly_two_way", {"p": p, "A": 1.0, "t": float(p), "m_plus_norm": cs.c_p ** 3, "symmetric": True}),
        ]:
            rep = bound_report(quantity, inputs)
            assert rep.applicable, (quantity, rep.reason)
            if rep.lower is not None and rep.upper is not None:
                assert rep.lower <= rep.upper + 1e-15, (quantity, rep)
            checked += 1
    elapsed = time.time() - start
    assert _verdict(
        10,
        True,
        f"{checked} applicable reports coherent; square-example numbers at 1e-10; "
        f"{elapsed:.1f}s",
    )
