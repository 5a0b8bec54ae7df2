"""The exact profile engine and its verdicts, with numeric cross-checks."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm.errors import BudgetExceeded, SplitnormError
from splitnorm.normprofile import (
    CoeffSeq,
    check_constancy,
    check_monotone,
    gen_profile,
    gen_t0,
    newt_constant,
    norm_profile,
    series_profile,
)
from splitnorm.oscint import norm_numeric
from splitnorm.polyalg import Poly, indicator, is_nonincreasing_on, isolate_real_roots, l2_inner, tent
from splitnorm.scalars import format_rat, gauss, parts, rat
from splitnorm.splitcore import SplitPair, class_s_check

from .helpers import conj_reflect, conv_power, exactly, rnd_class_s_member, rnd_even_nonneg, rnd_pp

CHI = indicator(-1, 1)
TWO_BUMP = indicator(-1, 1) + indicator(10, 11) + indicator(-11, -10)


# ---------------------------------------------------------------------------
# the standard profile
# ---------------------------------------------------------------------------


def test_profile_p2_is_plancherel_constant():
    prof = norm_profile(CHI, 2)
    assert prof.tail_value == 2
    assert prof.constancy_onset == 0
    assert prof.value_at(rat(7, 5)) == 2


def test_profile_indicator_p4_shape():
    prof = norm_profile(CHI, 4)
    assert prof.t0 == rat(1, 2)
    assert prof.constancy_onset == rat(1, 2)
    assert prof.tail_value == 4
    assert prof.value_at(0) == rat(16, 3)
    # piece on [0, 1/2): 4 + (4/3)(1-2t)^3
    for t in [rat(1, 8), rat(1, 4), rat(2, 5)]:
        assert prof.value_at(t) == 4 + rat(4, 3) * (1 - 2 * t) ** 3


def test_profile_indicator_p4_matches_reference_form_times_16():
    # a published closed form for this profile, (1/24)(6+(1-2t)^3+|1-2t|^3),
    # is off by a uniform factor of 16 from the directly computed and
    # quadrature-confirmed profile; breakpoint at 1/2 and the cubic shape agree
    prof = norm_profile(CHI, 4)
    for t in [rat(0), rat(1, 8), rat(1, 3), rat(1, 2), rat(7, 8)]:
        u = 1 - 2 * t
        reference = rat(1, 24) * (6 + u ** 3 + abs(u) ** 3)
        assert prof.value_at(t) == 16 * reference


# SHA-256 of json.dumps(profile.to_json_dict(), sort_keys=True): pins every
# exact rational of these profiles, real, complex and generalized
GOLDEN_PROFILES = [
    ("ind p8", lambda: norm_profile(CHI, 8),
     "0269ae2b29473acd841c3c7cb18a0a11fdb0ba8be2135b975220928fc0f40531"),
    ("tent p6", lambda: norm_profile(tent(-1, 0, 1), 6),
     "c5460fc392efae4ba6ecff65665d6f72ec7a2b05466591c43bef9cdcdb01fbd9"),
    ("two-bump p6", lambda: norm_profile(TWO_BUMP, 6),
     "09a0d2f28cfb23802d21259d85d2ad3cc47e01fc324a47bd27ac46ecbb3a2aa3"),
    ("complex p6", lambda: norm_profile(indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), 6),
     "ae0cf9283a1c809f164dc2b83c2c6db142e1eff6519d35c34a7a99faa8575a9e"),
    ("gen p6", lambda: gen_profile(
        SplitPair(plus=indicator(rat(-1, 2), 1) * rat(3, 2), minus=tent(-1, rat(-1, 3), rat(1, 2)),
                  A=1, b=rat(1, 2)), 6),
     "0f81a3050e136425eb60398a7252486ce67dec384eb3b3bbf2de3141885b8911"),
    # large p: many pairs per start and wide packed digits in the engine
    ("ind p40", lambda: norm_profile(CHI, 40),
     "4cbc224f9c0c46b956172ca6d6c7e67f876ef423752a06fe355ba6649879ff00"),
    ("tent p24", lambda: norm_profile(tent(-1, 0, 1), 24),
     "b64de2a2ca2c1d2fc11f0a0be78ed7cd5cd93a47deb9a9216a60ba712eda29a9"),
    ("complex p16", lambda: norm_profile(indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), 16),
     "92ce629fcc3ce3f366f7c40b6e82a0f6bc33d19ef8b1448eec124967028572f8"),
    ("gen p14", lambda: gen_profile(
        SplitPair(plus=indicator(rat(-1, 2), 1) * rat(3, 2), minus=tent(-1, rat(-1, 3), rat(1, 2)),
                  A=1, b=rat(1, 2)), 14),
     "1b2b8d4562d414ff3c747cc7a02951e08c95ce790bec95f752a6bd19109df341"),
]


@pytest.mark.parametrize("name,build,digest", GOLDEN_PROFILES, ids=[g[0] for g in GOLDEN_PROFILES])
def test_profile_golden_hashes(name, build, digest):
    doc = json.dumps(build().to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _series_golden_doc(bound):
    # seeded Gaussian-rational sequences on [-A, A], some entries real or zero
    rng = np.random.default_rng([20261018, bound])
    doc = []
    for p in (2, 4, 6, 8):
        coeffs = {}
        for k in range(-bound, bound + 1):
            re = rat(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
            im = rat(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) if rng.random() < 0.7 else 0
            coeffs[k] = gauss(re, im)
        prof = series_profile(CoeffSeq.from_mapping(coeffs, bound), p)
        doc.append([p, [format_rat(prof.value(t)) for t in range(prof.guaranteed_onset + 3)]])
    return doc


# SHA-256 of json.dumps(_series_golden_doc(A)): pins every exact series value
GOLDEN_SERIES = [
    (1, "6ded6eb22fdd6ef3398f25e64e2e4fa745a00b38400dd055aef29a9ddf4de1a1"),
    (2, "856c9b2092c570dd45a4cce366d32cd22f9d88c1c8422f748f41c4cd3156e47d"),
    (3, "9e081e92ebc6d98043370a37e34704520ae7432c4265d58bc8f0d13ee82145d7"),
    (4, "f70ad7ab2bdb9e41947c4903deca56258762a74794fdef06ce3f80a3dfd697b0"),
]


@pytest.mark.parametrize("bound,digest", GOLDEN_SERIES, ids=[f"A={a}" for a, _ in GOLDEN_SERIES])
def test_series_golden_hashes(bound, digest):
    doc = json.dumps(_series_golden_doc(bound))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _numeric_golden_doc(f, ps, target):
    doc = []
    for p in ps:
        for t in (0.25, 1.0):
            res = norm_numeric(f, p, t, target_abs_err=target)
            doc.append([p, t, float.hex(res.value), float.hex(res.abs_error)])
    return doc


# SHA-256 of json.dumps(_numeric_golden_doc(...)): pins the bits of every
# numeric (value, abs_error) pair, so a change to the transform, the tails or
# the quadrature that moves any result by one ulp shows here (each p = 2 pair
# is ||f||_2^2 rounded once)
GOLDEN_NUMERIC = [
    ("ind", lambda: _numeric_golden_doc(CHI, (2, 3, 4), 1e-3),
     "92b3af7bfb02b633dba19efd476edb8467b58c7ac982cdf8ba9075a7f8d375ff"),
    ("tent", lambda: _numeric_golden_doc(tent(-1, 0, 1), (2, 3, 4), 1e-3),
     "91504e71aed1ba4144c0529d14aca418de2556d36a2696b07a3ffd784a7787fa"),
    ("two-bump", lambda: _numeric_golden_doc(TWO_BUMP, (2, 3, 4), 1e-3),
     "b5709281e8157e12e69db65a93b26927412413d46e80d704ac8e68c3bf7422a3"),
    ("complex", lambda: _numeric_golden_doc(indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), (2, 3, 4), 1e-3),
     "1189bebc1c257caa82eed4ae10d74581a5f3174b9010babb1beefabb97e15e28"),
    ("ind 1e-6", lambda: _numeric_golden_doc(CHI, (2, 4), 1e-6),
     "11510ca776e161f7a0cf962b6218886accc3893d392133d4abddbbe48b2ba522"),
]


@pytest.mark.parametrize("name,build,digest", GOLDEN_NUMERIC, ids=[g[0] for g in GOLDEN_NUMERIC])
def test_numeric_golden_hashes(name, build, digest):
    doc = json.dumps(build())
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _witness_doc(verdict_ok, witness):
    return [verdict_ok, None if witness is None else [format_rat(x) for x in witness]]


def _seeded_isolation_cases():
    # random dense polynomials with rational coefficients, and products of
    # linear factors with repeated roots at window ends and dyadic midpoints
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(30):
        deg = int(rng.integers(1, 9))
        coeffs = [rat(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(deg + 1)]
        cases.append((Poly(coeffs), rat(-4), rat(4)))
    for _ in range(30):
        p = Poly([1])
        for _ in range(int(rng.integers(1, 6))):
            r = rat(int(rng.integers(-8, 9)), int(2 ** rng.integers(0, 3)))
            p = p * Poly([-r, 1])
            if rng.random() < 0.3:
                p = p * Poly([-r, 1])  # a double root
        if rng.random() < 0.5:
            p = p * Poly([rat(int(rng.integers(1, 5))), 0, 1])  # a complex pair
        cases.append((p, rat(-4), rat(4)))
    return cases


def _decision_golden_doc(group):
    if group in ("monotone ind", "monotone tent", "monotone two-bump", "monotone complex"):
        build, ps = {
            "monotone ind": (lambda p: norm_profile(CHI, p), range(4, 13, 2)),
            "monotone tent": (lambda p: norm_profile(tent(-1, 0, 1), p), range(4, 13, 2)),
            "monotone two-bump": (lambda p: norm_profile(TWO_BUMP, p), range(4, 9, 2)),
            "monotone complex": (
                lambda p: norm_profile(indicator(0, 1) + indicator(-1, 0) * gauss(0, 1), p),
                range(4, 9, 2),
            ),
        }[group]
        docs = []
        for p in ps:
            prof = build(p)
            verdict = check_monotone(prof)
            # and the isolating intervals of every piece's critical points
            f = prof.profile
            roots = [
                [[format_rat(a), format_rat(b)] for a, b in isolate_real_roots(q.derivative(), u, v)]
                for u, v, q in zip(f.breakpoints, f.breakpoints[1:], f.pieces)
                if q.degree > 0
            ]
            docs.append([p] + _witness_doc(verdict.ok, verdict.witness) + [roots])
        return docs
    if group == "class-s":
        rng = np.random.default_rng(7)
        fs = [CHI, tent(-1, 0, 1), TWO_BUMP, indicator(-1, 1) + indicator(2, 3) * 2]
        fs += [rnd_class_s_member(rng, max_steps=3) for _ in range(6)]
        fs += [rnd_pp(rng, halfwidth=rat(2), max_pieces=4) for _ in range(10)]
        verdicts = [class_s_check(f) for f in fs]
        return [{"member": v.ok, "witness": _witness_doc(v.ok, v.witness)[1]} for v in verdicts]
    return [
        [[format_rat(a), format_rat(b)] for a, b in isolate_real_roots(p, lo, hi)]
        for p, lo, hi in _seeded_isolation_cases()
    ]


# SHA-256 of json.dumps(_decision_golden_doc(group), sort_keys=True): pins
# every exact decision (verdicts, witness pairs and isolating intervals),
# recorded with the rational root isolation.  ind and tent give the same
# document: all five profiles are nonincreasing, with as many pieces, and
# no piece has an interior critical point.
GOLDEN_DECISIONS = [
    ("monotone ind", "06c255ac22d5fdfe31524ea29c1c1f6ff50b9d7056ca520a6e81ae0420718ae0"),
    ("monotone tent", "06c255ac22d5fdfe31524ea29c1c1f6ff50b9d7056ca520a6e81ae0420718ae0"),
    ("monotone two-bump", "c7e08418c34946e3a8ef2e1e6edda48dc9fc020ba6b291ac6ef302be6d5436f9"),
    ("monotone complex", "61bd0f4f2edb4c1e98de2ebb64455779da6432ef80982d9eb4151a9be49064f1"),
    ("class-s", "136d5e67ea374c2dc31e7320b9895422164c525252c4124696761967e39bb625"),
    ("isolate", "8680488e0e1ee822b0f8ef2f483189629944fc5a20c872d6310aa3719903703a"),
]


@pytest.mark.parametrize("group,digest", GOLDEN_DECISIONS, ids=[g[0] for g in GOLDEN_DECISIONS])
def test_decision_golden_hashes(group, digest):
    doc = json.dumps(_decision_golden_doc(group), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_profile_rejects_odd_p():
    with pytest.raises(SplitnormError, match=exactly("the exact engine needs an even integer p >= 2, got 3")):
        norm_profile(CHI, 3)
    with pytest.raises(SplitnormError, match=exactly("the exact engine needs an even integer p >= 2, got 0")):
        norm_profile(CHI, 0)


def test_exact_engine_refuses_predicted_work_over_its_cap():
    # the check runs before any convolution, so a huge p returns at once
    for p in (1000, 10 ** 300):
        with pytest.raises(BudgetExceeded):
            norm_profile(CHI, p)
        with pytest.raises(BudgetExceeded):
            newt_constant(CHI, p)
        with pytest.raises(BudgetExceeded):
            gen_profile(SplitPair(indicator(0, 1), indicator(-1, 0), 1, 0), p)
    assert newt_constant(indicator(0, 1), 10 ** 300) == 0  # one half is zero: no work


def test_exact_engine_lays_out_the_halves_once_and_brings_back_only_the_profile(monkeypatch):
    # every convolution, inner product and correlation runs on the two
    # halves' integer layouts: one constructor call lays out both, and the
    # profile is the one function brought back to rationals in x
    from splitnorm.polyalg import IntLayout

    calls = {"of": [], "back": 0}
    of, back = IntLayout.of.__func__, IntLayout.to_piecewise

    def counted_of(cls, *fs):
        calls["of"].append(len(fs))
        return of(cls, *fs)

    def counted_back(self):
        calls["back"] += 1
        return back(self)

    monkeypatch.setattr(IntLayout, "of", classmethod(counted_of))
    monkeypatch.setattr(IntLayout, "to_piecewise", counted_back)
    f = indicator(-1, 1) + tent(2, 3, 4) * 2
    for p in (4, 8):
        for engine, back_calls in ((norm_profile, 1), (newt_constant, 0)):
            calls.update(of=[], back=0)
            engine(f, p)
            assert calls == {"of": [2], "back": back_calls}, (engine.__name__, p)
    # the size check refuses before any layout is built
    calls.update(of=[], back=0)
    for engine in (norm_profile, newt_constant):
        with pytest.raises(BudgetExceeded):
            engine(f, 1000)
    assert calls == {"of": [], "back": 0}


def test_profile_zero_function():
    prof = norm_profile(indicator(0, 1) - indicator(0, 1), 4)
    assert prof.tail_value == 0 and prof.constancy_onset == 0


def test_two_bump_profile_is_not_monotone():
    prof = norm_profile(TWO_BUMP, 4)
    verdict = check_monotone(prof)
    assert not verdict.ok
    # a witness inside (4, 5), where the profile provably increases
    local = is_nonincreasing_on(prof.profile, 4, 5)
    assert not local.ok
    x1, x2 = local.witness
    assert 4 < x1 < x2 < 5
    # quadrature-confirmed values: a symmetric hump peaking at 9/2
    assert prof.value_at(4) == rat(76, 3)
    assert prof.value_at(rat(9, 2)) == rat(88, 3)
    assert prof.value_at(5) == rat(76, 3)
    assert prof.tail_value == 24
    assert prof.constancy_onset == rat(11, 2) == prof.t0


def test_check_constancy_indicator():
    verdict = check_constancy(norm_profile(CHI, 4), 1)
    assert verdict.theorem_holds
    assert verdict.constant_from == rat(1, 2)
    assert verdict.threshold == rat(1, 2)


def test_check_constancy_p2_everywhere():
    f = rnd_pp(np.random.default_rng(11), complex_ok=True)
    prof = norm_profile(f, 2)
    assert prof.constancy_onset == 0
    assert prof.tail_value == l2_inner(f, f)


def test_complex_data_profile_against_quadrature():
    h = indicator(0, 1) + indicator(-1, 0) * gauss(0, 1)
    prof = norm_profile(h, 4)
    assert check_constancy(prof, 1).theorem_holds
    for t in [rat(0), rat(1, 4), rat(2, 5)]:
        exact = float(prof.value_at(t))
        numeric = norm_numeric(h, 4.0, float(t), target_abs_err=1e-7)
        assert abs(numeric.value - exact) <= numeric.abs_error


def test_monotone_verdicts():
    assert check_monotone(norm_profile(CHI, 4)).ok
    assert check_monotone(norm_profile(tent(-1, 0, 1), 4)).ok


# ---------------------------------------------------------------------------
# the Newt constant
# ---------------------------------------------------------------------------


def test_newt_indicator_p4():
    assert newt_constant(CHI, 4) == 4
    assert norm_profile(CHI, 4).tail_value == 4


def test_newt_one_sided_is_zero():
    for p in (2, 4, 6):
        assert newt_constant(indicator(0, 1), p) == 0


def test_newt_p2_plancherel_split():
    # the p = 2 constant is 2 * (f_+ * f_-)(0) = 2 int f_+(y) f_-(-y) dy; it
    # vanishes when the positive support misses the reflected negative one
    f = indicator(1, 2) + indicator(rat(-1, 2), 0) * 3
    assert newt_constant(f, 2) == 0
    # and the energies of the halves split for any f (disjoint interiors)
    g = rnd_pp(np.random.default_rng(12), complex_ok=False)
    from splitnorm.splitcore import split

    pair = split(g)
    assert l2_inner(g, g) == l2_inner(pair.plus, pair.plus) + l2_inner(pair.minus, pair.minus)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_newt_equals_tail_for_real_even(seed):
    f = rnd_even_nonneg(np.random.default_rng(seed))
    for p in (4, 6):
        assert newt_constant(f, p) == norm_profile(f, p).tail_value


def test_newt_differs_from_tail_for_complex_data():
    h = indicator(0, 1) + indicator(-1, 0) * gauss(0, 1)
    assert newt_constant(h, 4) != norm_profile(h, 4).tail_value


# ---------------------------------------------------------------------------
# generalized split
# ---------------------------------------------------------------------------


def test_gen_t0_formulas():
    assert gen_t0(rat(5), 0, 4) == rat(5, 2)  # reduces to (p-2)A/4
    assert gen_t0(1, rat(1, 2), 4) == rat(5, 4)
    with pytest.raises(SplitnormError, match=exactly("need |b| <= A, got b=2, A=1")):
        gen_t0(1, 2, 4)


def test_gen_profile_b0_equals_standard():
    f = rnd_pp(np.random.default_rng(13), max_pieces=2, max_deg=1, complex_ok=True)
    from splitnorm.splitcore import split

    pair = split(f)
    a = f.support_radius()
    spec = SplitPair(plus=pair.plus, minus=pair.minus, A=a, b=0)
    got = gen_profile(spec, 4)
    want = norm_profile(f, 4)
    assert got.profile == want.profile
    assert got.tail_value == want.tail_value
    assert got.constancy_onset == want.constancy_onset


def test_gen_profile_two_offset_formula_is_not_an_onset_bound():
    # the printed two-offset threshold (p-2)/4 (A + |b1+b2|/2) + (p-2)/8 (b1-b2),
    # 3/4 here, undershoots the true onset; the single-offset threshold (5/4)
    # is exactly attained.  Values at 3/4, 1, 9/8 were confirmed by
    # independent quadrature to 3e-9.
    spec = SplitPair(
        plus=indicator(rat(-1, 2), 1), minus=indicator(-1, rat(1, 2)), A=1, b=rat(1, 2)
    )
    prof = gen_profile(spec, 4)
    p, A, b1, b2 = 4, rat(1), rat(1, 2), rat(-1, 2)
    printed = rat(p - 2) / 4 * (A + abs(b1 + b2) / 2) + rat(p - 2) / 8 * (b1 - b2)
    assert printed == rat(3, 4) < prof.constancy_onset
    assert prof.constancy_onset == rat(5, 4) == gen_t0(1, rat(1, 2), 4)
    assert prof.value_at(rat(3, 4)) == rat(89, 6)
    assert prof.value_at(rat(1)) == rat(41, 3)
    assert prof.value_at(rat(9, 8)) == rat(649, 48)
    assert prof.tail_value == rat(27, 2)


def test_gen_profile_overlapping_indicators():
    spec = SplitPair(
        plus=indicator(rat(-1, 2), 1), minus=indicator(-1, rat(1, 2)), A=1, b=rat(1, 2)
    )
    prof = gen_profile(spec, 4)
    assert prof.constancy_onset <= gen_t0(1, rat(1, 2), 4) == rat(5, 4)
    # below the onset there is a genuinely non-constant piece
    assert prof.constancy_onset > 0
    t_pre = prof.constancy_onset * rat(9, 10)
    assert prof.value_at(t_pre) != prof.tail_value
    # numeric cross-check of one shifted configuration via |F|^4 quadrature
    from splitnorm.splitcore import apply_gen_split

    t = rat(3, 4)
    g = apply_gen_split(spec, t)
    exact = float(prof.value_at(t))
    numeric = norm_numeric(g, 4.0, 0.0, target_abs_err=1e-7)
    assert abs(numeric.value - exact) <= numeric.abs_error


# ---------------------------------------------------------------------------
# series analog
# ---------------------------------------------------------------------------


def test_series_single_coefficient():
    seq = CoeffSeq.from_mapping({0: 1})
    prof = series_profile(seq, 4)
    assert prof.value(0) == 1
    for t in (1, 2, 3, 9):
        assert prof.value(t) == rat(3, 8)


def test_series_parseval_p2():
    seq = CoeffSeq.from_mapping({-1: 1, 1: 1})
    prof = series_profile(seq, 2)
    for t in range(5):
        assert prof.value(t) == 2


def test_series_constancy_threshold():
    seq = CoeffSeq.from_mapping({-1: gauss(1, 1), 0: rat(1, 2), 1: rat(-2, 3)})
    assert seq.bound == 1
    prof = series_profile(seq, 4)
    assert prof.threshold == 1  # ceil((p-2)A/4) = ceil(1/2)
    vals = [prof.value(t) for t in range(1, 8)]
    assert all(v == vals[0] for v in vals)


def test_series_rejects_bad_shifts():
    prof = series_profile(CoeffSeq.from_mapping({0: 1}), 4)
    with pytest.raises(SplitnormError, match=exactly("series shifts must be nonnegative integers, got -1")):
        prof.value(-1)
    with pytest.raises(SplitnormError, match=exactly("series shifts must be nonnegative integers, got 1.5")):
        prof.value(1.5)


def test_series_rejects_odd_p():
    with pytest.raises(SplitnormError, match=exactly("the exact engine needs an even integer p >= 2, got 3")):
        series_profile(CoeffSeq.from_mapping({0: 1}), 3)


def test_series_refuses_predicted_work_over_its_cap():
    seq = CoeffSeq.from_mapping({-1: rat(1, 2), 0: 1, 1: 2})
    assert series_profile(seq, 200).value(1) > 0  # m^3 L n = 2e7 runs
    for p in (2 * 10 ** 4, 10 ** 8):
        with pytest.raises(BudgetExceeded, match="series engine"):
            series_profile(seq, p).value(1)


@pytest.mark.parametrize("mapping", [
    {-1: rat(1, 2), 0: 1, 1: 2},
    {0: gauss(-1, 3), -2: gauss(0, rat(-1, 3))},
    {2: 1, 5: rat(-3, 7)},
    {-3: 1, -1: gauss(1, 1)},
    {0: 1},
])
def test_series_walk_predicts_the_sum_of_its_shifts(monkeypatch, mapping):
    # the walk's closed form must be the per-shift predictions summed one by
    # one: the cap at that sum passes, one below it refuses.  One shift is
    # the walk t..t, so value(t) takes its cap at its own prediction
    import splitnorm.normprofile as NP

    seq = CoeffSeq.from_mapping(mapping)
    prof = series_profile(seq, 6)

    def work(t):
        return NP._series_work(NP._split_numerators(seq, t)[0], 3)

    for t_min, t_max in ((0, 0), (0, 5), (1, 7), (3, 3), (2, 9)):
        total = sum(work(t) for t in range(t_min, t_max + 1))
        monkeypatch.setattr(NP, "_EXACT_CAP", total)
        assert list(prof.values(t_min, t_max)) == list(range(t_min, t_max + 1))
        monkeypatch.setattr(NP, "_EXACT_CAP", total - 1)
        with pytest.raises(BudgetExceeded, match=f"summed over the shifts {t_min}..{t_max}"):
            prof.values(t_min, t_max)
    for t in (0, 1, 4):
        monkeypatch.setattr(NP, "_EXACT_CAP", work(t))
        assert prof.value(t) >= 0
        monkeypatch.setattr(NP, "_EXACT_CAP", work(t) - 1)
        with pytest.raises(BudgetExceeded, match=f"summed over the shifts {t}..{t},"):
            prof.value(t)


def test_series_value_builds_its_split_sequence_once(monkeypatch):
    # value(t) predicts its one shift's work from the sequence it convolves,
    # and a walk reuses the sequences of its prediction at their own shifts
    import splitnorm.normprofile as NP

    calls = []
    real = NP._split_numerators

    def counting(c, t):
        calls.append(t)
        return real(c, t)

    monkeypatch.setattr(NP, "_split_numerators", counting)
    prof = series_profile(CoeffSeq.from_mapping({-1: rat(1, 2), 0: 1, 1: 2}), 4)
    for t in (0, 3, 7):
        calls.clear()
        prof.value(t)
        assert calls == [t]
    for t_min, t_max in ((0, 0), (0, 5), (1, 7), (3, 3)):
        calls.clear()
        prof.values(t_min, t_max)
        assert sorted(calls) == list(range(t_min, t_max + 1))


@pytest.mark.parametrize("t_min, t_max, err", [
    (5, 3, "the series walk 5..3 is empty: t_min must be at most t_max"),
    (-1, 3, "series shifts must be nonnegative integers, got -1"),
    (0, -1, "series shifts must be nonnegative integers, got -1"),
    (0, 2.5, "series shifts must be nonnegative integers, got 2.5"),
    (True, 3, "series shifts must be nonnegative integers, got True"),
], ids=["reversed", "negative-start", "negative-end", "fractional-end", "bool-start"])
def test_series_walk_refuses_a_reversed_or_bad_walk(t_min, t_max, err):
    # a reversed walk returned {} at no work, which the CLI read as constancy
    prof = series_profile(CoeffSeq.from_mapping({-1: rat(1, 2), 0: 1, 1: 2}), 4)
    with pytest.raises(SplitnormError, match=exactly(err)):
        prof.values(t_min, t_max)


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_constancy_theorem_randomized(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, halfwidth=rat(1), max_pieces=2, max_deg=1, complex_ok=True)
    p = int(rng.choice([2, 4, 6]))
    prof = norm_profile(f, p)
    assert prof.constancy_onset <= prof.t0
    assert check_constancy(prof, f.support_radius()).theorem_holds


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_profile_is_real_and_nonnegative(seed):
    # even powers of a norm: the exact window must pass the exact sign check
    from splitnorm.polyalg import is_nonnegative

    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=2, complex_ok=True)
    prof = norm_profile(f, 4)
    assert prof.profile.is_real()
    assert is_nonnegative(prof.profile).ok
    assert prof.tail_value >= 0


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_monotone_theorem_on_class_s(seed):
    f = rnd_class_s_member(np.random.default_rng(seed))
    assert check_monotone(norm_profile(f, 4)).ok


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_profile_agrees_with_direct_convolution_power(seed):
    # independent exact route: (N_t f)^{2m} = || (S_t f)^{*m} ||_2^2, with the
    # right side computed by convolving the split function with itself
    # directly (no correlation expansion, no substitution in t)
    from splitnorm.splitcore import apply_split

    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    p = int(rng.choice([2, 4]))
    t = rat(int(rng.integers(0, 7)), int(rng.integers(1, 4)))
    g = conv_power(apply_split(f, t), p // 2)
    assert norm_profile(f, p).value_at(t) == l2_inner(g, g)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ladder_and_newt_constant_agree_with_binary_splitting(seed):
    # every rung of the one-convolution-per-rung ladder of layouts, brought
    # back, and the Newt constant read off its top rungs, against convolution
    # powers formed by binary splitting
    import splitnorm.normprofile as NP
    from splitnorm.polyalg import IntLayout
    from splitnorm.splitcore import split

    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=bool(rng.integers(2)))
    pair = split(f)
    for h, layout in zip((pair.plus, pair.minus), IntLayout.of(pair.plus, pair.minus)):
        rungs = [rung.to_piecewise() for rung in NP._ladder(layout, 6)]
        assert rungs == [conv_power(h, k) for k in range(1, 7)]
    for m in range(1, 7):
        u, w = conv_power(pair.plus, m), conv_power(pair.minus, m)
        want = [math.comb(2 * m, m) * x for x in parts(l2_inner(u, conj_reflect(w)))]
        assert list(parts(newt_constant(f, 2 * m))) == want


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_profile_agrees_with_quadrature(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=2, max_deg=1, complex_ok=True)
    p = int(rng.choice([2, 4]))
    prof = norm_profile(f, p)
    t = rat(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
    exact = float(prof.value_at(t))
    numeric = norm_numeric(f, float(p), float(t), target_abs_err=1e-6 * (1 + exact))
    assert abs(numeric.value - exact) <= numeric.abs_error
