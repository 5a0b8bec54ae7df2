"""Split operators and class-S decisions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitnorm.errors import SplitnormError
from splitnorm.polyalg import (
    PiecewisePoly,
    Poly,
    conv_power,
    convolve,
    indicator,
    is_nonincreasing_on,
    l2_inner,
    tent,
)
from splitnorm.scalars import gauss, rat
from splitnorm.splitcore import (
    SplitPair,
    apply_gen_split,
    apply_split,
    class_s_check,
    class_s_sufficient,
    split,
)

from .helpers import exactly, reconstruct, rnd_class_s_member, rnd_pp

TWO_BUMP = indicator(-1, 1) + indicator(10, 11) + indicator(-11, -10)


# ---------------------------------------------------------------------------
# split / apply_split
# ---------------------------------------------------------------------------


def test_split_indicator():
    pair = split(indicator(-1, 1))
    assert pair.plus == indicator(0, 1)
    assert pair.minus == indicator(-1, 0)


def test_split_one_sided_support():
    f = indicator(2, 3) * rat(5, 7)
    pair = split(f)
    assert pair.plus == f and pair.minus.is_zero()


def test_split_triangle_symmetric_halves():
    tri = convolve(indicator(-1, 1), indicator(-1, 1))
    pair = split(tri)
    assert pair.plus == PiecewisePoly([0, 2], [Poly([2, -1])])
    assert pair.minus == pair.plus.reflect()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_split_reconstructs(seed):
    f = rnd_pp(np.random.default_rng(seed), max_pieces=3, max_deg=2, complex_ok=True)
    assert reconstruct(split(f)) == f


def test_apply_split_identity_at_zero():
    f = rnd_pp(np.random.default_rng(3), complex_ok=True)
    assert apply_split(f, 0) == f


def test_apply_split_indicator():
    t = rat(2, 3)
    got = apply_split(indicator(-1, 1), t)
    assert got == indicator(-1 - t, -t) + indicator(t, 1 + t)


def test_apply_split_rejects_negative_shift():
    with pytest.raises(SplitnormError, match=exactly("split shift must be nonnegative, got -1/2")):
        apply_split(indicator(-1, 1), rat(-1, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_apply_split_is_isometry(seed):
    rng = np.random.default_rng(seed)
    f = rnd_pp(rng, max_pieces=3, max_deg=2, complex_ok=True)
    t = rat(int(rng.integers(0, 7)), int(rng.integers(1, 4)))
    g = apply_split(f, t)
    assert l2_inner(g, g) == l2_inner(f, f)


# ---------------------------------------------------------------------------
# generalized split
# ---------------------------------------------------------------------------


def _std_spec(f):
    pair = split(f)
    a = f.support_radius()
    return SplitPair(plus=pair.plus, minus=pair.minus, A=a if a > 0 else rat(1), b=0)


def test_gen_split_reduces_to_split_at_b0():
    f = rnd_pp(np.random.default_rng(4), complex_ok=True)
    spec = _std_spec(f)
    for t in [rat(0), rat(1, 2), rat(3)]:
        assert apply_gen_split(spec, t) == apply_split(f, t)


def test_gen_split_at_zero_is_sum():
    f1 = indicator(-1, rat(1, 2))
    f2 = indicator(rat(-1, 2), 1)
    spec = SplitPair(plus=f2, minus=f1, A=1, b=rat(1, 2))
    assert apply_gen_split(spec, 0) == f1 + f2


def test_gen_split_shift_by_b_reduction():
    # applying the generalized split at t >= b equals the standard split of
    # the b-shifted configuration at t - b
    f1 = indicator(-1, rat(1, 2)) * rat(2, 3)
    f2 = tent(rat(-1, 2), 0, 1)
    b = rat(1, 2)
    spec = SplitPair(plus=f2, minus=f1, A=1, b=b)
    g = apply_gen_split(spec, b)
    for t in [b, rat(3, 4), rat(2)]:
        assert apply_gen_split(spec, t) == apply_split(g, t - b)


def test_gen_split_spec_validation():
    with pytest.raises(SplitnormError, match=exactly("minus must be supported in [-A, b]")):
        SplitPair(plus=indicator(0, 1), minus=indicator(-3, 0), A=1, b=0)
    with pytest.raises(SplitnormError, match=exactly("plus must be supported in [-b, A]")):
        SplitPair(plus=indicator(0, 2), minus=indicator(-1, 0), A=1, b=0)
    with pytest.raises(SplitnormError, match=exactly("need |b| <= A, got b=2, A=1")):
        SplitPair(plus=indicator(0, 1), minus=indicator(-1, 0), A=1, b=2)


# ---------------------------------------------------------------------------
# class S
# ---------------------------------------------------------------------------


def test_class_s_indicator_bump():
    assert class_s_check(indicator(-1, 1)).ok


def test_class_s_two_bump_counterexample():
    verdict = class_s_check(TWO_BUMP)
    assert not verdict.ok
    x1, x2 = verdict.witness
    pair = split(TWO_BUMP)
    conv = convolve(pair.plus, pair.minus)
    assert conv.eval(x1) < conv.eval(x2)


def test_class_s_tent():
    assert class_s_sufficient(tent(-1, 0, 1), 0)  # bump criterion
    assert class_s_check(tent(-1, 0, 1)).ok


def test_class_s_rejects_complex():
    with pytest.raises(SplitnormError, match=exactly("class-S membership applies to real functions")):
        class_s_check(indicator(0, 1) * gauss(0, 1))


def test_sufficient_condition_examples():
    assert class_s_sufficient(indicator(-1, 1), 0)
    assert not class_s_sufficient(TWO_BUMP, 0)
    assert not class_s_sufficient(TWO_BUMP, rat(21, 2))
    # nested steps around r: member by the step lemma
    steps = indicator(1, 2) + indicator(rat(1, 2), 3) * rat(1, 3)
    f = steps + steps.reflect()
    assert class_s_sufficient(f, rat(3, 2))
    assert class_s_check(f).ok


def test_sufficient_condition_rejects_odd_or_negative():
    assert not class_s_sufficient(indicator(0, 1), 0)  # not even
    assert not class_s_sufficient(indicator(-1, 1) * rat(-1), 0)  # negative


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sufficient_implies_member(seed):
    f = rnd_class_s_member(np.random.default_rng(seed), max_steps=3)
    assert class_s_check(f).ok


# ---------------------------------------------------------------------------
# the convolution lemmas behind the monotonicity theorem
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nested_indicator_correlation_decreases(seed):
    rng = np.random.default_rng(seed)
    b = rat(int(rng.integers(0, 4)), 2)
    c = b + rat(int(rng.integers(1, 4)), 2)
    a = b - rat(int(rng.integers(0, 3)), 2)
    d = c + rat(int(rng.integers(0, 3)), 2)
    if not a < d:
        return
    inner, outer = indicator(b, c), indicator(a, d)
    for f1, f2 in [(inner, outer), (outer, inner)]:
        conv = convolve(f1, f2.reflect())
        assert is_nonincreasing_on(conv, 0).ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_negative_support_convolution_preserves_decrease(seed):
    rng = np.random.default_rng(seed)
    # u >= 0 supported on (-oo, 0]
    u = indicator(-rat(int(rng.integers(1, 5)), 2), 0) * rat(int(rng.integers(1, 4)), 2)
    if rng.random() < 0.5:
        w = rat(int(rng.integers(1, 5)), 2)
        u = u + tent(-w - 1, -w, -w + rat(1, 2)).restrict(hi=0) * rat(int(rng.integers(1, 3)))
    # v nonincreasing on [0, oo), arbitrary to the left
    v = indicator(0, rat(int(rng.integers(1, 4)), 2)) * rat(int(rng.integers(1, 4)), 2)
    v = v + PiecewisePoly([rat(-2), 0], [Poly([rat(int(rng.integers(-2, 3))), rat(int(rng.integers(-1, 2)))])])
    down = rat(int(rng.integers(1, 3)), 2)
    v = v + PiecewisePoly([0, down], [Poly([down, rat(-1)])])
    assert is_nonincreasing_on(v, 0).ok, "generator must produce a valid v"
    assert is_nonincreasing_on(convolve(u, v), 0).ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_split_correlation_of_even_function_is_even(seed):
    rng = np.random.default_rng(seed)
    g = rnd_pp(rng, max_pieces=2, max_deg=2)
    f = g + g.reflect()  # even, real
    pair = split(f)
    t = rat(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
    conv = convolve(pair.plus.translate(t), pair.minus.translate(-t))
    assert conv.reflect() == conv


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adjoint_word_identity(seed):
    # for even real f and any word in the two halves,
    # (h*F) * reflect(g*F) = h * reflect(g) * (plus*minus)^{*n}
    rng = np.random.default_rng(seed)
    base = rnd_pp(rng, max_pieces=2, max_deg=1)
    f = base + base.reflect()
    pair = split(f)
    if pair.plus.is_zero() or pair.minus.is_zero():
        return
    n = int(rng.integers(1, 3))
    word = [pair.plus if rng.random() < 0.5 else pair.minus for _ in range(n)]
    F = word[0]
    for w in word[1:]:
        F = convolve(F, w)
    g = rnd_pp(rng, max_pieces=2, max_deg=1)
    h = rnd_pp(rng, max_pieces=2, max_deg=1)
    lhs = convolve(convolve(h, F), convolve(g, F).reflect())
    rhs = convolve(convolve(h, g.reflect()), conv_power(convolve(pair.plus, pair.minus), n))
    assert lhs == rhs
