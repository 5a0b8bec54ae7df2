"""Exact algebra of compactly supported piecewise polynomials.

Functions are finitely many polynomial pieces over Gaussian-rational
coefficients on half-open intervals ``[b_k, b_{k+1})``, zero outside.  A
piece keeps the real and imaginary parts of its coefficients as two tuples
of rationals (``Poly.coeffs`` and ``Poly.im``, empty for real pieces), and
complex values come back as ``(re, im)`` pairs (see ``scalars``).
Pointwise values at breakpoints never matter: every operation here is
integral-based, and the canonical form (merge equal neighbours, drop zero
end pieces) makes structural equality coincide with a.e. equality.

Convolution uses the one-sided jump decomposition
``f = sum_k D_k(x) * H(x - b_k)`` (``H`` the unit step, ``D_k`` the
polynomial jump at breakpoint ``b_k``); each jump pair contributes through
``(u^m H) * (u^n H)(v) = v^{m+n+1} m! n! / (m+n+1)!``.

Convolution, correlation and inner products run on ``IntLayout``: Python
ints in the layout of FLINT's rational polynomials, integer numerators over
one common denominator.  ``IntLayout.of`` writes its functions in
``X = L x``, with ``L`` the lcm of all their breakpoint denominators, so
every breakpoint is an integer and every Taylor shift an integer one.  A
real product is one real kernel, a complex one three (Karatsuba).  Jump
pairs multiply as packed integers (Kronecker substitution), with weights
``m! n! M / (m+n+1)!``, ``M = (deg f + deg g + 1)!``; the one-sided terms
are summed per start in its local basis, shifted once, then in one running
sum.  A convolution is again a layout at the same ``L``, divided through by
the gcd of its integers, so the exact engine lays out its two split halves
once; ``to_piecewise`` is the one way back, reducing each coefficient once,
by ``rat(num, den)``, to a Fraction.

Monotonicity and sign decisions are exact, via root isolation on integers
(Collins & Akritas 1976): a polynomial's square-free part, certified by a
gcd with its derivative modulo the prime 2^61 - 1 (the rational Euclid
runs only when that certificate fails), is mapped once to an integer
polynomial on [0, 1], and Descartes bisection halves it with integer
scalings and Taylor shifts.  No floating point is involved anywhere in
this module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, repeat, zip_longest
from typing import Optional

from .errors import InvariantViolation, SplitnormError
from .scalars import RAT_ONE, RAT_ZERO, as_scalar, format_rat, format_scalar, gauss, parts, rat

__all__ = [
    "Poly",
    "PiecewisePoly",
    "IntLayout",
    "MonotoneVerdict",
    "convolve",
    "correlate",
    "real_correlation_sum",
    "l2_inner",
    "is_nonincreasing_on",
    "is_nonnegative",
    "isolate_real_roots",
    "indicator",
    "tent",
]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Univariate polynomial with exact coefficients, ascending, no trailing zeros.

    ``coeffs`` holds the real parts of the coefficients and ``im`` the
    imaginary parts: ``()`` for a real polynomial, otherwise a tuple as long
    as ``coeffs``.  Each entry of ``coeffs`` in ``Poly(coeffs)`` is a
    rational or an ``(re, im)`` pair; ``Poly(re, im)`` takes the two parts as
    ready rational sequences.  Linear operations act on each part alone;
    only products with complex factors mix them.
    """

    __slots__ = ("coeffs", "im")

    def __init__(self, coeffs=(), im=None):
        if im is None:
            re, im = [], []
            for c in coeffs:
                c_re, c_im = parts(as_scalar(c))
                re.append(c_re)
                im.append(c_im)
        else:
            re, im = list(coeffs), list(im)
        if any(im):
            n = max(len(re), len(im))
            re += [RAT_ZERO] * (n - len(re))
            im += [RAT_ZERO] * (n - len(im))
            while not (re[-1] or im[-1]):
                re.pop()
                im.pop()
        else:
            im = []
            while re and not re[-1]:
                re.pop()
        self.coeffs = tuple(re)
        self.im = tuple(im)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs and self.im == other.im

    def __hash__(self):
        return hash((self.coeffs, self.im))

    def __repr__(self):
        return f"Poly({_pairs(self) if self.im else list(self.coeffs)!r})"

    def __add__(self, other):
        return Poly(_add(self.coeffs, other.coeffs), _add(self.im, other.im))

    def __sub__(self, other):
        return Poly(_sub(self.coeffs, other.coeffs), _sub(self.im, other.im))

    def __neg__(self):
        return Poly(*([-c for c in cs] for cs in (self.coeffs, self.im)))

    def __mul__(self, other):
        if isinstance(other, Poly):
            # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
            a, b, c, d = self.coeffs, self.im, other.coeffs, other.im
            return Poly(_sub(_mul(a, c), _mul(b, d)), _add(_mul(a, d), _mul(b, c)))
        k = as_scalar(other)
        if isinstance(k, tuple):
            return self * Poly([k])
        return Poly(*([x * k for x in cs] for cs in (self.coeffs, self.im)))

    __rmul__ = __mul__

    def eval(self, x):
        """p(x): a rational, or an ``(re, im)`` pair when the value is complex."""
        x = as_scalar(x)
        re = _horner(self.coeffs, x)
        return gauss(re, _horner(self.im, x)) if self.im else re

    def derivative(self) -> "Poly":
        return Poly(*([k * c for k, c in enumerate(cs)][1:] for cs in (self.coeffs, self.im)))

    def shift(self, h) -> "Poly":
        """P(x + h), synthetic Horner shift."""
        h = as_scalar(h)
        if not h or self.is_zero():
            return self
        return Poly(*(_taylor_shift(cs, h) for cs in (self.coeffs, self.im)))

    def scale_arg(self, c) -> "Poly":
        """P(c*x)."""
        c = as_scalar(c)
        powers = [c**j for j in range(len(self.coeffs))]
        return Poly(*([a * w for a, w in zip(cs, powers)] for cs in (self.coeffs, self.im)))


def _add(a, b) -> list:
    """Sum of two ascending coefficient sequences of any lengths."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=RAT_ZERO)]


def _sub(a, b) -> list:
    return [x - y for x, y in zip_longest(a, b, fillvalue=RAT_ZERO)]


def _mul(a, b) -> list:
    """Product of two ascending coefficient sequences (empty if either is)."""
    if not a or not b:
        return []
    out = [RAT_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def _pairs(p: Poly) -> list:
    """``(re, im)`` per coefficient of p, ascending."""
    return list(zip(p.coeffs, p.im or repeat(RAT_ZERO)))


def _horner(cs, x):
    acc = RAT_ZERO
    for c in reversed(cs):
        acc = acc * x + c
    return acc


ZERO_POLY = Poly()
ONE_POLY = Poly([1])


def _poly_divmod(a: Poly, b: Poly):
    """Exact quotient and remainder over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [RAT_ZERO] * max(0, len(rem) - len(b.coeffs) + 1)
    lead = b.coeffs[-1]
    db = b.degree
    while rem and len(rem) - 1 >= db:
        k = len(rem) - 1 - db
        c = rem[-1] / lead
        quo[k] = c
        for i, bc in enumerate(b.coeffs):
            rem[k + i] = rem[k + i] - c * bc
        while rem and not rem[-1]:
            rem.pop()
    return Poly(quo, ()), Poly(rem, ())


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals."""
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (RAT_ONE / a.coeffs[-1])


# ---------------------------------------------------------------------------
# real root isolation (square-free part, then Descartes + bisection on
# integer windows)
# ---------------------------------------------------------------------------
#
# Vincent-Collins-Akritas bisection (Collins & Akritas 1976, "Polynomial real
# root isolation using Descartes' rule of signs"; Rouillier & Zimmermann
# 2004, "Efficient isolation of polynomial's real roots") on primitive
# integer polynomials.  The input is first made square-free (``_square_free``
# and its modular certificate).  A window of the square-free sf over (a, b)
# is an integer list w, a positive multiple of sf(a + (b - a) x): its roots
# in (0, 1) are those of sf in (a, b).  [lo, hi] is mapped to [0, 1] once;
# after that the children of w are the integer polynomials 2^n w(x/2) (over
# (a, mid)) and its Taylor shift by 1 (over (mid, b)), and sf(a) = 0 iff
# w(0) = 0, sf(b) = 0 iff the coefficients of w sum to 0.  Descartes' bound
# for (0, 1) is the number of sign variations of (x + 1)^n w(1/(x + 1)).  It
# does not change when a root at 0 or 1 is divided out (that only drops a
# factor x or -x from the transformed polynomial), so each window's bound
# equals that of the rational window sf(a + (b - a) x) with its end roots
# removed, and the intervals are those of rational Descartes bisection.

# the certificate prime, 2^61 - 1 (a Mersenne prime)
_CERT_PRIME = (1 << 61) - 1


def _int_primitive(coeffs) -> list:
    """Integer coefficients with content 1, a positive multiple of the rational ``coeffs``."""
    den = math.lcm(*(c.denominator for c in coeffs))
    cs = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _gcd_degree_mod(a: list, b: list, m: int) -> int:
    """Degree of gcd(a, b) over GF(m), m prime (-1 when both vanish mod m)."""

    def trimmed(cs):
        cs = [c % m for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        return cs

    a, b = trimmed(a), trimmed(b)
    while b:
        inv = pow(b[-1], -1, m)
        db = len(b) - 1
        while len(a) > db:
            k = len(a) - 1 - db
            c = a[-1] * inv % m
            a[k:] = [(x - c * y) % m for x, y in zip(a[k:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _square_free(p: Poly) -> Poly:
    """A square-free polynomial with the roots of p: p itself when it is
    square-free, else p / gcd(p, p') over Q.

    Certificate: if the prime P = 2^61 - 1 does not divide lc(p) and
    gcd(p, p') modulo P is a constant, then p is square-free and is returned
    without the rational Euclid.  Proof: a nontrivial gcd over Q has a
    primitive integer associate g, which divides p and p' in Z[x] (Gauss's
    lemma).  lc(g) divides lc(p), so P does not divide lc(g), and g modulo P
    is a common divisor of degree deg g >= 1 of the images of p and p'.  So
    a nontrivial gcd over Q stays nontrivial modulo any prime that does not
    divide lc(p).  When the certificate fails, the rational Euclid decides.
    """
    if not p.is_real():
        raise SplitnormError(f"polynomial has complex coefficients: {p!r}")
    if p.degree <= 0:
        return p
    cs = _int_primitive(p.coeffs)
    if cs[-1] % _CERT_PRIME and _gcd_degree_mod(cs, [k * c for k, c in enumerate(cs)][1:], _CERT_PRIME) == 0:
        return p
    g = _poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = _poly_divmod(p, g)
    if not r.is_zero():
        raise InvariantViolation("the gcd with the derivative must divide the polynomial")
    return q


def _sign_variations(coeffs) -> int:
    v = 0
    last = 0
    for c in coeffs:
        if not c:
            continue
        s = 1 if c > 0 else -1
        if last and s != last:
            v += 1
        last = s
    return v


def _variations_01(w: list) -> int:
    """Descartes' bound for the number of roots of the window w in (0, 1)."""
    return _sign_variations(_taylor_shift(w[::-1], 1))


def _left_child(w: list) -> list:
    """2^n w(x/2): the window over the left half."""
    n = len(w) - 1
    return [c << (n - j) for j, c in enumerate(w)]


def _divide_root_at_one(w: list) -> list:
    """w / (x - 1); w(1) must vanish."""
    sums = list(accumulate(reversed(w)))  # sums[k] = w_n + ... + w_{n-k}
    if sums[-1]:
        raise InvariantViolation("1 is not a root of the window polynomial")
    return sums[-2::-1]


def _int_window(sf: Poly, lo, hi) -> list:
    """The window of sf over (lo, hi), with content 1."""
    cs = _int_primitive(sf.coeffs)
    den = math.lcm(lo.denominator, hi.denominator)
    n0 = lo.numerator * (den // lo.denominator)
    n1 = hi.numerator * (den // hi.denominator) - n0
    d = len(cs) - 1
    # den^d sf(Y / den) in Y = den X, then Y = n0 + n1 x
    w = _taylor_shift([c * den ** (d - k) for k, c in enumerate(cs)], n0)
    w = [c * n1**j for j, c in enumerate(w)]
    g = math.gcd(*w)
    return [c // g for c in w]


def isolate_real_roots(p: Poly, lo, hi) -> list[tuple]:
    """Disjoint rational intervals, one per root of ``p`` in the open (lo, hi).

    Each interval is either degenerate ``(r, r)`` for an exact rational root
    or closed ``(a, b)`` with the unique root strictly interior, nonzero
    values at both endpoints, and ``lo < a < b < hi``.  Together the
    intervals cover every root in (lo, hi).
    """
    if p.is_zero():
        raise SplitnormError("cannot isolate roots of the zero polynomial")
    return [(a, b) for a, b, _ in _isolate_square_free(_square_free(p), lo, hi)]


def _isolate_square_free(sf: Poly, lo, hi) -> list[tuple]:
    """``isolate_real_roots`` for a square-free sf, each interval ``(a, b)``
    with its window ``w`` as ``(a, b, w)`` (``w`` is None for ``(r, r)``)."""
    lo, hi = rat(lo), rat(hi)
    if not lo < hi or sf.degree <= 0:
        return []
    w = _int_window(sf, lo, hi)
    # roots at lo and hi are outside the open interval: divide them out
    while len(w) > 1 and not w[0]:
        w = w[1:]
    while len(w) > 1 and not sum(w):
        w = _divide_root_at_one(w)
    if len(w) <= 1:
        return []

    out: list[tuple] = []

    def recurse(a, b, w, depth):
        if depth > 128:
            raise InvariantViolation("root isolation failed to terminate")
        n = _variations_01(w)
        if n == 0:
            return
        if n == 1:
            out.append((a, b, w))
            return
        mid = (a + b) / 2
        left = _left_child(w)
        recurse(a, mid, left, depth + 1)
        if not sum(left):
            out.append((mid, mid, None))
        recurse(mid, b, _taylor_shift(left, 1), depth + 1)

    recurse(lo, hi, w, 0)  # in order: the intervals come out sorted
    # endpoints that are non-roots inside (lo, hi)
    return [_refine(a, b, w, lambda a, b, w: w[0] and sum(w) and lo < a and b < hi) for a, b, w in out]


def _refine(a, b, w, done):
    """Halve the isolating window (a, b, w) toward its root until
    ``done(a, b, w)`` holds or the root is met exactly (a == b)."""
    while a != b and not done(a, b, w):
        a, b, w = _bisect_toward_root(a, b, w)
    return (a, b, w)


def _bisect_toward_root(a, b, w):
    """Halve the window (a, b, w) keeping its unique interior root."""
    mid = (a + b) / 2
    left = _left_child(w)
    if not sum(left):
        return mid, mid, None
    # the left half holds the root iff its Descartes bound is odd (the bound
    # has the parity of the true count)
    if _variations_01(left) % 2 == 1:
        return a, mid, left
    return mid, b, _taylor_shift(left, 1)


def _sign_regions(p: Poly, lo, hi):
    """Constant-sign regions of a nonzero real p on (lo, hi).

    Yields ``(sample, anchor, sign)`` per region between consecutive roots:
    ``sample`` is a non-root interior point, ``anchor`` a second point with
    ``sample < anchor`` and no root of p in ``[sample, anchor]``.
    """
    sf = _square_free(p)
    regions = []
    prev = lo  # a point <= the next root, with no uncovered root behind it
    for a, b, w in _isolate_square_free(sf, lo, hi):
        sample = (prev + a) / 2 if prev < a else prev
        if p.eval(sample) == 0:
            raise InvariantViolation("a sign-region sample point is a root")
        nxt = _refine(a, b, w, lambda a, b, w: a > sample)
        anchor = (sample + nxt[0]) / 2
        if not sample < anchor:
            raise InvariantViolation("a sign-region anchor must lie right of its sample")
        regions.append((sample, anchor, 1 if p.eval(sample) > 0 else -1))
        prev = nxt[1]
    sample = (prev + hi) / 2
    regions.append((sample, (sample + hi) / 2, 1 if p.eval(sample) > 0 else -1))
    return regions


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------


class PiecewisePoly:
    """Compactly supported piecewise polynomial in canonical form."""

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints, pieces):
        bps = [rat(b) for b in breakpoints]
        ps = [q if isinstance(q, Poly) else Poly(q) for q in pieces]
        if len(bps) != (len(ps) + 1 if ps else 0):
            raise ValueError("need len(breakpoints) == len(pieces) + 1")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        k = 0
        while k + 1 < len(ps):
            if ps[k] == ps[k + 1]:
                del ps[k + 1]
                del bps[k + 1]
            else:
                k += 1
        while ps and ps[0].is_zero():
            del ps[0]
            del bps[0]
        while ps and ps[-1].is_zero():
            del ps[-1]
            del bps[-1]
        if not ps:
            bps = []
        self.breakpoints = tuple(bps)
        self.pieces = tuple(ps)

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.pieces

    def support(self) -> Optional[tuple]:
        if not self.pieces:
            return None
        return (self.breakpoints[0], self.breakpoints[-1])

    def support_radius(self):
        s = self.support()
        if s is None:
            return RAT_ZERO
        return max(abs(s[0]), abs(s[1]))

    def is_real(self) -> bool:
        return all(p.is_real() for p in self.pieces)

    def __eq__(self, other):
        return (
            isinstance(other, PiecewisePoly)
            and self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        parts = ", ".join(
            f"[{format_rat(a)},{format_rat(b)}): {_pairs(p) if p.im else list(p.coeffs)}"
            for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces)
        )
        return f"PiecewisePoly({parts or '0'})"

    # -- evaluation ------------------------------------------------------
    def piece_at(self, x) -> Poly:
        """The polynomial in force at x (half-open convention)."""
        if not self.pieces:
            return ZERO_POLY
        k = bisect_right(self.breakpoints, rat(x)) - 1
        if 0 <= k < len(self.pieces):
            return self.pieces[k]
        return ZERO_POLY

    def eval(self, x):
        x = rat(x)
        return self.piece_at(x).eval(x)

    def left_limit(self, x):
        """Limit from below at x."""
        x = rat(x)
        if not self.pieces:
            return RAT_ZERO
        k = bisect_right(self.breakpoints, x) - 1
        if 0 <= k < len(self.breakpoints) and self.breakpoints[k] == x:
            k -= 1
        if 0 <= k < len(self.pieces):
            return self.pieces[k].eval(x)
        return RAT_ZERO

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = [self.piece_at(a) + other.piece_at(a) for a in bps[:-1]]
        return PiecewisePoly(bps, pieces)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PiecewisePoly(self.breakpoints, [-p for p in self.pieces])

    def __mul__(self, c):
        c = as_scalar(c)
        if not c:
            return ZERO_PP
        return PiecewisePoly(self.breakpoints, [p * c for p in self.pieces])

    __rmul__ = __mul__

    def translate(self, t) -> "PiecewisePoly":
        """x -> f(x - t)."""
        t = rat(t)
        return PiecewisePoly(
            [b + t for b in self.breakpoints], [p.shift(-t) for p in self.pieces]
        )

    def reflect(self) -> "PiecewisePoly":
        """x -> f(-x) (no conjugation)."""
        bps = [-b for b in reversed(self.breakpoints)]
        pieces = [p.scale_arg(rat(-1)) for p in reversed(self.pieces)]
        return PiecewisePoly(bps, pieces)

    def _intervals(self):
        for k, p in enumerate(self.pieces):
            yield self.breakpoints[k], self.breakpoints[k + 1], p

    # -- serialization ---------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [format_rat(b) for b in self.breakpoints],
            "pieces": [[format_scalar(c) for c in _pairs(p)] for p in self.pieces],
        }


ZERO_PP = PiecewisePoly([], [])


def indicator(a, b) -> PiecewisePoly:
    """Characteristic function of [a, b)."""
    return PiecewisePoly([a, b], [ONE_POLY])


def tent(a, b, c) -> PiecewisePoly:
    """Piecewise-linear hat: 0 at a, 1 at b, 0 at c."""
    a, b, c = rat(a), rat(b), rat(c)
    up = Poly([-a / (b - a), RAT_ONE / (b - a)])
    down = Poly([c / (c - b), -RAT_ONE / (c - b)])
    return PiecewisePoly([a, b, c], [up, down])


# ---------------------------------------------------------------------------
# convolution / correlation / inner products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLayout:
    """A piecewise polynomial f in the scaled variable X = L x, as integer numerators.

    ``bps`` are the integer breakpoints in X and ``scale`` is L.  ``re[k]``
    and ``im[k]`` (``im`` is None for real data) are the ascending
    coefficients of piece k of F(X) = f(X / L), each padded to ``degree + 1``
    entries, all over one positive ``den``.  Zero has no pieces.  A layout
    is never changed: its jumps and reflection are formed once, in ``_memo``.
    """

    bps: list
    scale: int
    den: int
    re: list
    im: Optional[list]
    degree: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, *fs: PiecewisePoly) -> list:
        """The layouts of fs at one scale L, the lcm of all their breakpoint
        denominators: in X = L x every breakpoint is an integer."""
        scale = math.lcm(*(b.denominator for f in fs for b in f.breakpoints))

        def lay_out(f):
            degree = max((len(q.coeffs) for q in f.pieces), default=1) - 1
            powers = [scale**j for j in range(degree + 1)]
            re = [q.coeffs for q in f.pieces]
            im = None if f.is_real() else [q.im for q in f.pieces]
            # a coefficient c of x^j is c / L^j in X
            den = math.lcm(*(c.denominator * w for rows in (re, im or ()) for cs in rows for c, w in zip(cs, powers)))

            def numerators(rows):
                pad = [0] * (degree + 1)
                return [[c.numerator * (den // (c.denominator * w)) for c, w in zip(cs, powers)] + pad[len(cs):]
                        for cs in rows]

            bps = [b.numerator * (scale // b.denominator) for b in f.breakpoints]
            return cls(bps, scale, den, numerators(re), None if im is None else numerators(im), degree)

        return [lay_out(f) for f in fs]

    def to_piecewise(self) -> PiecewisePoly:
        """The function back in x, with one ``rat`` reduction per coefficient."""
        if not self.re:
            return ZERO_PP
        powers = [self.scale**j for j in range(self.degree + 1)]

        def coeffs(q):
            return [rat(c * w, self.den) for c, w in zip(q, powers)]

        im = self.im or [()] * len(self.re)
        pieces = [Poly(coeffs(q), coeffs(i) if any(i) else ()) for q, i in zip(self.re, im)]
        return PiecewisePoly([rat(b, self.scale) for b in self.bps], pieces)

    def conj_reflected(self) -> "IntLayout":
        """The layout of x -> conj(f(-x)), formed once."""

        def flip(pieces, negate: bool):
            return [
                [-c if (j % 2 == 1) != negate else c for j, c in enumerate(q)]
                for q in reversed(pieces)
            ]

        if "conj" not in self._memo:
            im = None if self.im is None else flip(self.im, True)
            bps = [-b for b in reversed(self.bps)]
            self._memo["conj"] = IntLayout(bps, self.scale, self.den, flip(self.re, False), im, self.degree)
        return self._memo["conj"]

    def jumps(self, part: str) -> list:
        """``(B_k, [m! d_m])`` per breakpoint, a shared list, ``d_m`` the coefficients of
        the jump of ``part`` ("re", "im", or "sum" for re + im) in powers of X - B_k."""
        if part in self._memo:
            return self._memo[part]
        if part == "sum":
            pieces = [[a + b for a, b in zip(r, i)] for r, i in zip(self.re, self.im)]
        else:
            pieces = getattr(self, part)
        zero = [0] * (self.degree + 1)
        fact = [math.factorial(m) for m in range(self.degree + 1)]
        out = []
        prev = zero
        for k, b in enumerate(self.bps):
            cur = pieces[k] if k < len(pieces) else zero
            d = [x - y for x, y in zip(cur, prev)]
            if any(d):
                out.append((b, [w * c for w, c in zip(fact, _taylor_shift(d, b))]))
            prev = cur
        self._memo[part] = out
        return out

    def convolve(self, other: "IntLayout") -> "IntLayout":
        """The layout of the convolution, divided through by the gcd of its
        numerators and ``den``: without that, the integers of a ladder of
        convolutions grow rung by rung."""
        re, im, weights, den = _product_jumps(self, other)
        re, im = _weighted(re, weights), None if im is None else _weighted(im, weights)
        starts = sorted(re if im is None else re.keys() | im.keys())
        width = self.degree + other.degree + 2
        re = _running_sums(re, starts, width, "convolve")
        im = None if im is None else _running_sums(im, starts, width, "convolve")
        g = math.gcd(den, *(c for rows in (re, im or ()) for q in rows for c in q))

        def reduced(rows):
            return [[c // g for c in q] for q in rows]

        return IntLayout(starts, self.scale, den // g, reduced(re), None if im is None else reduced(im), width - 1)

    def inner(self, other: "IntLayout"):
        """Exact int f(x) * conj(g(x)) dx."""
        F, G = self, other
        if not (F.re and G.re):
            return RAT_ZERO
        lo, hi = max(F.bps[0], G.bps[0]), min(F.bps[-1], G.bps[-1])
        grid = sorted({b for b in F.bps + G.bps if lo <= b <= hi})
        # int_A^B X^k dX = (B^{k+1} - A^{k+1}) / (k+1), over the common n!
        n = F.degree + G.degree + 1
        big = math.factorial(n)
        weights = [big // (k + 1) for k in range(n)]

        def integral(cs, a, b):
            at_a = at_b = 0
            for w, c in zip(reversed(weights), reversed(cs)):
                at_a = (at_a + w * c) * a
                at_b = (at_b + w * c) * b
            return at_b - at_a

        re = im = 0
        for a, b in zip(grid, grid[1:]):
            i = bisect_right(F.bps, a) - 1
            k = bisect_right(G.bps, a) - 1
            # f conj(g) = (Fr Gr + Fi Gi) + i (Fi Gr - Fr Gi)
            re += integral(_int_mul_add(F.re[i], G.re[k]), a, b)
            if F.im is not None and G.im is not None:
                re += integral(_int_mul_add(F.im[i], G.im[k]), a, b)
            if F.im is not None:
                im += integral(_int_mul_add(F.im[i], G.re[k]), a, b)
            if G.im is not None:
                im -= integral(_int_mul_add(F.re[i], G.im[k]), a, b)
        # int f conj(g) dx = int F conj(G) dX / L
        den = F.den * G.den * big * F.scale
        return gauss(rat(re, den), rat(im, den))


def _taylor_shift(cs, h) -> list:
    """Ascending coefficients of P(X + h) from those of P (integer or rational h)."""
    out = list(cs)
    if h:
        n = len(out)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += h * out[j + 1]
    return out


def _int_mul_add(a: list, b: list, out: Optional[list] = None) -> list:
    """out + a * b for ascending integer coefficient lists (out defaults to 0)."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    nb = len(b)
    for m, am in enumerate(a):
        if am:
            out[m : m + nb] = [o + am * bn for o, bn in zip(out[m : m + nb], b)]
    return out


def _jump_pair_products(fj: list, gj: list) -> dict:
    """start -> sum of the coefficient products of the jump pairs starting there.

    The jumps of ``fj`` have one length, those of ``gj`` another.  Kronecker
    substitution: each jump's nonzero span is packed into one integer in
    B-bit digits, B at least two bits over the bound on every output
    coefficient, ``max|a| max|e| min(len) pairs``, and its offset kept.  A
    pair costs one product, shifted by the offsets into its start's sum (a
    one-nonzero jump, as of a B-spline, is one digit); a start is unpacked once.
    """
    if not (fj and gj):
        return {}
    la, le = len(fj[0][1]), len(gj[0][1])
    top = max(abs(c) for _, a in fj for c in a) * max(abs(c) for _, e in gj for c in e)
    nbytes = ((top * min(la, le) * len(fj) * len(gj)).bit_length() + 9) // 8
    bits = 8 * nbytes

    def packed(jumps):  # (start, offset in bits, the span from the first nonzero)
        out = []
        for b, cs in jumps:
            lo = next(compress(count(), cs), 0)
            v = 0
            for c in reversed(cs[lo:]):
                v = (v << bits) + c
            out.append((b, lo * bits, v))
        return out

    # each sum starts at 2^(B-1) per digit, so that its digits, below 2^(B-1)
    # in size, are B-bit nonnegative ones
    width, half = la + le - 1, 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * width, "little")
    acc: dict = {}
    pg = packed(gj)
    for b, i, u in packed(fj):
        for c, j, v in pg:
            acc[b + c] = acc.get(b + c, bias) + (u * v << (i + j))
    ends = range(0, nbytes * width, nbytes)
    out = {}
    for s, x in acc.items():
        raw = x.to_bytes(nbytes * width, "little")
        out[s] = [int.from_bytes(raw[k : k + nbytes], "little") - half for k in ends]
    return out


def _add_into(dst: dict, src: dict, sign: int) -> dict:
    for s, cs in src.items():
        cur = dst.get(s)
        dst[s] = [sign * c for c in cs] if cur is None else [x + sign * c for x, c in zip(cur, cs)]
    return dst


def _product_jumps(F: IntLayout, G: IntLayout, real_only: bool = False):
    """One-sided terms of the convolution f * g of the layouts F and G, each
    in its start's local basis: ``(re, im, weights, den)``.

    ``re`` and ``im`` map each start S to the integer coefficient products of
    its jump pairs; with ``weights`` (``_weighted``) they give J_S,
    ``(f * g)(x) = sum_S H(X - S) J_S(X - S) / den``, unshifted, so that a
    caller summing many products shifts each start once and can fold its own
    rescaling into the one weighting pass; ``im`` is None for a real product
    or when ``real_only`` is set.  With ``M = (deg F + deg G + 1)!`` and the
    jumps scaled by ``m!``, the jump pair ``(u^m H) * (u^n H) = v^{m+n+1} m!
    n! / (m+n+1)!`` becomes the integer weight ``weights[m+n+1] = M /
    (m+n+1)!`` on the product coefficient of ``v^{m+n}``.
    """
    fr, gr = F.jumps("re"), G.jumps("re")
    re = _jump_pair_products(fr, gr)
    im = None
    if F.im is not None and G.im is not None:
        p2 = _jump_pair_products(F.jumps("im"), G.jumps("im"))
        if not real_only:  # Karatsuba: (Fr + Fi)(Gr + Gi) - Fr Gr - Fi Gi
            im = _jump_pair_products(F.jumps("sum"), G.jumps("sum"))
            _add_into(_add_into(im, re, -1), p2, -1)
        _add_into(re, p2, -1)
    elif F.im is not None and not real_only:
        im = _jump_pair_products(F.jumps("im"), gr)
    elif G.im is not None and not real_only:
        im = _jump_pair_products(fr, G.jumps("im"))
    length = F.degree + G.degree + 1
    big_m = math.factorial(length)
    weights = [0] + [big_m // math.factorial(k + 1) for k in range(length)]
    # (f * g)(x) = (F * G)(X) / L
    return re, im, weights, big_m * F.den * G.den * F.scale


def _weighted(acc: dict, weights: list) -> dict:
    """start -> J_S: coefficient j is ``weights[j]`` times product coefficient j - 1."""
    return {s: [w * c for w, c in zip(weights, [0] + cs)] for s, cs in acc.items()}


def _running_sums(jumps: dict, starts: list, width: int, what: str) -> list:
    """The pieces between consecutive starts, as running sums of the one-sided
    terms, each given in its start's local basis and shifted to X once; the
    sum past the last start must vanish."""
    acc = [0] * width
    pieces = []
    for s in starts:
        cs = jumps.get(s)
        if cs is not None:
            acc = [a + c for a, c in zip(acc, _taylor_shift(cs, -s))]
        pieces.append(acc)
    if any(acc):
        raise InvariantViolation(f"{what}: one-sided terms failed to cancel")
    return pieces[:-1]


def convolve(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """Exact convolution (f*g)(x) = int f(y) g(x-y) dy.

    The support is contained in the sum of the supports (and the result of
    convolving bounded pieces is continuous).
    """
    F, G = IntLayout.of(f, g)
    return F.convolve(G).to_piecewise()


def correlate(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """Cross-correlation s -> int g(x) conj(f(x - s)) dx = g * conj-reflect(f).

    ``correlate(f, f)(0)`` is the squared L2 norm of f.
    """
    F, G = IntLayout.of(f, g)
    return G.convolve(F.conj_reflected()).to_piecewise()


def l2_inner(f: PiecewisePoly, g: PiecewisePoly):
    """Exact int f(x) * conj(g(x)) dx."""
    F, G = IntLayout.of(f, g)
    return F.inner(G)


def real_correlation_sum(terms) -> PiecewisePoly:
    """t -> Re sum_k w_k correlate(f_k, g_k)(c_k t) for t >= 0, zero for t < 0.

    ``terms`` holds ``(w_k, c_k, F_k, G_k)`` with integer weights ``w_k``,
    positive integer argument scales ``c_k`` and the layouts ``F_k``, ``G_k``
    of f_k and g_k, all at one scale L.  Only real parts are formed, and all
    terms go into one accumulation of one-sided terms in the common variable
    ``Z = L lcm(c_k) t``.  A term at S in X = Z / r starts at z = S r, its
    coefficients of ``(X - S)^j`` those of ``(Z - z)^j`` over ``r^j``; the
    terms at one z are summed in that basis and shifted to Z once, before
    the cut-off at t = 0.  One sort and one running sum, back to x once.
    """
    terms = [(w, c, F, G) for w, c, F, G in terms if w and F.re and G.re]
    if any(not (isinstance(c, int) and c > 0 and isinstance(w, int)) for w, c, _, _ in terms):
        raise ValueError("weights must be integers and scales positive integers")
    if not terms:
        return ZERO_PP
    lcm_c = math.lcm(*(c for _, c, _, _ in terms))
    parts = []
    for w, c, F, G in terms:
        re, _, weights, den = _product_jumps(G, F.conj_reflected(), real_only=True)
        parts.append((w, lcm_c // c, re, weights, den))
    width = 2 * max(h.degree for _, _, F, G in terms for h in (F, G)) + 2
    # X = L c t = Z / r with r = lcm(c) / c; over the common ``den * r^j``
    common = math.lcm(*(den * r ** (width - 1) for _, r, _, _, den in parts))
    local: dict = {}
    for w, r, re, weights, den in parts:
        # the product weights and the rescaling to ``common`` in one vector,
        # so that each start's products are walked once
        mult = [w * k * (common // (den * r**j)) for j, k in zip_longest(range(width), weights, fillvalue=0)]
        for s, cs in re.items():
            local[s * r] = [a + m * x for a, m, x in zip_longest(local.get(s * r, ()), mult, [0] + cs, fillvalue=0)]
    # t < 0 is cut off: the terms starting there act from t = 0, shifted to Z
    local[0] = [sum(col) for col in zip([0] * width, *(_taylor_shift(cs, -z) for z, cs in local.items() if z <= 0))]
    starts = sorted(z for z in local if z >= 0)
    pieces = _running_sums(local, starts, width, "real_correlation_sum")
    return IntLayout(starts, terms[0][2].scale * lcm_c, common, pieces, None, width - 1).to_piecewise()


# ---------------------------------------------------------------------------
# exact monotonicity and sign decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of an exact monotonicity decision.

    ``witness`` is a pair (x1, x2) with x1 < x2 and f(x1) < f(x2) whenever a
    nonincreasing verdict is negative.  "Nondecreasing" is not decided
    separately: f is nondecreasing exactly where -f is nonincreasing.
    """

    ok: bool
    witness: Optional[tuple] = None


def _piece_increase_witness(p: Poly, lo, hi):
    """A pair (x1, x2) in (lo, hi) with p(x1) < p(x2), or None."""
    d = p.derivative()
    if d.is_zero():
        return None
    for sample, anchor, sign in _sign_regions(d, lo, hi):
        if sign > 0:
            # p is strictly increasing on the root-free [sample, anchor]
            if not p.eval(sample) < p.eval(anchor):
                raise InvariantViolation("an increase witness must increase")
            return (sample, anchor)
    return None


def _upward_jump_witness(f: PiecewisePoly, x, left_val, right_val, region_lo):
    """Witness for an upward jump at x: some x1 < x with f(x1) < f(x)."""
    midv = (left_val + right_val) / 2
    eps = (x - region_lo) / 2
    while not f.eval(x - eps) < midv:
        eps = eps / 2
    if not f.eval(x - eps) < f.eval(x):
        raise InvariantViolation("an upward-jump witness must increase")
    return (x - eps, x)


def is_nonincreasing_on(f: PiecewisePoly, a, b=None) -> MonotoneVerdict:
    """Exact decision: is f (a.e.) nonincreasing on [a, b] ([a, oo) if b is None)?

    Real input only.  On failure the verdict carries a rational witness pair
    (x1, x2) with x1 < x2 and f(x1) < f(x2).
    """
    if not f.is_real():
        raise SplitnormError("monotonicity is decided for real-valued functions only")
    a = rat(a)
    if b is not None:
        b = rat(b)
        if not a < b:
            return MonotoneVerdict(True)
    if f.support() is None:
        return MonotoneVerdict(True)

    cuts = [x for x in f.breakpoints if a < x and (b is None or x < b)]

    # within-piece monotonicity on every maximal polynomial interval
    grid = [a] + cuts + ([b] if b is not None else [])
    for u, v in zip(grid, grid[1:]):
        w = _piece_increase_witness(f.piece_at(u), u, v)
        if w is not None:
            return MonotoneVerdict(False, w)

    # jumps at interior cuts must go downward (left limit >= right value)
    for x in cuts:
        lv = f.left_limit(x)
        rv = f.eval(x)
        if lv < rv:
            below = [c for c in f.breakpoints if c < x]
            region_lo = max([a] + below[-1:])
            return MonotoneVerdict(False, _upward_jump_witness(f, x, lv, rv, region_lo))
    return MonotoneVerdict(True)


def is_nonnegative(f: PiecewisePoly) -> MonotoneVerdict:
    """Exact decision: f >= 0 a.e.

    The verdict has the fields of a monotone one, but a negative verdict's
    witness is one point where f < 0, not a pair.
    """
    if not f.is_real():
        raise SplitnormError("sign is decided for real-valued functions only")
    for u, v, p in f._intervals():
        if p.is_zero():
            continue
        for sample, _, sign in _sign_regions(p, u, v):
            if sign < 0:
                return MonotoneVerdict(False, sample)
    return MonotoneVerdict(True)
