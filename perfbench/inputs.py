"""Seeded inputs of the four workloads, in the benchmark's own representation.

Functions are piece tables: a list of ``(a, b, coeffs)`` with ``Fraction``
endpoints and coefficients ascending in ``x``, each coefficient a
``(re, im)`` pair of ``Fraction``.  The checks evaluate these tables
themselves, so they never read a function back from the library; only
``to_piecewise`` hands them to it.

Nothing here imports splitnorm at module level: ``run.py`` and the checker
self-tests import this module without the library's start-up cost.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

ONE = (Q(1), Q(0))
I_UNIT = (Q(0), Q(1))


def _real(x) -> tuple:
    return (Q(x), Q(0))


# ---------------------------------------------------------------------------
# named functions (the README's examples and the paper's test cases)
# ---------------------------------------------------------------------------

IND = [(Q(-1), Q(1), [ONE])]
TENT = [(Q(-1), Q(0), [ONE, ONE]), (Q(0), Q(1), [ONE, _real(-1)])]
TWO_BUMP = [(Q(-11), Q(-10), [ONE]), (Q(-1), Q(1), [ONE]), (Q(10), Q(11), [ONE])]
COMPLEX = [(Q(-1), Q(0), [I_UNIT]), (Q(0), Q(1), [ONE])]

# in the CLI's mini-language: ind:-1,1; tent:-1,0,1;
# ind:-1,1 + ind:10,11 + ind:-11,-10; ind:0,1 + i*ind:-1,0
NAMED = {"ind": IND, "tent": TENT, "two-bump": TWO_BUMP, "complex": COMPLEX}


def support_radius(table) -> Q:
    return max(max(abs(a), abs(b)) for a, b, _ in table)


def is_real(table) -> bool:
    return all(c[1] == 0 for _, _, cs in table for c in cs)


def is_even(table) -> bool:
    """True when f(-x) = f(x): the mirrored table is the same table."""
    mirrored = sorted(
        (-b, -a, [(re * (-1) ** k, im * (-1) ** k) for k, (re, im) in enumerate(cs)])
        for a, b, cs in table
    )
    return mirrored == sorted(table)


def to_piecewise(table):
    """The library's PiecewisePoly for a piece table."""
    from splitnorm.polyalg import PiecewisePoly, Poly
    from splitnorm.scalars import gauss

    total = PiecewisePoly([], [])
    for a, b, cs in table:
        total = total + PiecewisePoly([a, b], [Poly([gauss(re, im) for re, im in cs])])
    return total


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _small_rat(rng: random.Random) -> Q:
    """A nonzero half-integer of size at most 3/2: one denominator and no
    zeros keep the cost of a draw nearly independent of the seed."""
    return Q(rng.choice((-3, -2, -1, 1, 2, 3)), 2)


def _coeffs(rng: random.Random, degree: int, complex_: bool) -> list:
    return [(_small_rat(rng), _small_rat(rng) if complex_ else Q(0)) for _ in range(degree + 1)]


def random_table(rng: random.Random, *, complex_: bool, even: bool) -> list:
    """Three pieces of degrees 1, 1, 0 with seeded half-integer coefficients.

    The layout is fixed, so the cost of a draw varies little with the seed:
    a plain draw has breakpoints -3/2, -1/2, 1/2, 3/2 (its middle piece
    straddles 0, so the split cuts it); an even draw puts the pieces on
    0, 1/2, 1, 3/2 and mirrors them onto [-3/2, 0).
    """
    pts = [Q(0), Q(1, 2), Q(1), Q(3, 2)] if even else [Q(-3, 2), Q(-1, 2), Q(1, 2), Q(3, 2)]
    pieces = [(a, b, _coeffs(rng, d, complex_)) for (a, b), d in zip(zip(pts, pts[1:]), (1, 1, 0))]
    if not even:
        return pieces
    left = [
        (-b, -a, [(re * (-1) ** k, im * (-1) ** k) for k, (re, im) in enumerate(cs)])
        for a, b, cs in pieces
    ]
    return sorted(left) + pieces


def random_sequence(rng: random.Random, bound: int) -> dict:
    """Gaussian-rational coefficients c_k for every k in [-bound, bound]."""
    return {k: (_small_rat(rng), _small_rat(rng)) for k in range(-bound, bound + 1)}


def to_coeffseq(seq: dict, bound: int):
    from splitnorm.normprofile import CoeffSeq
    from splitnorm.scalars import gauss

    return CoeffSeq.from_mapping({k: gauss(re, im) for k, (re, im) in seq.items()}, bound)


def format_q(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sequence_file_doc(seq: dict, bound: int) -> dict:
    """The ``series`` command's coefficient-file form of a sequence."""
    return {
        "A": bound,
        "coeffs": {str(k): [format_q(re), format_q(im)] for k, (re, im) in sorted(seq.items())},
    }


# ---------------------------------------------------------------------------
# reference constants
# ---------------------------------------------------------------------------


def c_p(p: float) -> float:
    """Half-line constant csc(pi/p)."""
    return 1.0 / math.sin(math.pi / p)
