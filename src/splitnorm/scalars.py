"""Exact scalars: rationals, and complex values as two rational parts.

Rationals are ``fractions.Fraction``, the one rational type, named ``rat``
here; ``rat(x)`` of a binary float is that float's exact value.  A complex
value is the pair ``(re, im)`` of rationals that :func:`gauss` returns when
``im`` is nonzero; a real value is the plain rational.  A pair is data, not
a number: nothing adds or multiplies pairs (``pair + pair`` would
concatenate them).  Containers keep the two parts apart -- ``Poly`` as two
coefficient tuples, the kernels as two rows of integer numerators -- and
combine them explicitly.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction as rat

from .errors import SplitnormError

RAT_ZERO = rat(0)
RAT_ONE = rat(1)


def gauss(re, im=0):
    """Exact complex scalar: ``rat(re)`` when im == 0, else the pair ``(rat(re), rat(im))``."""
    re = rat(re)
    im = rat(im)
    return (re, im) if im else re


def parts(x) -> tuple:
    """``(re, im)`` of a rational or a pair: the inverse of :func:`gauss`."""
    return x if isinstance(x, tuple) else (x, RAT_ZERO)


def _as_rat(x):
    if type(x) is rat:
        return x
    if isinstance(x, numbers.Rational):  # ints, Fraction subclasses: normalize to Fraction
        return rat(x.numerator, x.denominator)
    if isinstance(x, (complex, float)):
        raise TypeError(f"floats are not exact scalars: {x!r}")
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def as_scalar(x):
    """Coerce to an exact scalar: a rational, or a ``(re, im)`` pair as
    :func:`gauss` forms it.  Floats are rejected: exactness is the contract."""
    if isinstance(x, tuple) and len(x) == 2:
        return gauss(_as_rat(x[0]), _as_rat(x[1]))
    return _as_rat(x)


# -- string forms (JSON / CLI) ----------------------------------------


def format_rat(x) -> str:
    """``num/den`` with the ``/den`` omitted for integers."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


# a rational string: one optional sign, then ASCII digits over optional
# ASCII digits; compiled at the first call, not at import
_RAT_PATTERN = r"[+-]?[0-9]+(?:/[0-9]+)?"


def parse_rat(text: str):
    """Parse ``num`` or ``num/den`` with an optional sign in front (outer
    spaces ignored); the denominator is nonzero."""
    m = isinstance(text, str) and re.fullmatch(_RAT_PATTERN, text.strip())
    if m:
        num, _, den = m.group().partition("/")
        if int(den or 1):
            return rat(int(num), int(den or 1))
    raise SplitnormError(f"not a rational: {text!r}")


def format_scalar(x) -> list[str]:
    """A rational or an ``(re, im)`` pair as the ``[re, im]`` pair of rational strings."""
    return [format_rat(part) for part in parts(x)]


# a coefficient string: one optional sign, then a number, ``i``, or both;
# compiled at the first call, not at import
_SCALAR_PATTERN = r"([+-]?)([0-9]+(?:/[0-9]+)?)?(i?)"


def parse_scalar(value):
    """A coefficient: a string ``[+-][a[/b]][i]`` that holds a number or
    ``i`` (spaces ignored, so ``3/4 i`` is ``3/4i``), or an ``[re, im]``
    pair of rational strings.  ``2-i`` is an error, not a complex sum."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return gauss(parse_rat(value[0]), parse_rat(value[1]))
    m = isinstance(value, str) and re.fullmatch(_SCALAR_PATTERN, value.strip().replace(" ", ""))
    if not m or not (m.group(2) or m.group(3)):
        raise SplitnormError(f"bad coefficient {value!r}")
    sign, number, unit = m.groups()
    x = parse_rat(sign + (number or "1"))
    return gauss(0, x) if unit else x
