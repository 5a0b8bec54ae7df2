"""Exact scalars: rationals, and complex values as two rational parts.

Rationals are ``gmpy2.mpq`` when available (much faster) and
``fractions.Fraction`` otherwise; both expose ``numerator``/``denominator``
and interoperate with ints.  A complex value is the pair ``(re, im)`` of
rationals that :func:`gauss` returns when ``im`` is nonzero; a real value is
the plain rational.  A pair is data, not a number: nothing adds or
multiplies pairs (``pair + pair`` would concatenate them).  Containers keep
the two parts apart -- ``Poly`` as two coefficient tuples, the kernels as
two rows of integer numerators -- and combine them explicitly.
"""

from __future__ import annotations

import numbers

try:
    from gmpy2 import mpq as _mpq

    def rat(a=0, b=1):
        return _mpq(a, b)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _frac

    def rat(a=0, b=1):
        return _frac(a, b)


RAT_ZERO = rat(0)
RAT_ONE = rat(1)
_RAT_TYPE = type(RAT_ONE)


def gauss(re, im=0):
    """Exact complex scalar: ``rat(re)`` when im == 0, else the pair ``(rat(re), rat(im))``."""
    re = rat(re)
    im = rat(im)
    return (re, im) if im else re


def parts(x) -> tuple:
    """``(re, im)`` of a rational or a pair: the inverse of :func:`gauss`."""
    return x if isinstance(x, tuple) else (x, RAT_ZERO)


def _as_rat(x):
    if type(x) is _RAT_TYPE:
        return x
    if isinstance(x, numbers.Rational):  # ints, Fractions: normalize to the one rational type
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


def rat_from_float(x: float):
    """Exact rational value of a binary float."""
    from fractions import Fraction

    return rat(Fraction(x))


# -- string forms (JSON / CLI) ----------------------------------------


def format_rat(x) -> str:
    """``num/den`` with the ``/den`` omitted for integers."""
    n, d = x.numerator, x.denominator
    return str(int(n)) if d == 1 else f"{int(n)}/{int(d)}"


def parse_rat(text: str):
    """Parse ``num`` or ``num/den`` with optional sign; integers only."""
    from .errors import ParseError

    s = text.strip()
    try:
        if "/" in s:
            a, b = s.split("/")
            num, den = int(a.strip()), int(b.strip())
            if den == 0:
                raise ValueError("zero denominator")
            return rat(num, den)
        return rat(int(s))
    except ValueError as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_scalar(x) -> list[str]:
    """A rational or an ``(re, im)`` pair as the ``[re, im]`` pair of rational strings."""
    return [format_rat(part) for part in parts(x)]


def parse_scalar(pair):
    from .errors import ParseError

    if isinstance(pair, str):
        return parse_rat(pair)
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        return gauss(parse_rat(pair[0]), parse_rat(pair[1]))
    raise ParseError(f"not a coefficient: {pair!r}")
