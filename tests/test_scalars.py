"""Exact scalar layer: complex values as two rational parts, parsing."""

import pytest

from splitnorm.scalars import (
    as_scalar,
    format_rat,
    format_scalar,
    gauss,
    parse_rat,
    parse_scalar,
    rat,
)
from splitnorm.errors import ParseError


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(1 + 2j)


def test_formatting_roundtrip():
    assert format_rat(rat(-3, 6)) == "-1/2"
    assert format_rat(rat(4)) == "4"
    assert parse_rat("-7/2") == rat(-7, 2)
    assert parse_rat(" 5 ") == 5
    with pytest.raises(ParseError):
        parse_rat("0.5")
    pair = format_scalar(gauss(rat(1, 3), -2))
    assert pair == ["1/3", "-2"]
    assert parse_scalar(pair) == gauss(rat(1, 3), -2)
    assert parse_scalar("3/4") == rat(3, 4)
