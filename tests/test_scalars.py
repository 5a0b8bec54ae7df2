"""Exact scalar layer: complex values as two rational parts, parsing."""

import os
import subprocess
import sys
from pathlib import Path

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
from splitnorm.errors import SplitnormError

from .helpers import exactly


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
    with pytest.raises(SplitnormError, match=exactly("not a rational: '0.5'")):
        parse_rat("0.5")
    pair = format_scalar(gauss(rat(1, 3), -2))
    assert pair == ["1/3", "-2"]
    assert parse_scalar(pair) == gauss(rat(1, 3), -2)
    assert parse_scalar("3/4") == rat(3, 4)


@pytest.mark.parametrize("text, want", [
    (" 5 ", rat(5)), ("-7/2", rat(-7, 2)), ("+3", rat(3)), ("0/4", rat(0)), ("0012/08", rat(3, 2)),
])
def test_parse_rat_reads_a_sign_and_ascii_digits(text, want):
    assert parse_rat(text) == want


@pytest.mark.parametrize("bad", [
    "1_0", "1/-2", "1/+2", "\u0661\u0662", "3 / 4", "3/ 4", "1/0", "+", "3/", "/3", "1/2/3", "", 5, None,
])
def test_parse_rat_refuses_what_int_alone_would_take(bad):
    # int() took the first four: "1_0" was 10, "1/-2" was -1/2 and "\u0661\u0662" was 12
    with pytest.raises(SplitnormError, match=exactly(f"not a rational: {bad!r}")):
        parse_rat(bad)


@pytest.mark.parametrize("text, want", [
    ("i", gauss(0, 1)),
    ("-i", gauss(0, -1)),
    ("+i", gauss(0, 1)),
    ("3i", gauss(0, 3)),
    ("-3/4i", gauss(0, rat(-3, 4))),
    ("+2", rat(2)),
    ("-7/2", rat(-7, 2)),
    ("3/4 i", gauss(0, rat(3, 4))),
])
def test_parse_scalar_reads_a_sign_a_number_and_i(text, want):
    assert parse_scalar(text) == want


@pytest.mark.parametrize("bad", ["2-i", "1/2+i", "-2+i", "--1", "", "-", "i2", 5, ["1"]])
def test_parse_scalar_refuses_a_second_sign_and_what_is_no_coefficient(bad):
    # 2-i, 1/2+i and -2+i were once read as -2i, i/2 and -2i
    with pytest.raises(SplitnormError, match=exactly(f"bad coefficient {bad!r}")):
        parse_scalar(bad)


def test_rationals_are_fractions_even_when_gmpy2_imports(tmp_path):
    # a stub gmpy2 whose mpq is a Fraction subclass: the rational type stays
    # fractions.Fraction whatever else is installed
    stub = tmp_path / "gmpy2"
    stub.mkdir()
    (stub / "__init__.py").write_text("from fractions import Fraction\n\nclass mpq(Fraction):\n    pass\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
    code = (
        "import fractions, gmpy2, splitnorm.scalars as S\n"
        "print(type(S.RAT_ONE) is fractions.Fraction, type(S.rat(1, 3)) is fractions.Fraction)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["True", "True"], proc.stderr
