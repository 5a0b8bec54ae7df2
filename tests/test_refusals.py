"""Refusals that no other test reaches: the exception type and the exact message of each."""

import numpy as np
import pytest

from splitnorm.cli import ExperimentConfig
from splitnorm.errors import SplitnormError
from splitnorm.multnorm import DiscreteMultiplier, exact_norm_positive_kernel, split_multiplier
from splitnorm.normprofile import norm_profile
from splitnorm.oscint import NumericNorm, norm_numeric
from splitnorm.polyalg import ZERO_PP, indicator, is_nonnegative
from splitnorm.scalars import gauss
from splitnorm.splitcore import class_s_sufficient

from .helpers import exactly

CHI = indicator(-1, 1)
I_CHI = CHI * gauss(0, 1)  # i times the indicator: a complex input

REFUSALS = [
    ("exact engine at odd p",
     lambda: ExperimentConfig.from_dict(
         {"command": "norm", "spec": "ind:-1,1", "p": 3, "t": [0.25], "engine": "exact"}).run(),
     SplitnormError, "the exact engine needs an even integer p, got 3"),
    ("norm_numeric at t < 0", lambda: norm_numeric(CHI, 3.0, -1),
     ValueError, "t must be nonnegative"),
    ("split_multiplier at t < 0", lambda: split_multiplier(DiscreteMultiplier(np.ones(8), 1.0), -1),
     ValueError, "t must be nonnegative"),
    ("profile at t < 0", lambda: norm_profile(CHI, 4).value_at(-1),
     ValueError, "profiles live on t >= 0"),
    ("positive kernel of a complex multiplier", lambda: exact_norm_positive_kernel(I_CHI),
     SplitnormError, "the positive-kernel norm applies to real multipliers"),
    ("NaN multiplier sample", lambda: DiscreteMultiplier(np.array([1.0, np.nan, 1.0, 1.0]), 1.0),
     ValueError, "multiplier samples must be bounded"),
    ("sign of a complex function", lambda: is_nonnegative(I_CHI),
     SplitnormError, "sign is decided for real-valued functions only"),
    ("bump criterion of a complex function", lambda: class_s_sufficient(I_CHI, 0),
     SplitnormError, "the bump criterion applies to real functions"),
]


@pytest.mark.parametrize("call,kind,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_type_and_message(call, kind, message):
    with pytest.raises(kind, match=exactly(message)) as info:
        call()
    assert type(info.value) is kind


def test_norm_numeric_of_the_zero_function_is_zero_exactly():
    assert norm_numeric(ZERO_PP, 3.0, 0.25) == NumericNorm(value=0.0, abs_error=0.0, p=3.0, t=0.25)
