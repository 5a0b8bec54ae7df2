"""splitnorm: exact and numerical L^p Fourier norms of split functions.

The exact engine computes (N_t f)^p -- the p-th power of the L^p norm of
the Fourier transform of the split function S_t f -- as a piecewise
polynomial in the shift t, for even p, over Gaussian-rational data.  A
numerical engine handles arbitrary p > 1 with an error budget whose tail
part is proved and whose quadrature part is the embedded Gauss-Kronrod
estimate, and a multiplier module covers the split Fourier-multiplier
constants, bounds, and lower-bound estimation.
"""

from .errors import BudgetExceeded, InapplicableHypothesis, SplitnormError
from .polyalg import (
    MonotoneVerdict,
    PiecewisePoly,
    Poly,
    convolve,
    correlate,
    indicator,
    is_nonincreasing_on,
    is_nonnegative,
    isolate_real_roots,
    l2_inner,
    tent,
)
from .splitcore import (
    SplitPair,
    apply_gen_split,
    apply_split,
    class_s_check,
    class_s_sufficient,
    split,
)
from .normprofile import (
    CoeffSeq,
    ConstancyVerdict,
    NormProfile,
    SeriesProfile,
    check_constancy,
    check_monotone,
    gen_profile,
    gen_t0,
    newt_constant,
    norm_profile,
    series_profile,
)
from .oscint import FTEvaluator, NumericNorm, norm_numeric
from .multnorm import (
    BoundReport,
    DiscreteMultiplier,
    EstimateResult,
    MultConstants,
    bound_report,
    constants,
    estimate_lower,
    exact_norm_positive_kernel,
    halfline_multiplier,
    segment_multiplier,
    split_multiplier,
    tent_multiplier,
)

__version__ = "0.1.0"
