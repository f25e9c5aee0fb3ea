"""Couplings and semigroup estimates for hypoelliptic Brownian motion on
the Heisenberg group and the free step-2 Carnot groups."""

from .groups import (
    CarnotElement,
    HeisenbergPoint,
    SkewMatrix,
    carnot_inv,
    carnot_mul,
    dilate,
    heis_to_carnot,
    odot,
    zeta,
)
from .legendre import alpha, truncation_index
from .gaussian_coupling import gaussian_tv
from .sylvester import (
    SingularGramError,
    u_moment_check,
    wishart_inv_trace_mc,
)
from .coupling import (
    BoundReport,
    CouplingOutcome,
    FailureEstimate,
    couple_carnot,
    couple_heisenberg,
    failure_probability,
    tv_bound,
)
from .girsanov import (
    bismut_gradient,
    finite_diff_gradient,
    girsanov_normalization_check,
    gradient_sup_spotcheck,
    inequality_suite,
    semigroup_transfer_check,
)
from .mc import MCEstimate, ComparisonReport, derive_rng, ks_test
from .special_constants import (
    c3,
    carnot_constants,
    constants_table,
    exp_moment_series,
    gaussian_abs_moment,
    heisenberg_constants,
    remark2_constant,
    s_h_inverse_moment,
    s_h_laplace,
)

__version__ = "0.1.0"
