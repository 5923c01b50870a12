"""Isometric subspace pairs of L_p for even p, with machine-checkable evidence.

The package builds, for each even p = 2k >= 4, a pair of sequence spaces
inside L_p spanned by sums of symmetric three-valued random variables:
a reference family h_j with fixed masses and a perturbed family f_j
carrying one extra heavy atom of scale j and mass nu_j.  Matching all
even moments up to order p makes the spans isometric; the mass schedule
nu_j ~ j^(2-p) is what the complementation analysis feeds on.

Layout:

* `moments`: exact even moments of sums of independent symmetric
  variables with rational scales and masses by a term-by-term fold,
  which returns every order as one table, the even-cumulant conversion
  and its integer inverse (cumulants of independent terms add), and the
  brute-force convolution oracle.
* `momentpoly`: the moment polynomials H_m and F_m^(j) in the masses,
  their gradients and Jacobians, and the Vandermonde determinant check.
  H, dH and F come as whole tables (`h_vector`, `grad_table`,
  `moment_vector_F`); callers read the entries they need from one table.
* `solver`: the solvable box around a base point, the damped Newton
  solve for the perturbed masses (on raw libmp tuples, rounded as mpf
  arithmetic rounds, returned as exact dyadic rationals), and
  certificate construction.
* `p4`: the closed-form two-generator pair at p = 4, matched column
  against the printed closed forms.
* `analysis`: isometry spot checks, span projections with p-norm lower
  bounds, the C_k moment bound, and the weight-series certificates.
* `serialize`: bit-faithful JSON for certificates and reports.
* `cli`: the `lp-isoforge` command.
"""

from .analysis import (
    IsometryCheckResult,
    ProjectionOperator,
    ProjectionReport,
    UncomplementedCertificate,
    VerifyReport,
    VplCheck,
    build_projection,
    c_k_constant,
    isometry_check,
    projection_norm_grid_search,
    projection_norm_lower_bound,
    projection_report,
    uncomplemented_certificate,
    verify_certificate,
    vpl_check,
)
from .errors import (
    CapExceededError,
    DegenerateInputError,
    InfeasibleMassError,
    LpIsoforgeError,
    NewtonDivergenceError,
    NoSolutionError,
    SchemaError,
    SingularJacobianError,
)
from .momentpoly import (
    MuVector,
    cm_alpha_table,
    grad_table,
    h_vector,
    jacobian_F,
    mass_polynomial,
    moment_vector_F,
    vandermonde_check,
)
from .moments import (
    DiscreteDistribution,
    IndependentSumSpec,
    SymmetricAtomVariable,
    abs_moment,
    convolve,
    even_cumulants,
    fold_even_moments,
    moment_coefficients,
    term_tables,
)
from .numeric import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    count_real_roots,
    mpf_to_fraction,
    to_mpf,
)
from .p4 import P4PairRow, build_p4_row, build_p4_table, match_three_valued
from .serialize import (
    CERT_SCHEMA_ID,
    cert_from_dict,
    cert_to_dict,
    load_certificate,
    save_certificate,
)
from .solver import (
    BallParams,
    CertEntry,
    ConstructionCertificate,
    HValues,
    ball_params,
    closed_form_k2,
    construct_pair,
    decreasing_above,
    default_base_point,
    nu_schedule_value,
    solve_mu,
    target_h,
)

__version__ = "0.1.0"
