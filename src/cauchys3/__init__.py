"""cauchys3: Cauchy endomorphisms and flat connections on the round 3-sphere.

Numerical verification of the flatness equation
R(X,Y) + *d^nabla A(X,Y) + A(X)^A(Y) = 0 for symmetric endomorphism
fields on S^3, its linearization and deformation space, the
generalized-cylinder (Taub-NUT-like) Ricci-flat 4-metric built from the
(1,-3,-3) solution, and the constant-frame / Hopf-reduced / S^2
rigidity classification systems.
"""

from .cauchy import (
    FRAME_PAIRS,
    KNOWN_KINDS,
    SymEnd3Field,
    VectorField3,
    definiteness_check,
    flatness_residual,
    flatness_residual_norms,
    gauss_codazzi_residual,
    known_example,
    linearized_residual,
    modified_connection,
    residual_norm,
    right_family_left_frame,
    symmetry_residual,
    xi_operator,
)
from .classify import (
    HopfReducedData,
    codazzi_divfree_equiv,
    constant_frame_residual,
    constant_frame_solutions,
    constant_frame_solutions_bruteforce,
    hopf_reduce,
    hopf_reduction_residual,
    s2_rigidity_residual,
    special_case_residual,
)
from .cylinder import (
    CylinderProfile,
    CylinderState,
    SingularityReached,
    boundary_distance_exact,
    closed_form,
    conserved_quantity,
    curvature_blowup_probe,
    full_system_residual,
    integrate,
    metric_4d,
    metric_4d_u,
    reduced_rhs,
    ricci_4d,
    ricci_4d_state,
    slice_residual,
    t_of_s,
    taub_nut_coeffs,
    weingarten,
)
from .deformation import (
    A0,
    A0_MATRIX,
    LIE_E2_A0,
    LIE_E3_A0,
    DeformVector,
    berger_laplacian,
    deformation_field,
    lemma_derivative_checks,
    lie_derivative_endo,
    nabla_A0_of_deformation,
    round_laplacian,
)
from .frame import (
    Chirality,
    ScalarField,
    UnitQuaternion,
    flow,
    harmonic_quadratic,
    invariant_vector,
    quat_mul,
    random_points,
)
from .polynomial import Poly
from .tensor import (
    BergerParams,
    curvature_berger,
    d_nabla_A,
    divergence_A,
    hat,
    hodge_star,
    unhat,
    wedge_endo,
)

__version__ = "0.1.0"
