"""Exact workbench for finite semigroupoids, algebra bundles, and sectional algebras."""

__version__ = "0.1.0"

from .validation import (
    CapabilityError,
    Failure,
    InternalConsistencyError,
    SectionalError,
    StageError,
    StructureError,
    ValidationReport,
)
from .rings import (
    IntegerRing,
    LinearSolution,
    RationalRing,
    Ring,
    TableRing,
    ZModRing,
    smith_normal_form,
    solve_linear,
    validate_ring,
    vector_in_span,
)
from .semigroupoids import (
    FiniteInverseSemigroupoid,
    FiniteSemigroupoid,
    Homomorphism,
    direct_product,
    identity_homomorphism,
    is_groupoid,
    semigroupoid_to_raw,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from .actions import (
    GermQuotient,
    LandPreaction,
    RigidCongruence,
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    trivial_action,
    validate_preaction,
    validate_rigid_congruence,
)
from .algebras import AlgebraPresentation
from .maps import Certificate, LinearMapOnBasis, basis_bijection, certify_linear_iso
from .bundles import (
    AlgebraAction,
    Bundle,
    Section,
    bundle_from_graded,
    convolve,
    delta_section,
    graded_roundtrip_iso,
    lscript_iso,
    naive_crossed_product,
    sectional_algebra,
    semigroupoid_algebra,
    trivial_bundle,
    validate_bundle,
    zero_section,
)
from .theorems import (
    BundleAction,
    BundleCongruence,
    crossed_theorem,
    germ_corollary,
    induced_theta,
    quotient_bundle,
    quotient_map_and_kernel,
    skew_product,
    smash_product,
    smash_theorem,
    tensor_product_algebra,
    tensor_theorem,
    validate_bundle_action,
    validate_bundle_congruence,
)
from .workspace import WorkspaceError, parse_workspace, run_workspace
