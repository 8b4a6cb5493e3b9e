"""Exact-arithmetic computer algebra for homogeneous quadratic Lie
superalgebras: graded linear algebra over the rationals, verification
predicates, the degree-delta generalized double extension, its inverse
decomposition along isotropic abelian ideals, and worked constructions."""

from .algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    certify_isometry,
    check_invariance,
    check_jacobi,
    delta_coadjoint,
    is_derivation,
    is_metric_skew,
    semidirect_product,
)
from .catalog import (
    HeisenbergExtensionParams,
    OddExtensionParams,
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from .decompose import (
    DecompositionResult,
    build_xi,
    certify_split,
    extract_structure_maps,
    orthogonal_complement,
    split_step,
)
from .errors import (
    ClaimViolated,
    DegenerateInput,
    DegeneratePairing,
    InvalidContext,
    NotHomogeneous,
    ParseError,
    SuperquadError,
    ValidationError,
    Violation,
)
from .extension import (
    DeltaContext,
    contexts_equal,
    derive_chi,
    derive_phi,
    double_extend,
    validate_context,
)
from .spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    apply_p_delta,
    check_form_degree,
    dual_space,
    parity_shift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
