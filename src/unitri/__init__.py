"""Exact computation in unitriangular automorphism groups of free
associative algebras over Q."""

from .autgroup import (
    NonConstantLastError,
    UniAut,
    VariableLeakError,
    aut_from_json,
    aut_to_json,
    compose,
    compose_chain,
    conjugate,
    derived_level_shape,
    difference_preimage,
    factor_semidirect,
    format_aut,
    group_commutator,
    invert,
    parse_aut,
    random_aut,
)
from .central import (
    CentralizerClass,
    OrdinalLevel,
    commutes,
    u2_center_test,
    u2_centralizer_classify,
    u2_hypercenter_level,
    u3_hypercenter_level_truncated,
    un_center_test,
)
from .freealg import (
    NEG_INF,
    ArityMismatchError,
    CommPoly,
    NcPoly,
    ParseError,
    RankMismatchError,
    RankOverflowError,
    SubstitutionTooLargeError,
    abelianize,
    c_generator,
    format_poly,
    parse_poly,
    ring_commutator,
)
from .invariants import (
    CapViolationError,
    GradedSubspace,
    NonHomogeneousGeneratorError,
    PitConfig,
    SubalgebraExpr,
    c_product_span,
    hypothesis1_report,
    invariance_defect,
    invariance_verdict,
    layer_contains,
    layer_level,
    proposition_identity_check,
    proposition_noninvariance_probe,
    remark_pi_check,
    s_layer_basis,
    shift_aut,
    specht_straighten,
    straighten_reconstruct,
    subalgebra_membership,
)
from .verdict import Verdict

__version__ = "0.1.0"
