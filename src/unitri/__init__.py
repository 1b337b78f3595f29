"""Exact computation in unitriangular automorphism groups of free
associative algebras over Q.

The exported names load lazily (PEP 562): `from unitri import UniAut`
imports `unitri.autgroup` and nothing else, so a CLI call compiles only
the modules its command runs.  A name is looked up in its home module on
every access and never copied into this namespace, so a function patched
in its home module is what `from unitri import ...` returns.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports here
_EXPORTS = {
    "autgroup": (
        "NonConstantLastError", "UniAut", "aut_from_json", "aut_to_json",
        "compose", "compose_chain", "conjugate", "derived_level_shape",
        "difference_preimage", "factor_semidirect", "format_aut",
        "group_commutator", "invert", "parse_aut", "random_aut",
    ),
    "central": (
        "CentralizerClass", "OrdinalLevel", "commutes", "u2_center_test",
        "u2_centralizer_classify", "u2_hypercenter_level",
        "u3_hypercenter_level_truncated", "un_center_test",
    ),
    "freealg": (
        "NEG_INF", "ArityMismatchError", "NcPoly", "ParseError",
        "RankMismatchError", "RankOverflowError", "SubstitutionTooLargeError",
        "VariableLeakError", "abelianize", "c_generator", "format_poly",
        "parse_poly", "ring_commutator",
    ),
    "invariants": (
        "CapViolationError", "GradedSubspace", "NonHomogeneousGeneratorError",
        "PitConfig", "SubalgebraExpr", "Verdict", "c_product_span",
        "hypothesis1_report", "invariance_defect", "invariance_verdict",
        "layer_contains", "layer_level", "proposition_identity_check",
        "proposition_noninvariance_probe", "remark_pi_check", "s_layer_basis",
        "shift_aut", "specht_straighten", "straighten_reconstruct",
        "subalgebra_membership",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
