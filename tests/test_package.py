"""The package namespace loads its names lazily (PEP 562) and never copies
them, so the benchmark tracer (bench/tracer.py), which patches each
function in its home module, is seen through `from unitri import ...` and
leaves nothing behind."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitri
from unitri import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracer import Tracer, leftover_wrappers  # noqa: E402

# home module -> the names `unitri` has exported since its namespace was eager
EXPORTED = {
    "autgroup": """NonConstantLastError UniAut aut_from_json
        aut_to_json compose compose_chain conjugate derived_level_shape
        difference_preimage factor_semidirect format_aut group_commutator invert
        parse_aut random_aut""",
    "central": """CentralizerClass OrdinalLevel commutes u2_center_test
        u2_centralizer_classify u2_hypercenter_level
        u3_hypercenter_level_truncated un_center_test""",
    "freealg": """NEG_INF ArityMismatchError NcPoly ParseError RankMismatchError
        RankOverflowError SubstitutionTooLargeError VariableLeakError abelianize
        c_generator format_poly parse_poly ring_commutator""",
    "invariants": """CapViolationError GradedSubspace NonHomogeneousGeneratorError
        PitConfig SubalgebraExpr Verdict c_product_span hypothesis1_report
        invariance_defect invariance_verdict layer_contains layer_level
        proposition_identity_check proposition_noninvariance_probe
        remark_pi_check s_layer_basis shift_aut specht_straighten
        straighten_reconstruct subalgebra_membership""",
}
HOMES = [(name, module) for module, names in EXPORTED.items() for name in names.split()]


def test_fifty_six_names_are_exported():
    assert len(HOMES) == 56
    assert sorted(unitri.__all__) == sorted([name for name, _ in HOMES] + ["__version__"])
    assert set(unitri.__all__) <= set(dir(unitri))


@pytest.mark.parametrize("name, module", HOMES, ids=[name for name, _ in HOMES])
def test_each_name_is_its_home_module_object(name, module):
    namespace = {}
    exec(f"from unitri import {name}", namespace)
    home = importlib.import_module(f"unitri.{module}")
    assert namespace[name] is vars(home)[name]
    assert name not in vars(unitri)   # looked up, never cached


def test_a_name_loads_only_its_home_module():
    # VariableLeakError lives in freealg, so importing it leaves autgroup unloaded
    probe = ("import sys; from unitri import VariableLeakError; "
             "print(VariableLeakError.__module__, 'unitri.autgroup' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(Path(unitri.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["unitri.freealg", "False"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nullspace'"):
        unitri.nullspace
    with pytest.raises(ImportError):
        exec("from unitri import nullspace", {})


def test_tracer_counts_calls_through_the_lazy_namespace(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        from unitri import s_layer_basis
        assert getattr(s_layer_basis, "_bench_wrapper", False)
        s_layer_basis(1, 3)
        assert tracer.stats["invariants.s_layer_basis"]["calls"] == 1
        assert cli.main(["invariants", "--level", "1", "--cap", "4"]) == 0
        assert tracer.stats["invariants.s_layer_basis"]["calls"] == 2
        assert cli.main(["classify", "--cap", "4", "x1 + x3^4; x2; x3"]) == 0
        assert tracer.stats["central.u3_hypercenter_level_truncated"]["calls"] == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert leftover_wrappers() == []
    from unitri import s_layer_basis
    assert not hasattr(s_layer_basis, "_bench_wrapper")
