"""Calls that no other test makes: the text and hash forms of maps,
polynomials and subalgebra expressions, their answers to operands of a
foreign type, and the argument checks of the public functions.  One
table, call -> the value it returns or the exception it raises."""

from fractions import Fraction

import pytest

from unitri.autgroup import UniAut, difference_preimage, parse_aut
from unitri.central import u2_center_test
from unitri.freealg import NcPoly, RankMismatchError, VariableLeakError, add_scaled, c_generator
from unitri.invariants import (
    SubalgebraExpr,
    lazard_weight,
    proposition_identity_check,
    s_layer_basis,
    subalgebra_membership,
)
from unitri.linalg import Echelon


def _scaled_by_zero():
    acc = {(1,): 2, (2,): -1}
    add_scaled(acc, {(1,): -2, (3,): 5}, 0)
    return acc


CASES = [
    ("UniAut.__str__", lambda: str(parse_aut("x2 + x1; 1 + x2")), "x1 + x2; x2 + 1"),
    ("UniAut.__repr__", lambda: repr(parse_aut("x1 + x2; x2 + 1")),
     "UniAut('x1 + x2; x2 + 1')"),
    ("UniAut.__hash__", lambda: hash(parse_aut("x1 + x2; x2"))
     == hash(UniAut.elementary(1, NcPoly.variable(2, 2))), True),
    ("NcPoly.__repr__", lambda: repr(NcPoly(3, {(3, 2): -1})), "NcPoly(3, '-x3*x2')"),
    ("UniAut rank < 2", lambda: UniAut(1, [NcPoly.zero(1)]), ValueError),
    ("UniAut offset count", lambda: UniAut(2, [NcPoly.zero(2)]), ValueError),
    ("UniAut offset rank", lambda: UniAut(2, [NcPoly.zero(2), NcPoly.zero(3)]),
     RankMismatchError),
    ("UniAut.apply rank", lambda: UniAut.identity(2).apply(NcPoly.variable(1, 3)),
     RankMismatchError),
    ("difference_preimage zero shift",
     lambda: difference_preimage(NcPoly.variable(2, 2), 0), ValueError),
    ("difference_preimage outside Q<y>",
     lambda: difference_preimage(NcPoly.variable(1, 2)), VariableLeakError),
    ("c_generator k < 1", lambda: c_generator(0, 2, 3), ValueError),
    ("NcPoly.variable outside rank", lambda: NcPoly.variable(4, 3), ValueError),
    ("NcPoly letter outside rank", lambda: NcPoly(2, {(3,): 1}), ValueError),
    ("NcPoly.__pow__ negative", lambda: NcPoly.variable(1, 2) ** -1, ValueError),
    ("_require_vars rank", lambda: lazard_weight(NcPoly.variable(2, 4)), RankMismatchError),
    ("s_layer_basis m < 1", lambda: s_layer_basis(0, 3), ValueError),
    ("s_layer_basis cap < 0", lambda: s_layer_basis(1, -1), ValueError),
    ("proposition_identity_check k < 1", lambda: proposition_identity_check(0, 2), ValueError),
    ("proposition_identity_check N < 1", lambda: proposition_identity_check(1, 0), ValueError),
    ("central._require_rank", lambda: u2_center_test(UniAut.identity(3)), ValueError),
    ("add_scaled by 0", _scaled_by_zero, {(1,): 2, (2,): -1}),
    ("UniAut == int", lambda: UniAut.identity(2) == 3, False),
    ("NcPoly == str", lambda: NcPoly.variable(2, 2) == "x2", False),
    ("str * NcPoly", lambda: "a" * NcPoly.variable(2, 2), TypeError),
    ("NcPoly / str", lambda: NcPoly.variable(2, 2) / "a", TypeError),
    ("SubalgebraExpr.__repr__",
     lambda: repr(SubalgebraExpr([(2, (0, 1)), (Fraction(-1, 2), (1,))], [], 3)),
     "SubalgebraExpr('2*g1*g2 - 1/2*g2')"),
    ("subalgebra_membership generator rank",
     lambda: subalgebra_membership(NcPoly.variable(2, 3), [NcPoly.variable(2, 2)]),
     RankMismatchError),
    ("Echelon.express untracked", lambda: Echelon().express({(1,): 1}), ValueError),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_call_returns_or_raises(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected) as info:
            call()
        assert info.type is expected
    else:
        assert call() == expected
