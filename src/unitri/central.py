"""Centers, centralizers and the transfinite central-series classifier.

Levels of the upper central series are ordinals of the form a*w + b
(w the first limit ordinal).  In rank 2 the classification is exact and
closed-form; in every rank >= 3 the centre is decided exactly (see
invariants.invariance_verdict).  In rank 3 every map moving only x1 gets
its exact level, by the theorem below.  The x2- and x3-mover bands are
not proved: the commutator of x1; x2 + x3; x3 with x1; x2; x3 + 1 is
x1; x2 + 1; x3, and both get 2w+1, against descent (ROADMAP item 1b).

Theorem.  Let f != 0 in Q<x2, x3> have Lazard coordinates
f = sum_b a_b * x3^b, a_b in A = Q<u_0, u_1, ...> (invariants, step 1).
Let k be the largest number of u_0 letters in a word of any a_b, and B
the largest b whose a_b reaches k; (k, B) is invariants.lazard_weight(f),
the weight of f.  Then x1 + f lies at level w*k + B + 1 of the upper
central series of U_3.  For k = 0 this is the layer theorem of
invariants: layer m is level m.

Proof.  Order weights lexicographically, and induct on them.
1. Reduction.  The x1-movers form an abelian normal subgroup, since
   (x1 + f)(x1 + g) = x1 + f + g.  Conjugating by psi sends x1 + f to
   x1 + s(f), where s substitutes psi's images of x2 and x3: a member of
   the rank-2 family x2 -> x2 + g(x3), x3 -> x3 + h, and every member
   arises so.  Hence [x1 + f, psi] = x1 + s(f) - f, a defect of f.  A
   map enters the series only at successor levels, as a limit level is
   the union of those below it, so lambda(x1 + f) = 1 + the supremum of
   lambda(x1 + s(f) - f) over the family.
2. Upper bound.  The family is generated by exp(t*d3), x3 -> x3 + t,
   and exp(t*D_j), x2 -> x2 + t*x3^j.  d3 sends a_b*x3^b to
   b*a_b*x3^(b-1): it keeps k and lowers B.  D_j(a_b*x3^b) is
   D_j(a_b)*x3^b, and D_j(a) = sum_s C(j,s) * E_s(a) * x3^(j-s)
   (invariants, step 2) takes a u_0 out of every word, as delta only
   raises indices: it lowers k.  So each exp(t*D) - 1 lowers the
   weight, and s - 1 does for every s, since st - 1 = (s - 1)t + (t - 1).
   By induction each defect is 0 or has a weight (k', B') below (k, B),
   so its level w*k' + B' + 1 is at most w*k + B.
3. Lower bound for B >= 1.  The defect of tau = exp(d3), x3 -> x3 + 1,
   is d3 f + d3^2 f / 2 + ..., with the coefficient B*a_B at x3^(B-1)
   and nothing at weight (k, B-1) or above in the later terms.  So it
   has weight (k, B-1) and level w*k + B.
4. Lower bound for B = 0, so k >= 1.  The defect of sigma_j = exp(D_j),
   x2 -> x2 + x3^j, is D_j f plus words with at most k-2 letters u_0.
   Its words with k-1 of them come from the part a of a_0 with k, at
   x3^(j-s) with coefficient C(j,s) * E'_s(a), where E'_s is E_s with
   delta replaced by delta', which raises every u_i with i >= 1 and
   kills u_0 (delta raising a u_0 removes one more).  Some E'_s(a) != 0
   (step 5), so for j >= s + n the defect has weight (k-1, b), b >= n,
   and level at least w*(k-1) + n + 1.  The supremum is w*k.
5. Lemma: if every word of a != 0 has k >= 1 letters u_0, some
   E'_s(a) != 0.  The series sum_s (t^s/s!) * E'_s(a) is
   sum alpha * P * theta(S) over the splits w = P * u_0 * S of the terms
   alpha*w of a, where theta = exp(t*delta') fixes u_0.  If no S has a
   letter other than u_0, the words are Q*u_0^k and the series is
   sum k*alpha*Q*u_0^(k-1) != 0.  Otherwise let R be the largest number
   of letters other than u_0 in an S, take K above every index in a,
   and look at the outputs whose last R letters other than u_0 are >= K
   and whose other letters are < K.  Only splits with R such letters
   in S give them, each letter raised.  Such an output's prefix P'
   before its first letter >= K fixes the word as P' * u_0 * S: the
   split lies in the run of u_0 just before the first letter of S other
   than u_0, as a split left of that run would leave more than R such
   letters in S.  The r places in that run give the same output, so
   such an output gets r * sum alpha_S * prod_j t^(c_j - i_j) / (c_j - i_j)!,
   alpha_S the coefficient of P' * u_0 * S in a, over the S with one u_0
   pattern, starting with a letter other than u_0, and other letters
   u_(i_1)..u_(i_R).  As in invariants step 5, the falling-factorial
   products are independent, so this is nonzero at some c with every
   c_j >= K.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .autgroup import UniAut
from .freealg import NcPoly
from .invariants import CapViolationError, invariance_verdict, lazard_weight
from .verdict import Verdict


class OrdinalLevel(namedtuple("OrdinalLevel", "omega_coeff finite_part")):
    """The ordinal a*w + b; comparison is lexicographic on (a, b)."""

    __slots__ = ()

    def __new__(cls, omega_coeff, finite_part):
        if omega_coeff < 0 or finite_part < 0:
            raise ValueError("ordinal parts must be nonnegative")
        return super().__new__(cls, omega_coeff, finite_part)

    def __str__(self):
        a, b = self.omega_coeff, self.finite_part
        if a == 0:
            return str(b)
        head = "w" if a == 1 else f"{a}w"
        return f"{head}+{b}" if b else head


class CentralizerClass(enum.Enum):
    WHOLE_GROUP = "whole-group"
    FIRST_ROW = "first-row"
    CONSTANT_PAIRS = "constant-pairs"
    GENERIC = "generic"


def commutes(phi, psi):
    """Brute-force oracle: both composition orders agree."""
    return phi.compose(psi) == psi.compose(phi)


def _require_rank(phi, rank):
    if phi.rank != rank:
        raise ValueError(f"expected rank {rank}, got {phi.rank}")


def u2_center_test(phi):
    """Rank-2 centrality: constant first offset, zero second offset."""
    _require_rank(phi, 2)
    f1, f2 = phi.offsets
    return f2.is_zero() and f1.degree() <= 0


def u2_centralizer_classify(phi):
    """Shape of the rank-2 centralizer of phi.

    Central elements (including the identity) commute with everything.
    A pure first-row element (x + f(y), y) with nonconstant f commutes
    exactly with the first row; a translation (x + a, y + b), a constant
    and b != 0, exactly with the constant pairs (x + a', y + c): by the
    commutator's closed form, (x + a, y + b) commutes with (x + h, y + c)
    iff h(y + b) = h(y), which holds iff h is constant.  The mixed shape
    (x + f(y), y + b), f nonconstant and b nonzero, is conjugate to the
    translation: psi = (x + r(y), y) with r = difference_preimage(f, b),
    so r(y + b) - r(y) = f, gives psi^-1 phi psi = (r - r(y+b) + f, b)
    = (x, y + b), so its centralizer is psi (constant pairs) psi^-1.
    That shape is still classified generic.
    """
    _require_rank(phi, 2)
    f1, f2 = phi.offsets
    if u2_center_test(phi):
        return CentralizerClass.WHOLE_GROUP
    if f2.is_zero():
        return CentralizerClass.FIRST_ROW
    if f1.is_constant():
        return CentralizerClass.CONSTANT_PAIRS
    return CentralizerClass.GENERIC


def u2_hypercenter_level(phi):
    """Least level of the rank-2 upper central series containing phi.

    Level 0 is the trivial subgroup, level s+1 holds the (x + f(y), y)
    with deg f <= s, and anything moving y appears only at level w+1,
    where the series exhausts the group.
    """
    _require_rank(phi, 2)
    f1, f2 = phi.offsets
    if phi.is_identity():
        return OrdinalLevel(0, 0)
    if f2.is_zero():
        return OrdinalLevel(0, f1.degree() + 1)
    return OrdinalLevel(1, 1)


def un_center_test(phi, cfg=None):
    """Exact centrality test for rank >= 3: holds, or fails with a witness
    that does not commute with phi.

    Central elements move only x1, by an offset fixed under every
    unitriangular automorphism that fixes x1.  A wrong shape fails with
    x1 -> x1 + x_i for a moved x_i; otherwise invariance_verdict decides
    the offset by derivations, and its witness, an elementary map that
    moves the offset, does not commute with phi.  Nothing is sampled and
    no substitution is formed: cfg is ignored, and still accepted because
    the benchmark's session launcher passes one.
    """
    n = phi.rank
    if n < 3:
        raise ValueError("rank must be >= 3")
    for i in range(2, n + 1):
        if not phi.offsets[i - 1].is_zero():
            return Verdict.fails(UniAut.elementary(1, NcPoly.variable(i, n)))
    return invariance_verdict(phi.offsets[0])


def u3_hypercenter_level_truncated(phi, cap, cfg=None):
    """Classify a rank-3 automorphism in the transfinite central series.

    A mover of x3 is put at 3w+1 and a nonzero x2-offset of degree d at
    2w + max(d, 1), both reported holds but unproved and refuted: the
    commutator of x1; x2 + x3; x3 with x1; x2; x3 + 1 is x1; x2 + 1; x3,
    both at 2w+1 (ROADMAP item 1b).  A map x1 + f moving only x1 sits at
    w*k + B + 1 for f != 0, (k, B) = lazard_weight(f), and that holds by
    the module's theorem; the identity sits at 0.  The cap bounds the
    offset's degree, and so the Lazard fold, which can give C(k+l, k)
    terms per word.

    The verdict half is always holds and so carries nothing; the pair
    stays only because the benchmark's session launcher reads its [0].
    cfg is ignored, and still accepted because that launcher passes one.
    """
    _require_rank(phi, 3)
    f1, f2, f3 = phi.offsets
    if not f3.is_zero():
        return OrdinalLevel(3, 1), Verdict.holds()
    if not f2.is_zero():
        return OrdinalLevel(2, max(int(f2.degree()), 1)), Verdict.holds()
    if f1.degree() > cap:
        raise CapViolationError(f"degree {f1.degree()} exceeds cap {cap}")
    k, b = lazard_weight(f1)
    return OrdinalLevel(k, b + 1), Verdict.holds()
