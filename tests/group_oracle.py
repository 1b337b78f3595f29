"""Group arithmetic that sends every slot through NcPoly.substitute, kept
as an oracle for UniAut.compose and UniAut.invert, which fill the last
two slots by constant addition and one Taylor shift, and for that shift
(autgroup._taylor_shift) on its own.

These are compose and invert as they stood before that kernel: the same
substitutions, so the same term products counted against
MAX_SUBSTITUTION_TERMS.  The conjugate and the commutator here are the
chains of inverses and products, so they check the values of
autgroup.conjugate and autgroup.group_commutator, not their
substitutions: in rank >= 3 those divide on the left (autgroup._solve)
and substitute only offsets of their arguments, so they can answer
inputs that the chains refuse at the bound.
"""

from unitri.autgroup import UniAut, _shifted_variable
from unitri.freealg import NcPoly


def oracle_compose(phi, psi):
    images = psi.images()
    return UniAut._make(phi.rank, tuple(
        g + f if f.is_constant() else f.substitute(images, g)
        for f, g in zip(phi.offsets, psi.offsets)))


def oracle_invert(phi):
    n = phi.rank
    imgs = [NcPoly.variable(j, n) for j in range(1, n + 1)]
    inv = [None] * n
    for i in range(n - 1, -1, -1):
        inv[i] = -phi.offsets[i].substitute(imgs)
        imgs[i] = _shifted_variable(i + 1, inv[i])
    return UniAut._make(n, tuple(inv))


def oracle_taylor_shift(f, shift, addend=None, sign=1):
    """addend + sign * f(x_r + shift), r = f.rank, as one substitution."""
    r = f.rank
    images = [NcPoly.variable(j, r) for j in range(1, r)] + [_shifted_variable(r, shift)]
    return (sign * f).substitute(images, addend)


def oracle_conjugate(phi, psi):
    """psi^-1 phi psi."""
    return oracle_compose(oracle_compose(oracle_invert(psi), phi), psi)


def oracle_group_commutator(phi, psi):
    """phi^-1 psi^-1 phi psi."""
    return oracle_compose(oracle_compose(oracle_compose(
        oracle_invert(phi), oracle_invert(psi)), phi), psi)
