import random
from fractions import Fraction

from unitri.freealg import NcPoly, abelianize, add_scaled, add_term
from unitri.linalg import Echelon, nullspace


def F(n, d=1):
    return Fraction(n, d)


def test_add_term_updates_in_place_and_drops_cancelled_keys():
    acc = {"a": F(1), "b": F(2)}
    same = acc
    add_term(acc, "a", F(1, 2))
    add_term(acc, "c", F(-3))
    add_term(acc, "b", F(-2))
    assert same is acc
    assert acc == {"a": F(3, 2), "c": F(-3)}


def test_add_scaled_unscaled_and_scaled():
    acc = {0: F(1), 1: F(2)}
    same = acc
    add_scaled(acc, {1: F(-2), 2: F(5)})
    assert acc == {0: F(1), 2: F(5)} and same is acc
    add_scaled(acc, {0: F(1, 3), 2: F(1)}, F(-5))
    assert acc == {0: F(-2, 3)} and same is acc
    add_scaled(acc, {0: F(2, 3)}, F(1))
    assert acc == {}
    # any c other than the int 1 multiplies, so Fraction(1) scales ints to Fractions
    ints = {}
    add_scaled(ints, {"w": 3}, F(1))
    assert type(ints["w"]) is Fraction


def _nonzero_fractions(terms):
    """Every stored coefficient is a nonzero Fraction: never 0, an int or a float."""
    return all(type(c) is Fraction and c != 0 for c in terms.values())


def _random_terms(rng, key, n=4):
    terms = {}
    for _ in range(rng.randint(0, n)):
        # small coefficients, so that sums often cancel
        add_term(terms, key(), F(rng.randint(-2, 2), rng.randint(1, 2)))
    return terms


def test_no_operation_stores_a_zero_coefficient():
    rng = random.Random(5)
    word = lambda: tuple(rng.choices((1, 2), k=rng.randint(0, 2)))
    for _ in range(200):
        p, q = (NcPoly(2, _random_terms(rng, word)) for _ in range(2))
        assert _nonzero_fractions(NcPoly(2, {**_random_terms(rng, word), word(): 0}).terms)
        c = F(rng.randint(-2, 2), rng.randint(1, 2))
        for r in (p + q, p - q, p + c, c - p, -p, p * q, p * c, p - p):
            assert _nonzero_fractions(r.terms)
            # x1*x2 and x2*x1 share an exponent vector, so these sums cancel
            assert _nonzero_fractions(abelianize(r))
        if c:
            assert _nonzero_fractions((p / c).terms)
        images = [NcPoly(2, _random_terms(rng, word)) for _ in range(2)]
        nc = NcPoly(2, _random_terms(rng, word))
        assert _nonzero_fractions(nc.substitute(images).terms)
        ech = Echelon(track=True)
        for tag in range(4):
            ech.insert(_random_terms(rng, lambda: rng.randint(0, 4)), tag)
        assert all(_nonzero_fractions(v) for v in ech.rows + ech.combos)
        vec = _random_terms(rng, lambda: rng.randint(0, 4))
        assert _nonzero_fractions(ech.reduce(vec))
        combo = ech.express(vec)
        assert combo is None or _nonzero_fractions(combo)


def test_insert_and_reduce():
    ech = Echelon()
    assert ech.insert({0: F(2), 1: F(4)})
    assert ech.insert({1: F(1)})
    # dependent vector is rejected and reduces to nothing
    assert not ech.insert({0: F(1), 1: F(5)})
    assert ech.reduce({0: F(3), 1: F(7)}) == {}
    assert ech.dim == 2


def test_rows_are_canonical():
    # the reduced basis of a span does not depend on insertion order
    vecs = [{0: F(1), 1: F(2)}, {1: F(1), 2: F(3)}, {0: F(1), 2: F(-1)}]
    a = Echelon()
    b = Echelon()
    for v in vecs:
        a.insert(v)
    for v in reversed(vecs):
        b.insert(v)
    assert a.vectors() == b.vectors()
    assert a.pivots() == b.pivots()


def test_express_recovers_combination():
    ech = Echelon(track=True)
    ech.insert({0: F(1), 1: F(1)}, tag="u")
    ech.insert({1: F(2)}, tag="v")
    combo = ech.express({0: F(3), 1: F(4)})
    # 3*(u) + 1/2*(v): 3*(e0+e1) + 1/2*(2 e1) = 3 e0 + 4 e1
    assert combo == {"u": F(3), "v": F(1, 2)}
    assert ech.express({2: F(1)}) is None


def test_custom_key_order():
    # pivots are minimal under the supplied order; reversing it flips them
    ech = Echelon(key=lambda t: -t)
    ech.insert({0: F(1), 5: F(1)})
    assert ech.pivots() == [5]


def test_nullspace_of_rank_one_system():
    # x0 + x1 + x2 = 0 on 3 columns: kernel has the two standard vectors
    kern = nullspace([{0: F(1), 1: F(1), 2: F(1)}], 3)
    assert kern == [{1: F(1), 0: F(-1)}, {2: F(1), 0: F(-1)}]


def test_nullspace_full_rank_is_trivial():
    rows = [{0: F(1)}, {1: F(2)}, {0: F(1), 2: F(1)}]
    assert nullspace(rows, 3) == []


def test_nullspace_no_constraints():
    kern = nullspace([], 2)
    assert kern == [{0: F(1)}, {1: F(1)}]


def _dense_pivot_columns(rows, ncols):
    """Pivot columns of the row-echelon form, by dense Gaussian
    elimination independent of Echelon; their count is the rank."""
    m = [[row.get(c, F(0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _random_integer_system(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 8)):
        row = {c: F(rng.randint(-3, 3)) for c in range(ncols) if rng.random() < 0.5}
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


def test_nullspace_vectors_satisfy_constraints():
    systems = [([{0: F(2), 1: F(1)}, {1: F(1), 2: F(1), 3: F(-1)}], 4)]
    systems += [_random_integer_system(seed) for seed in range(30)]
    for rows, ncols in systems:
        kern = nullspace(rows, ncols)
        for vec in kern:
            for row in rows:
                assert sum(row.get(c, F(0)) * v for c, v in vec.items()) == 0
        pivots = _dense_pivot_columns(rows, ncols)
        assert len(kern) == ncols - len(pivots)
        # one vector per free column: 1 there, 0 at every other free column
        free = [c for c in range(ncols) if c not in pivots]
        for col, vec in zip(free, kern):
            assert {c: vec.get(c, 0) for c in free} == {c: int(c == col) for c in free}
