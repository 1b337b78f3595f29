import random
from fractions import Fraction

from unitri.linalg import Echelon, nullspace


def F(n, d=1):
    return Fraction(n, d)


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
