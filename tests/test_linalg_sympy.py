"""linalg against sympy's DomainMatrix over QQ, an independent exact reference.

sympy is an optional test-only dependency: without it these tests are skipped.
"""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

from superquad import linalg  # noqa: E402


def to_dm(rows, m, n):
    return DomainMatrix([[QQ(c.numerator, c.denominator) for c in r] for r in rows], (m, n), QQ)


def from_dm(dm):
    return [[Fraction(int(c.numerator), int(c.denominator)) for c in r] for r in dm.to_list()]


def rand_entry(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.random() < 0.6 else Fraction(0)


def shapes(seed, count=60):
    """Seeded rational matrices: full-rank, rank-deficient and 0-dim shapes."""
    rng = random.Random(seed)
    out = [(0, 0), (0, 3), (3, 0), (1, 1)]
    out += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(count)]
    for m, n in out:
        if m and n and rng.random() < 0.5:
            # a product through rank r < min(m, n) is rank-deficient
            r = rng.randint(0, min(m, n) - 1)
            left = [[rand_entry(rng) for _ in range(r)] for _ in range(m)]
            right = [[rand_entry(rng) for _ in range(n)] for _ in range(r)]
            rows = [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
                    for i in range(m)]
        else:
            rows = [[rand_entry(rng) for _ in range(n)] for _ in range(m)]
        yield rows, m, n


def test_rref_and_rank_match_sympy():
    deficient = 0
    for rows, m, n in shapes(71):
        red, pivots = linalg.rref(rows, n)
        ref, ref_pivots = to_dm(rows, m, n).rref()
        assert pivots == list(ref_pivots)
        assert [list(r) for r in red] == from_dm(ref)
        assert linalg.rank(rows, n) == to_dm(rows, m, n).rank()
        deficient += linalg.rank(rows, n) < min(m, n)
    assert deficient >= 10


def test_nullspace_matches_sympy():
    for rows, m, n in shapes(72):
        basis = linalg.nullspace(rows, n)
        ref = from_dm(to_dm(rows, m, n).nullspace())
        assert [list(v) for v in basis] == ref


def test_inverse_matches_sympy():
    singular = invertible = 0
    for rows, m, n in shapes(73, count=120):
        if m != n:
            continue
        inv = linalg.inverse(linalg.mat(rows))
        try:
            ref = from_dm(to_dm(rows, m, n).inv())
        except DMNonInvertibleMatrixError:
            assert inv is None
            singular += 1
            continue
        assert [list(r) for r in inv] == ref
        invertible += 1
    assert singular >= 3 and invertible >= 3


# ---------------------------------------------------------------------------
# The integer kernel on sparse and dense rows

from test_linalg import extend_independent_by_rank  # noqa: E402

# distinct primes above 100: three in one row's denominators push its lcm past 10^6
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191)


def sparse_rows(rows):
    return [{k: c for k, c in enumerate(r) if c} for r in rows]


def prime_shapes(seed, count=80):
    """Rows with entries +-p/q, p and q distinct primes, about a fifth of them
    zero; some rows are combinations of others, some first rows start with a
    zero so that column 0 takes its pivot from a later row."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(m):
            dens = rng.sample(PRIMES, n)
            rows.append([Fraction(rng.choice((-1, 1)) * rng.choice(PRIMES[:6]), q) if rng.random() < 0.8
                         else Fraction(0) for q in dens])
        if m >= 3 and rng.random() < 0.4:
            rows[-1] = [rng.choice((-2, 1, 3)) * x + Fraction(1, 5) * y for x, y in zip(rows[0], rows[1])]
        if m >= 2 and rng.random() < 0.4:
            rows[0][0] = Fraction(0)
        yield rows, m, n


def larger_systems(seed, count=36):
    """Seeded systems of 10 to 40 rows and columns, in the shapes `decompose`
    builds, three kinds in turn: 5-15% of entries nonzero, with some rows
    replaced by combinations of others (rank-deficient); the same, square;
    and shuffled permutation matrices, times rational scales, with a few
    fill-in entries."""
    rng = random.Random(seed)
    for t in range(count):
        m = n = rng.randint(10, 40)
        if t % 3 == 0:
            m = rng.randint(10, 40)
        if t % 3 == 2:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i, c in enumerate(rng.sample(range(n), n)):
                rows[i][c] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
            for _ in range(rng.randint(1, 4)):
                rows[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 5))
        else:
            density = rng.uniform(0.05, 0.15)
            rows = [[Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) if rng.random() < density
                     else Fraction(0) for _ in range(n)] for _ in range(m)]
            for _ in range(rng.randint(1, 4)):
                i, j, k = rng.sample(range(m), 3)
                rows[i] = [rng.randint(-2, 2) * x + y for x, y in zip(rows[j], rows[k])]
        yield rows, m, n


def all_shapes():
    yield from shapes(74)
    yield from prime_shapes(75)
    yield from larger_systems(76)


def ref_nullspace(red, pivots, n):
    """One vector per free column of sympy's rref, that coordinate 1 (sympy's
    own nullspace basis need not be scaled so on these entries)."""
    red = from_dm(red)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(n)]
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def test_dict_and_dense_rows_give_the_same_results_as_sympy():
    kinds = {"big-lcm": 0, "negative-pivot": 0, "later-row-pivot": 0, "deficient": 0, "inverse": 0}
    for rows, m, n in all_shapes():
        sp = sparse_rows(rows)
        dm = to_dm(rows, m, n)
        ref_red, ref_pivots = dm.rref()
        for given in (rows, sp):
            red, pivots = linalg.rref(given, n)
            assert pivots == list(ref_pivots)
            assert [list(r) for r in red] == from_dm(ref_red)
            assert linalg.rank(given, n) == dm.rank()
            assert [list(v) for v in linalg.nullspace(given, n)] == ref_nullspace(ref_red, ref_pivots, n)
        if m == n:
            try:
                ref_inv = from_dm(dm.inv())
            except DMNonInvertibleMatrixError:
                ref_inv = None
            for given in (linalg.mat(rows), sp):
                inv = linalg.inverse(given)
                assert (inv if inv is None else [list(r) for r in inv]) == ref_inv
            kinds["inverse"] += ref_inv is not None
        kinds["big-lcm"] += any(math.lcm(*(c.denominator for c in r)) > 10**6 for r in rows)
        first = next((r for r in rows if r[0]), None) if n else None
        kinds["negative-pivot"] += first is not None and first[0] < 0
        kinds["later-row-pivot"] += first is not None and rows[0][0] == 0
        kinds["deficient"] += dm.rank() < min(m, n)
    assert min(kinds.values()) >= 8, kinds


def ref_solve(rows, rhs, m, n):
    """Particular solution with free variables zero, from sympy's rref of [A | b]; None if inconsistent."""
    red, pivots = to_dm([list(r) + [b] for r, b in zip(rows, rhs)], m, n + 1).rref()
    if n in pivots:
        return None
    red = from_dm(red)
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return tuple(x)


def test_solve_on_dict_and_dense_rows_matches_sympy():
    rng = random.Random(76)
    kinds = {"consistent": 0, "inconsistent": 0, "deficient": 0}
    for rows, m, n in all_shapes():
        if not m:
            continue
        x = [rand_entry(rng) for _ in range(n)]
        consistent = [sum((a * c for a, c in zip(r, x)), Fraction(0)) for r in rows]
        other = [rand_entry(rng) for _ in range(m)]
        for rhs in (consistent, other):
            ref = ref_solve(rows, rhs, m, n)
            assert linalg.solve(rows, rhs, n) == ref
            assert linalg.solve(sparse_rows(rows), rhs, n) == ref
            kinds["consistent" if ref is not None else "inconsistent"] += 1
            kinds["deficient"] += ref is not None and to_dm(rows, m, n).rank() < n
    assert min(kinds.values()) >= 10, kinds


def test_solve_many_ints_solves_each_column_like_sympy():
    """One elimination augmented with several sparse right-hand sides gives
    each column the solution of its own system, None where it has none."""
    rng = random.Random(78)
    kinds = {"consistent": 0, "inconsistent": 0}
    for rows, m, n in all_shapes():
        if not m:
            continue
        columns = []
        for _ in range(rng.randint(1, 4)):
            x = [rand_entry(rng) for _ in range(n)]
            rhs = rng.choice(([sum((a * c for a, c in zip(r, x)), Fraction(0)) for r in rows],
                              [rand_entry(rng) for _ in range(m)]))
            columns.append(rhs)
        solved = linalg.solve_many_ints(sparse_rows(rows), [{r: b for r, b in enumerate(c) if b} for c in columns], n)
        assert len(solved) == len(columns)
        for rhs, sol in zip(columns, solved):
            ref = ref_solve(rows, rhs, m, n)
            assert (None if sol is None else linalg._dense(*sol, n)) == ref
            kinds["consistent" if ref is not None else "inconsistent"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_solve_refuses_a_right_hand_side_longer_than_the_system():
    """More right-hand side entries than rows is a ValueError naming both
    lengths, a zero entry included; fewer leave the extra rows a zero
    right-hand side. A column with an entry past the last row is refused
    the same way."""
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for rhs in ([1, 2, 3], [1, 2, 0]):
        with pytest.raises(ValueError, match="^right-hand side has 3 entries, the system has 2 rows$"):
            linalg.solve(eye, rhs)
        with pytest.raises(ValueError, match="^right-hand side has 3 entries, the system has 2 rows$"):
            linalg.solve_ints(sparse_rows(eye), rhs, 2)
    assert linalg.solve(eye, [Fraction(5)]) == (Fraction(5), Fraction(0))
    assert linalg.solve([[Fraction(1)], [Fraction(2)]], [Fraction(1)]) is None
    with pytest.raises(ValueError, match="^right-hand side 1 has an entry at row 2, the system has 2 rows$"):
        linalg.solve_many_ints(sparse_rows(eye), [{0: 1}, {2: 1}], 2)
    assert linalg.solve_many_ints(sparse_rows(eye), [{1: 3}], 2) == [(1, {1: 3})]


def test_extend_independent_on_sparse_vectors_matches_the_rank_loop():
    rng = random.Random(77)
    for rows, m, n in all_shapes():
        pool = [tuple(r) for r in rows] + [tuple(Fraction(0) for _ in range(n))]
        base = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        cands = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        assert linalg.extend_independent(sparse_rows(base), sparse_rows(cands)) == \
            extend_independent_by_rank(base, cands)


@pytest.mark.parametrize("bad", [0.5, 0.0, True, False])
def test_float_or_bool_in_a_dict_row_raises(bad):
    row = {0: Fraction(1), 1: bad}
    calls = [
        lambda: linalg.rref([row], 2),
        lambda: linalg.rank([row], 2),
        lambda: linalg.nullspace([row], 2),
        lambda: linalg.solve([row], [Fraction(1)], 2),
        lambda: linalg.solve([{0: Fraction(1)}], [bad], 1),
        lambda: linalg.inverse([row, {1: Fraction(1)}]),
        lambda: linalg.in_span([row], {0: Fraction(1)}),
        lambda: linalg.extend_independent([row], []),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_extend_independent_on_larger_systems_matches_the_rank_loop():
    rng = random.Random(84)
    for rows, m, n in larger_systems(85, count=12):
        pool = [tuple(r) for r in rows]
        base = rng.sample(pool, rng.randint(0, m // 2))
        cands = [rng.choice(pool) for _ in range(rng.randint(m // 2, m))]
        assert linalg.extend_independent(sparse_rows(base), sparse_rows(cands)) == \
            extend_independent_by_rank(base, cands)
