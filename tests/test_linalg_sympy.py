"""linalg against sympy's DomainMatrix over QQ, an independent exact reference.

sympy is an optional test-only dependency: without it these tests are skipped.
"""

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
