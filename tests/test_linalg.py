import random
import sys
from fractions import Fraction

import pytest

from superquad import catalog, linalg
from superquad.linalg import ONE, ZERO


def rand_mat(rng, m, n):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]


def test_rref_identity():
    red, pivots = linalg.rref(linalg.identity_mat(3))
    assert pivots == [0, 1, 2]
    assert tuple(tuple(r) for r in red) == linalg.identity_mat(3)


def test_rank_nullspace_dimensions():
    rng = random.Random(1)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        r = linalg.rank(a, n)
        null = linalg.nullspace(a, n)
        assert r + len(null) == n
        for v in null:
            assert not any(linalg.mat_vec(linalg.mat(a), v))


def test_solve_substitutes_back():
    rng = random.Random(2)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = linalg.mat_vec(linalg.mat(a), x)
        sol = linalg.solve(a, b, n)
        assert sol is not None
        assert linalg.mat_vec(linalg.mat(a), sol) == tuple(b)


def test_solve_reports_inconsistent():
    assert linalg.solve([[ONE, ONE], [ONE, ONE]], [ONE, ZERO]) is None


def test_inverse_roundtrip():
    rng = random.Random(3)
    found = 0
    while found < 20:
        n = rng.randint(1, 5)
        a = rand_mat(rng, n, n)
        inv = linalg.inverse(linalg.mat(a))
        if inv is None:
            continue
        found += 1
        assert linalg.mat_mul(inv, linalg.mat(a)) == linalg.identity_mat(n)


def test_empty_shapes():
    assert linalg.rank([], 4) == 0
    assert len(linalg.nullspace([], 3)) == 3
    assert linalg.solve([], [], 0) == ()
    assert linalg.inverse(()) == ()


def test_solve_is_deterministic_first_pivot():
    # one equation, two unknowns: the first column carries the pivot
    sol = linalg.solve([[ONE, ONE]], [Fraction(5)], 2)
    assert sol == (Fraction(5), ZERO)


def test_extend_independent():
    base = [(ONE, ZERO, ZERO)]
    cands = [(Fraction(2), ZERO, ZERO), (ZERO, ONE, ZERO), (ONE, ONE, ZERO), (ZERO, ZERO, ONE)]
    assert linalg.extend_independent(base, cands) == [1, 3]


def test_vec_refuses_floats_and_bools():
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(TypeError):
            linalg.vec([ONE, bad])
    assert linalg.vec([1, "2/3", Fraction(1, 7)]) == (ONE, Fraction(2, 3), Fraction(1, 7))
    with pytest.raises(TypeError):
        linalg.vec_scale(0.5, (ONE,))
    with pytest.raises(TypeError):
        linalg.rank([[ONE, 0.5]])
    with pytest.raises(TypeError):
        linalg.solve([[ONE]], [0.5])


def extend_independent_by_rank(base, candidates):
    """Reference: one rank of the growing stack per candidate."""
    stack = [list(r) for r in base]
    current = linalg.rank(stack) if stack else 0
    chosen = []
    for i, cand in enumerate(candidates):
        trial = stack + [list(cand)]
        r = linalg.rank(trial)
        if r > current:
            chosen.append(i)
            stack = trial
            current = r
    return chosen


def test_extend_independent_matches_rank_loop():
    """Rank-deficient, empty and zero-dim bases; zero, repeated and dependent candidates."""
    rng = random.Random(7)
    kinds = {"empty-base": 0, "no-candidates": 0, "dim-0": 0, "deficient-base": 0,
             "zero": 0, "repeat": 0, "dependent": 0}
    for _ in range(600):
        n = rng.randint(0, 5)
        pool = [tuple(r) for r in rand_mat(rng, rng.randint(0, 4), n)]

        def draw():
            roll = rng.random()
            if roll < 0.15:
                kinds["zero"] += 1
                return linalg.zero_vec(n)
            if pool and roll < 0.35:
                kinds["repeat"] += 1
                return rng.choice(pool)
            if len(pool) >= 2 and roll < 0.55:
                kinds["dependent"] += 1
                u, w = rng.sample(pool, 2)
                return linalg.vec_add(linalg.vec_scale(rng.randint(-2, 2), u), w)
            return tuple(rand_mat(rng, 1, n)[0])

        base = [draw() for _ in range(rng.randint(0, 4))]
        cands = [draw() for _ in range(rng.randint(0, 6))]
        kinds["empty-base"] += not base
        kinds["no-candidates"] += not cands
        kinds["dim-0"] += n == 0
        kinds["deficient-base"] += bool(base) and linalg.rank(base, n) < len(base)
        assert linalg.extend_independent(base, cands) == extend_independent_by_rank(base, cands)
    assert min(kinds.values()) >= 30


def view_of(vectors):
    """(d, ints) of dense rational vectors: their nonzeros times the lcm d of their denominators."""
    from generators import scaled_to_ints, sparse_vec
    d, ints = scaled_to_ints(map(sparse_vec, vectors))
    return d, list(ints)


def test_integer_results_are_the_least_views_of_the_rational_ones():
    """nullspace_ints, solve_ints and inverse_ints give the views
    scaled_to_ints gives of nullspace, solve and inverse, keys in order, on
    rational rows and on the same rows scaled to ints (a positive multiple
    of each row leaves every result as it is)."""
    rng = random.Random(8)
    seen = {"singular": 0, "inconsistent": 0, "free": 0}
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = rand_mat(rng, m, n)
        rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        basis, x = linalg.nullspace(rows, n), linalg.solve(rows, rhs, n)
        seen["free"] += bool(basis)
        seen["inconsistent"] += x is None
        # denominators are at most 3, so 6 times every row and right-hand side is an int
        int_rows, int_rhs = [[int(6 * c) for c in r] for r in rows], [int(6 * c) for c in rhs]
        for given, b in ((rows, rhs), (int_rows, int_rhs)):
            d, ints = linalg.nullspace_ints(given, n)
            assert (d, list(ints)) == view_of(basis)
            assert all(list(v) == sorted(v) for v in ints)
            sol = linalg.solve_ints(given, b, n)
            assert (sol is None) == (x is None)
            if x is not None:
                assert (sol[0], [sol[1]]) == view_of([x])
        square = rows[:min(m, n)]
        square = [r[:len(square)] for r in square]
        if len(square) >= 2 and rng.random() < 0.2:
            square[-1] = square[0]
        inv = linalg.inverse(square)
        got = linalg.inverse_ints(square)
        seen["singular"] += inv is None
        assert (got is None) == (inv is None)
        if inv is not None:
            assert (got[0], list(got[1])) == view_of(inv)
            assert all(list(v) == sorted(v) for v in got[1])
    assert min(seen.values()) >= 20


def test_lowest_terms_divides_by_the_common_gcd():
    assert linalg.lowest_terms(6, [{0: 4, 2: -2}, {1: 8}]) == (3, ({0: 2, 2: -1}, {1: 4}))
    assert linalg.lowest_terms(5, [{0: 4}]) == (5, ({0: 4},))
    assert linalg.lowest_terms(4, []) == (1, ())


def linalg_lines(f, *args) -> int:
    """Line events that ``f(*args)`` runs in linalg's own file: a count of
    work that no host's clock can blur."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == linalg.__file__ else None)
    try:
        f(*args)
    finally:
        sys.settrace(previous)
    return count


def test_elimination_work_is_linear_on_the_heisenberg_metric():
    """The catalog Heisenberg metric is a permutation: no row meets the
    pivot of a row before it. So rank and nullspace_ints do work linear in
    the dimension, and doubling the pairs from 64 to 128 at most doubles the
    line events, with room for the fixed part. A pivot search and a clearing
    loop over every row for every column read 3.8x here."""
    counts = {}
    for pairs in (64, 128):
        g = catalog.heisenberg_extension(catalog.default_heisenberg_params(pairs))
        rows, n = g.metric.scaled_rows[1], g.space.dim
        counts[pairs] = [linalg_lines(linalg.rank, rows, n), linalg_lines(linalg.nullspace_ints, rows, n)]
    for small, large in zip(counts[64], counts[128]):
        assert large <= 2.2 * small, counts
