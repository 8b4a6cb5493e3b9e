"""Seeded random structures for the property suites.

Valid delta-contexts are produced constructively: pick a small auxiliary
algebra and quadratic h, sample rho inside the solved space of metric-skew
derivations, then solve the linear systems that the remaining axioms impose
on lambda and omega (the curvature and cocycle conditions are affine-linear
in those maps once rho is fixed). Every produced context is re-validated, so
downstream tests exercise the theorems, never the generator's intent.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

from superquad import linalg
from superquad.algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    cyclic_residual,
    delta_coadjoint,
)
from superquad.errors import Violation
from superquad.extension import DeltaContext, derive_chi, validate_context
from superquad.linalg import ZERO, ONE
from superquad.spaces import (
    EMPTY,
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    add_scaled,
    drop_zeros,
    dual_space,
    p_delta_dual,
)

F = Fraction


def count_calls(monkeypatch, owner, *names) -> dict[str, list]:
    """Patch each function named in names, an attribute of the module
    owner, in every loaded superquad module that holds it, so that every
    call is logged whichever module makes it. Returns {name: [the
    positional arguments of each call]}, so a count is the list's length;
    a test clears the lists between runs."""
    calls = {}

    def logged(original, seen):
        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)
        return counting

    for name in names:
        original = getattr(owner, name)
        counting = logged(original, calls.setdefault(name, []))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "superquad" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


# ---------------------------------------------------------------------------
# Fraction views of the integer state. The library keeps one sparse form,
# ``(d, ints)``; the rational references below read these instead. Each
# oracle builds the view of a map once and passes it to the helpers.


def sparse_vec(v) -> dict:
    return {k: c for k, c in enumerate(v) if c}


def dense_vec(v, n: int) -> tuple:
    out = [ZERO] * n
    for k, c in v.items():
        out[k] = c
    return tuple(out)


def form_value(form: GradedBilinearForm, u, v) -> Fraction:
    """B(u, v) for dense vectors u and v, read off the form's integer state."""
    d, rows = form.scaled_rows
    return sum((a * n * v[j] for a, row in zip(u, rows) if a for j, n in row.items()), ZERO) / d


def vector_parity(space: SuperSpace, v) -> int | None:
    """Parity of a homogeneous dense coordinate vector; None if mixed or zero."""
    seen = {space.parity(i) for i, c in enumerate(v) if c != 0}
    return seen.pop() if len(seen) == 1 else None


def fractions(view):
    """An integer view ``(d, vectors)``, such as ``scaled_pairs``,
    ``scaled_columns`` or ``scaled_rows``, with each coefficient n/d as a
    Fraction; ``vectors``, a tuple of sparse vectors or a dict of them by
    key, keeps its shape."""
    d, vectors = view
    if isinstance(vectors, dict):
        return {key: {k: F(n, d) for k, n in v.items()} for key, v in vectors.items()}
    return tuple({k: F(n, d) for k, n in v.items()} for v in vectors)


def dense_line(found, n: int):
    """``find_central_minimal_ideal``'s integer view of a line as a list of
    one dense rational vector, or None for a stop, the return the tests'
    rational oracles give."""
    return None if isinstance(found, str) else [linalg._dense(found[0], v, n) for v in found[1]]


def combine(vectors, coeffs: dict) -> dict:
    """The sum of c * vectors[k] over the sparse coefficients {k: c}: a
    linear map's image of a sparse vector from its columns, or a form's
    covector B(u, .) from its rows."""
    out: dict = {}
    for k, c in coeffs.items():
        add_scaled(out, c, vectors[k])
    return drop_zeros(out)


def right_sparse(pairs: dict, i: int, v: dict) -> dict:
    """The value on (e_i, v) of a bilinear map with Fraction ``pairs``, for a sparse v."""
    return combine({j: pairs.get((i, j), EMPTY) for j in v}, v)


def left_sparse(pairs: dict, u: dict, j: int) -> dict:
    """The value on (u, e_j) of a bilinear map with Fraction ``pairs``, for a sparse u."""
    return combine({i: pairs.get((i, j), EMPTY) for i in u}, u)


def value_vectors(pairs: dict, u, v, n: int) -> tuple:
    """The value on two dense vectors of a bilinear map with Fraction
    ``pairs`` into a space of dim n, dense."""
    out: dict = {}
    sv = sparse_vec(v)
    for i, a in enumerate(u):
        if a:
            add_scaled(out, a, right_sparse(pairs, i, sv))
    return dense_vec(drop_zeros(out), n)


# ---------------------------------------------------------------------------
# Fraction oracle of the stored state: the normalisation the library used
# before it stored integers, kept as the reference for the integer one.


def _normalize(entries, bounds: tuple[int, ...], what: str) -> dict:
    """Each entry is (*indices, c); the result maps each index tuple in range
    to its exact coefficient (``linalg.scalar``), repeated indices summed,
    zeros dropped, keys in lexicographic order. An index out of range raises
    ValueError."""
    acc: dict = {}
    arity, scalar = len(bounds), linalg.scalar
    for *key, c in entries:
        key = tuple(key)
        bad = len(key) != arity
        for i, b in zip(key, bounds):
            bad = bad or not 0 <= i < b
        if bad:
            raise ValueError(f"{what} entry ({','.join(map(str, key))}) out of range")
        c = scalar(c)
        if c:
            acc[key] = acc[key] + c if key in acc else c
    return {key: acc[key] for key in sorted(acc) if acc[key]}


def scaled_to_ints(vectors) -> tuple[int, tuple[dict, ...]]:
    """(d, scaled): d is the lcm of the denominators of every coefficient of
    the sparse vectors (1 if there are none), and scaled holds the same
    vectors, in order, times d, with int coefficients."""
    vectors = list(vectors)
    d = math.lcm(*{c.denominator for v in vectors for c in v.values()})
    return d, tuple({k: c.numerator * (d // c.denominator) for k, c in v.items()} for v in vectors)


def solve_affine(rows, rhs, ncols):
    """Full solution set of rows @ x = rhs as (particular, nullspace basis), or None."""
    part = linalg.solve(rows, rhs, ncols)
    if part is None:
        return None
    return part, linalg.nullspace(rows, ncols)


def rand_scalar(rng, nonzero=False):
    while True:
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        if c or not nonzero:
            return c


def rand_int_scalar(rng):
    return F(rng.choice((-2, -1, -1, 0, 0, 1, 1, 2)))


def space_of(parities, prefix="g"):
    return SuperSpace(tuple((f"{prefix}{i}", p) for i, p in enumerate(parities)))


def build_bracket(space, entries):
    """Entries for i <= j only; the (j,i) partners are filled in by skew."""
    full = []
    for i, j, k, c in entries:
        full.append((i, j, k, c))
        if i != j:
            sign = -1 if space.parity(i) * space.parity(j) else 1
            full.append((j, i, k, -sign * c))
    return SuperBracket.from_entries(space, full)


def change_basis(g: QuadraticLieSuperAlgebra, cols) -> QuadraticLieSuperAlgebra:
    """Transport a quadratic algebra along new basis vectors (matrix columns)."""
    n = g.dim
    m = linalg.transpose(cols)
    m_inv = linalg.inverse(m)
    space = SuperSpace(tuple((f"b{i}", vector_parity(g.space, cols[i])) for i in range(n)))
    pairs = fractions(g.bracket.scaled_pairs)
    table = tuple(
        tuple(linalg.mat_vec(m_inv, value_vectors(pairs, cols[p], cols[q], n)) for q in range(n))
        for p in range(n)
    )
    metric = tuple(tuple(form_value(g.metric, cols[p], cols[q]) for q in range(n)) for p in range(n))
    return QuadraticLieSuperAlgebra(
        LieSuperAlgebra(SuperBracket(space, table)),
        GradedBilinearForm(space, g.delta, metric))


def rescanned(g: QuadraticLieSuperAlgebra) -> QuadraticLieSuperAlgebra:
    """g rebuilt by the checking constructors: its record is ``("scan",)``,
    so none names a context for ``certify_split`` to reuse."""
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(g.bracket), g.metric)


def random_parity_preserving_basis(rng, space):
    """Invertible columns, each homogeneous, small integer entries."""
    n = space.dim
    while True:
        cols = []
        for j in range(n):
            col = [rand_int_scalar(rng) if space.parity(i) == space.parity(j) else ZERO
                   for i in range(n)]
            cols.append(tuple(col))
        if linalg.inverse(linalg.transpose(cols)) is not None:
            return cols


# ---------------------------------------------------------------------------
# small Lie superalgebras


def random_superalgebra(rng, max_dim=2, prefix="g") -> LieSuperAlgebra:
    """Valid small algebras from closed families, dims 1..max_dim."""
    for _ in range(200):
        dim = rng.randint(1, max_dim)
        kind = rng.choice(("abelian", "solvable", "heisenberg", "action", "sl2"))
        if kind == "abelian" or dim == 1:
            parities = tuple(rng.randint(0, 1) for _ in range(dim))
            return LieSuperAlgebra.abelian(space_of(sorted(parities), prefix))
        if kind == "solvable" and dim >= 2:
            # [x0, x_j] = c_j x_j on an abelian tail, any parities on the tail
            parities = (0,) + tuple(sorted(rng.randint(0, 1) for _ in range(dim - 1)))
            sp = space_of(parities, prefix)
            entries = [(0, j, j, rand_scalar(rng)) for j in range(1, dim)]
            return LieSuperAlgebra(build_bracket(sp, [e for e in entries if e[3]]))
        if kind == "heisenberg" and dim >= 3:
            # central z; [v,w] = psi(v,w) z for a super skew pairing into z's parity
            pz = rng.randint(0, 1)
            rest = tuple(sorted(rng.randint(0, 1) for _ in range(dim - 1)))
            sp = space_of(rest + (pz,), prefix)
            z = dim - 1
            entries = []
            for i in range(dim - 1):
                for j in range(i, dim - 1):
                    if (sp.parity(i) + sp.parity(j)) % 2 != pz:
                        continue
                    if i == j and sp.parity(i) == 0:
                        continue
                    c = rand_scalar(rng)
                    if c:
                        entries.append((i, j, z, c))
            if not entries:
                continue
            return LieSuperAlgebra(build_bracket(sp, entries))
        if kind == "action" and dim >= 2:
            # even x0 acting on an abelian graded tail by any parity-even matrix
            parities = (0,) + tuple(sorted(rng.randint(0, 1) for _ in range(dim - 1)))
            sp = space_of(parities, prefix)
            entries = []
            for j in range(1, dim):
                for k in range(1, dim):
                    if sp.parity(j) == sp.parity(k):
                        c = rand_scalar(rng)
                        if c:
                            entries.append((0, j, k, c))
            if not entries:
                continue
            return LieSuperAlgebra(build_bracket(sp, entries))
        if kind == "sl2" and dim == 3:
            sp = space_of((0, 0, 0), prefix)
            return LieSuperAlgebra(build_bracket(sp, [
                (0, 1, 1, F(2)), (0, 2, 2, F(-2)), (1, 2, 0, ONE)]))
    raise RuntimeError("superalgebra sampling failed")


def random_superalgebra_scrambled(rng, max_dim=5) -> LieSuperAlgebra:
    g = random_superalgebra(rng, max_dim)
    if g.dim == 0 or rng.random() < 0.3:
        return g
    cols = random_parity_preserving_basis(rng, g.space)
    n = g.dim
    m_inv = linalg.inverse(linalg.transpose(cols))
    space = SuperSpace(tuple((f"b{i}", vector_parity(g.space, cols[i])) for i in range(n)))
    pairs = fractions(g.bracket.scaled_pairs)
    table = tuple(
        tuple(linalg.mat_vec(m_inv, value_vectors(pairs, cols[p], cols[q], n)) for q in range(n))
        for p in range(n)
    )
    return LieSuperAlgebra(SuperBracket(space, table))


# ---------------------------------------------------------------------------
# small quadratic Lie superalgebras


def _abelian_quadratic(rng, delta, max_dim, prefix="h") -> QuadraticLieSuperAlgebra:
    for _ in range(100):
        if delta == 1:
            k = rng.randint(1, max(1, max_dim // 2))
            parities = (0,) * k + (1,) * k
            sp = space_of(parities, prefix)
            m = [[rand_scalar(rng) for _ in range(k)] for _ in range(k)]
            if linalg.rank(m, k) != k:
                continue
            n = 2 * k
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(k):
                for j in range(k):
                    rows[i][k + j] = m[i][j]
                    rows[k + j][i] = m[i][j]
            return QuadraticLieSuperAlgebra(
                LieSuperAlgebra.abelian(sp),
                GradedBilinearForm(sp, 1, tuple(tuple(r) for r in rows)))
        d1 = rng.choice((0, 2))
        d0 = rng.randint(1 if d1 == 0 else 0, max(1, max_dim - d1))
        if d0 + d1 == 0 or d0 + d1 > max_dim:
            continue
        sp = space_of((0,) * d0 + (1,) * d1, prefix)
        n = d0 + d1
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(d0):
            for j in range(i, d0):
                c = rand_scalar(rng)
                rows[i][j] = c
                rows[j][i] = c
        if d1 == 2:
            c = rand_scalar(rng, nonzero=True)
            rows[d0][d0 + 1] = c
            rows[d0 + 1][d0] = -c
        if linalg.rank(rows, n) != n:
            continue
        return QuadraticLieSuperAlgebra(
            LieSuperAlgebra.abelian(sp),
            GradedBilinearForm(sp, 0, tuple(tuple(r) for r in rows)))
    raise RuntimeError("quadratic sampling failed")


def _sl2_killing() -> QuadraticLieSuperAlgebra:
    sp = space_of((0, 0, 0), prefix="s")
    bracket = build_bracket(sp, [(0, 1, 1, F(2)), (0, 2, 2, F(-2)), (1, 2, 0, ONE)])
    rows = [[ZERO] * 3 for _ in range(3)]
    rows[0][0] = F(2)
    rows[1][2] = ONE
    rows[2][1] = ONE
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(bracket),
                                    GradedBilinearForm(sp, 0, tuple(tuple(r) for r in rows)))


def _oscillator() -> QuadraticLieSuperAlgebra:
    sp = space_of((0, 0, 0, 0), prefix="o")
    bracket = build_bracket(sp, [(0, 1, 2, ONE), (0, 2, 1, -ONE), (1, 2, 3, ONE)])
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][3] = ONE
    rows[3][0] = ONE
    rows[1][1] = ONE
    rows[2][2] = ONE
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(bracket),
                                    GradedBilinearForm(sp, 0, tuple(tuple(r) for r in rows)))


def _heisenberg_like(rng) -> QuadraticLieSuperAlgebra:
    from superquad.catalog import default_heisenberg_params, heisenberg_extension
    return heisenberg_extension(default_heisenberg_params())


def _odd_2dim(rng) -> QuadraticLieSuperAlgebra:
    from superquad.catalog import default_odd_dim1_params
    return odd_extension_dim1(default_odd_dim1_params(rand_scalar(rng)))


def random_quadratic(rng, delta, max_dim=4, allow_zero=True) -> QuadraticLieSuperAlgebra:
    choices = ["abelian", "abelian", "abelian"]
    if allow_zero:
        choices.append("zero")
    if delta == 1:
        choices += ["heisenberg", "odd2"]
    else:
        choices += ["sl2", "oscillator"]
    kind = rng.choice(choices)
    if kind == "zero":
        sp = SuperSpace(())
        return QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(sp),
                                        GradedBilinearForm(sp, delta, ()))
    if kind == "abelian":
        g = _abelian_quadratic(rng, delta, max_dim)
    elif kind == "heisenberg":
        g = _heisenberg_like(rng)
    elif kind == "odd2":
        g = _odd_2dim(rng)
    elif kind == "sl2":
        g = _sl2_killing()
    else:
        g = _oscillator()
    if g.dim and g.dim <= max_dim and rng.random() < 0.4:
        g = change_basis(g, random_parity_preserving_basis(rng, g.space))
    return g


# ---------------------------------------------------------------------------
# derivations skew-symmetric with respect to the metric


def derivation_skew_basis(h: QuadraticLieSuperAlgebra, degree: int) -> list[linalg.Matrix]:
    """Basis of {T homogeneous of the given degree, derivation, B_h-skew}."""
    n = h.dim
    par = h.space.parities
    positions = [(r, c) for r in range(n) for c in range(n)
                 if par[r] == (par[c] + degree) % 2]
    idx = {pos: t for t, pos in enumerate(positions)}
    rows = []
    # Leibniz rule on all pairs, coordinatewise
    for i in range(n):
        for j in range(n):
            sign = -1 if (degree * par[i]) % 2 else 1
            for k in range(n):
                row = [ZERO] * len(positions)

                def add(pos, c):
                    if pos in idx and c:
                        row[idx[pos]] += c

                for m in range(n):
                    add((k, m), h.bracket.table[i][j][m])
                for r in range(n):
                    add((r, i), -h.bracket.table[r][j][k])
                    add((r, j), -sign * h.bracket.table[i][r][k])
                if any(row):
                    rows.append(row)
    # metric skewness on all pairs
    for i in range(n):
        for j in range(n):
            sign = -1 if (par[i] * degree) % 2 else 1
            row = [ZERO] * len(positions)

            def add(pos, c):
                if pos in idx and c:
                    row[idx[pos]] += c

            for r in range(n):
                add((r, i), h.metric.matrix[r][j])
                add((r, j), sign * h.metric.matrix[i][r])
            if any(row):
                rows.append(row)
    basis = []
    for sol in linalg.nullspace(rows, len(positions)):
        m = [[ZERO] * n for _ in range(n)]
        for (r, c), t in idx.items():
            m[r][c] = sol[t]
        basis.append(tuple(tuple(r) for r in m))
    return basis


def sample_map(rng, h_space, degree, basis) -> GradedLinearMap:
    n = h_space.dim
    acc = linalg.zero_mat(n, n)
    for m in basis:
        c = rand_int_scalar(rng)
        if c:
            acc = linalg.mat_add(acc, linalg.mat_scale(c, m))
    return GradedLinearMap(h_space, h_space, degree, acc)


# ---------------------------------------------------------------------------
# solving for compatible lambda and omega


class _PairVars:
    """Canonical unknowns for an even super skew bilinear map a x a -> target."""

    def __init__(self, a_space, target):
        self.a = a_space
        self.target = target
        self.vars = []
        self.index = {}
        pa = a_space.parities
        for i in range(a_space.dim):
            for j in range(i, a_space.dim):
                if i == j and pa[i] == 0:
                    continue  # even diagonal forced to zero by skewness
                want = (pa[i] + pa[j]) % 2
                for r in range(target.dim):
                    if target.parity(r) == want:
                        self.index[(i, j, r)] = len(self.vars)
                        self.vars.append((i, j, r))

    def nvars(self):
        return len(self.vars)

    def coeff_rows(self, i, j):
        """Per target coordinate, the linear expression of value(i,j) in the vars."""
        pa = self.a.parities
        sign = ONE
        if i > j:
            s = -1 if pa[i] * pa[j] else 1
            i, j, sign = j, i, F(-s)
        out = []
        for r in range(self.target.dim):
            key = (i, j, r)
            out.append({self.index[key]: sign} if key in self.index else {})
        return out

    def realise(self, sol) -> GradedBilinearMap:
        table = [[list(linalg.zero_vec(self.target.dim)) for _ in range(self.a.dim)]
                 for _ in range(self.a.dim)]
        pa = self.a.parities
        for (i, j, r), t in self.index.items():
            table[i][j][r] = sol[t]
            if i != j:
                sign = -1 if pa[i] * pa[j] else 1
                table[j][i][r] = -sign * sol[t]
        return GradedBilinearMap(self.a, self.a, self.target,
                                 tuple(tuple(tuple(v) for v in row) for row in table))


def _cyclic_signs(pi, pj, pk):
    """Signs (-1)^{|x||z|} of the shifts (i,j,k), (j,k,i), (k,i,j)."""
    return (-1 if pk * pi else 1), (-1 if pi * pj else 1), (-1 if pj * pk else 1)


def _combine(*term_lists):
    acc = {}
    for scale, terms in term_lists:
        for var, c in terms.items():
            acc[var] = acc.get(var, ZERO) + scale * c
    return acc


def _sample_affine(rng, particular, null_basis):
    sol = list(particular)
    for v in null_basis:
        c = rand_int_scalar(rng)
        if c:
            sol = [s + c * x for s, x in zip(sol, v)]
    return tuple(sol)


def solve_lambda(rng, a: LieSuperAlgebra, h: QuadraticLieSuperAlgebra,
                 rho) -> GradedBilinearMap | None:
    """Random solution of the curvature and cocycle conditions for lambda."""
    pv = _PairVars(a.space, h.space)
    na, nh = a.dim, h.dim
    pa = a.space.parities
    rows, rhs = [], []

    def emit(expr_terms, const):
        row = [ZERO] * pv.nvars()
        for var, c in expr_terms.items():
            row[var] += c
        rows.append(row)
        rhs.append(-const)

    ad_cols = [ad_map(h.bracket, r).matrix for r in range(nh)]
    for i in range(na):
        for j in range(na):
            sign = -1 if pa[i] * pa[j] else 1
            k_mat = mat_sub(
                linalg.mat_mul(rho[i].matrix, rho[j].matrix),
                linalg.mat_scale(sign, linalg.mat_mul(rho[j].matrix, rho[i].matrix)))
            for m, c in enumerate(a.bracket.table[i][j]):
                if c:
                    k_mat = mat_sub(k_mat, linalg.mat_scale(c, rho[m].matrix))
            lam_ij = pv.coeff_rows(i, j)
            for u in range(nh):
                for v in range(nh):
                    terms = _combine(*[(ad_cols[r][u][v], lam_ij[r])
                                       for r in range(nh) if ad_cols[r][u][v]])
                    emit(terms, -k_mat[u][v])

    def lam_expr_vec(x, vec):
        pieces = []
        for m, c in enumerate(vec):
            if c:
                pieces.append((c, pv.coeff_rows(x, m)))
        out = []
        for r in range(nh):
            out.append(_combine(*[(c, piece[r]) for c, piece in pieces]))
        return out

    for i in range(na):
        for j in range(na):
            for k in range(na):
                s1, s2, s3 = _cyclic_signs(pa[i], pa[j], pa[k])
                for r in range(nh):
                    terms = {}
                    for s, (x, y, z) in ((s1, (i, j, k)), (s2, (j, k, i)), (s3, (k, i, j))):
                        lam_yz = pv.coeff_rows(y, z)
                        rho_row = rho[x].matrix[r]
                        terms = _combine((ONE, terms),
                                         *[(s * rho_row[m], lam_yz[m])
                                           for m in range(nh) if rho_row[m]])
                        terms = _combine((ONE, terms),
                                         (F(s), lam_expr_vec(x, a.bracket.table[y][z])[r]))
                    emit(terms, ZERO)

    res = solve_affine(rows, rhs, pv.nvars())
    if res is None:
        return None
    return pv.realise(_sample_affine(rng, *res))


def solve_omega(rng, delta, a: LieSuperAlgebra, h: QuadraticLieSuperAlgebra,
                rho, lam: GradedBilinearMap) -> GradedBilinearMap | None:
    """Random solution of the cocycle and super cyclic conditions for omega."""
    dual = p_delta_dual(a.space, delta)
    pv = _PairVars(a.space, dual)
    na = a.dim
    pa = a.space.parities
    probe = DeltaContext(delta, a, h, tuple(rho), lam,
                         GradedBilinearMap.zero(a.space, a.space, dual))
    chi = derive_chi(probe)
    chi_pairs = fractions(chi.scaled_pairs)
    ad_star = delta_coadjoint(a, delta)
    rows, rhs = [], []

    def emit(expr_terms, const):
        row = [ZERO] * pv.nvars()
        for var, c in expr_terms.items():
            row[var] += c
        rows.append(row)
        rhs.append(-const)

    def omega_expr_vec(x, vec):
        pieces = [(c, pv.coeff_rows(x, m)) for m, c in enumerate(vec) if c]
        return [_combine(*[(c, piece[r]) for c, piece in pieces]) for r in range(na)]

    for i in range(na):
        for j in range(na):
            for k in range(na):
                s1, s2, s3 = _cyclic_signs(pa[i], pa[j], pa[k])
                const_vec = [ZERO] * na
                terms_vec = [{} for _ in range(na)]
                for s, (x, y, z) in ((s1, (i, j, k)), (s2, (j, k, i)), (s3, (k, i, j))):
                    om_yz = pv.coeff_rows(y, z)
                    act = ad_star[x].matrix
                    for r in range(na):
                        terms_vec[r] = _combine((ONE, terms_vec[r]),
                                                *[(s * act[r][m], om_yz[m])
                                                  for m in range(na) if act[r][m]])
                        terms_vec[r] = _combine(
                            (ONE, terms_vec[r]),
                            (F(s), omega_expr_vec(x, a.bracket.table[y][z])[r]))
                    chi_term = dense_vec(right_sparse(chi_pairs, x, sparse_vec(lam.value(y, z))), na)
                    for r in range(na):
                        const_vec[r] += s * chi_term[r]
                for r in range(na):
                    emit(terms_vec[r], const_vec[r])
                # super cyclic condition
                sign = -1 if ((pa[j] + pa[k]) * pa[i]) % 2 else 1
                lhs = pv.coeff_rows(i, j)[k]
                rhs_terms = pv.coeff_rows(j, k)[i]
                emit(_combine((ONE, lhs), (F(-sign), rhs_terms)), ZERO)

    res = solve_affine(rows, rhs, pv.nvars())
    if res is None:
        return None
    return pv.realise(_sample_affine(rng, *res))


def random_context(rng, delta, max_a=2, max_h=4) -> DeltaContext:
    """A validated random delta-context; raises after too many failed draws."""
    for _ in range(400):
        a = random_superalgebra(rng, max_a, prefix="a")
        h = random_quadratic(rng, delta, max_h)
        bases = {0: derivation_skew_basis(h, 0), 1: derivation_skew_basis(h, 1)}
        rho = []
        for i in range(a.dim):
            deg = a.space.parity(i)
            if rng.random() < 0.25:
                rho.append(GradedLinearMap.zero(h.space, h.space, deg))
            else:
                rho.append(sample_map(rng, h.space, deg, bases[deg]))
        lam = solve_lambda(rng, a, h, rho)
        if lam is None:
            continue
        omega = solve_omega(rng, delta, a, h, rho, lam)
        if omega is None:
            continue
        ctx = DeltaContext(delta, a, h, tuple(rho), lam, omega)
        if validate_context(ctx):
            raise AssertionError("generator produced an invalid context")
        return ctx
    raise RuntimeError("context sampling failed")


def rich_context(rng, delta) -> DeltaContext:
    """Structured draws guaranteeing nonzero lambda / chi / omega coverage."""
    if delta == 1:
        if rng.random() < 0.5:
            from superquad.catalog import odd_extension_context
            return odd_extension_context(random_odd_dim1_params(rng))
        from superquad.catalog import heisenberg_context
        return heisenberg_context(random_heisenberg_params(rng))
    # delta = 0: abelian a acting trivially, free lambda through the center
    # of an abelian h, omega solved for the remaining conditions (an all-even
    # a forces omega = 0 through the cyclic condition, so mix parities)
    for _ in range(100):
        # only mixed parities leave room for nonzero omega when delta = 0
        pa = rng.choice(((0, 1), (0, 1), (0, 0), (1, 1)))
        a = LieSuperAlgebra.abelian(space_of(pa, prefix="a"))
        h = _abelian_quadratic(rng, 0, 4)
        rho = [GradedLinearMap.zero(h.space, h.space, p) for p in pa]
        lam = solve_lambda(rng, a, h, rho)
        if lam is None or not lam.scaled_pairs[1]:
            continue
        omega = solve_omega(rng, 0, a, h, rho, lam)
        if omega is None:
            continue
        ctx = DeltaContext(0, a, h, tuple(rho), lam, omega)
        if validate_context(ctx):
            raise AssertionError("rich generator produced an invalid context")
        return ctx
    return random_context(rng, 0)


_CORPUS_CACHE: dict[tuple[int, int, int], list[DeltaContext]] = {}


def context_corpus(delta, count=50, seed=2024) -> list[DeltaContext]:
    key = (delta, count, seed)
    if key not in _CORPUS_CACHE:
        rng = random.Random(seed + delta)
        out = []
        for i in range(count):
            if i % 3 == 2:
                out.append(rich_context(rng, delta))
            else:
                out.append(random_context(rng, delta))
        _CORPUS_CACHE[key] = out
    return _CORPUS_CACHE[key]


# ---------------------------------------------------------------------------
# Witt instances: (space, non-degenerate homogeneous form, isotropic subspace)


def random_witt_instance(rng, delta, max_dim=8):
    """Congruence transport of a standard split form with known isotropics."""
    if delta == 1:
        npairs = rng.randint(1, max_dim // 2)
        parities = (0,) * npairs + (1,) * npairs
        n = 2 * npairs
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(npairs):
            rows[i][npairs + i] = ONE
            rows[npairs + i][i] = ONE
        iso_pool = [rng.choice((i, npairs + i)) for i in range(npairs)]
    else:
        hpairs = rng.randint(0, 2)
        spairs = rng.randint(0 if hpairs else 1, 1)
        extra = rng.randint(0, max(0, max_dim - 2 * hpairs - 2 * spairs) // 2)
        d0 = 2 * hpairs + extra
        d1 = 2 * spairs
        n = d0 + d1
        parities = (0,) * d0 + (1,) * d1
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(hpairs):
            rows[2 * i][2 * i + 1] = ONE
            rows[2 * i + 1][2 * i] = ONE
        for i in range(extra):
            c = rand_scalar(rng, nonzero=True)
            rows[2 * hpairs + i][2 * hpairs + i] = c
        for i in range(spairs):
            a, b = d0 + 2 * i, d0 + 2 * i + 1
            rows[a][b] = ONE
            rows[b][a] = -ONE
        iso_pool = [2 * i for i in range(hpairs)] + [d0 + 2 * i for i in range(spairs)]
    space = space_of(parities)
    form = GradedBilinearForm(space, delta, tuple(tuple(r) for r in rows))
    r = rng.randint(1, len(iso_pool))
    picks = sorted(rng.sample(iso_pool, r))

    cols = random_parity_preserving_basis(rng, space)
    g2 = change_basis_form(form, cols)
    m_inv = linalg.inverse(linalg.transpose(cols))
    ideal = [tuple(m_inv[r][k] for r in range(space.dim)) for k in picks]
    return space, g2, ideal


def change_basis_form(form: GradedBilinearForm, cols) -> GradedBilinearForm:
    n = form.space.dim
    space = SuperSpace(tuple((f"w{i}", vector_parity(form.space, cols[i])) for i in range(n)))
    rows = tuple(tuple(form_value(form, cols[p], cols[q]) for q in range(n)) for p in range(n))
    return GradedBilinearForm(space, form.degree, rows)


# ---------------------------------------------------------------------------
# random catalog parameters


def random_heisenberg_params(rng):
    from superquad.catalog import HeisenbergExtensionParams
    h = random_quadratic(rng, 1, 4)
    basis = derivation_skew_basis(h, 0)
    d = sample_map(rng, h.space, 0, basis)
    return HeisenbergExtensionParams(h, d)


def random_odd_dim1_params(rng):
    """Odd skew derivation D plus an even w with ad(w) = 2 D^2 and D(w) = 0."""
    from superquad.catalog import OddExtensionParams, odd_extension_context
    for _ in range(200):
        h = random_quadratic(rng, 1, 4)
        n = h.dim
        d = sample_map(rng, h.space, 1, derivation_skew_basis(h, 1))
        even_cols = [r for r in range(n) if h.space.parity(r) == 0]
        rows, rhs = [], []
        dd2 = linalg.mat_scale(2, linalg.mat_mul(d.matrix, d.matrix))
        ad_cols = [ad_map(h.bracket, r).matrix for r in even_cols]
        for u in range(n):
            for v in range(n):
                rows.append([ad_cols[t][u][v] for t in range(len(even_cols))])
                rhs.append(dd2[u][v])
        for k in range(n):
            rows.append([d.matrix[k][r] for r in even_cols])
            rhs.append(ZERO)
        res = solve_affine(rows, rhs, len(even_cols))
        if res is None:
            continue
        sol = _sample_affine(rng, *res)
        w = [ZERO] * n
        for t, r in enumerate(even_cols):
            w[r] = sol[t]
        params = OddExtensionParams(h, d, tuple(w), rand_scalar(rng))
        try:
            odd_extension_context(params)
        except Exception:
            continue
        return params
    raise RuntimeError("odd-dim1 parameter sampling failed")


def odd_extension_dim1(p) -> QuadraticLieSuperAlgebra:
    """Odd quadratic algebra on Fx + h + F P(x)* with x odd, from its
    explicit bracket rows: the catalog's reference for the odd family, whose
    agreement with ``double_extend(odd_extension_context(p))`` is tested.

    Bracket rows: [x,x] = w + eta P(x)*, [x,u] = D(u) - (-1)^{|u|} B_h(u,w) P(x)*,
    [u,v] = [u,v]_h + B_h(D(u),v) P(x)*, P(x)* central. Metric: B_h on h and
    B(x, P(x)*) = 1. Raises as ``odd_extension_context`` does.
    """
    from superquad.catalog import _fresh_label, _hyperbolic_metric, _omega_entries, odd_extension_context
    odd_extension_context(p)
    h = p.h
    nh = h.dim
    n = nh + 2
    lab = _fresh_label(h.space)
    space = SuperSpace(((lab, 1),) + h.space.basis + ((f"P({lab})*", 0),))

    sign = [-1 if q else 1 for q in h.space.parities]
    # [x, u_m] = D(u_m) - (-1)^{|u_m|} B_h(u_m, w) P(x)*, whose P(x)* coordinate is row nh
    d_b, rows = h.metric.scaled_rows
    action = p.d.entries() + [(nh, m, -sign[m] * sum((b * p.w[r] for r, b in row.items()), ZERO) / d_b)
                              for m, row in enumerate(rows)]
    entries = [(0, 0, 1 + r, c) for r, c in enumerate(p.w)] + [(0, 0, n - 1, p.eta)]
    for r, m, c in action:
        entries += [(0, 1 + m, 1 + r, c), (1 + m, 0, 1 + r, -sign[m] * c)]
    entries += h.bracket.entries(1, 1, 1) + _omega_entries(p, n - 1)
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(SuperBracket.from_entries(space, entries)),
                                    _hyperbolic_metric(space, h))


def heisenberg_target(p) -> QuadraticLieSuperAlgebra:
    """h(D) = F D + h + F hbar: the Heisenberg superalgebra of the form
    omega(u,v) = B_h(D(u),v), extended by D acting as an even derivation.
    Built from the catalog's explicit rows, as ``heisenberg_extension`` is."""
    from superquad.catalog import _action_entries, _fresh_label, _hyperbolic_metric, _omega_entries
    h = p.h
    n = h.dim + 2
    dlab = _fresh_label(h.space, "D")
    hlab = _fresh_label(h.space, "hbar")
    space = SuperSpace(((dlab, 0),) + h.space.basis + ((hlab, 1),))
    entries = _action_entries(p) + _omega_entries(p, n - 1)
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(SuperBracket.from_entries(space, entries)),
                                    _hyperbolic_metric(space, h))


def psi_preconditions_hold(p) -> bool:
    """h Abelian and (u,v) -> B_h(D(u),v) non-degenerate: then h(D) is a
    Heisenberg superalgebra and ``heisenberg_extension(p)`` is isometric to
    ``heisenberg_target(p)``."""
    if p.h.bracket.scaled_pairs[1]:
        return False
    # row m of the form: B_h(D(u_m), .)
    rows = fractions(p.h.metric.scaled_rows)
    w = [combine(rows, col) for col in fractions(p.d.scaled_columns)]
    return linalg.rank(w, p.h.dim) == p.h.dim


# ---------------------------------------------------------------------------
# Oracles for maps and identities that no command needs


def ad_map(bracket: SuperBracket, i: int) -> GradedLinearMap:
    """ad(e_i): column j is [e_i, e_j]."""
    sp = bracket.space
    return GradedLinearMap.from_entries(sp, sp, sp.parity(i), (
        (k, j, c) for x, j, k, c in bracket.entries() if x == i))


def identity_map(space: SuperSpace) -> GradedLinearMap:
    return GradedLinearMap(space, space, 0, linalg.identity_mat(space.dim))


def column(t: GradedLinearMap, j: int) -> tuple:
    """The image of e_j under t, dense."""
    return tuple(row[j] for row in t.matrix)


def mat_sub(a, b):
    return linalg.mat_add(a, linalg.mat_scale(-1, b))


def b_flat(form: GradedBilinearForm) -> GradedLinearMap:
    """Musical map g -> g*, x -> B(x, .); degree |B|, bijective iff B non-degenerate."""
    return GradedLinearMap(form.space, dual_space(form.space), form.degree, linalg.transpose(form.matrix))


def bracket_law_violation(g: LieSuperAlgebra, maps) -> tuple | None:
    """First (i, j) with maps[i] maps[j] - (-1)^{|e_i||e_j|} maps[j] maps[i]
    - maps of [e_i, e_j] != 0, or None: maps[i] the action of e_i on a module."""
    mats, par = [t.matrix for t in maps], g.space.parities
    pairs = fractions(g.bracket.scaled_pairs)
    for i in range(g.dim):
        for j in range(g.dim):
            ba = linalg.mat_scale(-1 if par[i] * par[j] else 1, linalg.mat_mul(mats[j], mats[i]))
            res = mat_sub(linalg.mat_mul(mats[i], mats[j]), ba)
            for k, c in pairs.get((i, j), EMPTY).items():
                res = mat_sub(res, linalg.mat_scale(c, mats[k]))
            if any(map(any, res)):
                return i, j
    return None


def intertwining_violation(g: LieSuperAlgebra, delta: int) -> int | None:
    """First i with ad*_d(e_i) P != (-1)^{d|e_i|} P ad*(e_i), for P the
    degree-delta identity g* -> P_delta(g)*, or None."""
    ad_star, ad_star_d = delta_coadjoint(g, 0), delta_coadjoint(g, delta)
    shift = GradedLinearMap(dual_space(g.space), p_delta_dual(g.space, delta), delta,
                            linalg.identity_mat(g.dim)).matrix
    for i in range(g.dim):
        sign = -1 if (delta * g.space.parity(i)) % 2 else 1
        lhs = linalg.mat_mul(ad_star_d[i].matrix, shift)
        if lhs != linalg.mat_scale(sign, linalg.mat_mul(shift, ad_star[i].matrix)):
            return i
    return None


def lemma_residuals(ctx: DeltaContext) -> list[Violation]:
    """Residuals, summed in Fractions on the sparse maps, of the identities for
    chi and Phi that the context axioms imply; empty on every valid context."""
    out: list[Violation] = []
    chi, phi, lam, rho = ctx.chi, ctx.phi, ctx.lam, ctx.rho
    ad_star = delta_coadjoint(ctx.a, ctx.delta)
    na, nh = ctx.a.dim, ctx.h.dim
    pa, qh = ctx.a.space.parities, ctx.h.space.parities
    a_pairs, h_pairs, lam_pairs = (fractions(m.scaled_pairs) for m in (ctx.a.bracket, ctx.h.bracket, lam))
    chi_pairs, phi_pairs = fractions(chi.scaled_pairs), fractions(phi.scaled_pairs)
    rho_cols = [fractions(t.scaled_columns) for t in rho]
    ad_cols = [fractions(t.scaled_columns) for t in ad_star]

    # Phi(rho(x)u, v) + (-1)^{|x||u|} Phi(u, rho(x)v) - ad*_d(x)(Phi(u,v)) - chi(x,[u,v]_h) = 0
    for i in range(na):
        cols = rho_cols[i]
        for m in range(nh):
            sign = -1 if pa[i] * qh[m] else 1
            for l in range(nh):
                total = left_sparse(phi_pairs, cols[m], l)
                add_scaled(total, sign, right_sparse(phi_pairs, m, cols[l]))
                add_scaled(total, -1, combine(ad_cols[i], phi_pairs.get((m, l), EMPTY)))
                add_scaled(total, -1, right_sparse(chi_pairs, i, h_pairs.get((m, l), EMPTY)))
                if total := drop_zeros(total):
                    out.append(Violation("lemma-1", (i, m, l), dense_vec(total, na)))

    # chi([x,y]_a,u) - chi(x,rho(y)u) + (-1)^{|x||y|} chi(y,rho(x)u)
    #   - ad*_d(x)(chi(y,u)) + (-1)^{|x||y|} ad*_d(y)(chi(x,u)) + Phi(lambda(x,y),u) = 0
    for i in range(na):
        for j in range(na):
            sign = -1 if pa[i] * pa[j] else 1
            for m in range(nh):
                total = left_sparse(chi_pairs, a_pairs.get((i, j), EMPTY), m)
                add_scaled(total, -1, right_sparse(chi_pairs, i, rho_cols[j][m]))
                add_scaled(total, sign, right_sparse(chi_pairs, j, rho_cols[i][m]))
                add_scaled(total, -1, combine(ad_cols[i], chi_pairs.get((j, m), EMPTY)))
                add_scaled(total, sign, combine(ad_cols[j], chi_pairs.get((i, m), EMPTY)))
                add_scaled(total, 1, left_sparse(phi_pairs, lam_pairs.get((i, j), EMPTY), m))
                if total := drop_zeros(total):
                    out.append(Violation("lemma-2", (i, j, m), dense_vec(total, na)))

    # cyclic sum of (-1)^{|u||w|} Phi(u,[v,w]_h) = 0
    def phi_piece(x, y, z):
        return right_sparse(phi_pairs, x, h_pairs.get((y, z), EMPTY))

    for m, l, r in itertools.product(range(nh), repeat=3):
        if total := cyclic_residual(qh, m, l, r, phi_piece):
            out.append(Violation("phi-cocycle", (m, l, r), dense_vec(total, na)))
    return out
