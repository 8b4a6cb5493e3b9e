"""Splitting a quadratic Lie superalgebra along an isotropic abelian ideal.

Given g with invariant metric B of degree delta and an ideal I that is
abelian and isotropic, the pipeline computes I-perp, picks a complement h of
I inside I-perp (any complement is automatically non-degenerate because the
radical of B restricted to I-perp is exactly I), produces a Witt-style
isotropic complement a dual to I, changes basis once to (a, h, I), extracts
all structure maps of the split bracket, reconstructs a double-extension
context and certifies the isometry onto its extension; ``decompose`` names
the one check behind each fact. Every step is deterministic: linear solves
take first pivots in canonical basis order. Vectors may be given dense or
as sparse dicts ``{index: coefficient}``; inside ``decompose`` every vector is
sparse, and only the returned bases are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, SuperBracket
from .errors import (
    ClaimViolated,
    DegenerateInput,
    DegeneratePairing,
    InvalidContext,
    NotAnIdealSplit,
    SuperquadError,
    ValidationError,
    Violation,
)
from .extension import DeltaContext
from .linalg import Vector, ZERO
from .spaces import (
    EMPTY,
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    add_scaled,
    dense_vec,
    drop_zeros,
    dual_space,
    p_delta_dual,
    scaled_to_ints,
    sparse_transpose,
    sparse_vec,
)

HALF = Fraction(1, 2)


def _sparse(v) -> dict:
    """A vector, dense or sparse, as a sparse vector with exact coefficients."""
    return drop_zeros(v) if hasattr(v, "items") else sparse_vec(linalg.vec(v))


def _pair(form: GradedBilinearForm, u: dict, v: dict) -> Fraction:
    """B(u, v) for sparse vectors."""
    return sum((c * v[j] for j, c in form.covector(u).items() if j in v), ZERO)


def orthogonal_complement(vectors: Sequence, form: GradedBilinearForm) -> list[dict]:
    """Homogeneous basis of {v : B(s, v) = 0 for all s in the span}: the
    canonical nullspace basis, as sparse vectors."""
    n = form.space.dim
    par = form.space.parities
    rows = [form.covector(_sparse(s)) for s in vectors]  # c -> B(s, e_c)
    basis = [sparse_vec(v) for v in linalg.nullspace(rows, n)]
    for v in basis:
        if len({par[i] for i in v}) != 1:
            raise SuperquadError("orthogonal complement produced a non-homogeneous vector")
    return basis


def _homogeneous_parity(space: SuperSpace, v: dict) -> int:
    """Parity of a homogeneous sparse vector."""
    seen = {space.parity(i) for i in v}
    if len(seen) != 1:
        raise ValueError("vector is not homogeneous (or zero)")
    return seen.pop()


def find_central_minimal_ideal(g: QuadraticLieSuperAlgebra) -> list[Vector] | None:
    """A 1-dimensional homogeneous isotropic subspace of the center, or None.

    Any subspace of the center is an ideal and 1-dimensional ideals are
    minimal. Candidates are the canonical nullspace basis of the centraliser
    system, scanned in order; None when the center is zero or none of the
    candidates is isotropic.
    """
    n = g.dim
    rows: dict = {}  # row (j, k) of the system [x, e_j]_k = 0; all-zero rows left out
    for (i, j), v in g.bracket.pairs.items():
        for k, c in v.items():
            rows.setdefault((j, k), {})[i] = c
    center = linalg.nullspace([rows[key] for key in sorted(rows)], n)
    for v in center:
        if g.metric.value(v, v) == 0:
            return [v]
    return None


def _dual_vectors(form: GradedBilinearForm, ideal: Sequence, avoid: Sequence) -> list[dict]:
    """Solve B(e_m, d_i) = delta_mi with d_i in the right parity block,
    orthogonal to every avoid vector; first-pivot, free coordinates zero."""
    space = form.space
    ideal = [_sparse(e) for e in ideal]
    rows = [form.covector(e) for e in ideal]      # row m: c -> B(e_m, e_c)
    rows += [form.covector(_sparse(w)) for w in avoid]
    duals = []
    for i, e in enumerate(ideal):
        want = (_homogeneous_parity(space, e) + form.degree) % 2
        cols = [c for c in range(space.dim) if space.parity(c) == want]
        pos = {c: t for t, c in enumerate(cols)}
        sys_rows = [{pos[c]: x for c, x in r.items() if c in pos} for r in rows]
        rhs = [linalg.ONE if m == i else ZERO for m in range(len(rows))]
        sol = linalg.solve(sys_rows, rhs, len(cols))
        if sol is None:
            raise DegenerateInput(f"no dual vector for ideal vector {i}")
        duals.append({c: x for c, x in zip(cols, sol) if x})
    return duals


def witt_complement(form: GradedBilinearForm, ideal: Sequence,
                    avoid: Sequence = ()) -> list[dict]:
    """Isotropic complement a dual to an isotropic subspace I, as sparse vectors.

    Output a satisfies: a isotropic, dim a = dim I, a and I intersect
    trivially, a + I non-degenerate, and B(I_i, a_j) = delta_ij (for odd B
    this is the same as the pairing with the arguments swapped). Vectors in
    ``avoid`` are treated as the chosen metric complement h: all duals are
    produced orthogonal to them.

    Odd B follows the dual-vector-plus-correction recipe: duals of even
    I-vectors are corrected by odd I-vectors, duals of odd I-vectors need no
    correction. Even B applies the analogous per-parity correction with a
    half coefficient (characteristic zero).
    """
    space = form.space
    ideal = [_sparse(v) for v in ideal]
    if not ideal:
        return []
    for i, u in enumerate(ideal):
        for v in ideal[i:]:
            if _pair(form, u, v) != 0:
                raise ValueError("input subspace is not isotropic")
    if linalg.rank(ideal, space.dim) != len(ideal):
        raise ValueError("ideal vectors are linearly dependent")

    duals = _dual_vectors(form, ideal, avoid)
    parities = [_homogeneous_parity(space, e) for e in ideal]

    out = []
    for i, d in enumerate(duals):
        corr = dict(d)
        for m, e in enumerate(ideal):
            if form.degree == 1 and (parities[i], parities[m]) != (0, 1):
                continue
            c = _pair(form, d, duals[m])
            if c:
                add_scaled(corr, -c if form.degree == 1 else -HALF * c, e)
        out.append(drop_zeros(corr))

    for i in range(len(out)):
        for j in range(len(out)):
            if _pair(form, out[i], out[j]) != 0:
                raise DegenerateInput("correction failed to produce an isotropic complement")
            if _pair(form, ideal[i], out[j]) != (linalg.ONE if i == j else ZERO):
                raise DegenerateInput("dual pairing broke under correction")
    if linalg.rank(ideal + out, space.dim) != 2 * len(ideal):
        raise DegenerateInput("complement is not transverse to the ideal")
    return out


def build_xi(form: GradedBilinearForm, ideal: Sequence, a_vectors: Sequence,
             delta: int, a_space: SuperSpace | None = None,
             ideal_space: SuperSpace | None = None) -> tuple[GradedLinearMap, GradedLinearMap]:
    """The bijections xi_delta: I -> P_delta(a)* and xi: I -> a*.

    xi_delta(alpha)(P_delta(x)) = B(alpha, x); xi has the same matrix into a*
    with degree delta, and the target-side parity shift of xi is xi_delta.
    """
    space = form.space
    ideal = [_sparse(v) for v in ideal]
    a_vectors = [_sparse(v) for v in a_vectors]
    if a_space is None:
        a_space = _block_space(space, a_vectors, "a", reuse=False)
    if ideal_space is None:
        ideal_space = _block_space(space, ideal, "i", reuse=False)
    pairing = [[_pair(form, alpha, x) for alpha in ideal] for x in a_vectors]
    if linalg.rank(pairing, len(ideal)) != len(ideal):
        raise DegeneratePairing("pairing between the ideal and its complement is singular")
    entries = [(j, m, c) for j, row in enumerate(pairing) for m, c in enumerate(row)]
    xi_delta = GradedLinearMap.from_entries(ideal_space, p_delta_dual(a_space, delta), 0, entries)
    xi = GradedLinearMap.from_entries(ideal_space, dual_space(a_space), delta, entries)
    return xi_delta, xi


def _bracket_in_basis(bracket: GradedBilinearMap, cols: Sequence[dict], inv: Sequence[dict]) -> dict:
    """Structure constants in the basis of the sparse vectors ``cols``, with
    ``inv`` the sparse columns of the inverse of the matrix whose columns
    are ``cols``: {(p, q): {k: c}}, no zeros, keys in row-major order.

    The sums run on integers: the bracket's integer view (scale d_b), and
    ``cols`` and ``inv`` times the lcms d_c and d_i of their denominators.
    Every coefficient of [c_p, c_q] in the new basis is then
    d_b * d_c**2 * d_i times its rational value, and is divided back once.
    Only pairs (p, q) that meet a nonzero of the bracket are visited."""
    n = len(cols)
    d_b, pairs = bracket.scaled_pairs
    d_c, int_cols = scaled_to_ints(cols)
    d_i, inv_cols = scaled_to_ints(inv)
    scale = d_b * d_c * d_c * d_i
    by_left: dict = {}  # i -> [(j, [e_i, e_j])]
    for (i, j), w in pairs.items():
        by_left.setdefault(i, []).append((j, w))
    by_coord = sparse_transpose(int_cols, n)  # j -> {q: coordinate j of c_q}
    out = {}
    for p, u in enumerate(int_cols):
        acc: dict = {}  # q -> [c_p, c_q] in g's basis
        for i, a in u.items():
            for j, w in by_left.get(i, ()):
                for q, b in by_coord[j].items():
                    add_scaled(acc.setdefault(q, {}), a * b, w)
        for q in sorted(acc):
            z: dict = {}
            for k, c in acc[q].items():
                if c:
                    add_scaled(z, c, inv_cols[k])
            z = {k: Fraction(c, scale) for k, c in z.items() if c}
            if z:
                out[(p, q)] = z
    return out


def _gram(form: GradedBilinearForm, vectors: Sequence[dict]) -> list[dict]:
    """Rows {q: B(vectors[p], vectors[q])} of the Gram matrix of sparse
    vectors, columns in order, no zeros."""
    by_coord = sparse_transpose(vectors, form.space.dim)  # j -> {q: coordinate j of vectors[q]}
    rows = []
    for u in vectors:
        row: dict = {}
        for j, b in form.covector(u).items():
            add_scaled(row, b, by_coord[j])
        rows.append({q: row[q] for q in sorted(row) if row[q]})
    return rows


def _unit_index(v: dict) -> int | None:
    if len(v) == 1:
        ((k, c),) = v.items()
        if c == 1:
            return k
    return None


def _block_space(g_space: SuperSpace, vectors: Sequence[dict], prefix: str,
                 reuse: bool = True) -> SuperSpace:
    """With reuse on, labels reuse g's labels where block vectors are unit
    vectors; the others, or all of them if a label repeats, are prefix + index."""
    labels = []
    for j, v in enumerate(vectors):
        u = _unit_index(v) if reuse else None
        labels.append(g_space.label(u) if u is not None else f"{prefix}{j}")
    if len(set(labels)) != len(labels):
        labels = [f"{prefix}{j}" for j in range(len(vectors))]
    return SuperSpace(tuple((lab, _homogeneous_parity(g_space, v))
                            for lab, v in zip(labels, vectors)))


@dataclass(frozen=True)
class ExtractedMaps:
    """Components of the bracket along g = a + h + I."""

    a_space: SuperSpace
    h_space: SuperSpace
    ideal_space: SuperSpace
    a_table: SuperBracket
    h_table: SuperBracket
    lam: GradedBilinearMap        # a x a -> h
    mu: GradedBilinearMap         # a x a -> I
    gamma: GradedBilinearMap      # h x h -> I
    rho: tuple[GradedLinearMap, ...]    # a-indexed endomorphisms of h
    tau: tuple[GradedLinearMap, ...]    # a-indexed maps h -> I
    sigma: tuple[GradedLinearMap, ...]  # a-indexed endomorphisms of I
    inverse: tuple[dict, ...]     # column k: the (a, h, I)-coordinates of g's e_k
    split: dict                   # g's bracket in the (a, h, I) basis, as GradedBilinearMap.pairs


def extract_structure_maps(g: QuadraticLieSuperAlgebra, ideal: Sequence,
                           a_vectors: Sequence, h_vectors: Sequence) -> ExtractedMaps:
    """Split every basis bracket into its a / h / I components.

    Raises NotAnIdealSplit when a component lands outside the block structure
    forced by the ideal hypotheses ([x,u] with an a-component, nonzero [h,I]
    or [I,I], ...).
    """
    na, nh, nd = len(a_vectors), len(h_vectors), len(ideal)
    cols = [_sparse(v) for v in (*a_vectors, *h_vectors, *ideal)]
    n = g.dim
    if na + nh + nd != n:
        raise ValueError("blocks do not fill the algebra")
    m_inv = linalg.inverse(sparse_transpose(cols, n))
    if m_inv is None:
        raise ValueError("a, h and I do not form a basis")
    inv_cols = tuple(sparse_transpose(map(sparse_vec, m_inv), n))

    a_space = _block_space(g.space, cols[:na], "a")
    h_space = _block_space(g.space, cols[na:na + nh], "h")
    labels = a_space.labels + h_space.labels + p_delta_dual(a_space, g.delta).labels
    if len(set(labels)) != len(labels):
        # g's labels can clash across a, h and the dual block; a<j>, h<j> and theirs cannot
        a_space = _block_space(g.space, cols[:na], "a", reuse=False)
        h_space = _block_space(g.space, cols[na:na + nh], "h", reuse=False)
    ideal_space = _block_space(g.space, cols[na + nh:], "i")

    a_ent, lam_ent, mu_ent, h_ent, gamma_ent = [], [], [], [], []
    # rho, tau, sigma: per a-vector, the (r, c, x) entries of maps h -> h, h -> I, I -> I
    rho_ent, tau_ent, sigma_ent = ([[] for _ in range(na)] for _ in range(3))

    split = _bracket_in_basis(g.bracket, cols, inv_cols)
    # pairs with a zero bracket pass every block rule, so only nonzeros are visited
    for (p, q), z in split.items():
        ca = {k: c for k, c in z.items() if k < na}
        ch = {k - na: c for k, c in z.items() if na <= k < na + nh}
        ci = {k - na - nh: c for k, c in z.items() if k >= na + nh}
        if p < na and q < na:
            a_ent += [(p, q, k, c) for k, c in ca.items()]
            lam_ent += [(p, q, k, c) for k, c in ch.items()]
            mu_ent += [(p, q, k, c) for k, c in ci.items()]
            continue
        in_h_p = na <= p < na + nh
        in_h_q = na <= q < na + nh
        in_i_p = p >= na + nh
        in_i_q = q >= na + nh
        if (p < na and in_h_q) or (q < na and in_h_p):
            if ca:
                raise NotAnIdealSplit(Violation("split-a-h", (p, q), dense_vec(ca, na),
                                                "[a,h] has an a-component"))
            if p < na:
                rho_ent[p] += [(r, q - na, c) for r, c in ch.items()]
                tau_ent[p] += [(r, q - na, c) for r, c in ci.items()]
            continue
        if in_h_p and in_h_q:
            if ca:
                raise NotAnIdealSplit(Violation("split-h-h", (p, q), dense_vec(ca, na),
                                                "[h,h] has an a-component"))
            h_ent += [(p - na, q - na, k, c) for k, c in ch.items()]
            gamma_ent += [(p - na, q - na, k, c) for k, c in ci.items()]
            continue
        if (p < na and in_i_q) or (q < na and in_i_p):
            if ca or ch:
                raise NotAnIdealSplit(Violation("split-a-ideal", (p, q),
                                                (dense_vec(ca, na), dense_vec(ch, nh)),
                                                "[a,I] leaves the ideal"))
            if p < na:
                sigma_ent[p] += [(r, q - na - nh, c) for r, c in ci.items()]
            continue
        # remaining blocks: [h,I], [I,h], [I,I] must vanish outright
        raise NotAnIdealSplit(Violation("split-centraliser", (p, q),
                                        (dense_vec(ca, na), dense_vec(ch, nh), dense_vec(ci, nd)),
                                        "[h,I] or [I,I] is nonzero"))

    def maps_from(entries, source, target):
        return tuple(GradedLinearMap.from_entries(source, target, a_space.parity(i), e)
                     for i, e in enumerate(entries))

    try:
        return ExtractedMaps(
            a_space, h_space, ideal_space,
            SuperBracket.from_entries(a_space, a_ent),
            SuperBracket.from_entries(h_space, h_ent),
            GradedBilinearMap.from_entries(a_space, a_space, h_space, lam_ent),
            GradedBilinearMap.from_entries(a_space, a_space, ideal_space, mu_ent),
            GradedBilinearMap.from_entries(h_space, h_space, ideal_space, gamma_ent),
            maps_from(rho_ent, h_space, h_space),
            maps_from(tau_ent, h_space, ideal_space),
            maps_from(sigma_ent, ideal_space, ideal_space),
            inv_cols, split,
        )
    except SuperquadError as exc:
        raise NotAnIdealSplit(Violation("split-grading", (), None, str(exc))) from exc


@dataclass(frozen=True)
class DecompositionResult:
    a_basis: tuple[Vector, ...]
    h_basis: tuple[Vector, ...]
    ideal_basis: tuple[Vector, ...]
    maps: ExtractedMaps
    xi_delta: GradedLinearMap
    xi: GradedLinearMap
    context: DeltaContext
    extension: QuadraticLieSuperAlgebra
    isometry: GradedLinearMap


def _validate_ideal(g: QuadraticLieSuperAlgebra, ideal: list[Vector]) -> list[dict]:
    """The ideal as sparse vectors, once its hypotheses hold. The first image
    [e_p, ideal_r], in (p, r) order, to grow the ideal's span lies outside it."""
    n = g.dim
    if not ideal:
        raise ClaimViolated("ideal-empty", message="the ideal must be nonzero")
    for r, v in enumerate(ideal):
        if len(v) != n:
            raise ClaimViolated("ideal-shape", message=f"vector {r} has wrong length")
        if any(v) and g.space.vector_parity(v) is None:  # zero is homogeneous of either parity
            raise ClaimViolated("ideal-homogeneous", [Violation("ideal-homogeneous", (r,))])
    ideal = [sparse_vec(v) for v in ideal]
    grows = linalg.extend_independent([], ideal)
    if len(grows) != len(ideal):  # the first vector in the span of those before it
        r = next((r for r, k in enumerate(grows) if k != r), len(grows))
        raise ClaimViolated("ideal-independent", [Violation("ideal-independent", (r,))])
    for i, u in enumerate(ideal):
        for j, v in enumerate(ideal[i:], i):  # (j, i) repeats (i, j) up to sign
            if _pair(g.metric, u, v) != 0:
                raise ClaimViolated("ideal-isotropic", [Violation("ideal-isotropic", (i, j))])
            uv: dict = {}
            for k, a in u.items():
                add_scaled(uv, a, g.bracket.right_sparse(k, v))
            if any(uv.values()):
                raise ClaimViolated("ideal-abelian", [Violation("ideal-abelian", (i, j))])
    images = [g.bracket.right_sparse(p, v) for p in range(n) for v in ideal]
    k = next(iter(linalg.extend_independent(ideal, images)), None)
    if k is not None:
        raise ClaimViolated("ideal-invariant",
                            [Violation("ideal-invariant", divmod(k, len(ideal)), dense_vec(images[k], n))])
    return ideal


def decompose(g: QuadraticLieSuperAlgebra, ideal: Sequence[Sequence], *,
              source: DeltaContext | None = None) -> DecompositionResult:
    """Split g along an isotropic abelian ideal and certify the rebuilt extension.

    Each fact is checked once, under the claim named: the ideal hypotheses
    (``ideal-*``), the dual complement (``witt-complement``), the block rules
    of the split bracket (``split-*``), a and h (``a-superalgebra``,
    ``h-quadratic``), xi (``xi-bijective``) and sigma (``sigma-coadjoint``);
    every context axiom by validate_context inside double_extend
    (``context``); then g in the (a, h, I) basis equals the re-extension
    (``isometry-bracket``, ``isometry-metric``), so x + u + alpha ->
    x + u + xi_delta(alpha) is an isometry; last, the returned tau and gamma
    realise chi and Phi (``tau-chi``, ``gamma-phi``). The Witt pairing makes
    xi the identity, so sigma, tau and gamma are compared with ad*_delta, chi
    and Phi index for index.

    ``source`` is the context g is believed to extend, if any. A piece
    exactly equal to one of its already certified pieces is taken from it
    rather than certified again: a when its bracket equals source's, h when
    its bracket and metric equal source's, and the whole context, with its
    derived maps and its extension, when it equals source. Every claim above
    still runs, in the same order, so any source gives the same result as none.
    """
    ideal = [linalg.vec(v) for v in ideal]
    sparse_ideal = _validate_ideal(g, ideal)
    delta = g.delta

    i_perp = orthogonal_complement(sparse_ideal, g.metric)
    h_vectors = [i_perp[c] for c in linalg.extend_independent(sparse_ideal, i_perp)]

    try:
        a_vectors = witt_complement(g.metric, sparse_ideal, avoid=h_vectors)
    except (DegenerateInput, ValueError) as exc:
        raise ClaimViolated("witt-complement", message=str(exc)) from exc

    maps = extract_structure_maps(g, sparse_ideal, a_vectors, h_vectors)
    na, nh = len(a_vectors), len(h_vectors)

    try:
        if source is not None and maps.a_table == source.a.bracket:
            a_alg = source.a
        else:
            a_alg = LieSuperAlgebra(maps.a_table)
    except ValidationError as exc:
        raise ClaimViolated("a-superalgebra", exc.violations) from exc

    try:
        xi_delta, xi = build_xi(g.metric, sparse_ideal, a_vectors, delta,
                                a_space=maps.a_space, ideal_space=maps.ideal_space)
    except DegeneratePairing as exc:
        raise ClaimViolated("xi-bijective", message=str(exc)) from exc

    gram = _gram(g.metric, a_vectors + h_vectors + sparse_ideal)
    b_h = GradedBilinearForm.from_entries(maps.h_space, delta, [
        (p - na, q - na, c) for p in range(na, na + nh) for q, c in gram[p].items() if na <= q < na + nh])
    try:
        if source is not None and maps.h_table == source.h.bracket and b_h == source.h.metric:
            h_alg = source.h
        else:
            h_alg = QuadraticLieSuperAlgebra(LieSuperAlgebra(maps.h_table), b_h)
    except (ValidationError, SuperquadError) as exc:
        raise ClaimViolated("h-quadratic", message=str(exc)) from exc

    omega = GradedBilinearMap.from_entries(
        maps.a_space, maps.a_space, p_delta_dual(maps.a_space, delta), maps.mu.entries())
    context = DeltaContext(delta, a_alg, h_alg, maps.rho, maps.lam, omega)
    if context == source:
        context = source  # ad*_delta, chi, Phi and the extension are derived once, on source

    # B(I_i, a_j) = delta_ij makes xi_delta the identity: I is read as P_delta(a)*
    for i, s in enumerate(context.ad_star):
        if maps.sigma[i].sparse_columns != s.sparse_columns:
            raise ClaimViolated("sigma-coadjoint", [Violation("sigma-coadjoint", (i,))])

    try:
        ext = context.extension
    except InvalidContext as exc:
        raise ClaimViolated("context", exc.violations) from exc

    # isometry x + u + alpha -> x + u + xi_delta(alpha): with the identity
    # pairing, its matrix in the split basis is the identity, so the claim is
    # that g's structure constants and metric in the (a, h, I) basis equal the
    # extension's exactly.
    ext_pairs = ext.bracket.pairs
    for p, q in sorted(maps.split.keys() | ext_pairs.keys()):
        w = maps.split.get((p, q), EMPTY)
        if w != ext_pairs.get((p, q), EMPTY):
            res = dict(w)
            add_scaled(res, -1, ext_pairs.get((p, q), EMPTY))
            raise ClaimViolated("isometry-bracket",
                                [Violation("isometry-bracket", (p, q), dense_vec(res, g.dim))])
    ext_rows = ext.metric.sparse_rows
    for p, row in enumerate(gram):
        if row != ext_rows[p]:
            q = min(q for q in row.keys() | ext_rows[p].keys()
                    if row.get(q, ZERO) != ext_rows[p].get(q, ZERO))
            raise ClaimViolated("isometry-metric", [Violation("isometry-metric", (p, q))])

    # the returned tau and gamma are chi and Phi
    chi = context.chi
    for i in range(na):
        for m, col in enumerate(maps.tau[i].sparse_columns):
            if col != chi.pairs.get((i, m), EMPTY):
                raise ClaimViolated("tau-chi", [Violation("tau-chi", (i, m))])
    phi = context.phi
    gamma_pairs = maps.gamma.pairs
    for m, l in sorted(gamma_pairs.keys() | phi.pairs.keys()):
        if gamma_pairs.get((m, l), EMPTY) != phi.pairs.get((m, l), EMPTY):
            raise ClaimViolated("gamma-phi", [Violation("gamma-phi", (m, l))])

    isometry = GradedLinearMap.from_entries(g.space, ext.space, 0, (
        (r, c, x) for c, col in enumerate(maps.inverse) for r, x in col.items()))
    return DecompositionResult(
        tuple(dense_vec(v, g.dim) for v in a_vectors), tuple(dense_vec(v, g.dim) for v in h_vectors),
        tuple(ideal), maps, xi_delta, xi, context, ext, isometry,
    )
