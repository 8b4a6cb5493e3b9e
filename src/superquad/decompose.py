"""Splitting a quadratic Lie superalgebra along an isotropic abelian ideal.

Given g with invariant metric B of degree delta and an abelian isotropic
ideal I, ``decompose`` checks I (``split_step`` finds a central line, which
needs no check), then searches: it computes I-perp, picks a complement h of
I in I-perp (non-degenerate, as the radical of B restricted to I-perp is I)
and a Witt-style isotropic complement a dual to I. ``certify_split``, which
searches for nothing, changes basis once to (a, h, I), extracts all
structure maps of the split bracket, reconstructs a double-extension
context and certifies what the search assembled by the isometry onto its
extension, pairings first. Only the re-extension is scanned, sparse in the
split basis where g may be dense: g, a, h and the context are certified by
transport through the isometry, and the Witt pairing fixes xi
(``certify_split`` names the one check behind each fact). A split in g's
own basis, as ``roundtrip``'s, reads g's own tables, with no change of
basis. Every step is deterministic: linear solves take first pivots in
canonical basis order.

Every set of vectors is one integer view ``(d, vectors)``: sparse int
vectors ``{index: n}``, the rational vectors times d, d the lcm of their
denominators, in lowest terms, the form ``linalg.nullspace_ints`` returns.
The view is canonical, so two views are equal exactly when their rational
vectors are. The steps take and return views; only ``decompose`` takes the
ideal as rational vectors, dense or sparse dicts ``{index: coefficient}``,
and ``_validate_ideal`` makes them a view, once (``_view``). The pairings,
the centre, the dual solves and the ideal's images run on these views, the
metric's ``scaled_rows`` and the bracket's ``scaled_pairs``. Each sum is
then one positive constant times the rational one, so it is zero exactly
when the rational sum is, and a returned coefficient or a residual is
divided back once; no step here sums ``Fraction``s. ``DecompositionResult``
keeps the views of a, h and I, the context and the isometry, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from . import extension, linalg
from .algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    _admit,
    certify_isometry,
    pack,
    slot_width,
    unpack,
)
from .errors import ClaimViolated, DegenerateInput, DegeneratePairing, SuperquadError, Violation
from .extension import DeltaContext
from .linalg import Vector
from .spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    add_scaled,
    common_scale,
    drop_zeros,
    dual_space,
    normalize,
    p_delta_dual,
    sparse_transpose,
)


def _view(vectors) -> tuple[int, tuple[dict, ...]]:
    """Rational vectors, each dense or a sparse dict, as one integer view
    ``(d, vectors)`` (``normalize``: floats and bools raise TypeError)."""
    vectors = list(vectors)
    d, table = normalize(((r, k, c) for r, v in enumerate(vectors) for k, c in linalg._items(v)), None, "vector")
    out = tuple({} for _ in vectors)
    for (r, k), c in table.items():
        out[r][k] = c
    return d, out


def _join(*views) -> tuple[int, tuple[dict, ...]]:
    """The views' vectors one after another, as one view (``common_scale``)."""
    d, blocks = common_scale(views)
    return d, tuple(v for vs in blocks for v in vs)


def _covector(rows, u: dict) -> dict:
    """sum_i u_i rows[i] for integer rows and an integer vector u; zeros may remain."""
    out: dict = {}
    for i, a in u.items():
        add_scaled(out, a, rows[i])
    return out


def _gram(form: GradedBilinearForm, us: Sequence[dict], vs: Sequence[dict]) -> list[dict]:
    """Rows {q: B(us[p], vs[q])} of the Gram matrix of integer sparse vectors
    on the metric's integer view: d_B times the scales of us and vs times the
    rational Gram. Columns in order, no zeros."""
    rows = form.scaled_rows[1]
    by_coord = sparse_transpose(vs, form.space.dim)  # j -> {q: coordinate j of vs[q]}
    out = []
    for u in us:
        row: dict = {}
        for j, b in _covector(rows, u).items():
            if b:
                add_scaled(row, b, by_coord[j])
        out.append({q: row[q] for q in sorted(row) if row[q]})
    return out


def _right(pairs: dict, i: int, v: dict) -> dict:
    """[e_i, v] on an integer view of the bracket, for an integer vector v; zeros may remain."""
    out: dict = {}
    for j, c in v.items():
        w = pairs.get((i, j))
        if w:
            add_scaled(out, c, w)
    return out


def orthogonal_complement(vectors: tuple, form: GradedBilinearForm) -> tuple[int, tuple[dict, ...]]:
    """Homogeneous basis of {v : B(s, v) = 0 for all s in the span of the
    view}: the canonical nullspace basis, as a view. The rows c -> B(s, e_c)
    are integer covectors, each a positive multiple of the rational one,
    which leaves the nullspace and its canonical basis as they are."""
    rows = form.scaled_rows[1]
    d, basis = linalg.nullspace_ints([_covector(rows, s) for s in vectors[1]], form.space.dim)
    if any(_parity(form.space, v) is None for v in basis):
        raise SuperquadError("orthogonal complement produced a non-homogeneous vector")
    return d, basis


def _parity(space: SuperSpace, v: dict) -> int | None:
    """Parity of a homogeneous sparse vector, None if it has entries of both
    parities; zero is homogeneous of either parity and reads as even."""
    seen = {space.parity(i) for i in v}
    return None if len(seen) > 1 else min(seen, default=0)


def _first_dependent(vectors: Sequence[dict]) -> int | None:
    """Index of the first vector in the span of those before it, None if
    the vectors are independent."""
    grows = linalg.extend_independent([], vectors)
    if len(grows) == len(vectors):
        return None
    return next((r for r, k in enumerate(grows) if k != r), len(grows))


def find_central_minimal_ideal(g: QuadraticLieSuperAlgebra) -> tuple[int, tuple[dict, ...]] | str:
    """A 1-dimensional homogeneous isotropic subspace of the center as an
    integer view, or the stop that says why there is none.

    Any subspace of the center is an ideal and 1-dimensional ideals are
    minimal. The center is [g,g]^perp, B being invariant and non-degenerate:
    B([x,y],z) = B(x,[y,z]) vanishes for all x, y exactly when z is central.
    So one forward elimination picks a basis of the span of the bracket
    values [e_i, e_j], i <= j, from the bracket's integer view, and the
    center is its ``orthogonal_complement``, which has the kernel of the
    centraliser system [x, e_j] = 0, so the same canonical nullspace basis.
    One integer Gram of its vectors picks the line: the first with
    B(z, z) = 0, else the first canonical vector of the radical of B on the
    center, its meet with [g,g]. The stops: ``perfect: centre is zero``,
    and ``central summand`` when B is non-degenerate on the center.
    """
    values = [v for (i, j), v in g.bracket.scaled_pairs[1].items() if i <= j]
    d, center = orthogonal_complement((1, [values[k] for k in linalg.extend_independent([], values)]), g.metric)
    if not center:
        return "perfect: centre is zero"
    gram = _gram(g.metric, center, center)
    line = next((v for i, (v, row) in enumerate(zip(center, gram)) if i not in row), None)
    if line is None:
        d_r, radical = linalg.nullspace_ints(gram, len(center))
        if not radical:
            return "central summand"
        d, line = d * d_r, _covector(center, radical[0])
    return linalg.lowest_terms(d, [{k: line[k] for k in sorted(line) if line[k]}])


def _dual_vectors(form: GradedBilinearForm, ideal: tuple, avoid: tuple) -> tuple[int, tuple[dict, ...]]:
    """Solve B(e_m, d_i) = delta_mi with d_i in the right parity block,
    orthogonal to every avoid vector; first-pivot, free coordinates zero.
    The duals come back as one integer view (d, duals). Row m of the system
    is an integer covector, d_B d_e times the rational one, so its
    right-hand side is d_B d_e delta_mi. The duals of one parity share the
    system's matrix, so each parity class is one elimination with all of
    its right-hand sides (``solve_many_ints``)."""
    space = form.space
    d_b, metric_rows = form.scaled_rows
    d_e, e_ints = ideal
    rows = [_covector(metric_rows, e) for e in e_ints]        # row m: c -> B(e_m, e_c)
    rows += [_covector(metric_rows, w) for w in avoid[1]]
    by_parity: dict = {}  # the parity of d_i -> the i, all with one system matrix
    for i, e in enumerate(e_ints):
        by_parity.setdefault((_parity(space, e) + form.degree) % 2, []).append(i)
    duals: list = [None] * len(e_ints)
    for want, members in by_parity.items():
        cols = [c for c in range(space.dim) if space.parity(c) == want]
        pos = {c: t for t, c in enumerate(cols)}
        sys_rows = [{pos[c]: x for c, x in r.items() if c in pos} for r in rows]
        solved = linalg.solve_many_ints(sys_rows, [{i: d_b * d_e} for i in members], len(cols))
        for i, sol in zip(members, solved):
            if sol is not None:
                duals[i] = (sol[0], {cols[t]: x for t, x in sol[1].items()})
    if None in duals:
        raise DegenerateInput(f"no dual vector for ideal vector {duals.index(None)}")
    d = math.lcm(*(s for s, _ in duals))
    return d, tuple({c: x * (d // s) for c, x in v.items()} for s, v in duals)


def witt_complement(form: GradedBilinearForm, ideal: tuple,
                    avoid: tuple = (1, ())) -> tuple[int, tuple[dict, ...]]:
    """Isotropic complement a dual to an isotropic subspace I, views both.

    Precondition, not checked here: B is non-degenerate, I passed
    ``_validate_ideal`` (homogeneous, independent, isotropic) and ``avoid``
    extends I's basis to one of I-perp. Then the nonzero rows of each parity
    block of the dual system are covectors of distinct basis vectors of
    I-perp, so they are independent and every dual exists.

    Output a satisfies: a isotropic, dim a = dim I, a and I intersect
    trivially, a + I non-degenerate, and B(I_i, a_j) = delta_ij (for odd B
    this is the same as the pairing with the arguments swapped); with I
    independent, the first and the last imply the rest. Vectors in
    ``avoid`` are treated as the chosen metric complement h: all duals are
    produced orthogonal to them. a is assembled, not certified:
    ``certify_split`` certifies it by the isometry.

    Odd B follows the dual-vector-plus-correction recipe: duals of even
    I-vectors are corrected by odd I-vectors, duals of odd I-vectors need no
    correction. Even B applies the analogous per-parity correction with a
    half coefficient (characteristic zero). With the duals d_i = D_i / s and
    I_m = E_m / t on integers, a_i times S = f d_B s^2 t is the integer
    vector f d_B s t D_i - sum_m G_im E_m, G the integer Gram of the D's
    and f = 2 for even B (the half), 1 for odd B.
    """
    d_e, e = ideal
    s, duals = _dual_vectors(form, ideal, avoid)
    parities = [_parity(form.space, v) for v in e]
    d_b = form.scaled_rows[0]
    f = 1 if form.degree == 1 else 2
    lead = f * d_b * s * d_e
    out = []
    for i, row in enumerate(_gram(form, duals, duals)):
        corr = {k: lead * x for k, x in duals[i].items()}
        for m, c in row.items():
            if form.degree == 1 and (parities[i], parities[m]) != (0, 1):
                continue
            add_scaled(corr, -c, e[m])
        out.append(drop_zeros(corr))
    return linalg.lowest_terms(f * d_b * s * s * d_e, out)


def build_xi(form: GradedBilinearForm, ideal: tuple, a_vectors: tuple,
             delta: int, a_space: SuperSpace | None = None,
             ideal_space: SuperSpace | None = None) -> tuple[GradedLinearMap, GradedLinearMap]:
    """The bijections xi_delta: I -> P_delta(a)* and xi: I -> a*.

    xi_delta(alpha)(P_delta(x)) = B(alpha, x); xi has the same matrix into a*
    with degree delta, and the target-side parity shift of xi is xi_delta.
    The pairing is one integer Gram of the views, whose entries are the
    maps' integer entries.
    """
    space = form.space
    if a_space is None:
        a_space = _block_space(space, a_vectors, "a", reuse=False)
    if ideal_space is None:
        ideal_space = _block_space(space, ideal, "i", reuse=False)
    (d_e, e), (d_a, a_ints) = ideal, a_vectors
    pairing = _gram(form, e, a_ints)  # row m: {j: B(alpha_m, x_j)} on the views
    if linalg.rank(pairing, len(a_ints)) != len(e):
        raise DegeneratePairing("pairing between the ideal and its complement is singular")
    scale = form.scaled_rows[0] * d_e * d_a
    table = {(j, m): c for m, row in enumerate(pairing) for j, c in row.items()}
    xi_delta = GradedLinearMap.from_ints(ideal_space, p_delta_dual(a_space, delta), 0, scale, table)
    xi = GradedLinearMap.from_ints(ideal_space, dual_space(a_space), delta, scale, table)
    return xi_delta, xi


def _top(vectors) -> int:
    """The largest absolute value of a coordinate of the sparse vectors."""
    return max(map(abs, chain.from_iterable(map(dict.values, vectors))))


def _bracket_in_basis(bracket: GradedBilinearMap, cols: tuple, inv: tuple) -> tuple[int, dict]:
    """Structure constants in the basis of the columns of the integer view
    ``cols``, with ``inv`` the integer view of the columns of the inverse of
    the matrix whose columns are those of ``cols``, as an integer view
    (scale, {(p, q): {k: n}}): no zeros, keys in row-major order.

    The sums run on integers: the bracket's integer state (scale d_b), and
    the views of the columns and of the inverse, at scales d_c and d_i.
    Every coefficient of [c_p, c_q] in the new basis is then
    scale = d_b * d_c**2 * d_i times its rational value. Each is a sum of
    packed vectors (``pack``): the inverse is applied to each value
    [e_i, e_j] once, then the columns, c_p on the left and c_q on the
    right, and only the nonzero slots are unpacked (``unpack``). A
    coefficient is at most A^2 V I in absolute value, with A the most
    nonzeros of a column times its largest entry, V the same of a value
    and I the largest entry of the inverse (A and V bound the sums of
    absolute entries), so slots of width ``slot_width(A^2 V, I)`` plus the
    sign bit keep every sum exact."""
    (d_c, int_cols), (d_i, inv_cols) = cols, inv
    d_b, pairs = bracket.scaled_pairs
    scale = d_b * d_c * d_c * d_i
    if not pairs:
        return scale, {}
    col_sum = max(map(len, int_cols)) * _top(int_cols)
    w = 1 + slot_width(col_sum * col_sum * max(map(len, pairs.values())) * _top(pairs.values()), _top(inv_cols))
    # a unit column, as every column is on the split of an extension along its dual block, is one shift
    packed_inv = [c << (w * k) if len(v) == 1 else pack(v, w) for v in inv_cols for k, c in [next(iter(v.items()))]]
    by_left: dict = {}  # i -> [(j, the new coordinates of [e_i, e_j], packed)]
    for (i, j), v in pairs.items():
        x = 0
        for m, c in v.items():
            x += c * packed_inv[m]
        by_left.setdefault(i, []).append((j, x))
    by_coord = sparse_transpose(int_cols, len(int_cols))  # j -> {q: coordinate j of c_q}
    out = {}
    for p, u in enumerate(int_cols):
        left: dict = {}  # j -> [c_p, e_j], packed
        for i, a in u.items():
            for j, x in by_left.get(i, ()):
                left[j] = left.get(j, 0) + a * x
        acc: dict = {}  # q -> [c_p, c_q], packed
        for j, x in left.items():
            if x:
                for q, b in by_coord[j].items():
                    acc[q] = acc.get(q, 0) + b * x
        for q in sorted(acc):
            if acc[q]:
                out[(p, q)] = unpack(acc[q], w)
    return scale, out


def _metric_in_basis(form: GradedBilinearForm, cols: tuple) -> tuple[int, list[dict]]:
    """Rows {q: B(cols[p], cols[q])} of the view's vectors, columns in
    order, no zeros, as one integer Gram at scale d_B d_c^2."""
    d, ints = cols
    return form.scaled_rows[0] * d * d, _gram(form, ints, ints)


def _unit_index(v: dict, d: int) -> int | None:
    """k if the vector v of a view at scale d is e_k."""
    if len(v) == 1:
        ((k, c),) = v.items()
        if c == d:
            return k
    return None


def _block_space(g_space: SuperSpace, view: tuple, prefix: str,
                 reuse: bool = True) -> SuperSpace:
    """With reuse on, labels reuse g's labels where the view's vectors are
    unit vectors; the others, or all of them if a label repeats, are prefix + index."""
    d, vectors = view
    labels = []
    for j, v in enumerate(vectors):
        u = _unit_index(v, d) if reuse else None
        labels.append(g_space.label(u) if u is not None else f"{prefix}{j}")
    if len(set(labels)) != len(labels):
        labels = [f"{prefix}{j}" for j in range(len(vectors))]
    return SuperSpace(tuple((lab, _parity(g_space, v))
                            for lab, v in zip(labels, vectors)))


@dataclass(frozen=True)
class ExtractedMaps:
    """Components of the bracket along g = a + h + I."""

    a_table: SuperBracket
    h_table: SuperBracket
    lam: GradedBilinearMap        # a x a -> h
    omega: GradedBilinearMap      # a x a -> P_delta(a)*, read off the I-components
    rho: tuple[GradedLinearMap, ...]    # a-indexed endomorphisms of h
    inverse: tuple                # integer view (d, columns), column k the (a, h, I)-coordinates of g's e_k
    split: tuple                  # g's bracket in the (a, h, I) basis, as an integer view (d, pairs)


def extract_structure_maps(g: QuadraticLieSuperAlgebra, ideal: tuple,
                           a_vectors: tuple, h_vectors: tuple) -> ExtractedMaps:
    """Split every basis bracket into its a / h / I components and send each
    to its map: on [a,a], the a-component to a's table, the h-component to
    lambda and the I-component to omega on P_delta(a)*, as B(I_i, a_j) =
    delta_ij makes xi_delta the identity; the h-component of [a,h] to rho and
    of [h,h] to h's table. The other components, the I-components of [a,h],
    [a,I] and [h,h] among them, are kept only in ``split``.

    In g's own basis, e_0, ..., e_{n-1} in order at scale 1, the split is
    g's own tables. It is assembled, not certified, once it is a
    homogeneous basis (``split-homogeneous``, ``split-basis``):
    ``certify_split`` certifies it by the isometry, which compares every
    component of ``split`` with the re-extension's, those no map reads
    included.
    """
    na, nh = len(a_vectors[1]), len(h_vectors[1])
    d_c, int_cols = cols = _join(a_vectors, h_vectors, ideal)
    if len(int_cols) != g.dim:
        raise ClaimViolated("split-basis", message=f"a + h + I has {len(int_cols)} vectors, dim g is {g.dim}")
    if d_c == 1 and all(_unit_index(v, 1) == k for k, v in enumerate(int_cols)):  # the inverse is the identity
        inverse, split = cols, g.bracket.scaled_pairs
    else:
        r = next((r for r, v in enumerate(int_cols) if _parity(g.space, v) is None), None)
        if r is not None:
            raise ClaimViolated("split-homogeneous", [Violation("split-homogeneous", (r,))])
        # the rows of the inverse of the matrix whose rows are the integer columns
        # are the columns of the inverse of the change of basis divided by d_c
        inv = linalg.inverse_ints(int_cols)
        if inv is None:
            raise ClaimViolated("split-basis", [Violation("split-basis", (_first_dependent(int_cols),))])
        inverse = linalg.lowest_terms(inv[0], ({k: d_c * x for k, x in v.items()} for v in inv[1]))
        split = _bracket_in_basis(g.bracket, cols, inverse)

    for reuse in (True, False):
        # g's labels can clash across a, h and the dual block; a<j>, h<j> and theirs cannot
        a_space = _block_space(g.space, a_vectors, "a", reuse)
        h_space = _block_space(g.space, h_vectors, "h", reuse)
        dual = p_delta_dual(a_space, g.delta)
        labels = a_space.labels + h_space.labels + dual.labels
        if len(set(labels)) == len(labels):
            break

    # the integer tables, at the split's scale, of the blocks; rho: per
    # a-vector, the {(r, c): n} of a map h -> h
    a_ent, lam_ent, omega_ent, h_ent = {}, {}, {}, {}
    rho_ent = [{} for _ in range(na)]
    for (p, q), z in split[1].items():
        if p < na and q < na:
            for k, c in z.items():
                if k < na:
                    a_ent[p, q, k] = c
                elif k < na + nh:
                    lam_ent[p, q, k - na] = c
                else:
                    omega_ent[p, q, k - na - nh] = c
        elif p < na + nh and na <= q < na + nh:
            h_comp = {k - na: c for k, c in z.items() if na <= k < na + nh}
            if p < na:
                rho_ent[p].update(((r, q - na), c) for r, c in h_comp.items())
            else:
                h_ent.update(((p - na, q - na, k), c) for k, c in h_comp.items())

    scale = split[0]
    return ExtractedMaps(
        SuperBracket.from_ints(a_space, scale, a_ent),
        SuperBracket.from_ints(h_space, scale, h_ent),
        GradedBilinearMap.from_ints(a_space, a_space, h_space, scale, lam_ent),
        GradedBilinearMap.from_ints(a_space, a_space, dual, scale, omega_ent),
        tuple(GradedLinearMap.from_ints(h_space, h_space, a_space.parity(i), scale, t)
              for i, t in enumerate(rho_ent)),
        inverse, split,
    )


@dataclass(frozen=True)
class DecompositionResult:
    """The split g = a + h + I and its certificate: the context, whose
    ``extension`` is the re-extension, and the isometry of g onto it. a, h
    and I are kept as the integer views ``(d, vectors)`` the split was built
    from; ``a_basis``, ``h_basis`` and ``ideal_basis`` are their dense bases,
    built when read."""

    a_view: tuple
    h_view: tuple
    ideal_view: tuple
    context: DeltaContext
    isometry: GradedLinearMap

    def _dense(self, view) -> tuple[Vector, ...]:
        d, vectors = view
        return tuple(linalg._dense(d, v, self.isometry.source.dim) for v in vectors)

    a_basis = property(lambda self: self._dense(self.a_view))
    h_basis = property(lambda self: self._dense(self.h_view))
    ideal_basis = property(lambda self: self._dense(self.ideal_view))


def _validate_ideal(g: QuadraticLieSuperAlgebra, ideal: Sequence) -> tuple[int, tuple[dict, ...]]:
    """The ideal as one integer view (``_view``), once its hypotheses hold;
    each vector is dense, of length dim, or a sparse dict with indices in
    range(dim). The pairings and brackets are read on the integer views: the
    isotropy check from one integer Gram, the abelian check and the images
    [e_p, ideal_r] from the bracket's ``scaled_pairs``, a positive multiple
    of each exact image, which keeps its span. The first image, in (p, r)
    order, to grow the ideal's span lies outside it; its witness residual is
    the exact image, divided back once."""
    n = g.dim
    ideal = list(ideal)
    d_e, e = _view(ideal)
    if not ideal:
        raise ClaimViolated("ideal-empty", message="the ideal must be nonzero")
    for r, (v, s) in enumerate(zip(ideal, e)):
        if hasattr(v, "items"):
            if any(k not in range(n) for k in v):
                raise ClaimViolated("ideal-shape", message=f"vector {r} has an index outside range({n})")
        elif len(v) != n:
            raise ClaimViolated("ideal-shape", message=f"vector {r} has wrong length")
        if _parity(g.space, s) is None:
            raise ClaimViolated("ideal-homogeneous", [Violation("ideal-homogeneous", (r,))])
    r = _first_dependent(e)
    if r is not None:
        raise ClaimViolated("ideal-independent", [Violation("ideal-independent", (r,))])
    d_b, pairs = g.bracket.scaled_pairs
    images = [_right(pairs, p, v) for p in range(n) for v in e]  # [e_p, ideal_r] at p * len(e) + r
    gram = _gram(g.metric, e, e)
    for i, u in enumerate(e):
        for j in range(i, len(e)):  # (j, i) repeats (i, j) up to sign
            if j in gram[i]:
                raise ClaimViolated("ideal-isotropic", [Violation("ideal-isotropic", (i, j))])
            uv: dict = {}
            for k, a in u.items():
                add_scaled(uv, a, images[k * len(e) + j])
            if any(uv.values()):
                raise ClaimViolated("ideal-abelian", [Violation("ideal-abelian", (i, j))])
    k = next(iter(linalg.extend_independent(e, images)), None)
    if k is not None:
        raise ClaimViolated("ideal-invariant",
                            [Violation("ideal-invariant", divmod(k, len(e)), linalg._dense(d_b * d_e, images[k], n))])
    return d_e, e


def _split(g: QuadraticLieSuperAlgebra, ideal: tuple) -> DecompositionResult:
    """The search, which checks nothing: h extends I's basis within I-perp's
    canonical one, and a is the Witt complement orthogonal to h."""
    d_p, i_perp = orthogonal_complement(ideal, g.metric)
    h_vectors = linalg.lowest_terms(d_p, [i_perp[k] for k in linalg.extend_independent(ideal[1], i_perp)])
    a_vectors = witt_complement(g.metric, ideal, avoid=h_vectors)
    return certify_split(g, ideal, a_vectors, h_vectors)


def decompose(g: QuadraticLieSuperAlgebra, ideal: Sequence) -> DecompositionResult:
    """Split g along an isotropic abelian ideal, each vector dense or a sparse
    dict, and certify the split (``certify_split``). The ideal's hypotheses
    are checked first (``ideal-*``), to name the caller's mistake before the
    search (``_split``), which assumes them."""
    return _split(g, _validate_ideal(g, ideal))


def split_step(g: QuadraticLieSuperAlgebra) -> DecompositionResult | str:
    """The structure theorem's step: g split along the isotropic central line
    ``find_central_minimal_ideal`` finds, or the stop it names. The line meets
    the ideal's hypotheses by construction, and ``certify_split`` certifies
    the split whatever the line, so it skips ``_validate_ideal``."""
    line = find_central_minimal_ideal(g)
    return line if isinstance(line, str) else _split(g, line)


def certify_split(g: QuadraticLieSuperAlgebra, ideal_view: tuple, a_view: tuple,
                  h_view: tuple) -> DecompositionResult:
    """Certify the split g = a + h + I of three integer views, searching for nothing.

    Each view is brought to lowest terms on entry, so the result compares
    equal to ``decompose``'s at any scale of the views.

    It refuses only under dim a = dim I (``a-superalgebra``), which keeps
    omega's slots in range, a vector of a + h + I that is not homogeneous
    (``split-homogeneous``) or is in the span of those before it
    (``split-basis``), its index the witness, or a + h + I of other than
    dim g vectors (``split-basis``), and the isometry x + u + alpha
    -> x + u + xi_delta(alpha), pairings first: g's Gram in the (a, h, I)
    basis equals the context's ``extension_metric`` (``isometry-metric``)
    before chi and Phi are derived, then g's bracket there equals its
    ``extension_bracket`` (``isometry-bracket``), and the re-extension keeps
    both; the returned ``isometry`` has degree 0, so it joins only basis
    vectors of one parity. It sends I onto the dual block, an isotropic
    abelian ideal, so I needs no ideal claim. The split is assembled, not
    certified: the isometry compares a's pairings with a, h and I and every
    entry of the split, so B(I_i, a_j) = delta_ij makes xi_delta and xi the
    identity, and the I-components of [a,I], [a,h] and [h,h] are ad*_delta,
    chi and Phi. Only the re-extension is scanned, by its checking
    constructors, once the isometry passes: its tables are g's in an even
    invertible change of basis, so its certificate is g's, and g may have
    no record, as the ``decompose`` command reads it. A g that fails an
    axiom then fails the isometry, a step before it, or the re-extension's
    scans, whose witness is in the split basis, not g's. a and h are
    admitted by transport from it (``_admit``, record ``("split", ext)``),
    and so is the context, each axiom a block of the re-extension's
    grading, super skew, Jacobi or invariance identities; its
    ``extension`` is the re-extension. When g's record is
    ``("context", ctx)`` and the recovered context equals ctx, ctx is
    returned, with its derived maps, and its extension is the one compared
    with: every claim still runs, against an algebra already certified.
    """
    ideal_view, a_view, h_view = (linalg.lowest_terms(*v) for v in (ideal_view, a_view, h_view))
    na, nh, nd = len(a_view[1]), len(h_view[1]), len(ideal_view[1])
    if na != nd:  # before omega is read off on P_delta(a)*, which has dim a slots
        raise ClaimViolated("a-superalgebra", message=f"dim a is {na}, dim I is {nd}")
    maps = extract_structure_maps(g, ideal_view, a_view, h_view)
    gram = _metric_in_basis(g.metric, _join(a_view, h_view, ideal_view))
    b_h = GradedBilinearForm.from_ints(maps.h_table.space, g.delta, gram[0], {
        (p - na, q - na): c for p in range(na, na + nh) for q, c in gram[1][p].items() if na <= q < na + nh})
    # a and h are read with no record, to build the re-extension; the result's are admitted after its scans
    context = DeltaContext(g.delta, _admit(None, maps.a_table), _admit(None, maps.h_table, b_h),
                           maps.rho, maps.lam, maps.omega)
    held = g.proof[1] if g.proof and g.proof[0] == "context" else None
    ext = None
    if context == held:  # ad*_delta, chi, Phi and the extension are derived once, on held
        context, ext = held, held.extension

    # the pairings first: once they agree, B(a, h) = B(I, h) = 0, so when g
    # is invariant each rho(x) is skew for B_h and derive_phi cannot refuse
    metric = ext.metric if ext else extension.extension_metric(context)
    v = certify_isometry((1, {}), gram, (1, {}), metric.scaled_rows)
    if v is None:
        # x + u + alpha -> x + u + xi_delta(alpha) is the identity in the split
        # basis, the pairing being the identity: g's tables there must be the extension's
        bracket = ext.bracket if ext else extension.extension_bracket(context)
        v = certify_isometry(maps.split, gram, bracket.scaled_pairs, metric.scaled_rows)
    if v is not None:
        raise ClaimViolated(v.equation, [v])
    if ext is None:  # the re-extension's scans certify g, which is isometric to it, and a and h by transport
        ext = QuadraticLieSuperAlgebra(LieSuperAlgebra(bracket), metric)
        context = DeltaContext(g.delta, _admit(("split", ext), maps.a_table),
                               _admit(("split", ext), maps.h_table, b_h), maps.rho, maps.lam, maps.omega)
        vars(context)["extension"] = ext

    d_inv, inverse = maps.inverse
    isometry = GradedLinearMap.from_ints(g.space, ext.space, 0, d_inv, {
        (r, c): x for c, col in enumerate(inverse) for r, x in col.items()})
    return DecompositionResult(a_view, h_view, ideal_view, context, isometry)
