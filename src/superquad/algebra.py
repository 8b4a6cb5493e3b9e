"""Lie superalgebra structures and their verification predicates.

Structure constants are stored by their nonzeros, per ordered pair of basis
indices (see ``GradedBilinearMap``); both (i,j) and (j,i) are stored and the
super skew relation between them is validated, never assumed. Constructors
reject anything failing grading, super skew-symmetry or the Jacobi super
identity, and every predicate returns its first witness on failure:
verification is part of the user-facing surface.

Checks run on basis tuples only; bilinearity extends them to arbitrary
vectors, so basis exhaustiveness is completeness. The scans walk the nonzero
structure constants and skip only tuples on which every term of the identity
vanishes, so the first witness is the one an exhaustive scan in the same
order would find, and a residual is reported as a dense tuple. The Jacobi
and invariance scans add whole vectors at once: each integer vector is
packed into one int (``pack``), with slots wide enough for the sums they
hold, so a packed sum is zero exactly when every coordinate is. Their sums
are keyed by integer indices, never by a tuple built per step: the Jacobi
scan by one int per sorted triple, (i n + j) n + k, the invariance scan by
one dict per index. The least failing tuple is the witness, and only its
residual is computed coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import ValidationError, Violation
from .spaces import (
    EMPTY,
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    add_scaled,
    apply_p_delta,
    check_form_degree,
    common_scale,
    drop_zeros,
    dual_space,
    sparse_transpose,
)


class SuperBracket(GradedBilinearMap):
    """Bracket on a super-space: ``scaled_pairs`` holds the nonzero coordinates of each [e_i, e_j].

    An even bilinear map of the space into itself. Its axioms are the map's
    own checks under their bracket names: check_even("grading", "bracket")
    and check_super_skew("super-skew").
    """

    __slots__ = ()

    def __init__(self, space: SuperSpace, table):
        super().__init__(space, space, space, table)

    @property
    def space(self) -> SuperSpace:
        return self.target

    @classmethod
    def zero(cls, space: SuperSpace) -> "SuperBracket":
        return cls._build(space, space, space, ())

    @classmethod
    def from_entries(cls, space: SuperSpace, entries) -> "SuperBracket":
        """entries: iterable of structure constants (i, j, k, c) meaning
        [e_i, e_j] has coefficient c on e_k. Both (i,j) and (j,i) rows are
        expected in the input; nothing is symmetrised."""
        return cls._build(space, space, space, entries)

    @classmethod
    def from_ints(cls, space: SuperSpace, d: int, table: dict) -> "SuperBracket":
        return cls._build(space, space, space, table, d)


def cyclic_residual(parities: Sequence[int], i: int, j: int, k: int, piece) -> dict:
    """Super-cyclic sum of (-1)^{|x||z|} piece(x, y, z) over the shifts of (i, j, k).

    Jacobi has this shape, with piece [x,[y,z]], and so has each cocycle
    condition of the construction, a block of its extension's Jacobi
    identity. Pieces and the sum are sparse vectors; the sum holds no zeros.
    """
    total: dict = {}
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        add_scaled(total, -1 if parities[x] * parities[z] else 1, piece(x, y, z))
    return drop_zeros(total)


def slot_width(terms: int, bound: int) -> int:
    """Bits per slot of a packed sum of at most ``terms`` products, each at
    most ``bound`` in absolute value: every slot then stays below 2**w in
    absolute value, which is what ``pack`` needs to be exact."""
    return (terms * bound).bit_length()


def pack(v, w: int) -> int:
    """The int vector v as one int, coordinate k in the bit slot w*k
    (Kronecker substitution): sum of v[k] * 2**(w*k).

    Packing is linear, so a sum of packed vectors is the packed sum. When
    every coordinate of that sum is below 2**w in absolute value, the int is
    0 exactly when every coordinate is, and its lowest set bit lies in the
    slot of the first nonzero coordinate (``lowest_slot``): the slots below
    add nothing, and the ones above are multiples of 2**(w*(k+1))."""
    return sum(c << (w * k) for k, c in v.items())


def lowest_slot(p: int, w: int) -> int:
    """The first nonzero coordinate of a nonzero packed sum (see ``pack``)."""
    return ((p & -p).bit_length() - 1) // w


def unpack(p: int, w: int) -> dict:
    """The int vector packed in p (``pack``), nonzeros only, indices in
    order, when every coordinate is below 2**(w-1) in absolute value, one
    bit less than ``pack`` needs: then the low w bits of p, read as a signed
    int, are slot 0, and p minus them is the packed rest. Zero slots are
    skipped by ``lowest_slot``, so only the nonzero ones are read."""
    out: dict = {}
    mask, half, k = (1 << w) - 1, 1 << (w - 1), 0
    while p:
        skip = ((p & -p).bit_length() - 1) // w  # lowest_slot(p, w), inlined
        p >>= w * skip
        k += skip
        c = p & mask
        if c >= half:
            c -= 1 << w
        out[k] = c
        p = (p - c) >> w
        k += 1
    return out


def cyclic_failures(par: Sequence[int], pairs: dict) -> set:
    """The sorted triples i <= j <= k at which the Jacobi super identity of
    the integer table ``pairs`` (an index pair to a sparse vector) fails:
    the ``cyclic_residual`` of the piece [e_x, [e_y, e_z]], the sum over m of
    pairs[y, z]_m pairs[x, m], is nonzero.

    The table must be super skew on the space with parities par. Then the
    sum for a transposed triple is a sign multiple of the sum for the
    triple, and the three shifts have equal sums, so an ordered triple fails
    exactly when its sorted one does. The scan packs into one int (``pack``)
    each pairs[x, m] whose m is a coordinate of some value, the only ones
    any product reads, and adds every product c pairs[x, m], c the m
    coordinate of pairs[y, z], with its sign, to the sorted triple of which
    (x, y, z) is a shift, in one pass over the nonzeros (once when i = j = k:
    its three shifts coincide, so its sum is a third of the cyclic one). A
    slot of a sum holds at most 3L products, L the most nonzeros of a value,
    each at most M^2 for M the largest entry, so slots of width
    ``slot_width(3L, M^2)`` keep every sum exact.

    Each sum is keyed by the int (i n + j) n + k of its sorted triple, n the
    dim, and the failing keys become triples only at the end. The shift is
    found by one branch per pair (y, z): for y <= z it is (x, y, z) when
    x <= y and (y, z, x) when x >= z (for y = z one of the two always
    holds), for y > z it is (z, x, y) when z <= x <= y, and any other x
    makes no sorted shift. The parts of a key fixed by (y, z) are computed
    once per pair. Nothing here uses super skew-symmetry: on any table the
    result is the set of sorted triples whose own cyclic sum is nonzero."""
    if not pairs:
        return set()
    top = max(abs(c) for v in pairs.values() for c in v.values())
    w = slot_width(3 * max(map(len, pairs.values())), top * top)
    # left[p][m]: (x, (-1)^{|x| p} pairs[x, m] packed) for the x with pairs[x, m] != 0
    read = set().union(*pairs.values())  # the m some value has a coordinate on
    left: tuple[dict, dict] = ({}, {})
    for (x, m), v in pairs.items():
        if m not in read:
            continue
        packed = pack(v, w)
        left[0].setdefault(m, []).append((x, packed))
        left[1].setdefault(m, []).append((x, -packed if par[x] else packed))
    n = len(par)
    nn = n * n
    sums: dict = {}  # (i n + j) n + k -> the cyclic sum of the sorted triple (i, j, k), packed
    for (y, z), v in pairs.items():
        left_z = left[par[z]]
        if y <= z:  # (x, y, z) when x <= y, (y, z, x) when x >= z
            front = y * n + z
            back = front * n
            for m, c in v.items():
                for x, packed in left_z.get(m, ()):
                    if x <= y:
                        key = x * nn + front
                    elif x >= z:
                        key = back + x
                    else:
                        continue
                    sums[key] = sums.get(key, 0) + c * packed
        else:  # (z, x, y) when z <= x <= y
            outer = z * nn + y
            for m, c in v.items():
                for x, packed in left_z.get(m, ()):
                    if z <= x <= y:
                        key = outer + x * n
                        sums[key] = sums.get(key, 0) + c * packed
    return {(key // nn, key // n % n, key % n) for key, s in sums.items() if s}


def cyclic_violation(par: Sequence[int], pairs: dict, ijk, scale: int) -> Violation:
    """The ``jacobi`` violation at the triple ijk of the table pairs (see
    ``cyclic_failures``): its residual divided by scale, as a dense vector."""
    def piece(x, y, z):
        out: dict = {}
        for m, c in pairs.get((y, z), EMPTY).items():
            add_scaled(out, c, pairs.get((x, m), EMPTY))
        return out

    return Violation("jacobi", ijk, linalg._dense(scale, cyclic_residual(par, *ijk, piece), len(par)))


def check_jacobi(bracket: SuperBracket) -> Violation | None:
    """First violating triple of the Jacobi super identity, or None: the
    ``cyclic_failures`` scan of the integer view, where every double bracket
    is d^2 times the rational one. Under super skew-symmetry it finds every
    failure; the least is the witness."""
    par = bracket.space.parities
    d, pairs = bracket.scaled_pairs
    failed = cyclic_failures(par, pairs)
    return cyclic_violation(par, pairs, min(failed), d * d) if failed else None


@dataclass(frozen=True)
class LieSuperAlgebra:
    bracket: SuperBracket
    # how the algebra was certified: ("scan",) by its own checks, else the record ``_admit`` wrote
    proof: tuple | None = field(default=("scan",), init=False, compare=False, repr=False)

    def __post_init__(self):
        for check in (lambda: self.bracket.check_even("grading", "bracket"),
                      lambda: self.bracket.check_super_skew("super-skew"),
                      lambda: check_jacobi(self.bracket)):
            v = check()
            if v is not None:
                raise ValidationError(v)

    @property
    def space(self) -> SuperSpace:
        return self.bracket.space

    @property
    def dim(self) -> int:
        return self.bracket.space.dim

    @classmethod
    def abelian(cls, space: SuperSpace) -> "LieSuperAlgebra":
        return cls(SuperBracket.zero(space))


def invariance_failures(form: GradedBilinearForm, bracket: SuperBracket) -> dict:
    """Each pair (i, j) at which B([e_i, e_j], e_k) = B(e_i, [e_j, e_k])
    fails, mapped to its least failing k.

    Both sides are evaluated on the integer views, so each is d_b d_f times
    its rational value. For each pair (i, j) the residual over k is one
    packed int (``pack``): the sum over m of c^m_ij B(e_m, .) minus the sum
    of B(e_i, e_m) times the e_m coordinate of [e_j, .]. A slot holds at most
    2n products of a constant and a metric entry, so slots of width
    ``slot_width(2n, M_b M_f)`` keep every sum exact. Only the pairs with a
    nonzero term on either side are visited.

    The sums are kept per index, never per tuple: diff[j][i] is the residual
    of (i, j), and ad[j][m] the packed e_m coordinates of [e_j, .]. One pass
    over the bracket fills both, [e_p, e_q] being the left side of the pair
    (p, q) and slot q of ad[p]; each column m of the metric is held as its
    (i, B(e_i, e_m)) pairs, so the right side subtracts B(e_i, e_m) ad[j][m]
    from diff[j][i]."""
    if form.space.basis != bracket.space.basis:
        raise ValueError("form and bracket live on different spaces")
    n = form.space.dim
    _, pairs = bracket.scaled_pairs
    _, rows = form.scaled_rows
    if not pairs or not any(rows):
        return {}  # every term has a factor from each
    top_b = max(abs(c) for v in pairs.values() for c in v.values())
    top_f = max(abs(b) for row in rows for b in row.values())
    w = slot_width(2 * n, top_b * top_f)
    packed_rows = [pack(row, w) for row in rows]
    in_column: list = [[] for _ in rows]  # in_column[m]: (i, B(e_i, e_m)) for the nonzeros
    for i, row in enumerate(rows):
        for m, b in row.items():
            in_column[m].append((i, b))
    ad: dict = {}  # ad[j][m]: the e_m coordinates of [e_j, e_k] over k, packed
    diff: dict = {}  # diff[j][i]: B([e_i, e_j], .) - B(e_i, [e_j, .]), packed, times d_b d_f
    for (p, q), v in pairs.items():
        ad_p, shift, s = ad.setdefault(p, {}), w * q, 0
        for m, c in v.items():
            s += c * packed_rows[m]
            if in_column[m]:
                ad_p[m] = ad_p.get(m, 0) + (c << shift)
        if s:
            diff.setdefault(q, {})[p] = s
    for j, ad_j in ad.items():
        diff_j = diff.setdefault(j, {})
        for m, packed in ad_j.items():
            for i, b in in_column[m]:
                diff_j[i] = diff_j.get(i, 0) - b * packed
    return {(i, j): lowest_slot(s, w) for j, diff_j in diff.items() for i, s in diff_j.items() if s}


def invariance_violation(name: str, form: GradedBilinearForm, bracket: SuperBracket, ijk) -> Violation:
    """Violation ``name`` at ijk with residual B([e_i, e_j], e_k) - B(e_i,
    [e_j, e_k]), computed on the integer views and divided back."""
    i, j, k = ijk
    d_b, pairs = bracket.scaled_pairs
    d_f, rows = form.scaled_rows
    lhs = sum(c * rows[m].get(k, 0) for m, c in pairs.get((i, j), EMPTY).items())
    rhs = sum(c * rows[i].get(m, 0) for m, c in pairs.get((j, k), EMPTY).items())
    return Violation(name, ijk, Fraction(lhs - rhs, d_b * d_f))


def check_invariance(form: GradedBilinearForm, bracket: SuperBracket) -> Violation | None:
    """B([x,y],z) = B(x,[y,z]) on all basis triples; witness on failure, the
    least failing pair of ``invariance_failures`` at its least k."""
    failed = invariance_failures(form, bracket)
    if not failed:
        return None
    ij = min(failed)
    return invariance_violation("invariance", form, bracket, (*ij, failed[ij]))


def certify_isometry(bracket1, metric1, bracket2, metric2) -> Violation | None:
    """Both brackets and both metrics are equal, so the identity of the basis
    is an isometry of the first quadratic algebra onto the second; witness on
    failure. Brackets are integer views ``(d, pairs)``, metrics ``(d, rows)``,
    each two brought to one scale (``common_scale``). The witness is the
    first differing pair (p, q), in sorted order, with the dense residual of
    [e_p, e_q] (``isometry-bracket``), else the first differing (row, column)
    of the metrics with its residual (``isometry-metric``), residuals first
    minus second. Tables in two bases are transported to one first; two
    dims, the metrics' row counts, raise ValueError."""
    if len(metric1[1]) != len(metric2[1]):
        raise ValueError(f"the algebras have dims {len(metric1[1])} and {len(metric2[1])}")
    d, (pairs1, pairs2) = common_scale([bracket1, bracket2])
    if pairs1 != pairs2:
        p, q = min(k for k in pairs1.keys() | pairs2.keys() if pairs1.get(k, EMPTY) != pairs2.get(k, EMPTY))
        res = dict(pairs1.get((p, q), EMPTY))
        add_scaled(res, -1, pairs2.get((p, q), EMPTY))
        return Violation("isometry-bracket", (p, q),
                         linalg._dense(d, res, len(metric1[1])))
    d, (rows1, rows2) = common_scale([metric1, metric2])
    for p, (row1, row2) in enumerate(zip(rows1, rows2)):
        if row1 != row2:
            q = min(q for q in row1.keys() | row2.keys() if row1.get(q, 0) != row2.get(q, 0))
            return Violation("isometry-metric", (p, q), Fraction(row1.get(q, 0) - row2.get(q, 0), d))
    return None


@dataclass(frozen=True)
class QuadraticLieSuperAlgebra:
    """Lie superalgebra with an invariant metric, homogeneous of degree delta."""

    algebra: LieSuperAlgebra
    metric: GradedBilinearForm
    proof: tuple | None = field(default=("scan",), init=False, compare=False, repr=False)  # as LieSuperAlgebra's

    def __post_init__(self):
        if self.metric.space.basis != self.algebra.space.basis:
            raise ValidationError(Violation("metric-space", (), None, "metric on wrong space"))
        realised = check_form_degree(self.metric)  # raises NotHomogeneous on mixed patterns
        if realised != self.metric.degree:
            raise ValidationError(Violation("metric-degree", (), realised,
                                            f"declared degree {self.metric.degree}"))
        v = self.metric.check_supersymmetry()
        if v is not None:
            raise ValidationError(v)
        v = check_invariance(self.metric, self.algebra.bracket)
        if v is not None:
            raise ValidationError(v)
        if not self.metric.is_non_degenerate():  # witness: the radical's first canonical vector
            n = self.space.dim
            d, radical = linalg.nullspace_ints(self.metric.scaled_rows[1], n)
            witness = linalg._dense(d, radical[0], n)
            raise ValidationError(Violation("non-degenerate", (), witness,
                                            f"metric rank {self.metric.rank()} below dim {n}"))

    @property
    def space(self) -> SuperSpace:
        return self.algebra.space

    @property
    def bracket(self) -> SuperBracket:
        return self.algebra.bracket

    @property
    def delta(self) -> int:
        return self.metric.degree

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _admit(proof: tuple | None, bracket: SuperBracket, metric: GradedBilinearForm | None = None):
    """The trusted kernel: the only code that builds an algebra without its
    scans, and the only writer of ``proof``, the rule that certifies it.

    The bracket, with the metric if given, is built as ``spaces._build``
    builds a map, ``__post_init__`` not run, under one of these records:
    ``("context", ctx)``, the extension of ctx whose Jacobi and invariance
    scans ``validate_context`` read, the other axioms following from ctx's;
    ``("split", ext)``, a or h of a split ``certify_split`` certified by the
    isometry of g onto the re-extension ext, admitted once ext has passed
    its scans, each axiom carrying over to g/I-perp and I-perp/I; None,
    tables nothing has certified yet, which no writer accepts."""
    out = object.__new__(LieSuperAlgebra)
    object.__setattr__(out, "bracket", bracket)
    if metric is not None:
        lie, out = out, object.__new__(QuadraticLieSuperAlgebra)
        object.__setattr__(out, "algebra", lie)
        object.__setattr__(out, "metric", metric)
    for x in (out, out.algebra) if metric is not None else (out,):
        object.__setattr__(x, "proof", proof)
    return out


def is_derivation(d: GradedLinearMap, bracket: SuperBracket) -> bool:
    """Leibniz rule D[x,y] = [Dx,y] + (-1)^{|D||x|}[x,Dy] on all basis pairs.

    Every term is a product of one constant of D and one of the bracket, so
    on the integer views each is d_D d_b times its rational value."""
    if d.source.basis != bracket.space.basis or d.target.basis != bracket.space.basis:
        raise ValueError("derivation candidate must map the algebra to itself")
    par = bracket.space.parities
    _, pairs = bracket.scaled_pairs
    if not pairs:
        return True  # every term has a factor from the bracket
    get = pairs.get
    _, cols = d.scaled_columns
    d_rows = sparse_transpose(cols, d.target.dim)
    # (i, j) can fail only if [e_i, e_j], [D e_i, e_j] or [e_i, D e_j] has a term
    candidates = set(pairs)
    for x, y in pairs:
        candidates.update((i, y) for i in d_rows[x])
        candidates.update((x, j) for j in d_rows[y])
    for i, j in candidates:
        sign = -1 if (d.degree * par[i]) % 2 else 1
        # D[e_i, e_j] - [D e_i, e_j] - sign [e_i, D e_j]
        acc: dict = {}
        for k, c in get((i, j), EMPTY).items():
            add_scaled(acc, c, cols[k])
        for r, c in cols[i].items():
            add_scaled(acc, -c, get((r, j), EMPTY))
        for r, c in cols[j].items():
            add_scaled(acc, -sign * c, get((i, r), EMPTY))
        if any(acc.values()):
            return False
    return True


def is_metric_skew(d: GradedLinearMap, form: GradedBilinearForm) -> bool:
    """B(Dx,y) = -(-1)^{|x||D|} B(x,Dy) on all basis pairs.

    Both sides are compared on the integer views, each d_D d_f times its
    rational value."""
    if d.source.basis != form.space.basis:
        raise ValueError("map and form live on different spaces")
    n = form.space.dim
    par = form.space.parities
    _, rows = form.scaled_rows
    _, cols = d.scaled_columns
    d_rows = sparse_transpose(cols, d.target.dim)
    for i in range(n):
        sign = -1 if (par[i] * d.degree) % 2 else 1
        acc: dict = {}  # j -> B(D e_i, e_j) + sign B(e_i, D e_j)
        for r, c in cols[i].items():
            add_scaled(acc, c, rows[r])
        for r, b in rows[i].items():
            add_scaled(acc, sign * b, d_rows[r])
        if any(acc.values()):
            return False
    return True


def delta_coadjoint(g: LieSuperAlgebra, delta: int) -> tuple[GradedLinearMap, ...]:
    """The maps ad*_d(e_i) on P_delta(g)*, one per basis vector of g, each
    of degree |e_i|: ad*_d(x)(P_d(f))(P_d(y)) = -(-1)^{(|f|+d)|x|} f([x,y])."""
    par = g.space.parities
    module = dual_space(apply_p_delta(delta, g.space))
    d, pairs = g.bracket.scaled_pairs
    tables: list[dict] = [{} for _ in range(g.dim)]  # tables[i]: the matrix of ad*_d(e_i), times d
    for (i, k), v in pairs.items():
        for j, c in v.items():
            tables[i][k, j] = c if ((par[j] + delta) * par[i]) % 2 else -c
    return tuple(GradedLinearMap.from_ints(module, module, par[i], d, t) for i, t in enumerate(tables))


def semidirect_product(a: LieSuperAlgebra, h: LieSuperAlgebra,
                       theta: Sequence[GradedLinearMap],
                       lam: GradedBilinearMap) -> LieSuperAlgebra:
    """Generalized semi-direct product of h by a via (theta, lam).

    The bracket is [x,y] = [x,y]_a + lam(x,y), [x,u] = theta(x)(u) and
    [u,v] = [u,v]_h. It is a Lie superalgebra exactly when each theta(x) is
    a derivation of h, [theta(x),theta(y)] - theta([x,y]_a) = ad_h(lam(x,y))
    and the cyclic sum of theta(x)(lam(y,z)) + lam(x,[y,z]_a) vanishes. These
    conditions, with lam even and super skew, are the mixed a/h blocks of the
    grading, super skew and Jacobi identities of the assembled bracket, so
    its certificate is the only check: a failure raises ValidationError with
    the first grading, super-skew or jacobi witness.
    """
    na = a.dim
    par_a = a.space.parities
    if len(theta) != na:
        raise ValueError("one theta map per a-basis vector required")
    for i, t in enumerate(theta):
        if t.source.basis != h.space.basis or t.target.basis != h.space.basis:
            raise ValueError("theta maps must act on h")
        if t.degree != par_a[i]:
            raise ValidationError(Violation("theta-degree", (i,), t.degree))
    if lam.left.basis != a.space.basis or lam.right.basis != a.space.basis or lam.target.basis != h.space.basis:
        raise ValueError("lambda must be a bilinear map a x a -> h")

    entries = a.bracket.entries() + lam.entries(0, 0, na) + h.bracket.entries(na, na, na)
    for i in range(na):
        for r, m, c in theta[i].entries():
            sign = -1 if par_a[i] * h.space.parity(m) else 1
            entries += [(i, na + m, na + r, c), (na + m, i, na + r, -sign * c)]
    space = SuperSpace(a.space.basis + h.space.basis)
    return LieSuperAlgebra(SuperBracket.from_entries(space, entries))
