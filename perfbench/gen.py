"""Seeded inputs for the command-latency benchmark.

A workload is a list of operations. Each operation is one CLI command on an
input document of its own, written here before the timed process starts,
together with what the command must produce. The same seed gives
byte-identical documents.

Every algebra document is the degree-delta double extension of an abelian
``a`` over an abelian quadratic ``h``, written out from the explicit bracket
formulas below rather than through ``superquad.double_extend``, so that the
expected ``extend`` output comes from a different code path than the one the
command runs. Only superquad's public API is used: the document classes and
serializer of ``superquad.fileformat``, ``superquad.linalg``, and
``validate_context`` to re-validate every generated context. Nothing comes
from the test suite's generators, so editing a test cannot move a workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from superquad import linalg
from superquad.extension import DeltaContext, validate_context
from superquad.fileformat import (
    AlgebraDocument,
    ContextDocument,
    IdealDocument,
    document_to_algebra,
    serialize_document,
)
from superquad.spaces import GradedBilinearMap, GradedLinearMap, p_delta_dual

F = Fraction
ZERO = F(0)
ONE = F(1)

WORKLOADS = ("heis-sparse", "dense-verify", "context-corpus")

# Pool sizes bound the work of one run. A run stops at --seconds or when its
# pool is used up, whichever comes first. The pools hold about 1.4 times the
# most that a 30-second run of the current library got through, so a faster
# program still meets a distinct input on every operation, and a much faster
# one ends its run early with at least as many samples per command.
HEIS_PAIRS = 5          # dim 12: 40 of 1728 structure constants nonzero
HEIS_CYCLES = 19
DENSE_PAIRS = 4         # dim 10
DENSE_CYCLES = 17
CORPUS_CYCLES = 58

CHECK_ORDER = ("grading", "super-skew", "jacobi", "metric-degree",
               "super-symmetry", "invariance", "non-degeneracy")


@dataclass(frozen=True)
class Ctx:
    """A delta-context with abelian a and abelian h, as plain tables.

    rho[i] is an h x h matrix (columns are images), lam[i][j] an h-vector and
    omega[i][j] a vector of the dual block P_delta(a)*.
    """

    name: str
    delta: int
    a_basis: tuple
    h_basis: tuple
    metric: tuple
    rho: tuple
    lam: tuple
    omega: tuple


def _mat(rows):
    return tuple(tuple(F(c) for c in r) for r in rows)


def _parities(basis):
    return tuple(p for _, p in basis)


def dual_basis(ctx: Ctx):
    if ctx.delta == 0:
        return tuple((f"{lab}*", p) for lab, p in ctx.a_basis)
    return tuple((f"P({lab})*", 1 - p) for lab, p in ctx.a_basis)


def context_document(ctx: Ctx) -> ContextDocument:
    nh = len(ctx.h_basis)
    metric = tuple((i, j, c) for i in range(nh) for j in range(nh)
                   if (c := ctx.metric[i][j]))
    h_doc = AlgebraDocument("h", ctx.h_basis, (), ctx.delta, metric)
    a_doc = AlgebraDocument("a", ctx.a_basis, ())
    na = len(ctx.a_basis)
    rho = tuple((x, r, c, v) for x in range(na) for r in range(nh) for c in range(nh)
                if (v := ctx.rho[x][r][c]))
    lam = tuple((i, j, k, v) for i in range(na) for j in range(na)
                for k, v in enumerate(ctx.lam[i][j]) if v)
    omega = tuple((i, j, k, v) for i in range(na) for j in range(na)
                  for k, v in enumerate(ctx.omega[i][j]) if v)
    return ContextDocument(ctx.name, ctx.delta, h_doc, a_doc, rho, lam, omega).canonical()


def extension_document(ctx: Ctx) -> AlgebraDocument:
    """Double extension on a + h + P_delta(a)* from the explicit formulas.

    With a and h abelian: [x,y] = lambda(x,y) + omega(x,y),
    [x,u] = rho(x)u + chi(x,u), [u,v] = Phi(u,v), the dual block central, and
    chi(x_i,u_m)_k = -(-1)^{|u_m||x_k|} B_h(lambda(x_i,x_k), u_m),
    Phi(u_m,u_l)_k = (-1)^{|x_k|(|u_m|+|u_l|)} B_h(rho(x_k)u_m, u_l).
    The metric is B_h on h and pairs P_delta(x_i)* with x_i.
    """
    pa, qh = _parities(ctx.a_basis), _parities(ctx.h_basis)
    na, nh = len(pa), len(qh)
    d0 = na + nh
    b = ctx.metric
    entries = {}

    def put(i, j, h_vec, d_vec, sign=1):
        for r, c in enumerate(h_vec):
            if c:
                entries[(i, j, na + r)] = sign * c
        for k, c in enumerate(d_vec):
            if c:
                entries[(i, j, d0 + k)] = sign * c

    for i in range(na):
        for j in range(na):
            put(i, j, ctx.lam[i][j], ctx.omega[i][j])
    for i in range(na):
        for m in range(nh):
            col = [ctx.rho[i][r][m] for r in range(nh)]
            chi = []
            for k in range(na):
                s = -1 if qh[m] * pa[k] else 1
                chi.append(-s * sum((c * b[r][m] for r, c in enumerate(ctx.lam[i][k]) if c), ZERO))
            put(i, na + m, col, chi)
            put(na + m, i, col, chi, sign=1 if pa[i] * qh[m] else -1)
    for m in range(nh):
        for l in range(nh):
            phi = []
            for k in range(na):
                s = -1 if (pa[k] * (qh[m] + qh[l])) % 2 else 1
                phi.append(s * sum((ctx.rho[k][r][m] * b[r][l] for r in range(nh)
                                    if ctx.rho[k][r][m]), ZERO))
            put(na + m, na + l, (), phi)

    metric = {(na + m, na + l): b[m][l] for m in range(nh) for l in range(nh) if b[m][l]}
    for i in range(na):
        metric[(d0 + i, i)] = ONE
        metric[(i, d0 + i)] = -ONE if (pa[i] * (1 + ctx.delta)) % 2 else ONE
    basis = ctx.a_basis + ctx.h_basis + dual_basis(ctx)
    return AlgebraDocument(ctx.name, basis,
                           tuple(sorted((i, j, k, c) for (i, j, k), c in entries.items())),
                           ctx.delta,
                           tuple(sorted((i, j, c) for (i, j), c in metric.items()))).canonical()


def verify_stdout(doc: AlgebraDocument) -> str:
    """The exact `verify` report on a valid quadratic algebra document."""
    n = len(doc.basis)
    odd = sum(p for _, p in doc.basis)
    detail = {"metric-degree": f"degree {doc.metric_degree}", "non-degeneracy": f"rank {n} of {n}"}
    lines = [f"algebra {doc.name} dim {n} ({n - odd}|{odd})"]
    for name in CHECK_ORDER:
        line = f"check {name:<15} PASS"
        if name in detail:
            line += "  " + detail[name]
        lines.append(line)
    lines.append("RESULT ok")
    return "\n".join(lines) + "\n"


def doc_stats(doc) -> dict:
    """dim, nonzero structure constants and largest denominator of an input."""
    if isinstance(doc, ContextDocument):
        coeffs = [e[-1] for part in (doc.h_doc.metric, doc.rho, doc.lam, doc.omega) for e in part]
        dim = 2 * len(doc.a_doc.basis) + len(doc.h_doc.basis)
        nnz = len(doc.rho) + len(doc.lam) + len(doc.omega)
    else:
        coeffs = [e[-1] for e in doc.bracket] + [e[-1] for e in doc.metric]
        dim, nnz = len(doc.basis), len(doc.bracket)
    return {"dim": dim, "nnz": nnz, "max_den": max((c.denominator for c in coeffs), default=1)}


# ---------------------------------------------------------------------------
# changes of basis


def random_basis_change(rng, parities):
    """Invertible parity-preserving matrix M (columns are new basis vectors)
    with small integer entries and rational column scales, and M^-1."""
    n = len(parities)
    while True:
        scales = [F(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        rows = [[scales[p] * rng.choice((-2, -1, -1, 0, 1, 1, 2)) if parities[i] == parities[p] else ZERO
                 for p in range(n)] for i in range(n)]
        m = _mat(rows)
        inv = linalg.inverse(m)
        if inv is not None:
            return m, inv


def transport_algebra(doc: AlgebraDocument, m, inv, name: str) -> AlgebraDocument:
    """The same algebra in the basis given by the columns of m."""
    n = len(doc.basis)
    supp = [[(p, c) for p, c in enumerate(m[i]) if c] for i in range(n)]
    images: dict = {}
    for i, j, k, c in doc.bracket:
        for p, x in supp[i]:
            cx = c * x
            for q, y in supp[j]:
                vec = images.setdefault((p, q), {})
                vec[k] = vec.get(k, ZERO) + cx * y
    bracket = []
    for (p, q), vec in images.items():
        out = [ZERO] * n
        for k, s in vec.items():
            if s:
                for r in range(n):
                    if inv[r][k]:
                        out[r] += inv[r][k] * s
        bracket += [(p, q, r, c) for r, c in enumerate(out) if c]
    metric: dict = {}
    for i, j, c in doc.metric:
        for p, x in supp[i]:
            for q, y in supp[j]:
                metric[(p, q)] = metric.get((p, q), ZERO) + c * x * y
    basis = tuple((f"b{p}", doc.basis[next(i for i in range(n) if m[i][p])][1]) for p in range(n))
    return AlgebraDocument(name, basis, tuple(sorted(bracket)), doc.metric_degree,
                           tuple(sorted((p, q, c) for (p, q), c in metric.items() if c))).canonical()


def transport_h(ctx: Ctx, m, inv, name: str) -> Ctx:
    """The context with h in the basis given by the columns of m."""
    nh = len(ctx.h_basis)
    metric = linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(ctx.metric, m))
    rho = tuple(linalg.mat_mul(inv, linalg.mat_mul(r, m)) for r in ctx.rho)
    lam = tuple(tuple(linalg.mat_vec(inv, v) for v in row) for row in ctx.lam)
    h_basis = tuple((f"u{p}", ctx.h_basis[next(i for i in range(nh) if m[i][p])][1]) for p in range(nh))
    return replace(ctx, name=name, h_basis=h_basis, metric=metric, rho=rho, lam=lam)


# ---------------------------------------------------------------------------
# Heisenberg family: a = F x even, h = pairs (e_i, f_i) with B(e_i, f_i) = b_i,
# rho(x) = D = diag(c_1, -c_1, ...), lambda = omega = 0, delta = 1.


def heisenberg_ctx(rng, pairs: int, name: str, b=None) -> Ctx:
    """b[i] = B(e_i, f_i), all 1 (the catalog's metric) when b is None."""
    h_basis = tuple(x for i in range(pairs) for x in ((f"e{i}", 0), (f"f{i}", 1)))
    nh = 2 * pairs
    metric = [[ZERO] * nh for _ in range(nh)]
    d = [[ZERO] * nh for _ in range(nh)]
    for i in range(pairs):
        metric[2 * i][2 * i + 1] = metric[2 * i + 1][2 * i] = ONE if b is None else b[i]
        c = F(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        d[2 * i][2 * i] = c
        d[2 * i + 1][2 * i + 1] = -c
    zero = ((ZERO,) * nh,)
    return Ctx(name, 1, (("x", 0),), h_basis, _mat(metric), (_mat(d),), (zero,),
               (((ZERO,),),))


def plant_rho_defect(doc: AlgebraDocument, t: int) -> tuple[AlgebraDocument, tuple]:
    """Triple [x, e_t] and its partner: the first Jacobi witness is (0, e_t, f_t)."""
    e = 1 + 2 * t
    bracket = tuple((i, j, k, 3 * c if (i, j, k) in ((0, e, e), (e, 0, e)) else c)
                    for i, j, k, c in doc.bracket)
    return replace(doc, bracket=bracket), (0, e, e + 1)


# ---------------------------------------------------------------------------
# Corpus family: abelian a of dim 2-4, abelian h of dim 4 with a hyperbolic
# metric, rho = c_i R on even x_i with R a B_h-skew diagonal map, lambda
# valued in an isotropic line of ker R, and omega drawn from the solutions of
# the super cyclic condition. The tables stay sparse, so that Jacobi scans
# are cheap and per-call overhead shows.

# Parities of a for each dim a; every one leaves room for a nonzero omega
# under both deltas.
CORPUS_A_PARITIES = {2: (0, 1), 3: (0, 0, 1), 4: (0, 0, 1, 1)}


def _corpus_h(delta: int, rng):
    """(h basis, metric, R, isotropic vector of ker R); the vector is even
    for delta = 1 and odd for delta = 0."""
    r = F(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 5))
    b0, b1 = (F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2))
    metric = [[ZERO] * 4 for _ in range(4)]
    if delta == 1:
        # e0 f0 e1 f1 with B(e_i, f_i) = B(f_i, e_i) = b_i; iso e1
        basis = (("e0", 0), ("f0", 1), ("e1", 0), ("f1", 1))
        metric[2][3] = metric[3][2] = b1
    else:
        # u0 v0 even hyperbolic, p q odd symplectic; iso p
        basis = (("u0", 0), ("v0", 0), ("p", 1), ("q", 1))
        metric[2][3], metric[3][2] = b1, -b1
    metric[0][1] = metric[1][0] = b0
    rmat = linalg.mat(((r, 0, 0, 0), (0, -r, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    return basis, _mat(metric), rmat, linalg.unit_vec(4, 2)


def _solve_omega(rng, delta, pa):
    """A random nonzero even, super skew omega with the super cyclic property."""
    na = len(pa)
    dual_par = [(p + delta) % 2 for p in pa]
    var = {}
    for i in range(na):
        for j in range(i, na):
            if i == j and pa[i] == 0:
                continue
            for k in range(na):
                if dual_par[k] == (pa[i] + pa[j]) % 2:
                    var[(i, j, k)] = len(var)

    def coeff(i, j, k):
        """omega(i,j)_k as {variable: coefficient}."""
        if i > j:
            s = -1 if pa[i] * pa[j] else 1
            return {v: -s * c for v, c in coeff(j, i, k).items()}
        return {var[(i, j, k)]: 1} if (i, j, k) in var else {}

    rows = []
    for i in range(na):
        for j in range(na):
            for k in range(na):
                sign = -1 if ((pa[j] + pa[k]) * pa[i]) % 2 else 1
                row = [ZERO] * len(var)
                for v, c in coeff(i, j, k).items():
                    row[v] += c
                for v, c in coeff(j, k, i).items():
                    row[v] -= sign * c
                if any(row):
                    rows.append(row)
    sol = [ZERO] * len(var)
    for vec in linalg.nullspace(rows, len(var)):
        c = rng.choice((-2, -1, 1, 2))
        sol = [s + c * x for s, x in zip(sol, vec)]
    if not any(sol):
        raise AssertionError(f"no nonzero omega for parities {pa}")
    table = [[[ZERO] * na for _ in range(na)] for _ in range(na)]
    for i in range(na):
        for j in range(na):
            for k in range(na):
                table[i][j][k] = sum((c * sol[v] for v, c in coeff(i, j, k).items()), ZERO)
    return tuple(tuple(tuple(v) for v in row) for row in table)


def corpus_ctx(rng, na: int, delta: int, name: str) -> tuple[Ctx, tuple]:
    """A valid context with the given dim a and delta, plus the isotropic
    vector that lambda takes its values on."""
    pa = CORPUS_A_PARITIES[na]
    omega = _solve_omega(rng, delta, pa)
    basis, metric, rmat, iso = _corpus_h(delta, rng)
    iso_parity = 1 - delta
    rho = tuple(linalg.mat_scale(F(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3)), rmat)
                if p == 0 else linalg.zero_mat(4, 4) for p in pa)
    lam = [[linalg.zero_vec(4)] * na for _ in range(na)]
    for i in range(na):
        for j in range(i, na):
            if (pa[i] + pa[j]) % 2 != iso_parity or (i == j and pa[i] == 0):
                continue
            v = linalg.vec_scale(F(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 4)), iso)
            lam[i][j] = v
            lam[j][i] = linalg.vec_scale(1 if pa[i] * pa[j] else -1, v)
    a_basis = tuple((f"x{i}", p) for i, p in enumerate(pa))
    return Ctx(name, delta, a_basis, basis, metric, rho, tuple(tuple(r) for r in lam), omega), iso


def plant_context_defect(ctx: Ctx, kind: int, iso) -> tuple[Ctx, str, tuple]:
    """Break one axiom: rho-skew (kind 0), lambda-skew (1) or omega-skew (2),
    at the first place the checker looks; returns (context, equation, witness).
    A kind with no room in this context falls back to the next one."""
    pa = _parities(ctx.a_basis)
    na = len(pa)
    pairs = [(i, j) for i in range(na) for j in range(i + 1, na)]
    if kind == 0:
        bad = linalg.mat_add(ctx.rho[0], linalg.identity_mat(len(ctx.h_basis)))
        return replace(ctx, rho=(bad,) + ctx.rho[1:]), "rho-skew", (0,)
    if kind == 1:
        iso_parity = 1 - ctx.delta
        for i, j in pairs:
            if (pa[i] + pa[j]) % 2 == iso_parity:
                lam = [list(row) for row in ctx.lam]
                lam[j][i] = linalg.vec_add(lam[j][i], iso)
                return replace(ctx, lam=tuple(tuple(r) for r in lam)), "lambda-skew", (i, j)
        return plant_context_defect(ctx, 2, iso)
    dual_par = [(p + ctx.delta) % 2 for p in pa]
    for i, j in pairs:
        for k in range(na):
            if dual_par[k] == (pa[i] + pa[j]) % 2:
                om = [[list(v) for v in row] for row in ctx.omega]
                om[j][i][k] += ONE
                omega = tuple(tuple(tuple(v) for v in row) for row in om)
                return replace(ctx, omega=omega), "omega-skew", (i, j)
    return plant_context_defect(ctx, 0, iso)


# ---------------------------------------------------------------------------
# workloads


class _Writer:
    """Writes the documents of one workload under one directory, records the
    stats of its inputs and re-validates its contexts."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        self.stats = []
        self.h_cache: dict = {}

    def write(self, stem: str, doc, fmt: str = "text", expected: bool = False) -> str:
        path = self.root / f"{stem}.{'json' if fmt == 'json' else 'txt'}"
        path.write_text(serialize_document(doc, fmt))
        if not expected:
            self.count += 1
            if not isinstance(doc, IdealDocument):
                self.stats.append(doc_stats(doc))
        return str(path)

    def revalidate(self, ctx: Ctx) -> None:
        """Check a generated context with the library. Contexts that share an
        h (the Heisenberg family) certify it once."""
        doc = context_document(ctx)
        key = serialize_document(doc.h_doc)
        if key not in self.h_cache:
            self.h_cache.clear()
            self.h_cache[key] = document_to_algebra(doc.h_doc)
        h = self.h_cache[key]
        a = document_to_algebra(doc.a_doc)
        rho = tuple(GradedLinearMap(h.space, h.space, p, m) for (_, p), m in zip(ctx.a_basis, ctx.rho))
        lam = GradedBilinearMap(a.space, a.space, h.space, ctx.lam)
        omega = GradedBilinearMap(a.space, a.space, p_delta_dual(a.space, ctx.delta), ctx.omega)
        violations = validate_context(DeltaContext(ctx.delta, a, h, rho, lam, omega))
        if violations:
            raise AssertionError(f"generator produced an invalid context {ctx.name}: {violations[0]}")


def _op(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "expect": expect}


def roundtrip_stdout(ctx: Ctx) -> str:
    n = 2 * len(ctx.a_basis) + len(ctx.h_basis)
    return ("roundtrip: context valid\n"
            f"roundtrip: extension dim {n}\n"
            "roundtrip: decomposition claims and isometry verified\n"
            "roundtrip: re-extension equals the original exactly\n"
            "roundtrip: context recovered exactly\n"
            "PASS\n")


# The commands of one cycle, interleaved so that slow and fast spells of the
# machine fall on every command alike. Cheap commands come more than once a
# cycle, because a median of short latencies needs more samples to repeat.
HEIS_CYCLE = ("verify", "reject", "extend", "decompose", "reject", "roundtrip",
              "verify", "reject", "extend", "decompose", "reject", "roundtrip")
DENSE_CYCLE = ("verify", "reject", "extend", "verify", "decompose", "roundtrip",
               "verify", "reject", "extend", "verify", "decompose", "roundtrip")
CORPUS_CYCLE = ("extend", "verify", "reject", "roundtrip", "decompose")


def _context_op(w: _Writer, kind: str, stem: str, ctx: Ctx, fmt: str = "text") -> dict:
    """An extend or roundtrip operation on a re-validated context."""
    w.revalidate(ctx)
    path = w.write(stem, context_document(ctx), fmt)
    if kind == "roundtrip":
        return _op(kind, ["roundtrip", path], stdout=roundtrip_stdout(ctx))
    exp = w.write(stem + "_expected", extension_document(ctx), fmt, expected=True)
    return _op(kind, ["extend", "--context", path, "--format", fmt, "--out", f"{path}.out"],
               out_equals=exp)


def gen_heis(rng, w: _Writer) -> list:
    ops = []
    rejects = 0
    for c in range(HEIS_CYCLES):
        for k, kind in enumerate(HEIS_CYCLE):
            ctx = heisenberg_ctx(rng, HEIS_PAIRS, f"heis{c}_{k}")
            stem = f"c{c}_{k}_{kind}"
            if kind == "verify":
                doc = extension_document(ctx)
                ops.append(_op(kind, ["verify", w.write(stem, doc)], stdout=verify_stdout(doc)))
            elif kind == "reject":
                # the planted witness walks along h, so that every run scans alike
                bad, witness = plant_rho_defect(extension_document(ctx), rejects % HEIS_PAIRS)
                rejects += 1
                ops.append(_op(kind, ["verify", w.write(stem, bad)], check="jacobi", witness=witness))
            elif kind == "decompose":
                path = w.write(stem, extension_document(ctx))
                exp = w.write(stem + "_expected", context_document(ctx), expected=True)
                ops.append(_op(kind, ["decompose", path, "--ideal", "auto", "--out", f"{path}.out"],
                               out_equals=exp))
            else:
                ops.append(_context_op(w, kind, stem, ctx))
    return ops


def gen_dense(rng, w: _Writer) -> list:
    ops = []
    n = 2 * DENSE_PAIRS + 2
    nth = {kind: 0 for kind in DENSE_CYCLE}
    for c in range(DENSE_CYCLES):
        # the contexts of one cycle share h and its change of basis, so that
        # h is certified once a cycle; each has its own rho
        b = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(DENSE_PAIRS)]
        h_change = random_basis_change(rng, (0, 1) * DENSE_PAIRS)
        for k, kind in enumerate(DENSE_CYCLE):
            base = heisenberg_ctx(rng, DENSE_PAIRS, f"dense{c}_{k}", b)
            stem = f"c{c}_{k}_{kind}"
            fmt = ("text", "json")[(c * len(DENSE_CYCLE) + k) % 2]
            turn = nth[kind] % 2
            nth[kind] += 1
            if kind in ("extend", "roundtrip"):
                ops.append(_context_op(w, kind, stem, transport_h(base, *h_change, base.name), fmt))
                continue
            doc = extension_document(base)
            m, inv = random_basis_change(rng, _parities(doc.basis))
            doc = transport_algebra(doc, m, inv, base.name)
            if kind == "verify":
                ops.append(_op(kind, ["verify", w.write(stem, doc, fmt)], stdout=verify_stdout(doc)))
            elif kind == "reject":
                bad, check, witness = plant_dense_defect(rng, doc)
                ops.append(_op(kind, ["verify", w.write(stem, bad, fmt)], check=check, witness=witness))
            else:
                # alternately the transported central ideal and auto discovery
                path = w.write(stem, doc, fmt)
                ideal_arg = "auto"
                if turn == 0:
                    ideal = IdealDocument("center", (tuple(inv[r][n - 1] for r in range(n)),))
                    ideal_arg = w.write(stem + "_ideal", ideal, fmt)
                ops.append(_op(kind, ["decompose", path, "--ideal", ideal_arg, "--format", fmt,
                                      "--out", f"{path}.out"], context_dims=[1, 1, n - 2]))
    return ops


def plant_dense_defect(rng, doc: AlgebraDocument):
    """Break super-symmetry of the metric at a seeded pair (p, q), p < q,
    which is then the first witness. Every check still runs, Jacobi in full."""
    p, q, _ = rng.choice([e for e in doc.metric if e[0] < e[1]])
    metric = {(i, j): v for i, j, v in doc.metric}
    metric[(q, p)] = metric.get((q, p), ZERO) + ONE
    bad = replace(doc, metric=tuple(sorted((i, j, v) for (i, j), v in metric.items() if v)))
    return bad.canonical(), "super-symmetry", (p, q)


def gen_corpus(rng, w: _Writer) -> list:
    ops = []
    for c in range(CORPUS_CYCLES):
        fmt = ("text", "json")[c % 2]
        for k, kind in enumerate(CORPUS_CYCLE):
            # every command meets dim a = 2, 3, 4 and both deltas in turn
            ctx, iso = corpus_ctx(rng, 2 + (c + k) % 3, (c // 3 + k) % 2, f"ctx{c}_{k}")
            stem = f"c{c}_{k}_{kind}"
            if kind in ("extend", "roundtrip"):
                ops.append(_context_op(w, kind, stem, ctx, fmt))
            elif kind == "verify":
                w.revalidate(ctx)
                doc = extension_document(ctx)
                ops.append(_op(kind, ["verify", w.write(stem, doc, fmt)], stdout=verify_stdout(doc)))
            elif kind == "decompose":
                w.revalidate(ctx)
                doc = extension_document(ctx)
                path = w.write(stem, doc, fmt)
                n, na = len(doc.basis), len(ctx.a_basis)
                if ctx.delta == 1:
                    # the dual block is central and, the metric being odd, isotropic
                    ops.append(_op(kind, ["decompose", path, "--ideal", "auto", "--out", f"{path}.out"],
                                   context_dims=[1, 1, n - 2]))
                    continue
                ideal = IdealDocument("dual", tuple(tuple(ONE if r == n - na + i else ZERO for r in range(n))
                                                    for i in range(na)))
                ideal_path = w.write(stem + "_ideal", ideal, fmt)
                ctx_path = w.write(stem + "_context", context_document(ctx), expected=True)
                ops.append(_op(kind, ["decompose", path, "--ideal", ideal_path, "--out", f"{path}.out"],
                               contexts_equal=ctx_path))
            else:
                w.revalidate(ctx)
                bad, equation, witness = plant_context_defect(ctx, c % 3, iso)
                path = w.write(stem, context_document(bad), fmt)
                ops.append(_op(kind, ["extend", "--context", path, "--out", f"{path}.out"],
                               equation=equation, witness=witness))
    return ops


GENERATORS = {"heis-sparse": gen_heis, "dense-verify": gen_dense, "context-corpus": gen_corpus}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload under root; returns the plan."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(root)
    ops = GENERATORS[workload](rng, w)
    stats = w.stats
    plan = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "inputs": {
            "documents": w.count,
            "dim": [min(s["dim"] for s in stats), max(s["dim"] for s in stats)],
            "nnz": [min(s["nnz"] for s in stats), max(s["nnz"] for s in stats)],
            "max_den": max(s["max_den"] for s in stats),
        },
    }
    (root / "plan.json").write_text(json.dumps(plan, indent=1, default=list))
    return plan
