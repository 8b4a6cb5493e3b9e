"""Worked odd-metric constructions: the one-dimensional odd extension and the
Heisenberg superalgebra extended by an even derivation.

Each family is a double-extension context, which ``odd_extension_context``
and ``heisenberg_context`` return validated; ``superquad catalog`` writes it
or its ``double_extend``. No command calls ``heisenberg_extension``: it
writes the bracket rows and metric directly, the independent reference that
the tests compare the generic extension with (``tests/generators.py`` holds
the odd family's), so that their agreement is a tested theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import linalg
from .algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, SuperBracket
from .extension import DeltaContext, double_extend
from .linalg import Vector
from .spaces import GradedBilinearForm, GradedBilinearMap, GradedLinearMap, SuperSpace, p_delta_dual

ODD = 1


def _one_dim_algebra(label: str, parity: int) -> LieSuperAlgebra:
    return LieSuperAlgebra.abelian(SuperSpace(((label, parity),)))


def _omega_entries(p, last: int) -> list:
    """Structure constants B_h(D(u_m), u_l) on the last basis vector, for the
    h block placed at offset 1: entries (1 + m, 1 + l, last, c)."""
    d_b, rows = p.h.metric.scaled_rows
    return [(1 + m, 1 + l, last, c * b / d_b) for r, m, c in p.d.entries() for l, b in rows[r].items()]


def _hyperbolic_metric(space: SuperSpace, h: QuadraticLieSuperAlgebra) -> GradedBilinearForm:
    """B_h on the middle block and B(x, P(x)*) = 1 on the outer two vectors."""
    last = space.dim - 1
    return GradedBilinearForm.from_entries(space, ODD, h.metric.entries(1, 1) + [(0, last, 1), (last, 0, 1)])


def _fresh_label(h_space: SuperSpace, base: str = "x") -> str:
    """Generator label whose dual partner also avoids the h labels."""
    taken = set(h_space.labels)
    k = 0
    while True:
        lab = base if k == 0 else f"{base}{k}"
        if lab not in taken and f"P({lab})*" not in taken and f"{lab}*" not in taken:
            return lab
        k += 1


@dataclass(frozen=True)
class OddExtensionParams:
    """Data for the odd extension by a single odd generator x.

    D plays rho(x), w plays lambda(x,x) and eta scales omega(x,x). The
    conditions (D an odd B_h-skew derivation, w even, D^2 = (1/2) ad_h(w) and
    D(w) = 0) are the axioms of the companion context, and
    ``odd_extension_context`` checks them as such.
    """

    h: QuadraticLieSuperAlgebra
    d: GradedLinearMap
    w: Vector
    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", linalg.vec(self.w))
        object.__setattr__(self, "eta", linalg.scalar(self.eta))
        if len(self.w) != self.h.dim:
            raise ValueError("w must be a vector of h")


def odd_extension_context(p: OddExtensionParams) -> DeltaContext:
    """The context whose double extension the explicit construction realises,
    validated: a violated axiom raises InvalidContext, as ``double_extend`` does."""
    a = _one_dim_algebra(_fresh_label(p.h.space), 1)
    lam = GradedBilinearMap.from_entries(a.space, a.space, p.h.space, [(0, 0, r, c) for r, c in enumerate(p.w)])
    omega = GradedBilinearMap.from_entries(a.space, a.space, p_delta_dual(a.space, ODD), [(0, 0, 0, p.eta)])
    ctx = DeltaContext(ODD, a, p.h, (p.d,), lam, omega)
    double_extend(ctx)  # certifies ctx and caches its extension
    return ctx


@dataclass(frozen=True)
class HeisenbergExtensionParams:
    """Data for extending an odd quadratic h by an even generator acting as D."""

    h: QuadraticLieSuperAlgebra
    d: GradedLinearMap


def _action_entries(p: HeisenbergExtensionParams) -> list:
    """[x, u] = D(u) and [u, x] = -D(u) for the even x at index 0, h at offset 1."""
    return [e for r, m, c in p.d.entries() for e in ((0, 1 + m, 1 + r, c), (1 + m, 0, 1 + r, -c))]


def heisenberg_extension(p: HeisenbergExtensionParams) -> QuadraticLieSuperAlgebra:
    """Odd quadratic algebra on Fx + h + F P(x)* with x even.

    Bracket rows: [x,u] = D(u), [u,v] = [u,v]_h + B_h(D(u),v) P(x)*, P(x)*
    central, [x,x] = [x,P(x)*] = 0. Metric: B_h on h and B(x, P(x)*) = 1.
    Raises as ``heisenberg_context`` does.
    """
    heisenberg_context(p)
    h = p.h
    nh = h.dim
    n = nh + 2
    lab = _fresh_label(h.space)
    space = SuperSpace(((lab, 0),) + h.space.basis + ((f"P({lab})*", 1),))

    entries = _action_entries(p) + h.bracket.entries(1, 1, 1) + _omega_entries(p, n - 1)
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(SuperBracket.from_entries(space, entries)),
                                    _hyperbolic_metric(space, h))


def heisenberg_context(p: HeisenbergExtensionParams) -> DeltaContext:
    """The context for the even-generator extension, lambda = omega = 0, validated."""
    trivial = DeltaContext.trivial(ODD, _one_dim_algebra(_fresh_label(p.h.space), 0), p.h)
    ctx = replace(trivial, rho=(p.d,))
    double_extend(ctx)  # certifies ctx and caches its extension
    return ctx


def default_odd_dim1_params(eta=Fraction(1)) -> OddExtensionParams:
    """Trivial-h instance: the 2-dimensional algebra [x,x] = eta P(x)*."""
    h_space = SuperSpace(())
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(h_space),
                                 GradedBilinearForm.from_entries(h_space, ODD, ()))
    d = GradedLinearMap.zero(h_space, h_space, 1)
    return OddExtensionParams(h, d, (), eta)


def default_heisenberg_params(pairs: int = 1) -> HeisenbergExtensionParams:
    """h = hyperbolic pairs (e_i even, f_i odd), B_h(e_i,f_i) = 1, D = diag(1,-1)."""
    if pairs < 1:
        raise ValueError("need at least one hyperbolic pair")
    basis = []
    for i in range(pairs):
        suffix = str(i) if pairs > 1 else ""
        basis.append((f"e{suffix}", 0))
        basis.append((f"f{suffix}", 1))
    h_space = SuperSpace(tuple(basis))
    metric = [e for i in range(0, 2 * pairs, 2) for e in ((i, i + 1, 1), (i + 1, i, 1))]
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(h_space),
                                 GradedBilinearForm.from_entries(h_space, ODD, metric))
    d = GradedLinearMap.from_entries(h_space, h_space, 0,
                                     [(i, i, 1 - 2 * (i % 2)) for i in range(2 * pairs)])
    return HeisenbergExtensionParams(h, d)
