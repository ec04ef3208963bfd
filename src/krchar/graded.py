"""Multigraded characters of generalized Kirillov-Reshetikhin modules.

Two independent routes compute the graded character of the projective cover
attached to a finite convex up-set: the direct route reads multiplicities off
symmetric powers of the degree-one layers, the recursive route solves the
alternating-sum identity along the enumeration, expressing inner terms as
translated characters based at degree zero.  Their entrywise agreement is the
library's central cross-check, as is the triangular matrix identity
A(t) E(-t) = Id relating projective multiplicities and Ext dimensions.
"""

from __future__ import annotations

from .poset import (
    GammaSet,
    LambdaPoint,
    MultiDegree,
    PsiSet,
    _require_lengths,
    deg,
    gamma_psi,
    psi_lambda,
)
from .repchar import (
    BoundedCache,
    register_cache,
    ModuleSpec,
    SparseChar,
    c_coefficient,
    sym_coefficient,
)
from .rootsys import (RootSystem, Weight, _require_rank, add_weights, require_degree,
                      require_dominant, require_ell, sub_weights)

MODES = ("fixed-psi", "per-weight-psi")


class GradedChar(SparseChar):
    """Finite integer combination of (dominant weight, multidegree) pairs:
    the isotypical form of a graded character."""

    __slots__ = ()

    def shift(self, r: MultiDegree) -> "GradedChar":
        """Multiply by the monomial t^r; r must have the length of the degrees."""
        degree = next((s for _, s in self.entries), r)  # all degrees share one length
        r = require_degree(r, len(degree), "shift")
        return GradedChar({
            (w, add_weights(s, r)): v for (w, s), v in self.entries.items()
        })

    def canonical_items(self):
        return sorted(
            self.entries.items(),
            key=lambda kv: (deg(kv[0][1]), kv[0][0], kv[0][1]),
        )

    def __repr__(self):
        return f"GradedChar({dict(self.canonical_items())!r})"


# -- Ext dimensions and the columns of A(t) E(-t) ---------------------------------

def ext_dim(rs: RootSystem, ms: ModuleSpec, a: LambdaPoint, b: LambdaPoint,
            j: int) -> int:
    """dim Ext^j between the simples at a and b; nonzero only in the single
    cohomological degree matching the multidegree gap."""
    _require_lengths(rs, ms.ell, a, b)
    require_dominant(rs, a.weight, "source weight")
    require_dominant(rs, b.weight, "target weight")
    k = sub_weights(b.degree, a.degree)
    if any(x < 0 for x in k) or deg(k) != j:
        return 0
    return c_coefficient(rs, ms, a.weight, b.weight, k)


def _column(rs: RootSystem, ms: ModuleSpec, gamma: GammaSet, base: LambdaPoint,
            coefficient) -> dict[LambdaPoint, int]:
    """The nonzero ``coefficient(base.weight, mu, s - base.degree)`` for every
    point (mu, s) of gamma with s >= base.degree, in enumeration order."""
    base = LambdaPoint(tuple(base.weight), tuple(base.degree))
    if base not in gamma:
        raise ValueError(f"base point {base} does not belong to the gamma set")
    column: dict[LambdaPoint, int] = {}
    for point in gamma.points:
        k = sub_weights(point.degree, base.degree)
        if any(x < 0 for x in k):
            continue
        value = coefficient(rs, ms, base.weight, point.weight, k)
        if value:
            column[point] = value
    return column


def _resolution_column(rs: RootSystem, ms: ModuleSpec, gamma: GammaSet, base: LambdaPoint,
                       projective: dict) -> dict[LambdaPoint, int]:
    """Column ``base`` of A(t) E(-t): the sum over the Ext column at ``base``
    of (-1)^(|s_k| - |s_base|) e_k, the sign E(-t) gives the entry's degree
    gap, times the projective column of k, which ``projective`` holds once
    read.  Entry (i, base) has degree s_i - s_base, so only its integer is
    kept.  Each column read is checked to be unitriangular."""

    def triangular(point, coefficient):
        column = _column(rs, ms, gamma, point, coefficient)
        col = gamma.index_of[point]
        for target, value in column.items():
            row = gamma.index_of[target]
            if row < col or (row == col and value != 1):
                raise AssertionError("matrix is not unitriangular")
        return column

    base = LambdaPoint(tuple(base.weight), tuple(base.degree))
    total: dict[LambdaPoint, int] = {}
    for point, e in triangular(base, c_coefficient).items():
        if point not in projective:
            projective[point] = triangular(point, sym_coefficient)
        e = -e if (deg(point.degree) - deg(base.degree)) % 2 else e
        for row, a in projective[point].items():
            total[row] = total.get(row, 0) + e * a
    return total


def verify_AE_identity(rs: RootSystem, ms: ModuleSpec,
                       gamma: GammaSet) -> tuple[bool, str | None]:
    """Check A(t) E(-t) = Id one column at a time; on failure the first wrong
    entry in row-major order is reported."""
    projective: dict = {}
    wrong = []
    for j, point in enumerate(gamma.points):
        column = _resolution_column(rs, ms, gamma, point, projective)
        for row in column.keys() | {point}:
            total = column.get(row, 0)
            if total != (row == point):
                wrong.append((gamma.index_of[row], j, total))
    if not wrong:
        return True, None
    i, j, total = min(wrong)
    p_i, p_j = gamma.points[i], gamma.points[j]
    acc = {sub_weights(p_i.degree, p_j.degree): total} if total else {}
    return False, f"entry ({p_i}, {p_j}) = {acc}"


# -- the two character routes ------------------------------------------------------

def gch_P_direct(rs: RootSystem, ms: ModuleSpec, base: LambdaPoint,
                 gamma: GammaSet) -> GradedChar:
    """Graded character of the projective cover at ``base`` cut to ``gamma``,
    read directly off symmetric powers of the degree-one layers."""
    return GradedChar(_column(rs, ms, gamma, base, sym_coefficient))


_gch_n0_cache = register_cache(BoundedCache())


def _gch_recursive_base0(rs: RootSystem, ms: ModuleSpec, mu: Weight,
                         psi: PsiSet, mode: str) -> GradedChar:
    """Recursive graded character based at (mu, 0) over gamma_psi(mu, 0),
    graded by the ms.ell layers of ms."""
    key = (rs.lie_type, ms.components, mu, psi, mode)
    hit = _gch_n0_cache.get(key)
    if hit is not None:
        return hit
    base = LambdaPoint(mu, (0,) * ms.ell)
    gamma = gamma_psi(rs, psi, base, ms.ell)
    out = GradedChar({base: 1})
    for (nu, s), coeff in _column(rs, ms, gamma, base, c_coefficient).items():
        if (nu, s) == base:
            continue
        inner_psi = psi if mode == "fixed-psi" else psi_lambda(rs, nu)
        inner = _gch_recursive_base0(rs, ms, nu, inner_psi, mode)
        sign = -1 if deg(s) % 2 else 1
        out = out - (sign * coeff) * inner.shift(s)
    _gch_n0_cache.put(key, out)
    return out


def gch_P_recursive(rs: RootSystem, ms: ModuleSpec, base: LambdaPoint,
                    gamma: GammaSet, mode: str = "fixed-psi") -> GradedChar:
    """Graded character of the projective cover at ``base`` computed through
    the alternating-sum identity; the reference that :func:`gch_P_direct`
    (and so :func:`gch_N`) is checked against, never a production route.

    In fixed-psi mode the inner translates reuse gamma's own Psi set; in
    per-weight-psi mode each inner weight derives its own from its largest
    non-spin support node.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    base = LambdaPoint(tuple(base.weight), tuple(base.degree))
    if base != gamma.points[0]:
        raise ValueError("the recursive route starts at the minimum of gamma")
    _require_lengths(rs, ms.ell, base)  # gamma is graded like ms
    return _gch_recursive_base0(rs, ms, base.weight, gamma.psi, mode).shift(base.degree)


# Unused by the library; kept only because perfbench/tracer.py resolves memo.gch_n.
_gch_n_cache = register_cache(BoundedCache())


def gch_N(rs: RootSystem, lam, ell: int) -> GradedChar:
    """Graded character of the generalized Kirillov-Reshetikhin module with
    highest weight lam over ell grading variables, based at degree zero,
    read off symmetric powers (:func:`gch_P_direct`) on Gamma_{psi_lam}."""
    lam, ell = require_dominant(rs, lam), require_ell(ell)
    ms = ModuleSpec.adjoint(rs, ell)
    base = LambdaPoint(lam, (0,) * ell)
    out = gch_P_direct(rs, ms, base, gamma_psi(rs, psi_lambda(rs, lam), base, ell))
    if not out.is_genuine():
        raise AssertionError(f"graded character of N({lam}) has negative entries")
    return out


def verify_alternating_sum(rs: RootSystem, ms: ModuleSpec, base: LambdaPoint,
                           gamma: GammaSet) -> tuple[bool, str | None]:
    """Check the alternating-sum identity, column ``base`` of A(t) E(-t) = Id:
    the signed sum of the projective characters over gamma is the single
    simple character at ``base``.  The simple characters are linearly
    independent, so comparing the sums in their basis misses nothing a full
    weight expansion would catch."""
    column = _resolution_column(rs, ms, gamma, base, {})
    diff = GradedChar(column) - GradedChar({(tuple(base.weight), tuple(base.degree)): 1})
    if diff:
        (w, r), v = diff.canonical_items()[0]
        return False, f"first mismatch at weight {w} degree {r}: {v}"
    return True, None


def multiplicity_ell_profile(rs: RootSystem, lam, mu, ell_max: int) -> list[int]:
    """Total multiplicity of V(mu) inside the generalized KR module of
    highest weight lam, for each number of grading variables 1..ell_max."""
    mu = _require_rank(rs, mu)
    profile = []
    for ell in range(1, require_ell(ell_max) + 1):
        g = gch_N(rs, lam, ell)
        profile.append(sum(v for (w, _), v in g.entries.items() if w == mu))
    return profile
