"""Poset machinery on P+ x Z^ell: Psi-sets, the refined order, distances and
the finite convex up-sets of the graded character recursion, walked from their
base by psi-steps (the distance search d_psi serves leq_psi and the oracles)."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .repchar import BoundedCache, register_cache
from .rootsys import (
    RootSystem,
    Weight,
    _require_rank,
    add_weights,
    integral_root_coords,
    omega_weight,
    require_degree,
    require_dominant,
    require_ell,
    sub_weights,
)

MultiDegree = tuple[int, ...]


def deg(r: MultiDegree) -> int:
    """Total degree of a multidegree vector."""
    return sum(r)


def compositions(total: int, parts: int) -> Iterator[MultiDegree]:
    """All vectors in Z_+^parts with coordinate sum equal to total, in
    lexicographic order: stars and bars, the bars' slots in lexicographic order."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


class LambdaPoint(NamedTuple):
    weight: Weight
    degree: MultiDegree


# A Psi set: a finite set of weights, normally negatives of positive roots.
PsiSet = frozenset[Weight]


def psi_i(rs: RootSystem, i: int) -> PsiSet:
    """Negatives of the positive roots whose i-th simple-root coefficient is 2
    (node i in 1-based Bourbaki numbering).  When the highest root has
    coefficient 2 at node i this is the face of the adjoint weight polytope
    minimised by omega_i; otherwise it is empty."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"node {i} out of range 1..{rs.rank}")
    if rs.highest_root.coords[i - 1] != 2:
        return frozenset()
    return psi_of_mu(rs, omega_weight(rs.rank, (i, 1)))


def psi_of_mu(rs: RootSystem, mu) -> PsiSet:
    """Roots minimising the pairing with mu: the face of the adjoint weight
    polytope that mu minimises."""
    mu = require_dominant(rs, mu)
    if not any(mu):
        raise ValueError(f"psi_of_mu requires a nonzero dominant weight, got {mu}")
    pairings = {root.weight: rs.pair_root(mu, root) for root in rs.positive_roots}
    top = max(pairings.values())
    if top <= 0:
        raise AssertionError(f"nonzero dominant {mu} pairs to {top} with every positive root")
    return frozenset(
        tuple(-c for c in w) for w, value in pairings.items() if value == top
    )


def i_lambda(rs: RootSystem, lam) -> int:
    """Largest non-spin node in the support of lam, with fallback 1."""
    lam = require_dominant(rs, lam)
    best = 1
    for node in range(1, rs.rank + 1):
        if lam[node - 1] and node not in rs.spin_nodes:
            best = node
    return best


def psi_lambda(rs: RootSystem, lam) -> PsiSet:
    return psi_i(rs, i_lambda(rs, lam))


def check_polytope_condition(rs: RootSystem, psi: PsiSet) -> bool:
    """Face test: psi is exactly the set of weights of the adjoint module on
    which the pairing with its barycentre b = sum(psi) is largest.  Passing
    proves that psi is the face on which b is largest; a face of the
    Weyl-invariant adjoint weight polytope always passes, since its barycentre
    is largest on it and nowhere else."""
    table = rs.adjoint_coords
    if not psi.issubset(table):
        raise ValueError("psi is not contained in the weight set of the adjoint module")
    if not psi:
        return True
    # (x, b) = sum_j c_j d_j x_j with c the integer root coordinates of b.
    coords = [sum(column) for column in zip(*(table[w] for w in psi))]
    functional = [c * d for c, d in zip(coords, rs.half_lengths)]
    values = {x: sum(f * c for f, c in zip(functional, x)) for x in table}
    top = max(values.values())
    return psi == {x for x, value in values.items() if value == top}


def check_psi_extra(rs: RootSystem, psi: PsiSet) -> bool:
    """Support condition: psi lies in the negative roots.  The other one, that
    no element of psi is xi + alpha_j for a dominant adjoint weight xi and a
    simple root alpha_j, follows and is not tested: such a xi is 0 or a
    positive root, so xi + alpha_j has nonnegative root coordinates."""
    table = rs.adjoint_coords
    return all(w in table and sum(table[w]) < 0 for w in psi)


def checked_psi(rs: RootSystem, psi: PsiSet) -> PsiSet:
    """Return psi when it is a face of the adjoint weight polytope and meets
    the support conditions; raise ValueError otherwise."""
    psi = frozenset(psi)
    if not check_polytope_condition(rs, psi):
        raise ValueError("psi fails the weight-polytope face condition")
    if not check_psi_extra(rs, psi):
        raise ValueError("psi fails the support conditions")
    return psi


# -- the Psi-distance ------------------------------------------------------------

_d_psi_cache = register_cache(BoundedCache())


def _psi_root_coords(rs: RootSystem, psi: PsiSet) -> tuple[tuple[int, ...], ...]:
    out = []
    for nu in psi:
        coords = rs.adjoint_coords.get(nu)
        if coords is None or sum(coords) >= 0:
            raise ValueError(f"psi element {nu} is not a negative root")
        out.append(coords)
    return tuple(sorted(out))


def d_psi(rs: RootSystem, psi: PsiSet, lam, mu) -> int | None:
    """Minimal number of psi elements (with repetition) summing to mu - lam;
    None when no such expression exists."""
    lam, mu = _require_rank(rs, lam), _require_rank(rs, mu)
    diff = sub_weights(mu, lam)
    target = integral_root_coords(rs, diff)
    if target is None or any(c > 0 for c in target):
        return None
    if not any(target):
        return 0
    moves = _psi_root_coords(rs, psi)
    if not moves:
        return None
    key = (rs.lie_type, moves, target)
    hit = _d_psi_cache.get(key)
    if hit is not None:
        return hit if hit >= 0 else None
    n = rs.rank
    frontier = {(0,) * n}
    seen = {(0,) * n}
    steps = 0
    while frontier:
        steps += 1
        nxt = set()
        for state in frontier:
            for move in moves:
                new = tuple(s + m for s, m in zip(state, move))
                if new == target:
                    _d_psi_cache.put(key, steps)
                    return steps
                # Coordinates only decrease; prune once past the target.
                if new in seen or any(c < t for c, t in zip(new, target)):
                    continue
                seen.add(new)
                nxt.add(new)
        frontier = nxt
    _d_psi_cache.put(key, -1)
    return None


# -- order relations --------------------------------------------------------------

def _require_lengths(rs: RootSystem, ell: int, *points: LambdaPoint) -> None:
    for p in points:
        _require_rank(rs, p.weight)
        require_degree(p.degree, ell)


def leq_psi(rs: RootSystem, psi: PsiSet, a: LambdaPoint, b: LambdaPoint) -> bool:
    _require_lengths(rs, len(a.degree), a, b)
    ddeg = sub_weights(b.degree, a.degree)
    if any(c < 0 for c in ddeg):
        return False
    d = d_psi(rs, psi, a.weight, b.weight)
    return d is not None and d == deg(ddeg)


# -- Gamma enumeration --------------------------------------------------------------

class GammaSet:
    """Finite convex up-set above ``base`` in the refined order, enumerated
    compatibly with it (sort key: distance, then weight, then degree)."""

    def __init__(self, base: LambdaPoint, psi: PsiSet,
                 points: tuple[LambdaPoint, ...], d_of: dict[Weight, int]):
        self.base = base
        self.psi = psi
        self.points = points
        self.d_of = d_of
        self.index_of = {p: i for i, p in enumerate(points)}

    @property
    def ell(self) -> int:
        return len(self.base.degree)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return point in self.index_of

    def __repr__(self):
        return f"GammaSet(base={self.base}, size={len(self.points)})"


def gamma_psi(rs: RootSystem, psi: PsiSet, base: LambdaPoint, ell: int) -> GammaSet:
    """Enumerate every point reachable from ``base`` in the refined order.

    The weights are walked breadth-first from base.weight by single steps of
    psi through dominant weights; for a psi that :func:`checked_psi` accepts,
    a weight's level is its distance d_psi (the lemma in the README).  The
    multidegrees of a kept weight are all shifts of the base degree by a
    vector of the matching total degree.
    """
    psi = checked_psi(rs, psi)
    _require_lengths(rs, require_ell(ell), base)
    lam = require_dominant(rs, base.weight, "base weight")
    base = LambdaPoint(lam, tuple(base.degree))
    d_of = {lam: 0}
    level = [lam]
    while level:
        nxt = []
        for mu in level:
            for step in psi:
                nu = add_weights(mu, step)
                if nu not in d_of and rs.is_dominant(nu):
                    d_of[nu] = d_of[mu] + 1
                    nxt.append(nu)
        level = nxt
    keyed = sorted((d, mu, tuple(b + x for b, x in zip(base.degree, r)))
                   for mu, d in d_of.items() for r in compositions(d, ell))
    points = tuple(LambdaPoint(mu, s) for _, mu, s in keyed)
    return GammaSet(base, psi, points, d_of)
