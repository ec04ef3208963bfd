"""Root systems of the classical Lie algebras A, B, C, D.

Weights are plain integer tuples in the fundamental-weight basis throughout:
``xi[i]`` is the coefficient of the (i+1)-th fundamental weight in Bourbaki
node numbering.  Root coordinates (coefficients on the simple roots) of a
weight in the root lattice are read off one integer matrix, cartan_det *
C^-T.  This module uses no fraction and no floating point; the bilinear
form is normalised so that short roots have squared length 2.
:func:`dominant_weights_below` is the one enumeration of the dominant weights
of a simple module, and the Freudenthal multiplicities start from it; the
Gamma sets of :mod:`poset` walk by psi-steps instead and never call it.
The orbit walk and the descents reflect through
``RootSystem.reflection_links``.  :func:`weyl_orbit` is the one orbit walk,
of a dominant weight under the whole Weyl group: the Racah-Speiser kernel,
Freudenthal's spread and the Weyl-group table of ``verify`` use it.  It lists
the orbit with no signs.  It records the second walk of each orbit shape
(type, zero pattern) and replays it for every later weight of that shape;
the recorded walks are root-system data and live as long as the process.
:func:`stabilizer_orbits` walks no orbit.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import prod
from operator import add, mul, not_, sub
from typing import NamedTuple

Weight = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}

_EXPECTED_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}


class LieType(NamedTuple):
    """A classical family label A/B/C/D together with its rank."""

    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def validate_lie_type(t: LieType) -> None:
    if t.family not in _MIN_RANK:
        raise ValueError(f"unsupported family {t.family!r}: expected one of A, B, C, D")
    if t.rank < _MIN_RANK[t.family]:
        raise ValueError(
            f"rank {t.rank} is too small for family {t.family} "
            f"(minimum is {_MIN_RANK[t.family]})"
        )


def parse_lie_type(text: str) -> LieType:
    """Parse a label like ``"D5"`` into a validated :class:`LieType`."""
    label = text.strip()
    if not label or label[0].upper() not in _MIN_RANK:
        raise ValueError(f"unsupported algebra {text!r}: expected A/B/C/D followed by the rank")
    rank = label[1:]
    # ASCII digits only: int() also takes '+2', ' 5' and non-ASCII digits.
    if not (rank.isascii() and rank.isdigit()):
        raise ValueError(f"invalid rank {rank!r} in algebra label {text!r}")
    t = LieType(label[0].upper(), int(rank))
    validate_lie_type(t)
    return t


class PositiveRoot(NamedTuple):
    coords: tuple[int, ...]  # coefficients on the simple roots
    weight: Weight           # the same root in fundamental-weight coordinates
    half_norm: int           # (beta, beta)/2, equal to 1 for short and 2 for long roots
    md: tuple[int, ...]      # coords[i] * d[i]; (xi, beta) = sum(md[i] * xi[i])
    md_sum: int              # (rho, beta)


def _cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    # Convention: cartan[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), so the
    # weight coordinates of alpha_i are row i and weight = cartan^T . root coords.
    n = t.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if t.family == "B":
        m[n - 2][n - 1] = -2
        m[n - 1][n - 2] = -1
    elif t.family == "C":
        m[n - 2][n - 1] = -1
        m[n - 1][n - 2] = -2
    elif t.family == "D":
        m[n - 2][n - 1] = m[n - 1][n - 2] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in m)


def _half_lengths(t: LieType) -> tuple[int, ...]:
    # d[i] = (alpha_i, alpha_i)/2 with short roots of squared length 2.
    n = t.rank
    if t.family == "B":
        return (2,) * (n - 1) + (1,)
    if t.family == "C":
        return (1,) * (n - 1) + (2,)
    return (1,) * n


def _adjugate(matrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det A and the integer matrix det A * A^-1, by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968): every division is exact.  The
    pivots are the leading principal minors, positive for a finite-type Cartan
    matrix (its principal submatrices are of finite type), so no row is swapped."""
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k, top in enumerate(rows):
        pivot = top[k]
        if pivot <= 0:
            raise AssertionError(f"leading principal minor {k + 1} is {pivot}, not positive")
        for row in rows:
            if row is not top:
                f = row[k]
                for j in range(2 * n):
                    row[j], r = divmod(pivot * row[j] - f * top[j], prev)
                    if r:
                        raise AssertionError("inexact division in the fraction-free elimination")
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in rows)


class RootSystem:
    """Immutable root-system data for one classical simple Lie algebra.

    All attributes are computed in the constructor and must be treated as
    read-only; instances are safe to share between threads.
    """

    def __init__(self, lie_type: LieType):
        validate_lie_type(lie_type)
        self.lie_type = lie_type
        n = lie_type.rank
        self.rank = n
        self.cartan = _cartan_matrix(lie_type)
        # (j, -cartan[i][j]) for the nodes j joined to i: the simple
        # reflection s_i negates the coordinate at i, c, and adds
        # c * -cartan[i][j] at each such j.  weyl_orbit, _descend and the
        # Racah-Speiser kernel reflect this way.
        self.reflection_links = tuple(
            tuple((j, -a) for j, a in enumerate(row) if a and j != i)
            for i, row in enumerate(self.cartan)
        )
        self.half_lengths = _half_lengths(lie_type)
        self.positive_roots = self._close_positive_roots()
        expected = _EXPECTED_ROOT_COUNT[lie_type.family](n)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{lie_type}: found {len(self.positive_roots)} positive roots, expected {expected}"
            )
        # An irreducible system has one root of greatest height, so the
        # sorted list ends with it.
        self.highest_root: PositiveRoot = self.positive_roots[-1]
        theta = self.highest_root.coords
        if any(t < c for root in self.positive_roots for t, c in zip(theta, root.coords)):
            raise AssertionError("highest root does not dominate all positive roots")
        # Integer root coordinates of each adjoint weight: zero and every root.
        self.adjoint_coords = {(0,) * n: (0,) * n}
        for r in self.positive_roots:
            self.adjoint_coords[r.weight] = r.coords
            self.adjoint_coords[tuple(-c for c in r.weight)] = tuple(-c for c in r.coords)
        # cartan_det * C^-T: row i dotted with a weight is cartan_det times its
        # i-th root coordinate.  The one inverse, kept in integers.
        self.cartan_det, self.adj_cartan_t = _adjugate(tuple(zip(*self.cartan)))
        if lie_type.family == "B":
            self.spin_nodes = frozenset({n})
        elif lie_type.family == "D":
            self.spin_nodes = frozenset({n - 1, n})
        else:
            self.spin_nodes = frozenset()
        # The product of (rho, beta) over the positive roots: the denominator
        # of the Weyl dimension formula.
        self.rho_product = prod(root.md_sum for root in self.positive_roots)

    # -- construction -----------------------------------------------------

    def _close_positive_roots(self):
        # Every positive root is reached from a simple root by simple
        # reflections that raise its height (Humphreys, Introduction to Lie
        # Algebras, 10.2): where the weight coordinate c = <beta, alpha_i^vee>
        # is negative, s_i beta = beta - c alpha_i is a positive root.
        n = self.rank
        cartan = self.cartan
        d = self.half_lengths
        roots = {tuple(int(j == i) for j in range(n)): cartan[i] for i in range(n)}
        walk = list(roots)
        for coords in walk:  # grows as new roots are found
            weight = roots[coords]
            for i, c in enumerate(weight):
                if c < 0:
                    up = coords[:i] + (coords[i] - c,) + coords[i + 1:]
                    if up not in roots:
                        roots[up] = tuple(w - c * a for w, a in zip(weight, cartan[i]))
                        walk.append(up)
        result = []
        for coords in sorted(roots, key=lambda c: (sum(c), c)):
            weight = roots[coords]
            md = tuple(c * di for c, di in zip(coords, d))
            norm = sum(m * w for m, w in zip(md, weight))
            if norm % 2:
                raise AssertionError(f"odd squared length for root {coords}")
            result.append(PositiveRoot(coords, weight, norm // 2, md, sum(md)))
        return tuple(result)

    # -- basic queries -----------------------------------------------------

    def is_dominant(self, xi: Weight) -> bool:
        return len(xi) == self.rank and all(c >= 0 for c in xi)

    def pair_root(self, xi, root: PositiveRoot) -> int:
        """(xi, beta) for a positive root beta; always an integer."""
        return sum(map(mul, root.md, xi))

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


@lru_cache(maxsize=None)
def _cached_root_system(t: LieType) -> RootSystem:
    return RootSystem(t)


# (type, zero pattern of x) -> the recorded walk of :func:`weyl_orbit`: the
# walk index of each new element's parent and the node it reflected at; None
# while the key has been walked only once.  Root-system data like
# :func:`stabilizer_orbits`, not a memo of results, so clear_memo_caches
# leaves it; 6 bytes per orbit element.  Threads share it with no lock: an
# entry is only ever set whole, to None or to a finished record, so a race
# costs a walk, never a wrong orbit.
_orbit_programs: dict[tuple, tuple[array, array] | None] = {}


def weyl_orbit(rs: RootSystem, x) -> list[Weight]:
    """The Weyl orbit of the dominant weight x, in walk order.

    Any x with a negative coordinate is refused as an internal error.  The
    walk reflects only at positive coordinates, so it only steps down, yet
    it reaches the whole orbit: any other element has a negative coordinate
    at some node, and reflecting there climbs toward x, so reversed, that
    chain steps down.  The walk is breadth first, so it lists the orbit
    level by level, by the number of reflections taken from x.

    The second walk for each zero pattern Z of x is recorded and later x
    with the same pattern replay it.  The first walk records nothing:
    recording adds 10-20 % to a walk, and most patterns of one large product
    never recur.  For w in W and a node i, <wx, alpha_i^vee> =
    <x, w^-1 alpha_i^vee>, and w^-1 alpha_i^vee is a coroot: positive or
    negative, and orthogonal to x exactly when it lies in the subsystem of
    Z, since x is dominant.  So whether the walk reflects at i depends only
    on w and Z.  The stabilizer of x is W_Z (Humphreys, Introduction to Lie
    Algebras, 10.3), so whether wx = w'x depends only on w, w' and Z too.
    The walk of any x with pattern Z takes the same steps in the same order,
    and the replay applies them with no membership probe.
    """
    # Before the lookup: such an x shares its zero pattern with dominant
    # weights, and its own walk covers only part of its orbit.
    if min(x) < 0:
        raise AssertionError(f"weyl_orbit given the non-dominant weight {x}")
    key = (rs.lie_type, tuple(map(not_, x)))
    links = rs.reflection_links
    program = _orbit_programs.get(key)
    walk = [x]
    append = walk.append
    if program:
        for p, i in zip(*program):
            y = walk[p]
            c = y[i]
            z = list(y)
            z[i] = -c
            for j, b in links[i]:
                z[j] += c * b
            append(tuple(z))
        return walk
    record = key in _orbit_programs  # walked once before
    seen = {x}
    parents = array("I")
    reflected = array("H")
    record_parent, record_node = parents.append, reflected.append
    nodes = range(rs.rank)
    for p, y in enumerate(walk):  # one FIFO: the list grows as it is read
        for i in nodes:
            c = y[i]
            if c > 0:
                z = list(y)
                z[i] = -c
                for j, b in links[i]:
                    z[j] += c * b
                z = tuple(z)
                if z not in seen:
                    seen.add(z)
                    append(z)
                    if record:
                        record_parent(p)
                        record_node(i)
    _orbit_programs[key] = (parents, reflected) if record else None
    return walk


@lru_cache(maxsize=None)
def stabilizer_orbits(t: LieType, zeros: tuple[bool, ...]) -> tuple[tuple[PositiveRoot, int], ...]:
    """One positive root from each orbit of W_Z = <s_j : zeros[j]> on the
    roots up to sign, with the number of roots in that orbit and its negative.

    For a dominant mu with zero pattern ``zeros``, W_Z is the stabilizer of
    mu.  It maps a positive root beta with (mu, beta) > 0 to another (the
    pairing is kept and is positive only on positive roots), so the orbit
    and its negative are disjoint, 2|O| roots.  A root orthogonal to mu lies
    in the subsystem of Z and s_beta sends it to its negative in the same
    orbit, so the orbit holds |O| roots: two roots per positive root of the
    orbit either way.  Each W_Z-orbit meets the closed chamber of Z (no
    negative coordinate at Z) once (Humphreys, Introduction to Lie Algebras,
    10.3).  Descending at Z raises a positive root's height, so it lands on
    the orbit's highest root, the first met from the highest down; no orbit
    is walked.  Kept per (type, zeros) like the root systems: it is
    root-system data, and computed only for the patterns a caller meets.
    """
    rs = _cached_root_system(t)
    nodes = [j for j, z in enumerate(zeros) if z]
    counts: dict[Weight, int] = {}
    for root in reversed(rs.positive_roots):
        top = _descend(rs, root.weight, nodes)[0]
        counts[top] = counts.get(top, 0) + 2
    return tuple((root, counts[root.weight]) for root in reversed(rs.positive_roots)
                 if root.weight in counts)


def build_root_system(t: LieType | str) -> RootSystem:
    """Return the (shared, immutable) root system for a classical type."""
    if isinstance(t, str):
        t = parse_lie_type(t)
    validate_lie_type(t)
    return _cached_root_system(t)


def _descend(rs: RootSystem, xi, nodes=None) -> tuple[Weight, int]:
    """Move xi by simple reflections at ``nodes``, all by default, until it
    has no negative coordinate there.

    Returns (x, parity) where parity is (-1)^(number of reflections).
    """
    coords = list(xi)
    links = rs.reflection_links
    parity = 1
    moved = True
    if nodes is None:
        nodes = range(rs.rank)
    while moved:
        moved = False
        for i in nodes:
            c = coords[i]
            if c < 0:
                coords[i] = -c
                for j, b in links[i]:
                    coords[j] += c * b
                parity = -parity
                moved = True
    return tuple(coords), parity


def _require_rank(rs: RootSystem, xi, what: str = "weight") -> Weight:
    """xi as a tuple; ValueError, naming xi as ``what``, unless it has one
    integer coordinate per node.  This and the three ``require_`` helpers are
    the library's only refusals of a weight, a multidegree or an ell."""
    xi = tuple(xi)
    if len(xi) != rs.rank:
        raise ValueError(
            f"{what} {list(xi)} has {len(xi)} coordinates but {rs.lie_type} has rank {rs.rank}"
        )
    if not all(type(c) is int for c in xi):
        raise ValueError(f"{what} {list(xi)} has a coordinate that is not an integer")
    return xi


def require_dominant(rs: RootSystem, xi, what: str = "weight") -> Weight:
    """xi as a tuple; ValueError unless it is a dominant integer weight of rs."""
    xi = tuple(xi)
    # One pass on the common path; the messages keep _require_rank's order.
    if len(xi) != rs.rank or not all(type(c) is int and c >= 0 for c in xi):
        _require_rank(rs, xi, what)
        raise ValueError(f"{what} {list(xi)} is not dominant")
    return xi


def require_degree(r, ell: int, what: str = "degree") -> tuple[int, ...]:
    """r as a tuple; ValueError, naming r as ``what``, unless it has ell integer entries."""
    r = tuple(r)
    if len(r) != ell:
        raise ValueError(f"{what} {list(r)} does not have length ell={ell}")
    if not all(type(x) is int for x in r):
        raise ValueError(f"{what} {list(r)} has an entry that is not an integer")
    return r


def require_ell(ell) -> int:
    """ell; ValueError unless it is a positive integer (the number of grading variables)."""
    if type(ell) is not int:
        raise ValueError(f"ell must be an integer, got {ell!r}")
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    return ell


def integral_root_coords(rs: RootSystem, xi) -> tuple[int, ...] | None:
    """Coordinates of xi on the simple roots, in integers, or None when xi is
    not in the root lattice."""
    xi = _require_rank(rs, xi)
    det = rs.cartan_det
    coords = []
    for row in rs.adj_cartan_t:
        q, r = divmod(sum(map(mul, row, xi)), det)
        if r:
            return None
        coords.append(q)
    return tuple(coords)


_weyl_dim_cache: dict[tuple[LieType, Weight], int] = {}


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the simple module V(lam) by the Weyl product formula."""
    lam = require_dominant(rs, lam)  # before the lookup: 1.0 would hit the key of 1
    key = (rs.lie_type, lam)
    hit = _weyl_dim_cache.get(key)
    if hit is not None:
        return hit
    # Product of (lam + rho, beta) / (rho, beta), both integers in this
    # normalisation; one division keeps the arithmetic in integers.  Each
    # pairing is one C-level dot product: a list, not a generator per root.
    num = prod([sum(map(mul, root.md, lam)) + root.md_sum for root in rs.positive_roots])
    value, rem = divmod(num, rs.rho_product)
    if rem:
        raise AssertionError(f"non-integral Weyl dimension for {lam}")
    _weyl_dim_cache[key] = value
    return value


@lru_cache(maxsize=None)
def _dominant_steps(t: LieType, zeros: tuple[bool, ...]) -> tuple[PositiveRoot, ...]:
    """The positive roots, in order, with no positive coordinate where
    ``zeros`` is true.  Kept per (type, zeros) like :func:`stabilizer_orbits`."""
    return tuple(root for root in _cached_root_system(t).positive_roots
                 if not any(z and c > 0 for z, c in zip(zeros, root.weight)))


def dominant_weights_below(rs: RootSystem, lam) -> dict[Weight, tuple[int, ...]]:
    """The dominant weights mu of V(lam), each with the integer root
    coordinates of lam - mu, in order of increasing height of lam - mu.

    They are reached from lam by steps that subtract a positive root and stay
    dominant (Stembridge, "The partial order of dominant weights", 1998); no
    weight system is built.  A root with a positive coordinate where mu has a
    zero is never tried from mu: mu minus that root is negative there, so the
    step could not stay dominant.  Skipping it inserts the same weights in the
    same order.
    """
    lam = require_dominant(rs, lam)
    found = {lam: (0,) * rs.rank}
    todo = [lam]
    t = rs.lie_type
    while todo:
        mu = todo.pop()
        coords = found[mu]
        for root in _dominant_steps(t, tuple(map(not_, mu))):
            nu = sub_weights(mu, root.weight)
            if nu not in found and min(nu) >= 0:  # nu has rs.rank coordinates
                found[nu] = add_weights(coords, root.coords)
                todo.append(nu)
    return dict(sorted(found.items(), key=lambda item: sum(item[1])))


def omega_weight(rank: int, *terms: tuple[int, int]) -> Weight:
    """Build a weight from (node, coefficient) pairs, nodes 1-based."""
    coords = [0] * rank
    for node, coeff in terms:
        if not 1 <= node <= rank:
            raise ValueError(f"node {node} out of range 1..{rank}")
        coords[node - 1] += coeff
    return tuple(coords)


def add_weights(x, y) -> Weight:
    return tuple(map(add, x, y))


def sub_weights(x, y) -> Weight:
    return tuple(map(sub, x, y))
