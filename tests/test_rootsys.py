"""Unit tests for the root-system layer, checked against an independent
epsilon-coordinate realization of the classical root systems."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from krchar import rootsys
from krchar.rootsys import (
    LieType,
    _descend,
    build_root_system,
    integral_root_coords,
    omega_weight,
    parse_lie_type,
    stabilizer_orbits,
    sub_weights,
    weyl_dim,
    weyl_orbit,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- independent oracle: classical roots in the standard epsilon basis -------

def _epsilon_simple_roots(t: LieType):
    fam, n = t
    dim = n + 1 if fam == "A" else n
    def e(i, c=1):
        v = [0] * dim
        v[i] = c
        return v
    def e2(i, j, ci, cj):
        v = [0] * dim
        v[i] = ci
        v[j] = cj
        return v
    simple = [e2(i, i + 1, 1, -1) for i in range(n - 1)]
    if fam == "A":
        simple.append(e2(n - 1, n, 1, -1))
    elif fam == "B":
        simple.append(e(n - 1))
    elif fam == "C":
        simple.append(e(n - 1, 2))
    else:
        simple.append(e2(n - 2, n - 1, 1, 1))
    return simple


def _epsilon_positive_roots(t: LieType):
    fam, n = t
    dim = n + 1 if fam == "A" else n
    roots = []
    def vec(pairs):
        v = [0] * dim
        for i, c in pairs:
            v[i] += c
        return tuple(v)
    if fam == "A":
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                roots.append(vec([(i, 1), (j, -1)]))
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(vec([(i, 1), (j, -1)]))
            roots.append(vec([(i, 1), (j, 1)]))
    if fam == "B":
        roots.extend(vec([(i, 1)]) for i in range(n))
    elif fam == "C":
        roots.extend(vec([(i, 2)]) for i in range(n))
    return roots


def _solve_exact(columns, target):
    """Solve sum x_k columns[k] = target over the rationals (unique solution)."""
    rows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[k][r]) for k in range(ncols)] + [Fraction(target[r])]
           for r in range(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(all(aug[i][c] == 0 for c in range(ncols)) and aug[i][ncols] != 0
           for i in range(rows)):
        raise AssertionError("inconsistent system in oracle solve")
    x = [Fraction(0)] * ncols
    for row, c in enumerate(pivots):
        x[c] = aug[row][ncols]
    return x


def fraction_root_coords(rs, xi):
    """Root coordinates c of xi, solving C^T c = xi by Fraction elimination:
    shares no code with the integer inverse in rootsys."""
    return tuple(_solve_exact(rs.cartan, xi))


def _oracle_root_data(t: LieType):
    """Map root coords -> weight coords for every positive root, from scratch."""
    simple = _epsilon_simple_roots(t)
    out = {}
    for beta in _epsilon_positive_roots(t):
        coords = _solve_exact(simple, beta)
        assert all(c.denominator == 1 for c in coords)
        weight = []
        for alpha in simple:
            num = 2 * sum(b * a for b, a in zip(beta, alpha))
            den = sum(a * a for a in alpha)
            assert num % den == 0
            weight.append(num // den)
        out[tuple(int(c) for c in coords)] = tuple(weight)
    return out


# Every classical type of rank at most 10: the reflection closure that builds
# the roots is checked against the epsilon realization on each.
CLASSICAL_TYPES_TO_RANK_10 = [
    LieType(family, rank) for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for rank in range(low, 11)
]


@pytest.mark.parametrize("t", CLASSICAL_TYPES_TO_RANK_10, ids=str)
def test_positive_roots_match_epsilon_oracle(t):
    rs = build_root_system(t)
    oracle = _oracle_root_data(t)
    got = {r.coords: r.weight for r in rs.positive_roots}
    assert got == oracle


@pytest.mark.parametrize("t,count", [
    (LieType("A", 1), 1),
    (LieType("D", 4), 12),
    (LieType("D", 5), 20),
], ids=str)
def test_positive_root_counts(t, count):
    assert len(build_root_system(t).positive_roots) == count


def test_a1_cartan():
    rs = build_root_system("A1")
    assert rs.cartan == ((2,),)


def test_d4_highest_root():
    rs = build_root_system("D4")
    theta = rs.highest_root
    assert theta.coords == (1, 2, 1, 1)
    assert theta.weight == omega_weight(4, (2, 1))


def test_invalid_ranks_rejected():
    for label in ("A0", "B1", "C1", "D3", "E6"):
        with pytest.raises(ValueError):
            build_root_system(label)
    with pytest.raises(ValueError):
        parse_lie_type("Dx")
    # The rank is ASCII digits only: int() would read these as A2, D5, D5.
    for label, rank in (("A+2", "+2"), ("D 5", " 5"), ("D\u0665", "\u0665")):
        with pytest.raises(ValueError) as err:
            parse_lie_type(label)
        assert str(err.value) == f"invalid rank {rank!r} in algebra label {label!r}"


def test_spin_nodes():
    assert build_root_system("B3").spin_nodes == {3}
    assert build_root_system("D5").spin_nodes == {4, 5}
    assert build_root_system("A4").spin_nodes == set()
    assert build_root_system("C4").spin_nodes == set()


# -- dominant conjugates ------------------------------------------------------
# _descend returns the dominant conjugate and the parity of its reflections;
# the parity means something only off the walls (no zero coordinate).

@pytest.mark.parametrize("label", ["A2", "B2", "C3"])
def test_dominant_conjugate_against_orbit_enumeration(label):
    # Brute-force oracle: grow the Weyl orbit by simple reflections, tracking
    # a sign per element; for a regular weight the sign is well defined and
    # must match the reported parity, and the orbit holds one dominant element.
    rs = build_root_system(label)
    n = rs.rank

    def reflect(w, i):
        return tuple(x - w[i] * c for x, c in zip(w, rs.cartan[i]))

    for lam in [(1,) * n, tuple(range(1, n + 1)), (2,) + (1,) * (n - 1)]:
        signs = {lam: 1}
        frontier = [lam]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(n):
                    r = reflect(w, i)
                    if r == w:
                        continue
                    if r in signs:
                        assert signs[r] == -signs[w]  # consistent sign labelling
                    else:
                        signs[r] = -signs[w]
                        nxt.append(r)
            frontier = nxt
        dominants = [w for w in signs if rs.is_dominant(w)]
        assert dominants == [lam]
        for w, sign in signs.items():
            dom, parity = _descend(rs, w)
            assert dom == lam and 0 not in dom
            assert parity == sign


@pytest.mark.parametrize("label", ["A2", "B2", "D4"])
def test_dominant_conjugate_properties(label):
    rs = build_root_system(label)
    n = rs.rank
    box = range(-2, 3)
    for xi in product(box, repeat=n):
        dom, parity = _descend(rs, xi)
        assert rs.is_dominant(dom)
        # Idempotent on the dominant output.
        assert _descend(rs, dom) == (dom, 1)
        if 0 not in dom:
            # A single extra simple reflection flips the parity.
            for i in range(n):
                refl = tuple(x - xi[i] * c for x, c in zip(xi, rs.cartan[i]))
                if refl != xi:
                    assert _descend(rs, refl) == (dom, -parity)


ORBIT_LABELS = [f"A{n}" for n in range(1, 6)] + [f"{family}{n}" for family in "BC"
                                                 for n in range(2, 6)] + ["D4", "D5"]


def _weyl_group_order(label):
    family, n = label[0], int(label[1:])
    if family == "A":
        return math.factorial(n + 1)
    return 2 ** (n - (family == "D")) * math.factorial(n)


@pytest.mark.parametrize("label,order", [(label, _weyl_group_order(label))
                                         for label in ORBIT_LABELS])
def test_weyl_orbit_of_rho_is_the_weyl_group_with_its_signs(label, order):
    # verify's table of (rho - w rho, sgn w), built from the orbit of the
    # regular weight rho: |W| distinct shifts, (n+1)!, 2^n n! or 2^(n-1) n!,
    # the identity first.  sgn w is checked against (-1)^l(w), with l(w)
    # the number of positive roots beta with (w rho, beta) < 0, which shares
    # no code with _descend; half of W is odd.
    from krchar.verify import _weyl_shifts

    rs = build_root_system(label)
    rho = (1,) * rs.rank
    shifts = _weyl_shifts(rs)
    assert len(shifts) == order
    assert len({shift for shift, _ in shifts}) == order
    assert shifts[0] == ((0,) * rs.rank, 1)
    assert sum(sign for _, sign in shifts) == 0
    for shift, sign in shifts:
        x = sub_weights(rho, shift)
        inversions = sum(sum(m * c for m, c in zip(root.md, x)) < 0
                         for root in rs.positive_roots)
        assert sign == (-1) ** inversions, (label, shift)


def _breadth_first_orbit(rs, x, nodes):
    """Reference: the orbit of x under <s_i : i in nodes>, for x with no
    negative coordinate at nodes, by the breadth-first walk with a membership
    probe for every reflected weight, which weyl_orbit runs at most twice per
    zero pattern.  Each element is mapped to the sign of its level."""
    orbit = {x: 1}
    level = [x]
    sign = 1
    while level:
        sign = -sign
        below = []
        for y in level:
            for i in nodes:
                c = y[i]
                if c > 0:
                    z = tuple(a - c * b for a, b in zip(y, rs.cartan[i]))
                    if z not in orbit:
                        orbit[z] = sign
                        below.append(z)
        level = below
    return orbit


def test_descend_reflects_only_at_the_given_nodes():
    # Under <s_1> alone, the A2 weights (1, 0) and (-1, 1) are one orbit,
    # and (1, -1) and (-1, 0) another: the negative coordinate at node 2
    # is never reflected at.  Under <s_2> alone, (1, 0) is fixed.
    a2 = build_root_system("A2")
    assert _descend(a2, (-1, 1), (0,)) == ((1, 0), -1)
    assert _descend(a2, (1, 0), (1,)) == ((1, 0), 1)
    assert _descend(a2, (-1, 0), (0,)) == ((1, -1), -1)
    assert _descend(a2, (1, -1), (0,)) == ((1, -1), 1)
    # At every node set J, the result has no negative coordinate at J, x lies
    # in its orbit under W_J, and the parity is the sign of the level at
    # which the walk down from it meets x: each reflection at a negative
    # coordinate climbs one level.
    for label in ("A3", "B3", "C3", "D4"):
        rs = build_root_system(label)
        n = rs.rank
        for size in range(n + 1):
            for nodes in combinations(range(n), size):
                for x in product(range(-2, 3), repeat=n):
                    top, parity = _descend(rs, x, nodes)
                    assert all(top[i] >= 0 for i in nodes), (label, nodes, x)
                    orbit = _breadth_first_orbit(rs, top, nodes)
                    assert orbit.get(x) == parity, (label, nodes, x)


def _walked_stabilizer_orbits(rs, zeros):
    """Reference: the orbits of W_Z on the roots, walked from the highest
    root down with _breadth_first_orbit; |O| roots when the orbit holds its
    negative, else 2|O| with the negative orbit."""
    nodes = [j for j, z in enumerate(zeros) if z]
    seen = set()
    out = []
    for root in reversed(rs.positive_roots):
        if root.weight not in seen:
            orbit = _breadth_first_orbit(rs, root.weight, nodes)
            seen.update(orbit)
            negative = tuple(-c for c in root.weight)
            out.append((root, len(orbit) if negative in orbit else 2 * len(orbit)))
    return out


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 9)] + [
    f"{family}{n}" for family in "BC" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)])
def test_stabilizer_orbits_group_the_walked_orbits(label):
    # The same representatives, counts and order as walking each orbit, on
    # every zero pattern; computed afresh, not read from the lru_cache.
    rs = build_root_system(label)
    for zeros in product((False, True), repeat=rs.rank):
        got = stabilizer_orbits.__wrapped__(rs.lie_type, zeros)
        assert list(got) == _walked_stabilizer_orbits(rs, zeros), zeros


@pytest.fixture
def fresh_programs(monkeypatch):
    """An empty table of recorded walks for the test, the shared one after."""
    table = {}
    monkeypatch.setattr(rootsys, "_orbit_programs", table)
    return table


def test_stabilizer_orbits_walk_no_orbit(fresh_programs):
    # Every zero pattern of D5, computed afresh: no weyl_orbit call, so the
    # table of recorded walks gains no key.
    rs = build_root_system("D5")
    for zeros in product((False, True), repeat=5):
        stabilizer_orbits.__wrapped__(rs.lie_type, zeros)
    assert fresh_programs == {}


@pytest.mark.parametrize("label", ORBIT_LABELS)
def test_a_replayed_walk_lists_the_walk_in_its_order_with_its_signs(label, fresh_programs):
    # Every zero pattern Z of a dominant weight.  The first weight with a
    # pattern is walked, the second is walked and recorded, the third
    # replays the record; the later two have other positive coordinates.
    # The walk returns no signs: the same order as the reference keeps its
    # levels, whose parities are the signs the reference maps them to.
    rs = build_root_system(label)
    n = rs.rank
    nodes = range(n)
    rng = random.Random(f"orbit replay {label}")
    replays = 0
    for zeros in product((False, True), repeat=n):
        before = len(fresh_programs)
        for k in range(3):
            x = tuple(0 if z else 1 if k == 0 else rng.randint(2, 4) for z in zeros)
            got = weyl_orbit(rs, x)
            assert got == list(_breadth_first_orbit(rs, x, nodes))
            assert len(fresh_programs) == before + 1
            record = list(fresh_programs.values())[-1]
            assert (record is None) == (k == 0)
            if record is not None:  # a parent and a node per element after x
                parents, reflected = record
                assert len(parents) == len(reflected) == len(got) - 1
        replays += 1
    assert replays == 2 ** n


def test_a_multiple_of_a_weight_replays_its_walk(fresh_programs):
    # 3 omega_i has the zero pattern of omega_i: it adds no table entry, it
    # records the walk, and 2 omega_i replays it.
    rs = build_root_system("D5")
    nodes = range(5)
    for i in range(5):
        weyl_orbit(rs, omega_weight(5, (i + 1, 1)))
        keys = list(fresh_programs)
        for m in (3, 2):
            x = omega_weight(5, (i + 1, m))
            got = weyl_orbit(rs, x)
            assert list(fresh_programs) == keys and fresh_programs[keys[-1]] is not None
            assert got == list(_breadth_first_orbit(rs, x, nodes))


def test_a_walk_records_nodes_past_255(fresh_programs):
    # The orbit of omega_257 in A257 reflects at node index 256, which no
    # byte holds; a record is (parents, nodes) with the nodes always an
    # array('H').  weyl_orbit reads only the type, the rank and the
    # reflection links (and the oracle the Cartan rows), so a stand-in for
    # the A257 root system, which takes seconds to build, is enough.
    from types import SimpleNamespace

    n = 257
    cartan = [[2 if j == i else -1 if abs(j - i) == 1 else 0 for j in range(n)]
              for i in range(n)]
    rs = SimpleNamespace(
        lie_type=rootsys.LieType("A", n), rank=n, cartan=cartan,
        reflection_links=tuple(tuple((j, 1) for j in (i - 1, i + 1) if 0 <= j < n)
                               for i in range(n)))
    for m in (1, 2, 3):  # walked, walked and recorded, replayed
        x = omega_weight(n, (n, m))
        got = weyl_orbit(rs, x)
        assert len(got) == n + 1
        assert got == list(_breadth_first_orbit(rs, x, range(n)))
    [record] = fresh_programs.values()
    assert len(record) == 2
    parents, reflected = record
    assert reflected.typecode == "H" and max(reflected) == n - 1


def test_threads_racing_on_the_table_get_the_reference_walks(fresh_programs):
    # The table is shared with no lock.  A thread may overwrite an entry
    # another one just stored, which costs a walk, but every entry it can
    # store is None or a whole recorded walk, so every result stays exact.
    import sys
    import threading

    rs = build_root_system("B3")
    nodes = range(3)
    weights = [(a, 0, b) for a in range(1, 4) for b in range(3)]
    expected = {x: list(_breadth_first_orbit(rs, x, nodes)) for x in weights}
    wrong = []

    def worker(shift):
        # A worker that raises must fail the test, not only warn.
        try:
            for _ in range(5):
                for x in weights[shift:] + weights[:shift]:
                    if weyl_orbit(rs, x) != expected[x]:
                        wrong.append(x)
                fresh_programs.clear()
        except Exception as exc:
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_clearing_the_memo_tables_keeps_the_recorded_walks(fresh_programs):
    from krchar.repchar import clear_memo_caches

    rs = build_root_system("B3")
    weyl_orbit(rs, (1, 0, 2))
    weyl_orbit(rs, (2, 0, 1))
    recorded = dict(fresh_programs)
    assert None not in recorded.values()
    clear_memo_caches()
    assert rootsys._orbit_programs is fresh_programs and fresh_programs == recorded


def test_weyl_orbit_refuses_a_negative_coordinate_before_the_lookup(fresh_programs):
    # (1, -1) has the zero pattern of (1, 1): replaying the walk of (1, 1)
    # on it, or recording its partial walk, would be wrong.
    a2 = build_root_system("A2")
    with pytest.raises(AssertionError, match="non-dominant weight"):
        weyl_orbit(a2, (1, -1))
    assert fresh_programs == {}
    for x in ((1, 1), (2, 1)):  # walked, then recorded
        weyl_orbit(a2, x)
    recorded = dict(fresh_programs)
    assert None not in recorded.values()
    with pytest.raises(AssertionError, match="non-dominant weight"):
        weyl_orbit(a2, (1, -1))
    assert fresh_programs == recorded


# -- dominant weights below a weight -------------------------------------------

def _unpruned_dominant_weights_below(rs, lam):
    """Reference: the walk trying every positive root from every weight."""
    found = {lam: (0,) * rs.rank}
    todo = [lam]
    while todo:
        mu = todo.pop()
        coords = found[mu]
        for root in rs.positive_roots:
            nu = sub_weights(mu, root.weight)
            if nu not in found and min(nu) >= 0:
                found[nu] = tuple(c + r for c, r in zip(coords, root.coords))
                todo.append(nu)
    return sorted(found.items(), key=lambda item: sum(item[1]))


def test_the_pruned_walk_lists_the_unpruned_walk_in_its_order():
    # Skipping the roots positive at a zero of mu changes neither the
    # weights nor their root coordinates nor their order.
    labels = [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
    labels += [f"C{n}" for n in range(2, 6)] + ["D4", "D5"]
    count = 0
    for label in labels:
        rs = build_root_system(label)
        for lam in product(range(4), repeat=rs.rank):
            if sum(lam) <= 3:
                got = list(rootsys.dominant_weights_below(rs, lam).items())
                assert got == _unpruned_dominant_weights_below(rs, lam), (label, lam)
                count += 1
    assert count == 458


# -- Weyl dimension -----------------------------------------------------------

def test_weyl_dim_examples():
    d4 = build_root_system("D4")
    assert weyl_dim(d4, (0, 0, 0, 0)) == 1
    assert weyl_dim(d4, omega_weight(4, (2, 1))) == 28
    assert weyl_dim(d4, omega_weight(4, (1, 1))) == 8
    a1 = build_root_system("A1")
    assert weyl_dim(a1, (2,)) == 3
    with pytest.raises(ValueError):
        weyl_dim(a1, (-1,))


def test_weyl_dim_classical_vector_reps():
    # dim V(omega_1): n+1 for A_n, 2n+1 for B_n, 2n for C_n and D_n.
    assert weyl_dim(build_root_system("A4"), omega_weight(4, (1, 1))) == 5
    assert weyl_dim(build_root_system("B3"), omega_weight(3, (1, 1))) == 7
    assert weyl_dim(build_root_system("C3"), omega_weight(3, (1, 1))) == 6
    assert weyl_dim(build_root_system("D5"), omega_weight(5, (1, 1))) == 10


def test_weyl_dim_textbook_values():
    # Spin modules have dimension 2^n (B_n) and 2^(n-1) (half-spin, D_n).
    assert weyl_dim(build_root_system("B3"), omega_weight(3, (3, 1))) == 8
    assert weyl_dim(build_root_system("B4"), omega_weight(4, (4, 1))) == 16
    d5 = build_root_system("D5")
    assert weyl_dim(d5, omega_weight(5, (4, 1))) == 16
    assert weyl_dim(d5, omega_weight(5, (5, 1))) == 16
    # Other classics: Lambda^3 of the 10-dim module, the traceless
    # symmetric square, and the third fundamental module of C3.
    assert weyl_dim(d5, omega_weight(5, (3, 1))) == 120
    assert weyl_dim(d5, omega_weight(5, (1, 2))) == 54
    assert weyl_dim(build_root_system("C3"), omega_weight(3, (3, 1))) == 14
    assert weyl_dim(build_root_system("A2"), (1, 1)) == 8


def _weyl_dim_fraction(rs, lam) -> int:
    """Reference: the Weyl product formula as a product of Fractions, with
    (x, beta) = sum_i c_i d_i x_i for beta = sum_i c_i alpha_i, read from the
    root coordinates and half lengths, not from ``pair_root``."""
    d = rs.half_lengths

    def pair(x, root):
        return sum(c * d[i] * x[i] for i, c in enumerate(root.coords))

    rho = (1,) * rs.rank
    lam_rho = tuple(a + 1 for a in lam)
    dim = Fraction(1)
    for root in rs.positive_roots:
        dim *= Fraction(pair(lam_rho, root), pair(rho, root))
    assert dim.denominator == 1
    return int(dim)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                   "C2", "C3", "C4", "C5", "D4", "D5"])
def test_weyl_dim_matches_the_fraction_product(label):
    rs = build_root_system(label)
    for lam in product(range(3), repeat=rs.rank):
        assert weyl_dim(rs, lam) == _weyl_dim_fraction(rs, lam)


def _pairings_by_height(rs, lam) -> list[int]:
    """(lam + rho, beta) for every positive root beta, from the simple roots
    up: (lam + rho, alpha_i) = d_i (lam_i + 1), and a higher beta adds one
    alpha_i to the lower root beta - alpha_i."""
    d = rs.half_lengths
    pairing = {}
    for root in rs.positive_roots:  # in order of height
        c = root.coords
        for i in range(rs.rank):
            lower = c[:i] + (c[i] - 1,) + c[i + 1:]
            if c[i] and (not any(lower) or lower in pairing):
                pairing[c] = pairing.get(lower, 0) + d[i] * (lam[i] + 1)
                break
    assert len(pairing) == len(rs.positive_roots)
    return list(pairing.values())


def test_weyl_dim_matches_the_height_order_recurrence():
    # Coordinate sum at most 4 on A1-A5, B2-B5, C2-C5 and D4-D6, and at most
    # 2 on A6-A8, B6-B8, C6-C8, D7 and D8.
    count = 0
    labels = [(f"A{n}", 4) for n in range(1, 6)] + [(f"B{n}", 4) for n in range(2, 6)]
    labels += [(f"C{n}", 4) for n in range(2, 6)] + [(f"D{n}", 4) for n in range(4, 7)]
    labels += [(f"{family}{n}", 2) for family in "ABC" for n in range(6, 9)]
    labels += [("D7", 2), ("D8", 2)]
    for label, top in labels:
        rs = build_root_system(label)
        den = math.prod(_pairings_by_height(rs, (0,) * rs.rank))
        for lam in product(range(3), repeat=rs.rank):
            if sum(lam) <= top:
                num = math.prod(_pairings_by_height(rs, lam))
                assert num % den == 0 and weyl_dim(rs, lam) == num // den, (label, lam)
                count += 1
    assert count == 1259


@pytest.mark.parametrize("t", [t for t in CLASSICAL_TYPES_TO_RANK_10 if t.rank <= 8], ids=str)
def test_rho_product_is_the_product_of_the_rho_pairings(t):
    # (rho, beta) = sum_i c_i d_i for beta = sum_i c_i alpha_i, read from the
    # root coordinates and half lengths; the height-order recurrence at
    # lam = 0 gives the same pairings.
    rs = build_root_system(t)
    d = rs.half_lengths
    expected = math.prod(sum(c * d[i] for i, c in enumerate(root.coords))
                         for root in rs.positive_roots)
    assert rs.rho_product == expected == math.prod(_pairings_by_height(rs, (0,) * rs.rank))


# -- root coordinates ---------------------------------------------------------

def test_root_coords_examples():
    d4 = build_root_system("D4")
    for i in range(4):
        alpha = d4.cartan[i]  # the weight of the i-th simple root
        assert integral_root_coords(d4, alpha) == tuple(int(j == i) for j in range(4))
    assert integral_root_coords(d4, d4.highest_root.weight) == (1, 2, 1, 1)

    a1 = build_root_system("A1")
    assert fraction_root_coords(a1, (1,)) == (Fraction(1, 2),)
    assert integral_root_coords(a1, (1,)) is None


RANK_8_LABELS = [f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                 for n in range(low, 9)]


def _seeded_weights(rs):
    rng = random.Random(f"root coords {rs.lie_type}")
    roots = list(rs.adjoint_coords)
    weights = [tuple(rng.randint(-4, 4) for _ in range(rs.rank)) for _ in range(40)]
    for _ in range(40):
        xi = (0,) * rs.rank
        for _ in range(rng.randint(1, 5)):
            xi = tuple(a + b for a, b in zip(xi, rng.choice(roots)))
        weights.append(xi)
    return weights


@pytest.mark.parametrize("label", RANK_8_LABELS)
def test_integral_root_coords_match_the_fraction_solve(label):
    # Seeded weights in the root lattice (sums of roots) and mostly outside
    # it (random coordinates), against the Fraction solve of C^T c = xi.
    rs = build_root_system(label)
    seen = set()
    for xi in _seeded_weights(rs):
        coords = fraction_root_coords(rs, xi)
        expected = (tuple(int(c) for c in coords)
                    if all(c.denominator == 1 for c in coords) else None)
        assert integral_root_coords(rs, xi) == expected, xi
        seen.add(expected is None)
    assert seen == {True, False}


@pytest.mark.parametrize("label", RANK_8_LABELS)
def test_root_coords_multiply_back_through_the_cartan_matrix(label):
    # An oracle that shares no code with the inverse: sum_i c_i * cartan[i]
    # must give xi back for the integer coordinates, on the seeded weights of
    # the test above that lie in the root lattice.
    rs = build_root_system(label)

    def back(coords):
        return tuple(sum(c * row[j] for c, row in zip(coords, rs.cartan))
                     for j in range(rs.rank))

    lattice = 0
    for xi in _seeded_weights(rs):
        coords = integral_root_coords(rs, xi)
        if coords is not None:
            assert back(coords) == xi
            lattice += 1
    assert lattice >= 40


RANK_12_LABELS = [f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                  for n in range(low, 13)]


@pytest.mark.parametrize("label", RANK_12_LABELS)
def test_the_integer_inverse_is_the_adjugate(label):
    rs = build_root_system(label)
    n, cartan, adj, det = rs.rank, rs.cartan, rs.adj_cartan_t, rs.cartan_det
    assert det == {"A": n + 1, "B": 2, "C": 2, "D": 4}[rs.lie_type.family]
    identity = tuple(tuple(det * int(i == j) for j in range(n)) for i in range(n))
    # adj_cartan_t is adj(C)^T, so C . adj(C) = det I reads as follows.
    assert tuple(tuple(sum(cartan[i][k] * adj[j][k] for k in range(n)) for j in range(n))
                 for i in range(n)) == identity
    assert rootsys._adjugate(cartan) == (det, tuple(zip(*adj)))


def test_the_elimination_refuses_a_singular_matrix():
    with pytest.raises(AssertionError):
        rootsys._adjugate(((1, 1), (1, 1)))


def test_building_a_root_system_creates_no_fraction():
    # No Fraction can be made without loading the fractions module.
    script = (
        "import sys\n"
        "from krchar.rootsys import RootSystem, parse_lie_type\n"
        f"for label in {RANK_8_LABELS!r}:\n"
        "    RootSystem(parse_lie_type(label))\n"
        "print('fractions' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "False\n"


@pytest.mark.parametrize("label", ["A3", "B4", "C4", "D5"])
def test_adjoint_coords_table_matches_the_rational_solve(label):
    rs = build_root_system(label)
    table = rs.adjoint_coords
    assert len(table) == 2 * len(rs.positive_roots) + 1
    for weight, coords in table.items():
        assert integral_root_coords(rs, weight) == coords


def test_bilinear_form_normalisation():
    # Short roots have squared length 2, long roots 4: half_norm against the
    # epsilon realization (B's is scaled by 2 to make short roots length 2),
    # and pair_root of a root with itself is its squared length.
    for label, half_norms in (("B3", {1, 2}), ("C3", {1, 2}), ("D5", {1})):
        rs = build_root_system(label)
        simple = _epsilon_simple_roots(rs.lie_type)
        scale = 2 if rs.lie_type.family == "B" else 1
        assert {r.half_norm for r in rs.positive_roots} == half_norms
        for root in rs.positive_roots:
            eps = [sum(c * alpha[k] for c, alpha in zip(root.coords, simple))
                   for k in range(len(simple[0]))]
            assert scale * sum(x * x for x in eps) == 2 * root.half_norm
            assert rs.pair_root(root.weight, root) == 2 * root.half_norm


def test_root_sum_decompositions_spot():
    # Every coefficient-2 root splits into two coefficient-1 roots, and every
    # non-simple coefficient-1 root splits as 0 + 1 (spot check; the full
    # rank <= 8 sweep runs in the acceptance suite).
    for label in ("B3", "C3", "D4", "A3"):
        rs = build_root_system(label)
        coords = {r.coords for r in rs.positive_roots}
        for beta in coords:
            for j in range(rs.rank):
                if beta[j] == 2:
                    assert any(
                        tuple(b - g for b, g in zip(beta, gamma)) in coords
                        and gamma[j] == 1 and beta[j] - gamma[j] == 1
                        for gamma in coords
                    )
                if beta[j] == 1 and sum(beta) > 1:
                    assert any(
                        tuple(b - g for b, g in zip(beta, gamma)) in coords
                        and gamma[j] == 1
                        and (tuple(b - g for b, g in zip(beta, gamma)))[j] == 0
                        for gamma in coords
                    )


def test_weight_helpers():
    assert omega_weight(5, (3, 2)) == (0, 0, 2, 0, 0)
    assert sub_weights((1, 2), (0, 3)) == (1, -1)
    with pytest.raises(ValueError):
        omega_weight(3, (4, 1))
