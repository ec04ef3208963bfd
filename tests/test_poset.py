"""Tests for Psi-sets, the refined order, distances and Gamma enumeration."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from krchar import poset
from krchar.graded import MODES, gch_N, gch_P_recursive
from krchar.poset import (
    GammaSet,
    LambdaPoint,
    check_polytope_condition,
    check_psi_extra,
    checked_psi,
    compositions,
    d_psi,
    deg,
    gamma_psi,
    i_lambda,
    leq_psi,
    psi_i,
    psi_lambda,
    psi_of_mu,
)
from krchar.repchar import ModuleSpec, adjoint_char, clear_memo_caches, component_char
from krchar.rootsys import build_root_system, dominant_weights_below, omega_weight, sub_weights
from test_rootsys import (
    _epsilon_positive_roots,
    _epsilon_simple_roots,
    _solve_exact,
    fraction_root_coords,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
D4 = build_root_system("D4")
D5 = build_root_system("D5")


def _neg(w):
    return tuple(-c for c in w)


def _recursive_compositions(total, parts):
    # The reference: the recursive definition, one level per part.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursive_definition_in_order():
    for total in range(6):
        for parts in range(1, 6):
            assert list(compositions(total, parts)) == list(_recursive_compositions(total, parts))


# -- Psi sets ------------------------------------------------------------------------

def test_psi_i_empty_for_node_one_and_spin_nodes():
    for rs in (D4, D5):
        assert psi_i(rs, 1) == frozenset()
        for node in rs.spin_nodes:
            assert psi_i(rs, node) == frozenset()


def test_psi_2_is_minus_highest_root():
    assert psi_i(D4, 2) == {_neg(D4.highest_root.weight)}
    assert psi_i(D5, 2) == {_neg(D5.highest_root.weight)}


def test_psi_3_d5_brute_force():
    # Oracle: scan all 20 positive roots for coefficient 2 at node 3.
    expected = {
        _neg(r.weight) for r in D5.positive_roots if r.coords[2] == 2
    }
    assert len(expected) == 3
    assert psi_i(D5, 3) == expected


def test_psi_i_node_range():
    with pytest.raises(ValueError):
        psi_i(D4, 0)
    with pytest.raises(ValueError):
        psi_i(D4, 5)


def test_psi_of_mu_matches_psi_i():
    assert psi_of_mu(D4, omega_weight(4, (2, 1))) == psi_i(D4, 2)
    assert psi_of_mu(D5, omega_weight(5, (3, 1))) == psi_i(D5, 3)


def test_psi_of_mu_a1():
    assert psi_of_mu(A1, (1,)) == {(-2,)}


def test_psi_of_mu_validation():
    with pytest.raises(ValueError):
        psi_of_mu(A1, (0,))


def test_i_lambda():
    assert i_lambda(D5, (0,) * 5) == 1
    assert i_lambda(D5, omega_weight(5, (3, 2))) == 3
    assert i_lambda(D4, omega_weight(4, (4, 1))) == 1  # spin-only support
    assert psi_lambda(D4, omega_weight(4, (4, 1))) == frozenset()
    assert i_lambda(D5, omega_weight(5, (2, 1), (5, 3))) == 2  # spin part ignored


# -- condition checks -----------------------------------------------------------------

def test_polytope_condition_empty_set():
    assert check_polytope_condition(D4, frozenset())


def test_polytope_condition_face():
    assert check_polytope_condition(D4, psi_i(D4, 2))
    assert check_polytope_condition(D5, psi_i(D5, 3))


def test_polytope_condition_interior_point_fails():
    # {-alpha_1, 0} for A1: zero is interior to the segment [-alpha_1, alpha_1].
    raw = frozenset({(-2,), (0,)})
    assert not check_polytope_condition(A1, raw)
    # Brute-force witness of the violated counting condition: 2*0 = (empty sum)
    # uses two psi elements against zero weights of V.
    found = False
    psi_list = sorted(raw)
    wt = sorted(adjoint_char(A1).entries)
    for ms in product(range(3), repeat=len(psi_list)):
        lhs = tuple(sum(m * v[0] for m, v in zip(ms, psi_list)) for _ in (0,))
        for ns in product(range(3), repeat=len(wt)):
            rhs = tuple(sum(nc * v[0] for nc, v in zip(ns, wt)) for _ in (0,))
            if lhs == rhs and sum(ms) > sum(ns):
                found = True
    assert found


def test_polytope_condition_requires_containment():
    with pytest.raises(ValueError):
        check_polytope_condition(A1, frozenset({(5,)}))


def test_psi_extra():
    assert check_psi_extra(D5, frozenset())
    assert check_psi_extra(D5, psi_i(D5, 3))
    # A raw set containing the highest root hits the dominant cone.
    theta = D4.highest_root.weight
    assert not check_psi_extra(D4, frozenset({theta}))


def _both_support_conditions(rs, psi):
    """psi inside the negative roots, and no element of psi equal to xi +
    alpha_j for a dominant weight xi of the adjoint module and a simple root
    alpha_j: the two conditions, both tested."""
    table = rs.adjoint_coords
    if not all(w in table and sum(table[w]) < 0 for w in psi):
        return False
    return not any(
        tuple(x + c for x, c in zip(xi, rs.cartan[j])) in psi
        for xi in table if rs.is_dominant(xi) for j in range(rs.rank)
    )


def _subsets(items):
    return (frozenset(sub) for k in range(len(items) + 1) for sub in combinations(items, k))


def test_psi_extra_needs_only_the_negative_root_condition():
    # The verdicts can differ only on sets that pass the first condition,
    # the subsets of the negative roots: all of them on every type below,
    # and every subset of the adjoint weights on the types with at most 15.
    negative_subsets = 0
    for label in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4"):
        rs = build_root_system(label)
        weights = sorted(rs.adjoint_coords)
        negative = [w for w in weights if sum(rs.adjoint_coords[w]) < 0]
        for psi in _subsets(negative):
            assert check_psi_extra(rs, psi) and _both_support_conditions(rs, psi), \
                f"{label} {sorted(psi)}"
            negative_subsets += 1
        if len(weights) <= 15:
            for psi in _subsets(weights):
                assert check_psi_extra(rs, psi) == _both_support_conditions(rs, psi), \
                    f"{label} {sorted(psi)}"
    assert negative_subsets == 5226


# Sets that gamma_psi and checked_psi must refuse: a hand-built non-face, a
# face of positive roots and a set outside the weights of the adjoint module.
REFUSED_PSI = [
    (A1, frozenset({(-2,), (0,)})),           # zero is interior
    (A2, frozenset({(-2, 1), (1, -2)})),      # {-alpha_1, -alpha_2}: not a face
    (D4, frozenset({D4.highest_root.weight})),  # a face, but a positive root
    (A1, frozenset({(-4,)})),                 # not a weight of the adjoint module
]


@pytest.mark.parametrize("rs,psi", REFUSED_PSI,
                         ids=["interior-zero", "A2-non-face", "positive-root", "not-a-weight"])
def test_checked_psi_refuses_non_faces_and_non_negative_roots(rs, psi):
    with pytest.raises(ValueError):
        checked_psi(rs, psi)
    with pytest.raises(ValueError):
        gamma_psi(rs, psi, LambdaPoint((2,) * rs.rank, (0,)), 1)


CLASSICAL_RANK_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
)


def test_psi_i_is_the_coefficient_two_set():
    count = 0
    for label in CLASSICAL_RANK_8:
        rs = build_root_system(label)
        for i in range(1, rs.rank + 1):
            expected = {_neg(r.weight) for r in rs.positive_roots if r.coords[i - 1] == 2}
            assert psi_i(rs, i) == expected, f"{label} psi_{i}"
            count += 1
    assert count == 136


def _epsilon_psi(t, i):
    """psi_i from the epsilon realisation alone: the roots, as weights, on
    which the pairing with omega_i is smallest, when that pairing is
    -2 (alpha_i, alpha_i)/2, so that theta has coefficient 2 at node i; the
    empty set otherwise."""
    simple = _epsilon_simple_roots(t)
    half_norms = [Fraction(sum(a * a for a in alpha), 2) for alpha in simple]
    # omega_i in epsilon coordinates: (alpha_j, omega_i) = delta_ij (alpha_j, alpha_j)/2.
    omega = _solve_exact(list(zip(*simple)), [h * (j == i - 1) for j, h in enumerate(half_norms)])
    positive = _epsilon_positive_roots(t)
    pairing = {beta: sum(b * w for b, w in zip(beta, omega))
               for beta in positive + [tuple(-b for b in beta) for beta in positive]}
    low = min(pairing.values())
    if low != -2 * half_norms[i - 1]:
        return set()
    out = set()
    for beta, value in pairing.items():
        if value == low:
            weight = [sum(b * a for b, a in zip(beta, alpha)) / h
                      for alpha, h in zip(simple, half_norms)]
            assert all(c.denominator == 1 for c in weight)
            out.add(tuple(int(c) for c in weight))
    return out


@pytest.mark.parametrize("label", CLASSICAL_RANK_8)
def test_psi_i_is_the_face_omega_i_minimises_in_the_epsilon_realisation(label):
    # A face certificate that shares no code with the library: omega_i and the
    # roots are vectors of the epsilon basis, and psi_i must be exactly the
    # roots on which omega_i is smallest wherever theta has coefficient 2 at i.
    rs = build_root_system(label)
    faces = 0
    for i in range(1, rs.rank + 1):
        expected = _epsilon_psi(rs.lie_type, i)
        assert psi_i(rs, i) == expected, f"{label} psi_{i}"
        faces += bool(expected)
    family, rank = rs.lie_type
    assert faces == {"A": 0, "B": rank - 1, "C": rank - 1, "D": rank - 3}[family]


def _pairing(rs, mu):
    """(x, mu) for every weight x of the adjoint module, in integers."""
    values = {(0,) * rs.rank: 0}
    for root in rs.positive_roots:
        value = sum(c * d * m for c, d, m in zip(root.coords, rs.half_lengths, mu))
        values[root.weight], values[_neg(root.weight)] = value, -value
    return values


def test_every_face_of_a_01_weight_passes_the_face_test():
    # Up to the Weyl group every face of the adjoint weight polytope is the set
    # minimised (or maximised) by a dominant weight with 0/1 coordinates.
    count = 0
    for label in CLASSICAL_RANK_8:
        rs = build_root_system(label)
        faces = set()
        for mu in product((0, 1), repeat=rs.rank):
            if not any(mu):
                continue
            values = _pairing(rs, mu)
            for extreme in (min(values.values()), max(values.values())):
                faces.add(frozenset(x for x, v in values.items() if v == extreme))
        for face in faces:
            assert check_polytope_condition(rs, face), f"{label} {sorted(face)}"
        count += len(faces)
    assert count == 542


def _orbit_faces(rs):
    """Every face of the adjoint weight polytope, as its set of adjoint weights.
    A dominant b with support S is largest exactly on F_S, the weights x with
    theta - x of root coordinate 0 at every node of S, since theta is the
    largest in every root coordinate.  Every face is exposed by some weight
    and every weight is W-conjugate to a dominant one, so the faces are the
    empty set, the whole set and the Weyl orbits of F_S for nonempty S."""
    table = rs.adjoint_coords
    theta = rs.highest_root.coords
    faces = {frozenset(), frozenset(table)}
    for support in _subsets(range(rs.rank)):
        start = frozenset(x for x, c in table.items() if all(c[j] == theta[j] for j in support))
        if start in faces:  # the whole set for S empty, or a face already walked
            continue
        faces.add(start)
        walk = [start]
        for face in walk:  # grows as new faces are found
            for i, alpha in enumerate(rs.cartan):
                image = frozenset(tuple(a - x[i] * b for a, b in zip(x, alpha)) for x in face)
                if image not in faces:
                    faces.add(image)
                    walk.append(image)
    return faces


# The segment, the hexagon, the square (B2 and C2) and the cuboctahedron, with
# the empty face and the whole set: 2 + 2, 6 + 6 + 2, 4 + 4 + 2, 12 + 24 + 14 + 2.
EVERY_SUBSET_FACES = [("A1", 4), ("A2", 14), ("B2", 10), ("C2", 10), ("A3", 52)]


@pytest.mark.parametrize("label,count", EVERY_SUBSET_FACES, ids=[x for x, _ in EVERY_SUBSET_FACES])
def test_the_face_test_accepts_exactly_the_orbit_faces_on_every_subset(label, count):
    rs = build_root_system(label)
    faces = _orbit_faces(rs)
    assert len(faces) == count
    for subset in _subsets(sorted(rs.adjoint_coords)):
        expected = subset in faces
        assert check_polytope_condition(rs, subset) == expected, f"{label} {sorted(subset)}"


def test_face_test_agrees_with_the_orbit_faces_on_random_subsets():
    rng = random.Random(20251018)
    faces = 0
    for label in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4"):
        rs = build_root_system(label)
        weights = sorted(rs.adjoint_coords)
        true_faces = _orbit_faces(rs)
        for _ in range(40):
            subset = frozenset(rng.sample(weights, rng.randint(1, min(4, len(weights)))))
            expected = subset in true_faces
            assert check_polytope_condition(rs, subset) == expected, f"{label} {sorted(subset)}"
            faces += expected
    assert 0 < faces < 320


# -- distances ---------------------------------------------------------------------

def test_d_psi_reflexive():
    psi = psi_i(D4, 2)
    lam = omega_weight(4, (2, 3))
    assert d_psi(D4, psi, lam, lam) == 0


def test_d_psi_kr_chain():
    psi = psi_i(D4, 2)
    for m in range(1, 5):
        lam = omega_weight(4, (2, m))
        for r in range(m + 1):
            assert d_psi(D4, psi, lam, omega_weight(4, (2, m - r))) == r


def test_d_psi_paper_values_d5():
    psi = psi_i(D5, 3)
    lam = omega_weight(5, (3, 2))
    assert d_psi(D5, psi, lam, omega_weight(5, (2, 1))) == 2
    assert d_psi(D5, psi, lam, omega_weight(5, (3, 1), (1, 1))) == 1
    assert d_psi(D5, psi, lam, omega_weight(5, (1, 2))) == 2
    assert d_psi(D5, psi, lam, (0,) * 5) == 3


def test_d_psi_incomparable():
    psi = psi_i(D4, 2)
    assert d_psi(D4, psi, omega_weight(4, (2, 1)), omega_weight(4, (1, 1))) is None
    assert d_psi(D4, frozenset(), omega_weight(4, (2, 1)), (0,) * 4) is None


@pytest.mark.parametrize("element", [(0,), (-4,)], ids=["zero", "minus-2-alpha"])
def test_d_psi_refuses_an_element_that_is_not_a_negative_root(element):
    # (-4,) is -2 alpha_1, a non-positive lattice vector that is not a root.
    with pytest.raises(ValueError, match="is not a negative root"):
        d_psi(A1, frozenset({element}), (4,), (0,))


# -- refined order ----------------------------------------------------------------

def test_leq_psi():
    psi = psi_i(D4, 2)
    m = 3
    base = LambdaPoint(omega_weight(4, (2, m)), (0, 0))
    assert leq_psi(D4, psi, base, base)
    good = LambdaPoint(omega_weight(4, (2, m - 1)), (0, 1))
    assert leq_psi(D4, psi, base, good)
    bad_degree = LambdaPoint(omega_weight(4, (2, m - 1)), (2, 0))
    assert not leq_psi(D4, psi, base, bad_degree)


# -- Gamma enumeration ----------------------------------------------------------------

def test_gamma_requires_checked_psi():
    base = LambdaPoint(omega_weight(4, (2, 2)), (0,))
    with pytest.raises(ValueError, match="face condition"):
        gamma_psi(D4, frozenset({(-2, 1, 0, 0), (0, -1, 0, 0)}), base, 1)
    with pytest.raises(ValueError, match="support conditions"):
        gamma_psi(D4, frozenset({D4.highest_root.weight}), base, 1)
    assert len(gamma_psi(D4, psi_i(D4, 2), base, 1)) == 3


def _searched_distances(rs, psi, lam):
    """The distances of Gamma by the per-weight search: every dominant weight
    below lam, kept with d_psi(lam, mu) when that is defined."""
    out = {}
    for mu in dominant_weights_below(rs, lam):
        d = d_psi(rs, psi, lam, mu)
        if d is not None:
            out[mu] = d
    return out


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4"])
def test_gamma_walk_matches_the_search_on_every_checked_face(label):
    # Every set of negative roots that checked_psi accepts, from every
    # nonzero dominant lam with coordinate sum at most 2.
    rs = build_root_system(label)
    negative = sorted(_neg(r.weight) for r in rs.positive_roots)
    faces = []
    for psi in _subsets(negative):
        try:
            faces.append(checked_psi(rs, psi))
        except ValueError:
            continue
    lams = [lam for lam in product(range(3), repeat=rs.rank) if 0 < sum(lam) <= 2]
    for psi in faces:
        for lam in lams:
            gamma = gamma_psi(rs, psi, LambdaPoint(lam, (0,)), 1)
            assert gamma.d_of == _searched_distances(rs, psi, lam), (sorted(psi), lam)
    assert len(faces) > 1


# Type A is left out: the highest root of A_n has every coefficient 1, so
# each of its psi_i is empty.
WALK_LABELS = (
    [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)]
)


@pytest.mark.parametrize("label", WALK_LABELS)
def test_gamma_walk_matches_the_search_on_psi_i(label):
    # Every nonempty psi_i, from two seeded lam with up to two nonzero
    # coordinates of size 1 or 2 each; a lam whose box of root coordinates
    # holds more than 20,000 points is drawn again, to bound the search.
    rs = build_root_system(label)
    rng = random.Random(f"gamma walk {label}")
    for i in range(1, rs.rank + 1):
        psi = psi_i(rs, i)
        if not psi:
            continue
        checked = 0
        while checked < 2:
            lam = [0] * rs.rank
            for node in rng.sample(range(rs.rank), 2):
                lam[node] += rng.randint(1, 2)
            lam = tuple(lam)
            if math.prod(int(c) + 1 for c in fraction_root_coords(rs, lam)) > 20_000:
                continue
            gamma = gamma_psi(rs, psi, LambdaPoint(lam, (0,)), 1)
            assert gamma.d_of == _searched_distances(rs, psi, lam), (i, lam)
            checked += 1


def test_gamma_and_gch_run_without_the_distance_search(monkeypatch):
    # Gamma comes from the walk alone: with the search, its root coordinates
    # and the listing of dominant weights made to raise inside poset, gch_N,
    # both modes of the recursion and gamma_psi return what they return
    # without the patches.
    D6 = build_root_system("D6")
    lam = omega_weight(5, (3, 2))
    base = LambdaPoint(omega_weight(6, (4, 2)), (0, 0))

    def run():
        clear_memo_caches()
        gamma = gamma_psi(D6, psi_i(D6, 4), base, 2)
        ms = ModuleSpec.adjoint(D5, 3)
        kr_base = LambdaPoint(lam, (0, 0, 0))
        kr_gamma = gamma_psi(D5, psi_i(D5, 3), kr_base, 3)
        recursive = [gch_P_recursive(D5, ms, kr_base, kr_gamma, mode) for mode in MODES]
        return gch_N(D5, lam, 3), recursive, gamma.points, gamma.d_of

    expected = run()
    assert len(expected[2]) > 1  # the D6 Gamma is more than its base

    def refuse(*args):
        raise AssertionError("the per-weight distance search ran")

    for name in ("dominant_weights_below", "d_psi", "integral_root_coords"):
        monkeypatch.setattr(poset, name, refuse, raising=False)
    assert run() == expected


@pytest.mark.parametrize("label", [x for x in CLASSICAL_RANK_8 if int(x[1:]) <= 6])
def test_dominant_weight_walk_matches_freudenthal(label):
    # The walk that Freudenthal's formula runs over, against its
    # definition (Freudenthal reads the walk, so it cannot be the oracle):
    # every dominant mu with lam - mu in Q+, found by brute force over the
    # box of root coordinates under lam (a dominant mu has nonnegative root
    # coordinates, so those of lam - mu are at most those of lam), on seeded
    # weights with up to two nonzero coordinates of size 1 or 2.  Boxes
    # above 20,000 points are drawn again.
    rs = build_root_system(label)
    rng = random.Random(f"walk {label}")
    checked = 0
    while checked < 3:
        lam = [0] * rs.rank
        for node in rng.sample(range(rs.rank), min(2, rs.rank)):
            lam[node] += rng.randint(1, 2)
        lam = tuple(lam)
        box = [int(c) for c in fraction_root_coords(rs, lam)]
        if math.prod(b + 1 for b in box) > 20_000:
            continue
        brute = {}
        for c in product(*(range(b + 1) for b in box)):
            mu = tuple(x - sum(ci * rs.cartan[i][j] for i, ci in enumerate(c))
                       for j, x in enumerate(lam))
            if min(mu) >= 0:
                brute[mu] = c
        walk = dominant_weights_below(rs, lam)
        assert walk == brute, lam
        heights = [sum(c) for c in walk.values()]
        assert heights == sorted(heights), lam
        checked += 1


def test_gamma_empty_psi_is_singleton():
    psi = psi_i(D4, 1)
    base = LambdaPoint(omega_weight(4, (1, 3)), (0, 0))
    gamma = gamma_psi(D4, psi, base, 2)
    assert gamma.points == (base,)


@pytest.mark.parametrize("m,ell", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_gamma_kr_structure(m, ell):
    psi = psi_i(D4, 2)
    base = LambdaPoint(omega_weight(4, (2, m)), (0,) * ell)
    gamma = gamma_psi(D4, psi, base, ell)
    expected = {
        LambdaPoint(omega_weight(4, (2, m - r)), s)
        for r in range(m + 1)
        for s in compositions(r, ell)
    }
    assert set(gamma.points) == expected
    assert gamma.points[0] == base
    for r in range(m + 1):
        assert gamma.d_of[omega_weight(4, (2, m - r))] == r


def test_gamma_d5_2omega3_weights_and_distances():
    psi = psi_i(D5, 3)
    base = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    gamma = gamma_psi(D5, psi, base, 2)
    expected_d = {
        omega_weight(5, (3, 2)): 0,
        omega_weight(5, (3, 1), (1, 1)): 1,
        omega_weight(5, (2, 1)): 2,
        omega_weight(5, (1, 2)): 2,
        (0, 0, 0, 0, 0): 3,
    }
    assert gamma.d_of == expected_d
    # Equal-degree fibres: points sharing a weight share the total degree.
    for point in gamma:
        assert deg(point.degree) == expected_d[point.weight]
    # Enumeration is a linear extension of the refined order.
    for i, a in enumerate(gamma.points):
        for j, b in enumerate(gamma.points):
            if leq_psi(D5, psi, a, b) and a != b:
                assert i < j


def test_gamma_translation_equivariance():
    psi = psi_i(D5, 3)
    lam = omega_weight(5, (3, 2))
    shift = (1, 2)
    g0 = gamma_psi(D5, psi, LambdaPoint(lam, (0, 0)), 2)
    g1 = gamma_psi(D5, psi, LambdaPoint(lam, shift), 2)
    shifted = tuple(
        LambdaPoint(p.weight, tuple(a + b for a, b in zip(p.degree, shift)))
        for p in g0.points
    )
    assert g1.points == shifted


def test_gamma_convexity_and_antisymmetry():
    psi = psi_i(D5, 3)
    base = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    gamma = gamma_psi(D5, psi, base, 2)
    weights = sorted(gamma.d_of)
    # Antisymmetry of the weight order on the candidate set.
    for x in weights:
        for y in weights:
            if x != y:
                assert not (d_psi(D5, psi, x, y) is not None
                            and d_psi(D5, psi, y, x) is not None)
    # Convexity: anything between two members is a member.
    top = max(deg(p.degree) for p in gamma)
    for a in gamma.points:
        for b in gamma.points:
            if not leq_psi(D5, psi, a, b):
                continue
            for mu in weights:
                for s in compositions(deg(b.degree), 2):
                    c = LambdaPoint(mu, s)
                    if leq_psi(D5, psi, a, c) and leq_psi(D5, psi, c, b):
                        assert c in gamma
    assert top == 3


def test_gamma_refines_cover_order():
    # A one-step rise in the refined order is an actual cover: the degrees
    # differ by a unit vector e_j, and the weights by a weight of layer j.
    ms = ModuleSpec.adjoint(D5, 2)
    psi = psi_i(D5, 3)
    base = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    gamma = gamma_psi(D5, psi, base, 2)
    rises = 0
    for a in gamma.points:
        for b in gamma.points:
            if leq_psi(D5, psi, a, b) and deg(b.degree) - deg(a.degree) == 1:
                gap = sub_weights(b.degree, a.degree)
                assert sorted(gap) == [0, 1], (a, b)
                layer = component_char(D5, ms.components[gap.index(1)])
                assert sub_weights(b.weight, a.weight) in layer.entries, (a, b)
                rises += 1
    assert rises


def test_d_psi_additivity_on_gamma_chains():
    psi = psi_i(D5, 3)
    base = LambdaPoint(omega_weight(5, (3, 2)), (0,))
    gamma = gamma_psi(D5, psi, base, 1)
    weights = sorted(gamma.d_of)
    for x in weights:
        for y in weights:
            dxy = d_psi(D5, psi, x, y)
            if dxy is None:
                continue
            for z in weights:
                dyz = d_psi(D5, psi, y, z)
                if dyz is None:
                    continue
                assert d_psi(D5, psi, x, z) == dxy + dyz
