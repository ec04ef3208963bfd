"""Character arithmetic tests: Freudenthal, Racah-Speiser, powers, coefficients."""

import hashlib
import math
import random
from itertools import product

import pytest

from krchar.repchar import (
    IsoChar,
    ModuleSpec,
    TensorCache,
    WeightChar,
    _power_char,
    _fold,
    _racah_speiser,
    active_tensor_cache,
    adjoint_char,
    c_coefficient,
    clear_memo_caches,
    component_char,
    dominant_multiplicities,
    ext_power,
    freudenthal,
    iso_decompose,
    set_active_tensor_cache,
    sym_coefficient,
    sym_power,
    tensor_decompose,
)
from krchar.poset import LambdaPoint, gamma_psi, psi_lambda
from krchar.rootsys import (
    _descend,
    build_root_system,
    dominant_weights_below,
    omega_weight,
    stabilizer_orbits,
    weyl_dim,
)
from krchar.verify import acceptance_matrix

A1 = build_root_system("A1")
D4 = build_root_system("D4")
D5 = build_root_system("D5")


# -- Freudenthal ----------------------------------------------------------------

def test_freudenthal_trivial():
    assert freudenthal(A1, (0,)) == WeightChar({(0,): 1})


def test_freudenthal_a1_adjoint():
    assert freudenthal(A1, (2,)) == WeightChar({(2,): 1, (0,): 1, (-2,): 1})


def test_freudenthal_d4_adjoint_matches_root_enumeration():
    # Independent oracle: the adjoint character is the roots plus rank copies
    # of the zero weight.
    ch = freudenthal(D4, omega_weight(4, (2, 1)))
    assert ch == adjoint_char(D4)
    zero = (0, 0, 0, 0)
    assert ch.entries[zero] == 4
    assert sum(1 for w, m in ch.entries.items() if w != zero and m == 1) == 24
    assert sum(ch.entries.values()) == 28 == weyl_dim(D4, omega_weight(4, (2, 1)))


@pytest.mark.parametrize("label,lam", [
    ("A2", (1, 2)),
    ("B2", (2, 1)),
    ("C3", (1, 0, 1)),
    ("D4", (0, 1, 1, 0)),
    ("D5", (0, 0, 2, 0, 0)),
])
def test_freudenthal_total_dimension(label, lam):
    rs = build_root_system(label)
    assert sum(freudenthal(rs, lam).entries.values()) == weyl_dim(rs, lam)


def test_freudenthal_a2_adjoint_zero_weight():
    a2 = build_root_system("A2")
    ch = freudenthal(a2, (1, 1))
    assert ch.entries[(0, 0)] == 2  # rank copies of the zero weight
    assert sum(ch.entries.values()) == 8


def test_freudenthal_rejects_non_dominant():
    with pytest.raises(ValueError):
        freudenthal(A1, (-2,))


def _alternant(rs, nu):
    """sum over w in W of eps(w) e^{w nu} for a strictly dominant nu: a signed
    walk of its orbit by simple reflections, each flipping the sign."""
    out = {nu: 1}
    orbit = [nu]
    for w in orbit:
        for i, c in enumerate(w):
            if c > 0:
                x = tuple(a - c * r for a, r in zip(w, rs.cartan[i]))
                if x not in out:
                    out[x] = -out[w]
                    orbit.append(x)
    return WeightChar(out)


WEYL_ORACLE_LABELS = (["A1", "A2", "A3", "A4"] + ["B2", "B3", "B4"] + ["C2", "C3", "C4"]
                      + ["D4"])


@pytest.mark.parametrize("label", WEYL_ORACLE_LABELS)
def test_freudenthal_satisfies_the_weyl_character_formula(label):
    # An oracle that shares nothing with Freudenthal's formula:
    # ch V(lam) * A(rho) = A(lam + rho), with A(nu) the alternant of nu and
    # the product the convolution of two WeightChars.  Seeded weights with up
    # to two nonzero coordinates of size 1 to 3; repeats and dimensions
    # above 4,000 are drawn again.
    rs = build_root_system(label)
    rng = random.Random(f"weyl character formula {label}")
    a_rho = _alternant(rs, (1,) * rs.rank)
    checked = set()
    while len(checked) < 3:
        lam = [0] * rs.rank
        for node in rng.sample(range(rs.rank), min(2, rs.rank)):
            lam[node] += rng.randint(1, 3)
        lam = tuple(lam)
        if lam in checked or weyl_dim(rs, lam) > 4_000:
            continue
        shifted = tuple(x + 1 for x in lam)
        assert freudenthal(rs, lam) * a_rho == _alternant(rs, shifted), lam
        checked.add(lam)


# The types check_dimension_conservation draws from; B and C have a Cartan
# entry -2, and D a branch node whose row has four nonzero entries.
SMALL_LABELS = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                "C2", "C3", "C4", "C5", "D4", "D5")


def _low_weights(rank):
    """Every nonzero dominant weight with coordinate sum at most 2."""
    return [lam for lam in product(range(3), repeat=rank) if 0 < sum(lam) <= 2]


def _dense_row_orbits(rs, lam):
    """Reference walk: each reflected weight is rebuilt from the full Cartan row."""
    full = {}
    for mu, m in dominant_multiplicities(rs, lam).items():
        full[mu] = m
        orbit = [mu]
        for w in orbit:
            for i, c in enumerate(w):
                if c > 0:
                    x = tuple(a - c * r for a, r in zip(w, rs.cartan[i]))
                    if x not in full:
                        full[x] = m
                        orbit.append(x)
    return full


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_sparse_row_orbit_walk_matches_the_dense_row_walk(label):
    # Same weights, same multiplicities, in the same order.  The order is
    # freudenthal's own: the Racah-Speiser kernel walks each orbit itself.
    rs = build_root_system(label)
    for lam in _low_weights(rs.rank):
        got = freudenthal(rs, lam).entries
        assert list(got.items()) == list(_dense_row_orbits(rs, lam).items()), lam


def test_dominant_multiplicities_up_to_rank_five_are_pinned():
    # One sha256 over the sorted dominant multiplicities of every weight the
    # orbit-walk test uses, with every memo table cleared before each weight.
    digest = hashlib.sha256()
    count = 0
    for label in SMALL_LABELS:
        rs = build_root_system(label)
        for lam in _low_weights(rs.rank):
            clear_memo_caches()
            items = sorted(dominant_multiplicities(rs, lam).items())
            digest.update(repr((label, lam, items)).encode())
            count += 1
    assert count == 180
    assert digest.hexdigest() == (
        "f810897a0369d787119ec26cb033e17ccf772ebff33ed76ef6934d7f3a914af3")


def _full_root_sum_multiplicities(rs, lam):
    """Reference: Freudenthal's formula summed over every positive root, the
    way dominant_multiplicities ran before the stabilizer-orbit reduction."""
    mults, conjugate = {}, {}
    for mu, off in dominant_weights_below(rs, lam).items():
        if mu == lam:
            mults[mu] = 1
            continue
        acc = 0
        for root in rs.positive_roots:
            pair = sum(m * c for m, c in zip(root.md, mu))
            k, x = 1, tuple(a + b for a, b in zip(mu, root.weight))
            while True:
                if x not in conjugate:
                    conjugate[x] = _descend(rs, x)[0]
                if conjugate[x] not in mults:
                    break
                acc += mults[conjugate[x]] * (pair + 2 * k * root.half_norm)
                k += 1
                x = tuple(a + b for a, b in zip(x, root.weight))
        den = sum(o * d * (a + b + 2) for o, d, a, b in zip(off, rs.half_lengths, lam, mu))
        q, r = divmod(2 * acc, den)
        assert r == 0 and q > 0, (lam, mu)
        mults[mu] = q
    return mults


CLASSICAL_UP_TO_RANK_8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                          + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)])


@pytest.mark.parametrize("label", CLASSICAL_UP_TO_RANK_8)
def test_stabilizer_orbit_freudenthal_matches_the_full_root_sum(label):
    # Seeded weights with one or two nonzero coordinates, so their dominant
    # weights have many zeros and large stabilizers; the same multiplicities
    # in the same order, and for every zero-node set met the orbit counts
    # cover each root once: they add up to 2|positive roots|.
    rs = build_root_system(label)
    rng = random.Random(f"stabilizer orbits {label}")
    zero_sets = set()
    for _ in range(5):
        lam = [0] * rs.rank
        for node in rng.sample(range(rs.rank), min(rs.rank, rng.randint(1, 2))):
            lam[node] = rng.randint(1, 2)
        lam = tuple(lam)
        clear_memo_caches()
        got = dominant_multiplicities(rs, lam)
        assert list(got.items()) == list(_full_root_sum_multiplicities(rs, lam).items()), lam
        zero_sets.update(tuple(c == 0 for c in mu) for mu in got)
    assert len(zero_sets) > 1
    for zeros in zero_sets:
        orbits = stabilizer_orbits(rs.lie_type, zeros)
        assert sum(count for _, count in orbits) == 2 * len(rs.positive_roots), zeros
        assert len({root for root, _ in orbits}) == len(orbits)


def test_dominant_multiplicities_subset():
    lam = omega_weight(4, (2, 1))
    dom = dominant_multiplicities(D4, lam)
    full = freudenthal(D4, lam).entries
    assert set(dom) <= set(full)
    assert all(full[w] == m for w, m in dom.items())
    assert all(D4.is_dominant(w) for w in dom)


def test_dominant_multiplicities_are_a_read_only_view_of_the_memo():
    # The result is the memo entry itself; a write through it would change
    # every later character of V(omega_2).
    lam = omega_weight(5, (2, 1))
    with pytest.raises(TypeError):
        dominant_multiplicities(D5, lam)[(0,) * 5] = 99
    assert sum(freudenthal(D5, lam).entries.values()) == 45


# -- tensor products --------------------------------------------------------------

def test_tensor_with_trivial():
    lam = omega_weight(4, (2, 2))
    assert tensor_decompose(D4, lam, (0, 0, 0, 0)) == IsoChar({lam: 1})


def test_tensor_clebsch_gordan():
    assert tensor_decompose(A1, (1,), (1,)) == IsoChar({(2,): 1, (0,): 1})
    assert tensor_decompose(A1, (2,), (2,)) == IsoChar({(4,): 1, (2,): 1, (0,): 1})


def test_tensor_adjoint_with_2omega3_d5():
    theta = D5.highest_root.weight
    iso = tensor_decompose(D5, theta, omega_weight(5, (3, 2)))
    assert iso[omega_weight(5, (3, 1), (1, 1))] == 1


@pytest.mark.parametrize("label,lam,nu", [
    ("A2", (1, 1), (2, 0)),
    ("B2", (1, 1), (0, 2)),
    ("D4", (1, 0, 0, 0), (0, 0, 1, 1)),
])
def test_tensor_dimension_conservation(label, lam, nu):
    rs = build_root_system(label)
    iso = tensor_decompose(rs, lam, nu)
    assert iso.is_genuine()
    assert iso.total_dimension(rs) == weyl_dim(rs, lam) * weyl_dim(rs, nu)


def test_tensor_cache_counts_computations():
    previous = set_active_tensor_cache(TensorCache())
    try:
        cache = active_tensor_cache()
        assert cache.computed == 0
        tensor_decompose(A1, (1,), (3,))
        tensor_decompose(A1, (3,), (1,))  # symmetric key: served from cache
        assert cache.computed == 1
    finally:
        set_active_tensor_cache(previous)


# -- the Racah-Speiser kernel -------------------------------------------------------

def _shift(w):
    return tuple(c + 1 for c in w)


def _kernel_pass(rs, ch, start):
    """One Racah-Speiser pass of the Weyl-invariant character ch over
    start = {lam: k}, fed as the kernel takes it: the dominant part of ch and
    the starts shifted by rho.  The nonzero entries, keyed by mu + rho."""
    dominant = {w: m for w, m in ch.entries.items() if min(w) >= 0}
    out = {}
    _racah_speiser(rs, dominant, {_shift(lam): k for lam, k in start.items()}, out)
    return {key: v for key, v in out.items() if v}


def _racah_speiser_full_descent(rs, ch, start):
    """Reference kernel: every shifted weight descends all the way to the
    dominant chamber with rootsys._descend, and the wall is tested only there."""
    out = {}
    for lam, k in start.items():
        for w, m in ch.entries.items():
            target = tuple(b + x + 1 for b, x in zip(lam, w))
            dom, parity = _descend(rs, target)
            if 0 in dom:
                continue
            mu = tuple(c - 1 for c in dom)
            out[mu] = out.get(mu, 0) + parity * m * k
    return {mu: v for mu, v in out.items() if v}


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_racah_speiser_matches_the_full_descent(label):
    # Signed characters: weight systems, their Adams operations psi^j for
    # j <= 3 and differences of these, against weighted starts {lam: k} with
    # k <= 3.  The kernel reads only the dominant part of each character and
    # walks its orbits itself, so the results must agree entry by entry (the
    # reference sums in the input's order, the kernel orbit by orbit); the
    # counters make sure the cases reach a wall only after a reflection and
    # keep terms of odd parity, which a lost wall check or sign would break.
    rs = build_root_system(label)
    rng = random.Random(f"racah-speiser {label}")
    zero = (0,) * rs.rank
    late_walls = odd_terms = 0
    for _ in range(4):
        lam = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rs.rank))
        base = freudenthal(rs, lam if weyl_dim(rs, lam) <= 300 else zero)
        other = freudenthal(rs, rs.highest_root.weight)
        chars = [base] + [_adams(base, j) for j in (2, 3)]
        chars += [_adams(base, rng.randint(1, 3)) - _adams(other, rng.randint(1, 3))]
        for ch in chars:
            start = {tuple(rng.randint(0, 3) for _ in range(rs.rank)): rng.randint(1, 3)
                     for _ in range(rng.randint(1, 3))}
            got = {tuple(c - 1 for c in key): v
                   for key, v in _kernel_pass(rs, ch, start).items()}
            assert got == _racah_speiser_full_descent(rs, ch, start)
            for nu in start:
                for w in ch.entries:
                    x = tuple(b + c + 1 for b, c in zip(nu, w))
                    dom, parity = _descend(rs, x)
                    late_walls += 0 not in x and 0 in dom
                    odd_terms += 0 not in dom and parity < 0
    # In rank one a reflection only negates the coordinate: no late wall.
    assert odd_terms and (late_walls or rs.rank == 1)


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("B3", (0, 1, 1)), ("D4", (0, 1, 0, 0))])
def test_racah_speiser_refuses_a_full_character(label, lam):
    # From a weight with a negative coordinate weyl_orbit walks only part of
    # the orbit, so a full character given in place of its dominant part
    # would decompose wrongly; the kernel refuses it instead.
    rs = build_root_system(label)
    with pytest.raises(AssertionError, match="non-dominant weight"):
        _racah_speiser(rs, freudenthal(rs, lam).entries, {_shift(lam): 1}, {})


def test_a_cold_tensor_product_holds_one_orbit_at_a_time():
    # B5 V(2 omega3 + omega4) has 13,335 weights.  With its dominant
    # multiplicities and both Weyl dimensions warm, a cold tensor product
    # with V(4 omega4) holds one orbit at a time: its traced peak stays
    # below a quarter of the full character's size.
    import tracemalloc

    rs = build_root_system("B5")
    lam, nu = (0, 0, 2, 1, 0), (0, 0, 0, 4, 0)
    previous = set_active_tensor_cache(TensorCache())
    try:
        clear_memo_caches()
        for x in (lam, nu):
            dominant_multiplicities(rs, x)
            weyl_dim(rs, x)
        tracemalloc.start()
        try:
            tensor_decompose(rs, lam, nu)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.clear_traces()
            full = freudenthal(rs, lam).entries
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(full) == 13335
        assert active_tensor_cache().computed == 1
        assert peak < size / 4, (peak, size)
    finally:
        set_active_tensor_cache(previous)
        clear_memo_caches()


def test_production_paths_never_build_a_full_character(monkeypatch):
    # Cold, with freudenthal refused: a tensor product and a graded character
    # read only dominant multiplicities.
    import krchar.repchar as repchar
    from krchar.graded import gch_N

    def refuse(*args, **kwargs):
        raise AssertionError("freudenthal reached from a production path")

    clear_memo_caches()
    monkeypatch.setattr(repchar, "freudenthal", refuse)
    try:
        lam = omega_weight(5, (3, 2))
        iso = tensor_decompose(D5, D5.highest_root.weight, lam)
        assert iso[omega_weight(5, (3, 1), (1, 1))] == 1
        assert iso.total_dimension(D5) == weyl_dim(D5, lam) * 45
        g = gch_N(D5, lam, 3)
        assert g.entries[((0,) * 5, (1, 1, 1))] == 1
    finally:
        clear_memo_caches()


# -- exterior and symmetric powers -------------------------------------------------

def test_power_degenerate_cases():
    ch = freudenthal(A1, (2,))
    assert ext_power(ch, 0) == WeightChar({(0,): 1})
    assert sym_power(ch, 0) == WeightChar({(0,): 1})
    assert ext_power(ch, 1) == ch
    assert sym_power(ch, 1) == ch
    assert ext_power(ch, 4) == WeightChar()  # wedge beyond the dimension


def test_ext_power_dimension_binomial():
    ch = adjoint_char(D4)
    sq = ext_power(ch, 2)
    assert sum(sq.entries.values()) == math.comb(28, 2) == 378
    assert sq.is_genuine()


def test_sym_power_dimension():
    ch = freudenthal(A1, (2,))
    assert sum(sym_power(ch, 2).entries.values()) == math.comb(3 + 2 - 1, 2) == 6
    chd = adjoint_char(D4)
    assert sum(sym_power(chd, 2).entries.values()) == math.comb(28 + 1, 2)


def test_power_rejects_virtual_input():
    with pytest.raises(ValueError):
        ext_power(WeightChar({(1,): -1}), 1)


@pytest.mark.parametrize("label,lam", [("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 0))])
def test_newton_identities(label, lam):
    # sum_{j=0..k} (-1)^j Sym^{k-j} * Ext^j vanishes for k >= 1.
    rs = build_root_system(label)
    ch = freudenthal(rs, lam)
    for k in range(1, 5):
        acc = WeightChar()
        for j in range(k + 1):
            term = sym_power(ch, k - j) * ext_power(ch, j)
            acc = acc + (term * (-1 if j % 2 else 1))
        assert acc == WeightChar()


def _adams(ch, j):
    # Power-sum operation: every weight scaled by j.
    return WeightChar({tuple(j * c for c in w): m for w, m in ch.entries.items()})


@pytest.mark.parametrize("label,lam", [("B2", (1, 1)), ("D4", (0, 1, 0, 0))])
def test_powers_against_adams_newton_oracle(label, lam):
    # Independent oracle for both power functors: build e_k and h_k from the
    # power sums via k e_k = sum (-1)^(j-1) e_(k-j) p_j and
    # k h_k = sum h_(k-j) p_j, then compare with the DP route.
    rs = build_root_system(label)
    ch = freudenthal(rs, lam)
    e = [WeightChar({(0,) * rs.rank: 1})]
    h = [WeightChar({(0,) * rs.rank: 1})]
    for k in range(1, 5):
        acc_e = WeightChar()
        acc_h = WeightChar()
        for j in range(1, k + 1):
            pj = _adams(ch, j)
            acc_e = acc_e + (e[k - j] * pj) * (-1 if j % 2 == 0 else 1)
            acc_h = acc_h + h[k - j] * pj
        e.append(WeightChar({w: m // k for w, m in acc_e.entries.items()}))
        h.append(WeightChar({w: m // k for w, m in acc_h.entries.items()}))
        assert all(m % k == 0 for m in acc_e.entries.values())
        assert all(m % k == 0 for m in acc_h.entries.values())
        assert ext_power(ch, k) == e[k]
        assert sym_power(ch, k) == h[k]


# -- isotypical decomposition -------------------------------------------------------

def test_iso_decompose_round_trip():
    lam = omega_weight(4, (2, 1))
    assert iso_decompose(D4, freudenthal(D4, lam)) == IsoChar({lam: 1})


def test_iso_decompose_a1_square():
    ch = freudenthal(A1, (1,)) * freudenthal(A1, (1,))
    assert iso_decompose(A1, ch) == IsoChar({(2,): 1, (0,): 1})


def test_iso_decompose_wedge_adjoint_contains_adjoint():
    theta = omega_weight(4, (2, 1))
    wedge = ext_power(adjoint_char(D4), 2)
    iso = iso_decompose(D4, wedge)
    assert iso[theta] >= 1
    assert iso.is_genuine()
    # Expanding the decomposition back into weights gives wedge again.
    expanded = sum((freudenthal(D4, mu) * m for mu, m in iso.entries.items()), WeightChar())
    assert expanded == wedge


def test_iso_decompose_rejects_invariant_violation():
    with pytest.raises(ValueError):
        iso_decompose(A1, WeightChar({(1,): 1}))


# -- Hom-space coefficients -----------------------------------------------------------

def test_coefficients_trivial_degree():
    ms = ModuleSpec.adjoint(D5, 2)
    lam = omega_weight(5, (3, 2))
    assert c_coefficient(D5, ms, lam, lam, (0, 0)) == 1
    assert sym_coefficient(D5, ms, lam, lam, (0, 0)) == 1
    assert c_coefficient(D5, ms, lam, omega_weight(5, (2, 1)), (0, 0)) == 0


def test_c_coefficient_d5_values():
    ms = ModuleSpec.adjoint(D5, 2)
    lam = omega_weight(5, (3, 2))
    assert c_coefficient(D5, ms, lam, omega_weight(5, (1, 2)), (2, 0)) == 0
    assert c_coefficient(D5, ms, lam, omega_weight(5, (2, 1)), (1, 1)) == 1


def test_sym_coefficient_kr_step_matches_tensor_oracle():
    ms = ModuleSpec.adjoint(D4, 1)
    theta = D4.highest_root.weight
    for m in (1, 2, 3):
        lam = omega_weight(4, (2, m))
        mu = omega_weight(4, (2, m - 1))
        oracle = tensor_decompose(D4, theta, lam)[mu]
        assert oracle == 1
        assert sym_coefficient(D4, ms, lam, mu, (1,)) == oracle


def test_sym_coefficient_a1():
    ms = ModuleSpec.adjoint(A1, 1)
    assert sym_coefficient(A1, ms, (0,), (2,), (1,)) == 1


def test_coefficients_symmetric_in_degree_vector():
    ms = ModuleSpec.adjoint(D5, 3)
    lam = omega_weight(5, (3, 2))
    mu = omega_weight(5, (2, 1))
    for k in [(1, 1, 0), (2, 0, 1), (0, 1, 2)]:
        for perm in set(product(range(3), repeat=3)):
            if sorted(perm) != [0, 1, 2]:
                continue
            kp = tuple(k[p] for p in perm)
            assert c_coefficient(D5, ms, lam, mu, kp) == c_coefficient(D5, ms, lam, mu, k)
            assert sym_coefficient(D5, ms, lam, mu, kp) == sym_coefficient(D5, ms, lam, mu, k)


def test_coefficient_validation():
    ms = ModuleSpec.adjoint(A1, 1)
    with pytest.raises(ValueError):
        c_coefficient(A1, ms, (1,), (1,), (1, 0))  # ell mismatch
    with pytest.raises(ValueError):
        c_coefficient(A1, ms, (1,), (1,), (-1,))


def test_coefficients_with_unequal_components():
    # Distinct degree-one layers: V_1 the vector module, V_2 the adjoint.
    vec = omega_weight(4, (1, 1))
    theta = omega_weight(4, (2, 1))
    ms = ModuleSpec(((vec,), (theta,)))
    lam = theta
    for mu in [vec, theta, (0, 0, 0, 0), omega_weight(4, (1, 1), (2, 1))]:
        assert c_coefficient(D4, ms, lam, mu, (1, 0)) == tensor_decompose(D4, vec, lam)[mu]
        assert c_coefficient(D4, ms, lam, mu, (0, 1)) == tensor_decompose(D4, theta, lam)[mu]
    # The two unit degrees select different layers, so they must differ.
    assert c_coefficient(D4, ms, lam, vec, (1, 0)) != c_coefficient(D4, ms, lam, vec, (0, 1))
    # Wedge and Sym squares of the vector module split as adjoint resp.
    # traceless-symmetric plus trivial.
    zero = (0, 0, 0, 0)
    assert c_coefficient(D4, ms, zero, theta, (2, 0)) == 1
    assert c_coefficient(D4, ms, zero, zero, (2, 0)) == 0
    assert sym_coefficient(D4, ms, zero, omega_weight(4, (1, 2)), (2, 0)) == 1
    assert sym_coefficient(D4, ms, zero, zero, (2, 0)) == 1
    # Mixed unit degrees reduce to the plain tensor product V_1 (x) V_2.
    prod = iso_decompose(D4, freudenthal(D4, vec) * freudenthal(D4, theta))
    for mu, m in prod.entries.items():
        assert c_coefficient(D4, ms, zero, mu, (1, 1)) == m
        assert sym_coefficient(D4, ms, zero, mu, (1, 1)) == m
    # Powers of both layers at once fold two distinct factors into V(lam);
    # the oracle convolves the two powers, peels the product and tensors
    # each simple with V(lam).
    for coefficient, power in ((c_coefficient, ext_power), (sym_coefficient, sym_power)):
        for k in [(2, 1), (1, 2)]:
            product = power(freudenthal(D4, vec), k[0]) * power(freudenthal(D4, theta), k[1])
            for lam in (zero, theta):
                oracle = IsoChar()
                for nu, m in iso_decompose(D4, product).entries.items():
                    oracle = oracle + tensor_decompose(D4, nu, lam) * m
                top = tuple(a + k[0] * b + k[1] * c for a, b, c in zip(lam, vec, theta))
                assert oracle and set(oracle.entries) <= set(dominant_multiplicities(D4, top))
                for mu in dominant_multiplicities(D4, top):
                    assert coefficient(D4, ms, lam, mu, k) == oracle[mu], \
                        (coefficient.__name__, k, lam, mu)


def test_coefficients_match_the_iso_decompose_route_on_the_acceptance_matrix():
    # The superseded route to every coefficient: peel the power product into
    # simples with iso_decompose, then tensor each simple with V(lam).  It is
    # checked at every (lam, mu, k) that the columns of A(t) and E(t) read, for
    # every gamma set of the acceptance matrix.
    peeled, old = {}, {}
    checked = 0
    for rs, lam0, ell in acceptance_matrix():
        ms = ModuleSpec.adjoint(rs, ell)
        gamma = gamma_psi(rs, psi_lambda(rs, lam0), LambdaPoint(lam0, (0,) * ell), ell)
        for lam, r in gamma.points:
            for mu, s in gamma.points:
                k = tuple(b - a for a, b in zip(r, s))
                if any(x < 0 for x in k):
                    continue
                for coefficient, power in ((sym_coefficient, sym_power),
                                           (c_coefficient, ext_power)):
                    product_key = (rs.lie_type, power, tuple(sorted(x for x in k if x)))
                    if product_key not in peeled:
                        ch = WeightChar({(0,) * rs.rank: 1})
                        for j, kj in enumerate(k):
                            if kj:
                                ch = ch * power(component_char(rs, ms.components[j]), kj)
                        peeled[product_key] = iso_decompose(rs, ch)
                    key = product_key + (lam,)
                    if key not in old:
                        old[key] = IsoChar()
                        for nu, m in peeled[product_key].entries.items():
                            old[key] = old[key] + tensor_decompose(rs, nu, lam) * m
                    assert coefficient(rs, ms, lam, mu, k) == old[key][mu], \
                        (rs.lie_type, lam, mu, k, coefficient.__name__)
                    checked += 1
    assert checked > 2000


NOT_SELF_DUAL_LAYERS = (("A3", (1, 3)), ("A4", (2, 1)), ("D5", (5, 2)))


def test_coefficients_on_layers_that_are_not_self_dual():
    # Two layers V(omega_a), V(omega_b) that are not self-dual (the adjoint
    # layer is, so a lost dual would not show on it), every degree vector of
    # total 1 to 3 and every dominant mu below the top weight.  With lam = 0,
    # omega_1 or omega_n each coefficient is checked against the peel of the
    # whole product of power characters; the other fundamental lams, where
    # that oracle takes seconds, are pinned by one sha256 (checked against
    # the same oracle when pinned).
    digest = hashlib.sha256()
    checked = pinned = 0
    for label, (a, b) in NOT_SELF_DUAL_LAYERS:
        rs = build_root_system(label)
        n = rs.rank
        w1, w2 = omega_weight(n, (a, 1)), omega_weight(n, (b, 1))
        ms = ModuleSpec(((w1,), (w2,)))
        degrees = [(i, j) for i in range(4) for j in range(4) if 1 <= i + j <= 3]
        lams = [(0,) * n] + [omega_weight(n, (i, 1)) for i in range(1, n + 1)]
        for kind, coefficient in (("sym", sym_coefficient), ("ext", c_coefficient)):
            for k in degrees:
                for lam in lams:
                    top = tuple(x + k[0] * y + k[1] * z for x, y, z in zip(lam, w1, w2))
                    got = {mu: coefficient(rs, ms, lam, mu, k)
                           for mu in dominant_weights_below(rs, top)}
                    if lam[1:-1] == (0,) * (n - 2) and sum(lam) <= 1:
                        ch = (_power_char(freudenthal(rs, w1), k[0], kind)
                              * _power_char(freudenthal(rs, w2), k[1], kind)
                              * freudenthal(rs, lam))
                        oracle = iso_decompose(rs, ch)
                        assert got == {mu: oracle[mu] for mu in got}, (label, kind, k, lam)
                        checked += len(got)
                    else:
                        digest.update(repr((label, kind, k, lam, sorted(got.items()))).encode())
                        pinned += len(got)
    assert (checked, pinned) == (882, 1058)
    assert digest.hexdigest() == (
        "71630b8b4ef934106c614e3b3459609be9a18941d47f00a1a2aeb1e6bda7c98e")


NEWTON_LABELS = ("A3", "B3", "C3", "B4", "C4", "D5")


def _seeded_dominant(rs, rng):
    return tuple(rng.randint(0, 1) for _ in range(rs.rank))


@pytest.mark.parametrize("label", NEWTON_LABELS)
def test_power_fold_matches_the_power_dp(label):
    # The fold of Newton's recurrence on Adams operations against one
    # Racah-Speiser pass of the DP-built power character, for the adjoint
    # layer and for the vector (+) adjoint layer.  On rank 3 also two factors
    # of one layer against the convolution of their DP characters; at (2, 2)
    # lowering the last degree re-sorts the factors.
    rs = build_root_system(label)
    rng = random.Random(f"power fold {label}")
    vec, theta = omega_weight(rs.rank, (1, 1)), rs.highest_root.weight
    pairs = ((1, 1), (1, 3), (2, 2)) if rs.rank == 3 else ()
    for comp in ((theta,), (vec, theta)):
        ch = component_char(rs, comp)
        for nu in ((0,) * rs.rank, _seeded_dominant(rs, rng)):
            for kind in ("sym", "ext"):
                for d in range(5):
                    oracle = _kernel_pass(rs, _power_char(ch, d, kind), {nu: 1})
                    factors = ((comp, d),) if d else ()
                    assert _fold(rs, kind, factors, nu) == oracle, (comp, nu, kind, d)
                for a, b in pairs:
                    product_char = _power_char(ch, a, kind) * _power_char(ch, b, kind)
                    oracle = _kernel_pass(rs, product_char, {nu: 1})
                    factors = ((comp, a), (comp, b))
                    assert _fold(rs, kind, factors, nu) == oracle, (comp, nu, kind, a, b)


@pytest.mark.parametrize("label", NEWTON_LABELS)
def test_wedge_power_fold_at_and_beyond_the_top_degree(label):
    # wedge^dim V is the trivial module and wedge^(dim V + 1) is zero; the
    # recurrence reaches both only through exact cancellation.  The vector
    # layer on every type; the adjoint on rank 3, where dim V is at most 21
    # (on rank 4 its 36 degrees take half a minute).
    rs = build_root_system(label)
    rng = random.Random(f"wedge edges {label}")
    layers = [omega_weight(rs.rank, (1, 1))]
    if rs.rank == 3:
        layers.append(rs.highest_root.weight)
    for highest in layers:
        comp = (highest,)
        ms = ModuleSpec((comp,))
        top = weyl_dim(rs, highest)
        for lam in ((0,) * rs.rank, _seeded_dominant(rs, rng)):
            assert c_coefficient(rs, ms, lam, lam, (top,)) == 1
            assert _fold(rs, "ext", ((comp, top),), lam) == {_shift(lam): 1}
            assert _fold(rs, "ext", ((comp, top + 1),), lam) == {}
            assert c_coefficient(rs, ms, lam, lam, (top + 1,)) == 0


@pytest.mark.parametrize("label", ["A4", "B5", "C5", "D5"])
def test_whole_fold_dimensions_are_binomial(label):
    # Sym^d(g) (x) V(0) has dimension C(dim g + d - 1, d) and wedge^d(g) (x)
    # V(0) has C(dim g, d).  Degree 6 on B5 and D5, and degree 7 on C5, need
    # a Racah-Speiser descent of more than 10 reflections.
    rs = build_root_system(label)
    comp, zero = (rs.highest_root.weight,), (0,) * rs.rank
    dim_g = weyl_dim(rs, comp[0])
    for d in range(1, 9):
        for kind, expected in (("sym", math.comb(dim_g + d - 1, d)), ("ext", math.comb(dim_g, d))):
            fold = _fold(rs, kind, ((comp, d),), zero)
            got = sum(f * weyl_dim(rs, tuple(c - 1 for c in mu)) for mu, f in fold.items())
            assert got == expected, (kind, d)


def test_every_memoised_fold_of_a_gch_and_an_ext_column_has_its_binomial_dimension():
    # Sym^{d_1}(V_1) (x) ... (x) Sym^{d_r}(V_r) (x) V(nu) has dimension
    # dim V(nu) prod_i C(dim V_i + d_i - 1, d_i), and the wedge powers
    # prod_i C(dim V_i, d_i), for every fold a cold gch_N and one Ext column
    # of its Gamma leave in the memo: several layers, and nu != 0.
    import krchar.repchar as repchar
    from krchar.graded import _column, gch_N

    lam, ell = (0, 0, 3, 0, 0), 3
    clear_memo_caches()
    try:
        gch_N(D5, lam, ell)
        gamma = gamma_psi(D5, psi_lambda(D5, lam), LambdaPoint(lam, (0,) * ell), ell)
        point = gamma.points[1]  # degree one, so its Ext folds start from another nu
        assert point.weight != lam and sum(point.degree) == 1
        assert _column(D5, ModuleSpec.adjoint(D5, ell), gamma, point, c_coefficient)
        folds = repchar._coeff_cache.items()
        assert {(kind, nu) for (_, kind, _, nu), _ in folds} == {("sym", lam), ("ext", point.weight)}
        assert max(len(factors) for (_, _, factors, _), _ in folds) == ell
        for (_, kind, factors, nu), fold in folds:
            expected = weyl_dim(D5, nu)
            for comp, d in factors:
                dim_v = sum(weyl_dim(D5, w) for w in comp)
                expected *= math.comb(dim_v + d - 1, d) if kind == "sym" else math.comb(dim_v, d)
            got = sum(f * weyl_dim(D5, tuple(c - 1 for c in mu)) for mu, f in fold.items())
            assert got == expected, (kind, factors, nu)
    finally:
        clear_memo_caches()


def test_each_fold_entry_costs_its_last_degree_in_kernel_passes(monkeypatch):
    # A cold gch run makes exactly d Racah-Speiser passes for each memoised
    # fold whose last factor has degree d, so no fold is ever recomputed.
    import krchar.repchar as repchar
    from krchar.graded import gch_N

    kernel, passes = repchar._racah_speiser, []

    def counted(rs, dominant, start, out):
        passes.append(1)
        kernel(rs, dominant, start, out)

    clear_memo_caches()
    monkeypatch.setattr(repchar, "_racah_speiser", counted)
    try:
        gch_N(D5, (0, 0, 3, 0, 0), 3)
        entries = repchar._coeff_cache.items()
        assert entries and len(passes) == sum(key[2][-1][1] for key, _ in entries)
        assert len(repchar._power_iso_cache) == 0
    finally:
        clear_memo_caches()


def test_module_spec_adjoint():
    ms = ModuleSpec.adjoint(D4, 2)
    assert ms.ell == 2
    assert ms.components[0] == (omega_weight(4, (2, 1)),)
    with pytest.raises(ValueError):
        ModuleSpec.adjoint(D4, 0)


def test_module_spec_is_an_immutable_value():
    theta = D4.highest_root.weight
    ms = ModuleSpec(((theta,), (theta,)))
    assert ms == ModuleSpec.adjoint(D4, 2) and hash(ms) == hash(ModuleSpec.adjoint(D4, 2))
    assert ms != ModuleSpec.adjoint(D4, 1)
    assert ms != ms.components  # equality is type-strict
    assert len({ms, ModuleSpec.adjoint(D4, 2)}) == 1
    with pytest.raises(AttributeError):
        ms.components = ()
    with pytest.raises(AttributeError):
        ms.extra = 1
    with pytest.raises(AttributeError):
        del ms.components
    assert ms.ell == 2
    with pytest.raises(ValueError, match="ell must be positive"):
        ModuleSpec(())


def test_clear_memo_caches_drops_weyl_dim_table():
    from krchar.rootsys import _weyl_dim_cache

    weyl_dim(D5, omega_weight(5, (3, 2)))
    assert _weyl_dim_cache
    clear_memo_caches()
    assert not _weyl_dim_cache


def test_bounded_cache_eviction():
    from krchar.repchar import BoundedCache

    cache = BoundedCache(max_entries=3)
    for i in range(5):
        cache.put(i, i * i)
    assert len(cache) == 3
    assert cache.get(0) is None and cache.get(1) is None  # oldest evicted
    assert cache.get(4) == 16
    # A capped tensor cache still answers correctly, just recomputes.
    previous = set_active_tensor_cache(TensorCache(max_entries=1))
    try:
        first = tensor_decompose(A1, (1,), (2,))
        second = tensor_decompose(A1, (2,), (3,))
        again = tensor_decompose(A1, (1,), (2,))  # evicted, recomputed
        assert first == again
        assert active_tensor_cache().computed == 3
        assert second == IsoChar({(5,): 1, (3,): 1, (1,): 1})
    finally:
        set_active_tensor_cache(previous)


def test_shared_cache_is_interleaving_safe():
    # Concurrent callers racing on the shared memo must see the same results
    # as a serial run.
    import threading

    previous = set_active_tensor_cache(TensorCache())
    try:
        pairs = [((1, 1), (2, 0)), ((2, 0), (0, 2)), ((1, 2), (1, 1)), ((3, 0), (2, 1))]
        rs = build_root_system("B2")
        serial = [tensor_decompose(rs, a, b).entries for a, b in pairs]
        set_active_tensor_cache(TensorCache())
        results = [[None] * len(pairs) for _ in range(4)]

        def worker(slot):
            for i, (a, b) in enumerate(pairs):
                results[slot][i] = tensor_decompose(rs, a, b).entries

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for slot in range(4):
            assert results[slot] == serial
    finally:
        set_active_tensor_cache(previous)
