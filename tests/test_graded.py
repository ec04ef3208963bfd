"""Tests for graded characters, Ext matrices and the verification identities."""

from itertools import product

import pytest

from krchar.graded import (
    GradedChar,
    ext_dim,
    gch_N,
    gch_P_direct,
    gch_P_recursive,
    multiplicity_ell_profile,
    verify_AE_identity,
    verify_alternating_sum,
)
from krchar import graded, verify
from krchar.poset import (
    LambdaPoint,
    compositions,
    d_psi,
    gamma_psi,
    i_lambda,
    leq_psi,
    psi_i,
)
from krchar.repchar import (
    IsoChar,
    ModuleSpec,
    c_coefficient,
    clear_memo_caches,
    freudenthal,
    sym_coefficient,
    tensor_decompose,
)
from krchar.rootsys import (
    build_root_system,
    integral_root_coords,
    omega_weight,
    weyl_dim,
)

A1 = build_root_system("A1")
D4 = build_root_system("D4")
D5 = build_root_system("D5")


def _gamma(rs, node, lam, ell):
    psi = psi_i(rs, node)
    base = LambdaPoint(lam, (0,) * ell)
    return base, gamma_psi(rs, psi, base, ell)


# -- GradedChar basics -------------------------------------------------------------

def test_graded_char_arithmetic():
    a = GradedChar({((1,), (0,)): 1})
    b = GradedChar({((1,), (0,)): 1, ((0,), (1,)): 2})
    assert (a + b).entries == {((1,), (0,)): 2, ((0,), (1,)): 2}
    assert (b - a).entries == {((0,), (1,)): 2}
    assert (a - a) == GradedChar()
    assert (2 * b).entries[((0,), (1,))] == 4
    assert b.shift((2,)).entries == {((1,), (2,)): 1, ((0,), (3,)): 2}
    assert b.is_genuine() and not (a - b).is_genuine()
    assert (-b).entries == {((1,), (0,)): -1, ((0,), (1,)): -2}
    assert a != IsoChar(a.entries)  # equal entries, different character types


# -- ext_dim ------------------------------------------------------------------------

def test_ext_dim_identity_case():
    ms = ModuleSpec.adjoint(D5, 2)
    a = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    assert ext_dim(D5, ms, a, a, 0) == 1
    assert ext_dim(D5, ms, a, a, 1) == 0


def test_ext_dim_paper_values():
    ms = ModuleSpec.adjoint(D5, 2)
    a = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    b = LambdaPoint(omega_weight(5, (3, 1), (1, 1)), (1, 0))
    assert ext_dim(D5, ms, a, b, 1) == 1
    assert ext_dim(D5, ms, a, b, 2) == 0  # wrong cohomological degree
    c = LambdaPoint(omega_weight(5, (1, 2)), (2, 0))
    assert ext_dim(D5, ms, a, c, 2) == 0  # Sym side differs: wedge misses 2*e_j
    c2 = LambdaPoint(omega_weight(5, (2, 1)), (1, 1))
    assert ext_dim(D5, ms, a, c2, 2) == 1


def test_ext_dim_negative_gap():
    ms = ModuleSpec.adjoint(D5, 1)
    a = LambdaPoint(omega_weight(5, (3, 2)), (1,))
    b = LambdaPoint(omega_weight(5, (3, 1), (1, 1)), (0,))
    assert ext_dim(D5, ms, a, b, 1) == 0


def test_ext_dim_rejects_non_dominant_weights():
    # Checked before the degree shortcut: here the gap (1 -> 0) alone would
    # answer 0.
    ms = ModuleSpec.adjoint(D4, 1)
    zero = LambdaPoint((0, 0, 0, 0), (0,))
    for a, b in ((LambdaPoint((0, -1, 0, 0), (1,)), zero),
                 (LambdaPoint((0, 1, 0, 0), (1,)), LambdaPoint((1, 0, -1, 0), (0,)))):
        with pytest.raises(ValueError, match="dominant"):
            ext_dim(D4, ms, a, b, 0)


# -- the columns of A(t) and E(t) ----------------------------------------------------
# Entry (i, j) of E(t) is ext_dim from point j to point i; column j of A(t) is
# the projective character gch_P_direct at point j.

def test_matrices_singleton():
    ms = ModuleSpec.adjoint(D4, 1)
    base, gamma = _gamma(D4, 1, omega_weight(4, (1, 2)), 1)
    assert len(gamma.points) == 1
    assert ext_dim(D4, ms, base, base, 0) == 1
    assert gch_P_direct(D4, ms, base, gamma) == GradedChar({base: 1})


def test_matrix_E_d4_kr_entries_match_tensor_oracle():
    ms = ModuleSpec.adjoint(D4, 1)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 1)
    points = gamma.points
    assert len(points) == 3
    theta = D4.highest_root.weight
    for point in points:
        assert ext_dim(D4, ms, point, point, 0) == 1
    # Subdiagonal entries are multiplicities inside adjoint (x) V(k omega_2).
    for col, m in ((0, 2), (1, 1)):
        lam = omega_weight(4, (2, m))
        mu = omega_weight(4, (2, m - 1))
        oracle = tensor_decompose(D4, theta, lam)[mu]
        assert ext_dim(D4, ms, points[col], points[col + 1], 1) == oracle
    assert ext_dim(D4, ms, points[0], points[1], 1) and ext_dim(D4, ms, points[1], points[2], 1)


def test_matrix_A_a1_face_of_omega1():
    # For A1 the coefficient-two set is empty, so use the face of omega_1
    # directly: psi = {-alpha_1}.
    psi = frozenset({(-2,)})
    base = LambdaPoint((2,), (0,))
    gamma = gamma_psi(A1, psi, base, 1)
    assert [p.weight for p in gamma.points] == [(2,), (0,)]
    top, bottom = gamma.points
    ms = ModuleSpec.adjoint(A1, 1)
    # Hom(Sym^1 g (x) V(2), V(0)) = 1
    assert gch_P_direct(A1, ms, top, gamma) == GradedChar({top: 1, bottom: 1})
    assert gch_P_direct(A1, ms, bottom, gamma) == GradedChar({bottom: 1})
    ok, detail = verify_AE_identity(A1, ms, gamma)
    assert ok, detail


def test_matrix_A_d4_unit_diagonal():
    ms = ModuleSpec.adjoint(D4, 2)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 2)
    for point in gamma.points:
        assert gch_P_direct(D4, ms, point, gamma).entries[point] == 1


@pytest.mark.parametrize("rs,node,lam,ell", [
    (D4, 2, omega_weight(4, (2, 3)), 2),
    (D5, 3, omega_weight(5, (3, 2)), 2),
])
def test_ae_identity(rs, node, lam, ell):
    ms = ModuleSpec.adjoint(rs, ell)
    base, gamma = _gamma(rs, node, lam, ell)
    ok, detail = verify_AE_identity(rs, ms, gamma)
    assert ok, detail


def test_matrix_A_entries_are_gap_monomials():
    ms = ModuleSpec.adjoint(D4, 2)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 2)
    for lam, r in gamma.points:
        column = gch_P_direct(D4, ms, LambdaPoint(lam, r), gamma)
        for mu, s in gamma.points:
            gap = tuple(a - b for a, b in zip(s, r))
            v = sym_coefficient(D4, ms, lam, mu, gap) if min(gap) >= 0 else 0
            assert column.entries.get((mu, s), 0) == v


def _add_one_at(monkeypatch, name, at):
    """Make graded's ``name`` coefficient return one more at the single
    argument tuple ``at`` = (lam, mu, k)."""
    original = getattr(graded, name)

    def mutated(rs, ms, lam, mu, k):
        return original(rs, ms, lam, mu, k) + ((lam, mu, k) == at)

    monkeypatch.setattr(graded, name, mutated)


def test_ae_identity_names_a_wrong_entry(monkeypatch):
    ms = ModuleSpec.adjoint(D4, 2)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 2)
    below = gamma.points[1]
    gap = below.degree  # the base sits at degree zero
    cases = [
        # A wrong projective multiplicity in the base column.
        ("sym_coefficient", (base.weight, below.weight, gap),
         f"entry ({below}, {base}) = {{{gap}: 1}}", False),
        # A wrong Ext dimension in a column other than the base's: the
        # alternating sum at the base never reads it.
        ("c_coefficient", ((0, 1, 0, 0), (0, 0, 0, 0), (0, 1)),
         "entry (LambdaPoint(weight=(0, 0, 0, 0), degree=(0, 2)), "
         "LambdaPoint(weight=(0, 1, 0, 0), degree=(0, 1))) = {(0, 1): -1}", True),
    ]
    for name, at, entry, alternating_ok in cases:
        with monkeypatch.context() as patch:
            _add_one_at(patch, name, at)
            ok, detail = verify_AE_identity(D4, ms, gamma)
            assert not ok
            assert detail == entry
            assert verify_alternating_sum(D4, ms, base, gamma)[0] is alternating_ok


@pytest.mark.parametrize("name", ["c_coefficient", "sym_coefficient"])
def test_a_diagonal_entry_other_than_one_is_an_internal_error(monkeypatch, name):
    ms = ModuleSpec.adjoint(D4, 2)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 2)
    _add_one_at(monkeypatch, name, (base.weight, base.weight, base.degree))
    with pytest.raises(AssertionError, match=r"^matrix is not unitriangular$"):
        verify_AE_identity(D4, ms, gamma)
    with pytest.raises(AssertionError, match=r"^matrix is not unitriangular$"):
        verify_alternating_sum(D4, ms, base, gamma)


@pytest.mark.parametrize("name,value", [("c_coefficient", -1), ("sym_coefficient", 1)],
                         ids=["c_coefficient", "sym_coefficient"])
def test_alternating_sum_fails_on_a_wrong_ext_coefficient(monkeypatch, name, value):
    # The sum is compared in the basis of simple characters, so one wrong
    # coefficient is reported at the point it was wrong at.
    ms = ModuleSpec.adjoint(D4, 2)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, 2)), 2)
    above = gamma.points[1]
    assert c_coefficient(D4, ms, base.weight, above.weight, above.degree)
    _add_one_at(monkeypatch, name, (base.weight, above.weight, above.degree))
    ok, detail = verify_alternating_sum(D4, ms, base, gamma)
    assert not ok
    assert detail == f"first mismatch at weight (0, 1, 0, 0) degree (0, 1): {value}"


# -- direct and recursive characters -------------------------------------------------

def test_gch_singleton():
    ms = ModuleSpec.adjoint(D4, 2)
    lam = omega_weight(4, (1, 4))
    base, gamma = _gamma(D4, 1, lam, 2)
    expected = GradedChar({(lam, (0, 0)): 1})
    assert gch_P_direct(D4, ms, base, gamma) == expected
    assert gch_P_recursive(D4, ms, base, gamma) == expected


@pytest.mark.parametrize("m,ell", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_gch_direct_kr_closed_formula(m, ell):
    ms = ModuleSpec.adjoint(D4, ell)
    base, gamma = _gamma(D4, 2, omega_weight(4, (2, m)), ell)
    got = gch_P_direct(D4, ms, base, gamma)
    expected = GradedChar({
        (omega_weight(4, (2, m - k)), r): 1
        for k in range(m + 1)
        for r in compositions(k, ell)
    })
    assert got == expected


@pytest.mark.parametrize("rs,node,lam,ell", [
    (D4, 2, omega_weight(4, (2, 2)), 2),
    (D5, 3, omega_weight(5, (3, 2)), 1),
    (D5, 3, omega_weight(5, (3, 2)), 2),
    (D5, 3, omega_weight(5, (3, 1), (1, 1)), 2),
])
def test_gch_direct_equals_recursive(rs, node, lam, ell):
    ms = ModuleSpec.adjoint(rs, ell)
    base, gamma = _gamma(rs, node, lam, ell)
    assert gch_P_direct(rs, ms, base, gamma) == gch_P_recursive(rs, ms, base, gamma)


def test_gch_shift_equivariance():
    ms = ModuleSpec.adjoint(D4, 2)
    psi = psi_i(D4, 2)
    lam = omega_weight(4, (2, 2))
    base0 = LambdaPoint(lam, (0, 0))
    gamma0 = gamma_psi(D4, psi, base0, 2)
    shifted_base = LambdaPoint(lam, (1, 2))
    gamma1 = gamma_psi(D4, psi, shifted_base, 2)
    for route in (gch_P_recursive, gch_P_direct):
        g0 = route(D4, ms, base0, gamma0)
        g1 = route(D4, ms, shifted_base, gamma1)
        assert g1 == g0.shift((1, 2))


def test_gch_2omega3_d5_ell2():
    got = gch_N(D5, omega_weight(5, (3, 2)), 2)
    entries = {(omega_weight(5, (3, 2)), (0, 0)): 1}
    for j in range(2):
        e = tuple(int(i == j) for i in range(2))
        entries[(omega_weight(5, (3, 1), (1, 1)), e)] = 1
    entries[(omega_weight(5, (2, 1)), (1, 1))] = 1
    for r in compositions(2, 2):
        entries[(omega_weight(5, (1, 2)), r)] = 1
    assert got == GradedChar(entries)  # no trivial-module term at ell = 2


# -- gch_N ---------------------------------------------------------------------------

def test_gch_N_trivial_cases():
    for rs, nodes in ((D4, (1, 3, 4)), (D5, (1, 4, 5))):
        for i in nodes:
            for m in (1, 2, 4):
                lam = omega_weight(rs.rank, (i, m))
                for ell in (1, 2):
                    assert gch_N(rs, lam, ell) == GradedChar({(lam, (0,) * ell): 1})


def test_gch_N_m_omega3_single_variable():
    for m in (1, 2, 3):
        got = gch_N(D5, omega_weight(5, (3, m)), 1)
        expected = GradedChar({
            (omega_weight(5, (3, m - r), (1, r)), (r,)): 1 for r in range(m + 1)
        })
        assert got == expected


def test_gch_N_2omega3_ell3_has_trivial_term():
    got = gch_N(D5, omega_weight(5, (3, 2)), 3)
    zero = (0,) * 5
    triples = [
        (1, 1, 1),
    ]
    assert [r for (w, r), v in got.entries.items() if w == zero] == triples
    assert got.entries[(zero, (1, 1, 1))] == 1


def _per_weight_recursion(rs, lam, ell):
    base, gamma = _gamma(rs, i_lambda(rs, lam), lam, ell)
    ms = ModuleSpec.adjoint(rs, ell)
    return gch_P_recursive(rs, ms, base, gamma, mode="per-weight-psi")


def test_gch_N_modes_agree():
    for lam, ell in [
        (omega_weight(5, (3, 2)), 2),
        (omega_weight(4, (2, 2)), 2),
        (omega_weight(5, (2, 2)), 1),
    ]:
        rs = D5 if len(lam) == 5 else D4
        assert gch_N(rs, lam, ell) == _per_weight_recursion(rs, lam, ell)


def test_gch_N_validation():
    with pytest.raises(ValueError):
        gch_N(D4, (-1, 0, 0, 0), 1)


@pytest.mark.parametrize("call", [
    lambda: weyl_dim(D4, (1, 0, 0, 0, 0)),
    lambda: freudenthal(D4, (1, 0)),
    lambda: tensor_decompose(D4, (1, 0), (0, 1)),
    lambda: tensor_decompose(D4, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    lambda: gch_N(D4, (0, 1), 1),
    lambda: d_psi(D4, psi_i(D4, 2), (0, 1, 0), (0, 1, 0, 0)),
    lambda: d_psi(D4, psi_i(D4, 2), (0, 1, 0, 0), (0, 1, 0, 0, 0)),
    lambda: leq_psi(D4, psi_i(D4, 2), LambdaPoint((0, 1, 0, 0), (0, 0)),
                    LambdaPoint((0, 1, 0, 0), (1,))),
    lambda: integral_root_coords(D4, (1, 0, 0, 0, 7)),
    lambda: ext_dim(D4, ModuleSpec.adjoint(D4, 1), LambdaPoint((0, 1, 0, 0), (0, 0)),
                    LambdaPoint((0, 0, 0, 0), (1,)), 1),
    lambda: multiplicity_ell_profile(D4, (0, 2, 0, 0), (0, 0, 0, 0, 0), 2),
    lambda: tensor_decompose(D4, (0, 1.0, 0, 0), (0, 1, 0, 0)),
    lambda: weyl_dim(D4, (0, 0.5, 0, 0)),
    lambda: sym_coefficient(D4, ModuleSpec.adjoint(D4, 2), (0, 1, 0, 0), (0, 1, 0, 0),
                            (1.5, 0)),
    lambda: gch_N(D4, (0, 1, 0, 0), 2).shift((1,)),
    lambda: gamma_psi(D4, psi_i(D4, 2), LambdaPoint((0, 1, 0, 0), (0.5,)), 1),
    lambda: leq_psi(D4, psi_i(D4, 2), LambdaPoint((0, 1, 0, 0), (0.5,)),
                    LambdaPoint((0, 0, 0, 0), (1.5,))),
    lambda: gch_N(D4, (0, 1, 0, 0), 2).shift((0.5, 0)),
    lambda: gamma_psi(D4, psi_i(D4, 2), LambdaPoint((0, 1, 0, 0), ()), 0),
    lambda: gch_N(D4, (0, 1, 0, 0), 1.5),
    lambda: ModuleSpec.adjoint(D4, 1.5),
    lambda: (gch_N(D4, (0, 1, 0, 0), 1), gch_N(D4, (0, 1, 0, 0), 1.0)),
    lambda: (freudenthal(D4, (0, 1, 0, 0)), freudenthal(D4, (0, 1.0, 0, 0))),
    lambda: multiplicity_ell_profile(D4, (0, 1, 0, 0), (0, 0, 0, 0), 0),
    lambda: multiplicity_ell_profile(D4, (0, 1, 0, 0), (0, 0, 0, 0), 1.5),
    lambda: (weyl_dim(D4, (0, 1, 0, 0)), weyl_dim(D4, (0, 1.0, 0, 0))),
    lambda: gch_P_recursive(D4, ModuleSpec.adjoint(D4, 1), *_gamma(D4, 2, (0, 1, 0, 0), 2)),
], ids=["weyl_dim", "freudenthal", "tensor-short", "tensor-long", "gch_N",
        "d_psi-lam", "d_psi-mu", "leq_psi", "integral_root_coords", "ext_dim",
        "multiplicity_ell_profile", "tensor-float-coordinate", "weyl_dim-float-coordinate",
        "sym_coefficient-float-degree", "shift-short", "gamma_psi-float-degree",
        "leq_psi-float-degree", "shift-float", "gamma_psi-ell-0",
        "gch_N-float-ell", "adjoint-float-ell", "gch_N-float-ell-after-warm",
        "freudenthal-float-after-warm", "profile-ell-0", "profile-float-ell",
        "weyl_dim-float-after-warm", "gch_P_recursive-gamma-of-other-ell"])
def test_weights_of_the_wrong_length_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_the_two_weight_refusal_messages():
    with pytest.raises(ValueError, match=r"^weight \[1, 0\] has 2 coordinates but D4 has rank 4$"):
        freudenthal(D4, (1, 0))
    with pytest.raises(ValueError, match=r"^source weight \[0, -1, 0, 0\] is not dominant$"):
        ext_dim(D4, ModuleSpec.adjoint(D4, 1), LambdaPoint((0, -1, 0, 0), (0,)),
                LambdaPoint((0, 0, 0, 0), (1,)), 1)


@pytest.mark.parametrize("coefficient", [sym_coefficient, c_coefficient],
                         ids=["sym_coefficient", "c_coefficient"])
def test_a_float_layer_weight_is_refused_cold_and_warm(coefficient):
    # The memo keys hash 1.0 like 1, so the layer weights are checked before
    # any lookup; a warm integer spec must not answer for the float one.
    floats = tuple(float(c) for c in D4.highest_root.weight)
    spec = ModuleSpec(((floats,), (floats,)))
    args = ((0, 1, 0, 0), (0, 1, 0, 0), (1, 1))
    message = r"^weight \[0\.0, 1\.0, 0\.0, 0\.0\] has a coordinate that is not an integer$"
    clear_memo_caches()
    with pytest.raises(ValueError, match=message):
        coefficient(D4, spec, *args)
    assert coefficient(D4, ModuleSpec.adjoint(D4, 2), *args) == 7
    with pytest.raises(ValueError, match=message):
        coefficient(D4, spec, *args)


def test_the_degree_and_ell_refusal_messages():
    with pytest.raises(ValueError, match=r"^degree \[0\.5\] has an entry that is not an integer$"):
        gamma_psi(D4, psi_i(D4, 2), LambdaPoint((0, 1, 0, 0), (0.5,)), 1)
    with pytest.raises(ValueError, match=r"^degree vector \[1, -1\] has a negative entry$"):
        sym_coefficient(D4, ModuleSpec.adjoint(D4, 2), (0, 1, 0, 0), (0, 1, 0, 0), (1, -1))
    with pytest.raises(ValueError, match=r"^ell must be positive, got 0$"):
        ModuleSpec(())
    with pytest.raises(ValueError, match=r"^ell must be an integer, got 1\.5$"):
        gch_N(D4, (0, 1, 0, 0), 1.5)


def test_gch_P_recursive_rejects_an_unknown_mode():
    base, gamma = _gamma(D4, 2, (0, 1, 0, 0), 1)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        gch_P_recursive(D4, ModuleSpec.adjoint(D4, 1), base, gamma, mode="bogus")


# -- alternating sum -----------------------------------------------------------------

def test_alternating_sum_singleton():
    ms = ModuleSpec.adjoint(D4, 1)
    base, gamma = _gamma(D4, 1, omega_weight(4, (1, 2)), 1)
    ok, detail = verify_alternating_sum(D4, ms, base, gamma)
    assert ok, detail


@pytest.mark.parametrize("rs,node,lam,ell", [
    (D4, 2, omega_weight(4, (2, 2)), 2),
    (D5, 3, omega_weight(5, (3, 2)), 2),
])
def test_alternating_sum(rs, node, lam, ell):
    ms = ModuleSpec.adjoint(rs, ell)
    base, gamma = _gamma(rs, node, lam, ell)
    ok, detail = verify_alternating_sum(rs, ms, base, gamma)
    assert ok, detail


def test_gch_cross_path_on_fundamental_pairs():
    # Mixed-support highest weights omega_i + omega_j drive the recursion
    # through inner weights with varying psi nodes.
    from itertools import combinations

    for label in ("D4", "D5"):
        rs = build_root_system(label)
        for i, j in combinations(range(1, rs.rank + 1), 2):
            lam = omega_weight(rs.rank, (i, 1), (j, 1))
            psi = psi_i(rs, i_lambda(rs, lam))
            for ell in (1, 2, 3):
                ms = ModuleSpec.adjoint(rs, ell)
                base = LambdaPoint(lam, (0,) * ell)
                gamma = gamma_psi(rs, psi, base, ell)
                direct = gch_P_direct(rs, ms, base, gamma)
                assert direct == gch_P_recursive(rs, ms, base, gamma)
                assert direct.is_genuine()


# -- the Q-system: an oracle from the KR literature ------------------------------------

def _kr_q(rs, a, m):
    """Q^(a)_m: gch_N(m omega_a) at ell = 1 summed over degrees, as {mu: multiplicity}."""
    if m == 0:
        return {(0,) * rs.rank: 1}
    out = {}
    for (mu, _), k in gch_N(rs, omega_weight(rs.rank, (a, m)), 1).entries.items():
        out[mu] = out.get(mu, 0) + k
    return out


def _iso_product(rs, x, y):
    out = {}
    for mu, a in x.items():
        for nu, b in y.items():
            for w, k in tensor_decompose(rs, mu, nu).entries.items():
                out[w] = out.get(w, 0) + a * b * k
    return IsoChar(out)


def test_gch_N_satisfies_the_simply_laced_q_system():
    # (Q^(a)_m)^2 = Q^(a)_(m+1) Q^(a)_(m-1) + prod over the neighbours b of a
    # of Q^(b)_m (Kirillov-Reshetikhin 1987; Nakajima 2003 for simply laced
    # types), with each product decomposed by tensor_decompose.
    count = 0
    for label, top in (("A3", 3), ("A4", 2), ("D4", 2), ("D5", 2)):
        rs = build_root_system(label)
        for a in range(1, rs.rank + 1):
            neighbours = [b for b in range(1, rs.rank + 1) if b != a and rs.cartan[a - 1][b - 1]]
            for m in range(1, top + 1):
                q = _kr_q(rs, a, m)
                rest = {(0,) * rs.rank: 1}
                for b in neighbours:
                    rest = _iso_product(rs, rest, _kr_q(rs, b, m)).entries
                lhs = _iso_product(rs, q, q)
                rhs = _iso_product(rs, _kr_q(rs, a, m + 1), _kr_q(rs, a, m - 1)) + IsoChar(rest)
                assert lhs == rhs, (label, a, m)
                count += 1
    assert count == 35


# -- domino removal: the ungraded KR decomposition, graded by dominoes removed ----------

def _domino_terms(rs, i, m):
    """The (mu, degree, False) terms of gch_N(m omega_i) at ell = 1 (Chari,
    IMRN 2001; Hatayama-Kuniba-Okado-Takagi-Yamada 1999), the degree being
    the number of dominoes removed from the i x m rectangle.  B_n (i < n) and
    D_n (i < n - 1) remove vertical dominoes: mu = sum of k_j omega_j over
    j = i, i-2, ... (omega_0 = 0) with sum k_j = m, of degree
    sum k_j (i - j)/2.  C_n (i < n) removes horizontal dominoes: mu runs over
    the partitions inside (m^i) whose rows all differ from m by an even
    number, of degree |(m^i)/mu|/2."""
    n = rs.rank
    if rs.lie_type.family == "C":
        terms = []
        for rows in product(range(m, -1, -2), repeat=i):
            if all(a >= b for a, b in zip(rows, rows[1:])):
                parts = zip(range(1, i + 1), rows, rows[1:] + (0,))
                mu = omega_weight(n, *((r, a - b) for r, a, b in parts))
                terms.append((mu, (m * i - sum(rows)) // 2, False))
        return terms
    nodes = range(i, -1, -2)
    return [(omega_weight(n, *((j, kj) for j, kj in zip(nodes, k) if j)),
             sum(kj * (i - j) for j, kj in zip(nodes, k)) // 2, False)
            for k in compositions(m, len(nodes))]


def test_gch_N_at_ell_1_is_domino_removal():
    count = 0
    for labels, top, below in ((("D4", "D5", "D6"), 2, 2), (("B3", "B4"), 2, 1),
                               (("C3", "C4"), 3, 1)):
        for label in labels:
            rs = build_root_system(label)
            for i in range(1, rs.rank - below + 1):
                for m in range(1, top + 1):
                    lam = omega_weight(rs.rank, (i, m))
                    assert gch_N(rs, lam, 1) == verify._cauchy_char(1, _domino_terms(rs, i, m)), \
                        (label, i, m)
                    count += 1
    assert count == 43


# -- other classical families ---------------------------------------------------------

@pytest.mark.parametrize("label,lam_terms", [
    ("B3", ((2, 2),)),        # psi_2 = {-theta}, long/short arithmetic
    ("C3", ((2, 2),)),        # psi_2 has three elements
    ("C3", ((1, 2),)),        # node 1 is already non-trivial in type C
    ("A3", ((2, 2),)),        # no coefficient-2 roots: singleton gamma
])
def test_identity_stack_on_b_c_a_types(monkeypatch, label, lam_terms):
    # The four matrix checks of verify, run on this case at ell = 1, 2.
    rs = build_root_system(label)
    lam = omega_weight(rs.rank, *lam_terms)
    monkeypatch.setattr(verify, "acceptance_matrix", lambda: iter([(rs, lam, 1), (rs, lam, 2)]))
    for check in (verify.check_ae_identity, verify.check_cross_path,
                  verify.check_alternating_sum, verify.check_mode_agreement):
        result = check()
        assert result.ok, result.detail
        assert result.detail.startswith("2 "), result.detail
    if label == "A3":
        base = LambdaPoint(lam, (0, 0))
        assert len(gamma_psi(rs, psi_i(rs, i_lambda(rs, lam)), base, 2)) == 1


# -- ell profiles -----------------------------------------------------------------------

def test_ell_profile_omega2_term():
    profile = multiplicity_ell_profile(D5, omega_weight(5, (3, 2)), omega_weight(5, (2, 1)), 3)
    assert profile == [0, 1, 3]


def test_ell_profile_trivial_term():
    profile = multiplicity_ell_profile(D5, omega_weight(5, (3, 2)), (0,) * 5, 3)
    assert profile == [0, 0, 1]


def test_ell_profile_kr_counts():
    m, k = 3, 2
    profile = multiplicity_ell_profile(
        D4, omega_weight(4, (2, m)), omega_weight(4, (2, m - k)), 3
    )
    # Number of multidegree vectors of total degree k: C(k + ell - 1, ell - 1).
    assert profile == [1, 3, 6]
