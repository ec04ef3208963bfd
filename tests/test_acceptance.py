"""Acceptance suite: every advertised guarantee, one printed line each.

All comparisons are exact (integer character identities); run with -s to see
the per-criterion report, e.g. ``pytest tests/test_acceptance.py -s``.
"""

import time

from krchar import verify


def _run(criterion, *checks):
    t0 = time.time()
    results = [check() for check in checks]
    elapsed = time.time() - t0
    ok = all(r.ok for r in results)
    detail = "; ".join(r.detail if r.ok else f"{r.name}: {r.detail}" for r in results)
    print(f"{'PASS' if ok else 'FAIL'} {criterion} [exact, {elapsed:.1f}s] {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gch_2omega3_formula():
    _run("criterion-1 D5 2*omega_3 character for ell=1,2,3", verify.check_gch_2omega3)


def test_criterion_2_closed_formula_m_omega2():
    _run("criterion-2 closed formula for m*omega_2 (D4/D5, m<=4, ell<=3)",
         verify.check_closed_formula_momega2)


def test_criterion_3_single_variable_m_omega3():
    _run("criterion-3 single-variable formula for m*omega_3 (D5, m<=3)",
         verify.check_ell1_momega3)


def test_criterion_4_trivial_cases():
    _run("criterion-4 irreducible cases at node 1 and spin nodes (m<=4)",
         verify.check_trivial_cases)


def test_criterion_5_ae_matrix_identity():
    _run("criterion-5 A(t)E(-t)=Id on the full test matrix",
         verify.check_ae_identity)


def test_criterion_6_cross_path_oracle():
    _run("criterion-6 direct vs recursive graded characters",
         verify.check_cross_path)


def test_criterion_7_alternating_sum():
    _run("criterion-7 alternating sum in the basis of simple characters",
         verify.check_alternating_sum)


def test_criterion_8_property_suites():
    _run(
        "criterion-8 property suites (tensor oracle, dimensions, root sums, distances)",
        verify.check_tensor_vs_product_rank2,
        verify.check_dimension_conservation,
        verify.check_root_sum_decompositions,
        verify.check_dpsi_additivity,
    )


def test_criterion_9_mode_agreement():
    _run("criterion-9 fixed-psi vs per-weight-psi agreement",
         verify.check_mode_agreement)


def test_formula_suite_report_deterministic_and_complete(capsys):
    from krchar.cli import main

    assert main(["verify", "--suite", "paper"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "paper"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for check in verify.FORMULA_CHECKS:
        assert check().name in first


def test_matrix_checks_report_the_failing_triple(monkeypatch):
    # The four matrix checks read acceptance_matrix when called (the
    # benchmark rebinds it) and name the first failing triple.
    from krchar.graded import GradedChar
    from krchar.rootsys import build_root_system

    d4 = build_root_system("D4")
    monkeypatch.setattr(verify, "acceptance_matrix", lambda: iter([(d4, (1, 0, 0, 0), 1)]))
    assert verify.check_ae_identity().detail == "1 gamma sets"
    monkeypatch.setattr(verify, "verify_AE_identity", lambda rs, ms, gamma: (False, "entry X"))
    monkeypatch.setattr(verify, "verify_alternating_sum",
                        lambda rs, ms, base, gamma: (False, "mismatch Y"))
    monkeypatch.setattr(verify, "gch_P_recursive", lambda *args, **kwargs: GradedChar({}))
    where = "D4, lam=(1, 0, 0, 0), ell=1"
    assert [(r.name, r.ok, r.detail) for r in (
        verify.check_ae_identity(), verify.check_cross_path(),
        verify.check_alternating_sum(), verify.check_mode_agreement(),
    )] == [
        ("ae-identity", False, f"{where}: entry X"),
        ("cross-path-direct-vs-recursive", False, where),
        ("alternating-sum", False, f"{where}: mismatch Y"),
        ("mode-agreement", False,
         f"{where}: fixed psi_1 gamma disagrees with the per-weight gamma family"),
    ]


def test_closed_form_checks_report_the_failing_case(monkeypatch):
    # With one term dropped from gch_N in one case, each of the four
    # closed-form checks fails there and names that case.
    from krchar.graded import GradedChar
    from krchar.rootsys import build_root_system, omega_weight

    true_gch_N = verify.gch_N
    cases = [
        (verify.check_gch_2omega3, "D5", (3, 2), 2, "ell=2: characters differ"),
        (verify.check_closed_formula_momega2, "D5", (2, 3), 2, "D5, m=3, ell=2"),
        (verify.check_ell1_momega3, "D5", (3, 2), 1, "m=2"),
        (verify.check_trivial_cases, "D4", (3, 2), 3, "D4, i=3, m=2, ell=3"),
    ]
    for check, label, node_m, ell, where in cases:
        rs = build_root_system(label)
        broken = (rs.lie_type, omega_weight(rs.rank, node_m), ell)

        def dropped(rs, lam, ell):
            got = true_gch_N(rs, lam, ell)
            if (rs.lie_type, lam, ell) != broken:
                return got
            return GradedChar(dict(list(got.entries.items())[1:]))

        monkeypatch.setattr(verify, "gch_N", dropped)
        result = check()
        assert (result.ok, result.detail) == (False, where), result


def test_psi_check_runs_without_the_lp(monkeypatch):
    # psi-sets certifies each face in integers; an LP call would raise here.
    from krchar import ratlp

    def refused(*args, **kwargs):
        raise AssertionError("psi-sets called the LP")

    monkeypatch.setattr(ratlp, "feasible", refused)
    assert verify.check_psi_structure() == ("psi-sets", True, "")


def test_psi_check_refuses_a_psi_i_that_is_not_the_face_of_omega_i(monkeypatch):
    # D5's psi_3 without one of its three roots is still a set of negative
    # roots, but not the set on which omega_3 is smallest.
    true_psi_i = verify.psi_i

    def dropped(rs, i):
        psi = true_psi_i(rs, i)
        return psi - {min(psi)} if (str(rs.lie_type), i) == ("D5", 3) else psi

    monkeypatch.setattr(verify, "psi_i", dropped)
    result = verify.check_psi_structure()
    assert (result.ok, result.detail) == (
        False, "D5: psi_3 is not a face meeting the support conditions")


def test_dominant_weight_oracle_agrees_with_the_peel_on_every_rank2_pair():
    # On each pair of the tensor check, its convolution must be the dominant
    # part of the full character product, and the Weyl-numerator inversion
    # of it must be the peel of that product into simples.
    from krchar.repchar import freudenthal, iso_decompose

    count = 0
    for label, rs, pairs in verify._rank2_pairs():
        packed = verify._PackedType(rs, pairs)
        shifts, conjugates = verify._weyl_shifts(rs), {}
        for lam, nu in pairs:
            product = freudenthal(rs, lam) * freudenthal(rs, nu)
            dominant = {w: m for w, m in product.entries.items() if rs.is_dominant(w)}
            got = packed.dominant_product(lam, nu)
            assert {packed.weight_of[w]: c for w, c in got.items()} == dominant, (label, lam, nu)
            simples = verify._weyl_numerator(rs, got, shifts, conjugates, packed)
            assert simples == iso_decompose(rs, product).entries, (label, lam, nu)
            count += 1
    assert count == 418


def test_weyl_group_table_of_each_rank2_type():
    # |W| = 2, 6, 8, 8; the signs of W sum to 0 and w -> rho - w rho is injective.
    from krchar.rootsys import build_root_system

    for label, order in (("A1", 2), ("A2", 6), ("B2", 8), ("C2", 8)):
        table = verify._weyl_shifts(build_root_system(label))
        assert len(table) == order, label
        assert sum(sign for _, sign in table) == 0, label
        assert len({shift for shift, _ in table}) == order, label
        assert table[0] == ((0,) * len(table[0][0]), 1), label


def test_tensor_check_catches_a_dimension_preserving_edit(monkeypatch):
    # 3 V(0,0) + V(2,0) has the dimension 9 of the true A2 omega_2 (x) omega_1 =
    # V(1,1) + V(0,0), so only a check of the decomposition itself sees it.
    from krchar.repchar import IsoChar, tensor_decompose

    def edited(rs, lam, nu):
        if (str(rs.lie_type), lam, nu) == ("A2", (0, 1), (1, 0)):
            return IsoChar({(0, 0): 3, (2, 0): 1})
        return tensor_decompose(rs, lam, nu)

    monkeypatch.setattr(verify, "tensor_decompose", edited)
    result = verify.check_tensor_vs_product_rank2()
    assert (result.ok, result.detail) == (False, "A2: (0, 1) (x) (1, 0)")


def test_packed_convolution_agrees_with_the_full_product_beyond_rank2():
    # The rank-2 check never needs a large packing base; here the weights of
    # rank 3 and 4 make every box bound, and so every base, larger.
    import random
    from itertools import product

    from krchar.repchar import freudenthal
    from krchar.rootsys import build_root_system

    rng = random.Random(20251019)
    count = 0
    for label in ("A3", "A4", "B3", "B4", "C3", "C4", "D4"):
        rs = build_root_system(label)
        weights = [w for w in product(range(3), repeat=rs.rank) if 0 < sum(w) <= 2]
        pairs = [(rng.choice(weights), rng.choice(weights)) for _ in range(12)]
        packed = verify._PackedType(rs, pairs)
        for lam, nu in pairs:
            product_char = freudenthal(rs, lam) * freudenthal(rs, nu)
            dominant = {w: m for w, m in product_char.entries.items() if rs.is_dominant(w)}
            got = packed.dominant_product(lam, nu)
            assert {packed.weight_of[w]: c for w, c in got.items()} == dominant, (label, lam, nu)
            count += 1
    assert count == 84


def test_root_sum_check_fails_when_a_root_is_missing(monkeypatch):
    # Without alpha_1 + alpha_2, B2's highest root alpha_1 + 2 alpha_2 has no
    # split into two roots at either node.
    import re
    import types

    from krchar.rootsys import build_root_system

    def stripped(label):
        rs = build_root_system(label)
        if label != "B2":
            return rs
        drop = next(r for r in rs.positive_roots if sum(r.coords) == 2)
        return types.SimpleNamespace(
            rank=rs.rank, positive_roots=[r for r in rs.positive_roots if r is not drop])

    monkeypatch.setattr(verify, "build_root_system", stripped)
    result = verify.check_root_sum_decompositions()
    assert result.ok is False
    assert re.fullmatch(r"B2: no [01]\+1 split of \(1, 2\) at node [12]", result.detail), result


def test_root_sum_check_packs_differences_without_aliasing(monkeypatch):
    # In the made-up system (0, 2), (1, 1), (2, 0) the only candidate split
    # of (0, 2) at node 2 leaves (-1, 1), which is no root.  A base-3 packing
    # would read it as (2, 0), -1 + 3 = 2, and report (1, 1) instead.
    import types

    fake = types.SimpleNamespace(rank=2, positive_roots=[
        types.SimpleNamespace(coords=c) for c in ((0, 2), (1, 1), (2, 0))])
    monkeypatch.setattr(verify, "build_root_system", lambda label: fake)
    result = verify.check_root_sum_decompositions()
    assert (result.ok, result.detail) == (False, "A1: no 1+1 split of (0, 2) at node 2")
