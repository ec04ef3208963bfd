"""CLI tests: parsing, output formats, JSON round trips and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from krchar.cli import (
    InputError,
    gamma_to_json,
    graded_latex,
    graded_to_json,
    iso_to_json,
    main,
    parse_coords,
    parse_point,
)
from krchar.graded import GradedChar, gch_N
from krchar.poset import GammaSet, LambdaPoint, gamma_psi, i_lambda, psi_i
from krchar.repchar import IsoChar, clear_memo_caches, tensor_decompose
from krchar.rootsys import build_root_system, omega_weight, parse_lie_type

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# -- parsing ------------------------------------------------------------------------

def test_parse_coords():
    assert parse_coords("0,0,2,0,0") == (0, 0, 2, 0, 0)
    assert parse_coords(" 1 , -2 ") == (1, -2)


def test_parse_coords_names_token_and_position():
    with pytest.raises(InputError) as err:
        parse_coords("0,0,x,0")
    assert "'x'" in str(err.value)
    assert "position 3" in str(err.value)
    # Only an optional '-' then ASCII digits: int() alone would take these.
    for token in ("1_0", "+1", "\u0665"):
        with pytest.raises(InputError) as err:
            parse_coords(f"0,{token}")
        assert str(err.value) == (
            f"invalid weight coordinate {token!r} at position 2 in {'0,' + token!r}"
        )


def test_parse_point():
    assert parse_point("0,0,2,0,0@0,1") == ((0, 0, 2, 0, 0), (0, 1))
    with pytest.raises(InputError):
        parse_point("0,0,2,0,0")
    with pytest.raises(InputError, match="invalid degree coordinate '1_0' at position 2"):
        parse_point("0,0,2,0,0@0,1_0")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # These modules cost a cold process start-up time and memory.  Nothing in
    # the package needs dataclasses or inspect; fractions (and the decimal it
    # imports) only the exact LP, which krchar.cli loads through verify.
    import krchar

    src = str(Path(krchar.__file__).resolve().parent.parent)
    probe = ("import sys, krchar; "
             "print(sorted({'fractions', 'decimal'} & set(sys.modules))); "
             "import krchar.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "[]"]


def test_star_import_binds_every_export_and_all_lists_every_import():
    # A stale name in __all__ breaks a user's star import, and a public name
    # that __init__ imports but __all__ leaves out is exported only by halves.
    import ast

    import krchar

    namespace = {}
    exec("from krchar import *", namespace)
    assert set(krchar.__all__) <= namespace.keys()
    tree = ast.parse(Path(krchar.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(krchar.__all__) == sorted(n for n in imported if not n.startswith("_"))


# -- exit codes ---------------------------------------------------------------------

def test_input_error_exit_code(capsys):
    assert main(["gch", "--algebra", "D5", "--weight", "0,0,x,0,0"]) == 2
    assert "position 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tensor", "--algebra", "A2", "--weight", "1_0,0", "--weight", "0,1"],
    ["tensor", "--algebra", "A+2", "--weight", "1,0", "--weight", "0,1"],
    ["tensor", "--algebra", "D 5", "--weight", "1,0,0,0,0", "--weight", "1,0,0,0,0"],
    ["gch", "--algebra", "D\u0665", "--weight", "0,0,2,0,0"],
    ["gch", "--algebra", "D5", "--weight", "0,0,2,0,0", "--ell", "1_0"],
    ["gamma", "--algebra", "D4", "--weight", "0,1,0,0", "--node", "+2"],
    ["ext", "--algebra", "D4", "--from", "0,1,0,0@0", "--to", "0,0,0,0@1", "--j", "\u0661"],
])
def test_non_decimal_integers_exit_2(argv, capsys):
    # int() reads '1_0' as 10, '+2' as 2 and Arabic-Indic digits as digits;
    # the CLI takes an optional '-' then ASCII digits only.
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the integer options
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "invalid" in err


def test_rank_mismatch_exit_code(capsys):
    assert main(["gch", "--algebra", "D5", "--weight", "1,0"]) == 2
    assert "rank" in capsys.readouterr().err


def test_unsupported_family_exit_code(capsys):
    assert main(["gch", "--algebra", "E6", "--weight", "1,0,0,0,0,0"]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    import krchar.cli as cli_mod

    def broken_invariant(rs, lam, nu):
        raise AssertionError("negative multiplicity from Racah-Speiser")

    monkeypatch.setattr(cli_mod, "tensor_decompose", broken_invariant)
    assert main(["tensor", "--algebra", "A1", "--weight", "1", "--weight", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: negative multiplicity from Racah-Speiser\n"


def test_an_ell_past_the_index_range_exits_2(capsys):
    # ell is a valid integer, but no tuple of ell layers can be built.
    assert main(["gch", "--algebra", "D4", "--weight", "0,1,0,0",
                 "--ell", "9999999999999999999999"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: input too large to compute: ") and err.count("\n") == 1


def test_a_large_ell_needs_no_recursion(capsys):
    # The multidegrees of Gamma are listed without one recursion per layer.
    assert main(["gch", "--algebra", "A1", "--weight", "2", "--ell", "1200"]) == 0
    out, err = capsys.readouterr()
    assert out == f"V(2) t^({','.join(['0'] * 1200)})  x1\n" and err == ""


def test_a_hom_degree_too_deep_to_fold_exits_2(capsys):
    # The Hom fold recurses once per unit of degree; past the interpreter's
    # limit that is an input too large to compute, not a failed check.
    assert main(["ext", "--algebra", "A1", "--from", "2@0", "--to", "2@1200",
                 "--j", "1200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: input too large to compute: ") and err.count("\n") == 1


def test_running_out_of_memory_exits_2(monkeypatch, capsys):
    # Stands in for an oversized --ell or rank: building one for real would
    # fill memory first.
    import krchar.cli as cli_mod

    def out_of_memory(rs, lam, nu):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "tensor_decompose", out_of_memory)
    assert main(["tensor", "--algebra", "A1", "--weight", "1", "--weight", "1"]) == 2
    assert capsys.readouterr() == ("", "error: input too large to compute: MemoryError\n")


@pytest.fixture
def fresh_memo():
    # Faults injected into the Hom fold only show on entries not memoised yet.
    clear_memo_caches()
    yield
    clear_memo_caches()


def test_power_fold_genuineness_check_exits_3(monkeypatch, capsys, fresh_memo):
    import krchar.repchar as repchar

    kernel = repchar._racah_speiser

    def wrong_sign(rs, dominant, start, out):
        # eps_1 = -1: F_1 comes out as minus V (x) V(lam), exactly divisible.
        kernel(rs, {mu: -m for mu, m in dominant.items()}, start, out)

    monkeypatch.setattr(repchar, "_racah_speiser", wrong_sign)
    assert main(["gch", "--algebra", "D4", "--weight", "0,2,0,0", "--ell", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: negative multiplicity in the ") and "power fold" in err


def test_power_fold_division_check_exits_3(monkeypatch, capsys, fresh_memo):
    import krchar.repchar as repchar

    fold = repchar._fold

    def extra_copy(rs, kind, factors, lam):
        # One stray V(lam) in the d = 1 fold makes 2 F_2 odd wherever
        # V (x) V(lam) is.  Fold entries are keyed by mu + rho.
        out = fold(rs, kind, factors, lam)
        top = tuple(c + 1 for c in lam)
        return {**out, top: out.get(top, 0) + 1} if [d for _, d in factors] == [1] else out

    monkeypatch.setattr(repchar, "_fold", extra_copy)
    assert main(["gch", "--algebra", "D4", "--weight", "0,2,0,0", "--ell", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: Newton sum for ") and "is not divisible by 2" in err


def test_a_full_character_given_to_the_kernel_exits_3(monkeypatch, capsys, fresh_memo):
    import krchar.repchar as repchar
    from krchar.rootsys import weyl_orbit

    dominant = repchar.dominant_multiplicities

    def whole_weight_system(rs, lam):
        # tensor_decompose hands the kernel every weight of the smaller
        # factor, and the kernel refuses the first one that is not dominant.
        return {w: m for mu, m in dominant(rs, lam).items()
                for w in weyl_orbit(rs, mu)}

    monkeypatch.setattr(repchar, "dominant_multiplicities", whole_weight_system)
    assert main(["tensor", "--algebra", "A2", "--weight", "1,0", "--weight", "0,1"]) == 3
    assert capsys.readouterr().err == (
        "internal error: Racah-Speiser kernel given the non-dominant weight (1, -1)\n")


def test_non_dominant_weight_rejected(capsys):
    assert main(["gch", "--algebra", "A2", "--weight", "1,-1"]) == 2
    assert "dominant" in capsys.readouterr().err


def test_nonpositive_ell_rejected(capsys):
    assert main(["gch", "--algebra", "A2", "--weight", "1,1", "--ell", "0"]) == 2
    assert "ell" in capsys.readouterr().err


# -- gch ----------------------------------------------------------------------------

def _benchmark_gch_goldens():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from worker import GCH_CASES
    finally:
        sys.path.remove(str(PERFBENCH))
    return GCH_CASES


@pytest.mark.parametrize("case,golden", sorted(_benchmark_gch_goldens().items()))
def test_gch_json_matches_the_benchmark_goldens(case, golden, capsys):
    # The sha256 of the canonical JSON, recorded by the benchmark from the
    # seed commit: pins gch output byte for byte.
    algebra, weight, ell = case
    code = main(["gch", "--algebra", algebra, "--weight", weight,
                 "--ell", str(ell), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == golden


def test_gch_json_paper_example(capsys):
    code = main([
        "gch", "--algebra", "D5", "--weight", "0,0,2,0,0", "--ell", "2",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"] == "D5" and doc["ell"] == 2
    entries = {
        (tuple(e["weight"]), tuple(e["degree"])): e["mult"] for e in doc["entries"]
    }
    assert entries[((0, 0, 2, 0, 0), (0, 0))] == 1
    assert entries[((0, 1, 0, 0, 0), (1, 1))] == 1
    assert entries[((2, 0, 0, 0, 0), (2, 0))] == 1
    assert ((0, 0, 0, 0, 0), (1, 1)) not in entries  # trivial term needs ell >= 3
    # Entries are sorted by (total degree, weight, degree).
    degs = [sum(e["degree"]) for e in doc["entries"]]
    assert degs == sorted(degs)


def test_gch_plain_kr_formula(capsys):
    code = main(["gch", "--algebra", "D4", "--weight", "0,3,0,0", "--ell", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "V(0,3,0,0) t^(0)  x1"
    assert len(out) == 4  # one layer per degree 0..3


def test_gch_latex(capsys):
    code = main([
        "gch", "--algebra", "D5", "--weight", "0,0,1,0,0", "--ell", "1",
        "--format", "latex",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "\\ch V(\\omega_{3}) + \\ch V(\\omega_{1})\\, t_{1}"


@pytest.mark.parametrize("argv", [
    ["gamma", "--algebra", "D5", "--weight", "0,0,2,0,0"],
    ["ext", "--algebra", "D4", "--from", "0,1,0,0@0", "--to", "0,0,0,0@1", "--j", "1"],
    ["psi", "--algebra", "D5", "--node", "3"],
])
def test_latex_only_where_it_is_printed(argv, capsys):
    # gamma, ext and psi print plain or JSON only; latex is refused, not ignored.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


def test_gch_has_no_mode_option(capsys):
    # gch has one route; the per-weight-psi recursion is verify's oracle.
    with pytest.raises(SystemExit) as exc:
        main(["gch", "--algebra", "D4", "--weight", "0,2,0,0", "--mode", "fixed-psi"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


# -- ext ----------------------------------------------------------------------------

def test_ext_paper_zero(capsys):
    code = main([
        "ext", "--algebra", "D5", "--from", "0,0,2,0,0@0,0",
        "--to", "2,0,0,0,0@2,0", "--j", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_ext_paper_one(capsys):
    code = main([
        "ext", "--algebra", "D5", "--from", "0,0,2,0,0@0,0",
        "--to", "1,0,1,0,0@1,0", "--j", "1", "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


@pytest.mark.parametrize("argv,what", [
    (["gch", "--weight", "{w}", "--ell", "2"], "weight"),
    (["ext", "--from", "0,1,0,0@0", "--to", "{w}@1", "--j", "1"], "target weight"),
    (["gamma", "--weight", "{w}", "--ell", "2"], "weight"),
    (["tensor", "--weight", "1,0,0,0", "--weight", "{w}"], "weight"),
    (["psi", "--weight", "{w}"], "weight"),
], ids=["gch", "ext", "gamma", "tensor", "psi"])
@pytest.mark.parametrize("w,refusal", [
    ("0,1,0", "[0, 1, 0] has 3 coordinates but D4 has rank 4"),
    ("0,-1,0,0", "[0, -1, 0, 0] is not dominant"),
], ids=["wrong-length", "not-dominant"])
def test_each_command_refuses_a_weight_with_the_same_line(argv, what, w, refusal, capsys):
    argv = [argv[0], "--algebra", "D4"] + [a.format(w=w) for a in argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} {refusal}\n"


@pytest.mark.parametrize("argv,refusal", [
    (["gamma", "--weight", "0,1,0,0", "--ell", "2", "--degree", "1"],
     "degree [1] does not have length ell=2"),
    (["gamma", "--weight", "0,1,0,0", "--ell", "0"], "ell must be positive, got 0"),
    (["gch", "--weight", "0,1,0,0", "--ell", "0"], "ell must be positive, got 0"),
    (["gch", "--weight", "0,1,0", "--ell", "0"], "ell must be positive, got 0"),
    (["ext", "--from", "0,1,0,0@0", "--to", "0,0,0,0@1,0", "--j", "1"],
     "degree vectors [0] and [1, 0] have different lengths"),
    (["gamma", "--weight", "0,1,0", "--ell", "2", "--degree", "1"],
     "weight [0, 1, 0] has 3 coordinates but D4 has rank 4"),
], ids=["gamma-degree-length", "gamma-ell-0", "gch-ell-0", "gch-ell-before-weight",
        "ext-degree-lengths", "gamma-weight-before-degree"])
def test_each_degree_and_ell_refusal_prints_one_line(argv, refusal, capsys):
    assert main([argv[0], "--algebra", "D4"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"


def test_ext_rejects_a_non_dominant_weight(capsys):
    # The degree gap (1 -> 0) does not match --j, so without a weight check
    # the answer would be 0.
    code = main([
        "ext", "--algebra", "D4", "--from=0,-1,0,0@1", "--to", "0,0,0,0@0", "--j", "0",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "source weight [0, -1, 0, 0] is not dominant" in captured.err


# -- gamma --------------------------------------------------------------------------

def test_gamma_json(capsys):
    code = main([
        "gamma", "--algebra", "D5", "--weight", "0,0,2,0,0", "--ell", "2",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["base"] == {"weight": [0, 0, 2, 0, 0], "degree": [0, 0]}
    assert len(doc["psi"]) == 3
    assert len(doc["points"]) == 1 + 2 + (3 + 3) + 4
    assert doc["points"][0]["d"] == 0


def test_gamma_plain_with_degree(capsys):
    code = main([
        "gamma", "--algebra", "D4", "--weight", "0,2,0,0", "--degree", "1,0",
        "--ell", "2",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "(0,2,0,0) @ (1,0)  d=0"


# -- tensor -------------------------------------------------------------------------

def test_tensor_plain(capsys):
    code = main(["tensor", "--algebra", "A1", "--weight", "1", "--weight", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines() == ["V(0)  x1", "V(2)  x1"]


def test_tensor_requires_two_weights(capsys):
    assert main(["tensor", "--algebra", "A1", "--weight", "1"]) == 2


# -- psi ----------------------------------------------------------------------------

def test_psi_node_report(capsys):
    code = main(["psi", "--algebra", "D5", "--node", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "polytope condition: satisfied" in out
    assert "support conditions: satisfied" in out
    assert out.count("(") >= 3


def test_psi_empty_set(capsys):
    code = main(["psi", "--algebra", "D5", "--node", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == []
    assert doc["polytope_condition"] and doc["support_conditions"]


def test_psi_of_weight(capsys):
    code = main(["psi", "--algebra", "D4", "--weight", "0,1,0,0", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 1


def test_psi_needs_node_or_weight(capsys):
    assert main(["psi", "--algebra", "D4"]) == 2
    assert main(["psi", "--algebra", "D4", "--node", "2", "--weight", "0,1,0,0"]) == 2


def test_psi_names_a_bad_weight_token_before_the_node_or_weight_check(capsys):
    assert main(["psi", "--algebra", "D5", "--node", "2", "--weight", "0,x,0,0,0"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid weight coordinate 'x' at position 2 in '0,x,0,0,0'\n"
    )


@pytest.mark.parametrize("argv", [
    ["psi", "--algebra", "D4", "--node", "9"],
    ["gamma", "--algebra", "D4", "--weight", "0,1,0,0", "--node", "0"],
])
def test_node_out_of_range_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "out of range 1..4" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    import krchar.verify as verify_mod
    from krchar.verify import CheckResult

    monkeypatch.setitem(
        verify_mod.SUITES, "paper",
        [lambda: CheckResult("forced-failure", False, "boom")],
    )
    assert main(["verify", "--suite", "paper"]) == 1
    out = capsys.readouterr().out
    assert "FAIL forced-failure  (boom)" in out
    assert "0/1 checks passed" in out


def test_verify_raising_check_fails_and_suite_goes_on(monkeypatch, capsys):
    import krchar.verify as verify_mod
    from krchar.verify import CheckResult

    def check_raises():
        raise ValueError("bad input inside a check")

    monkeypatch.setitem(
        verify_mod.SUITES, "paper",
        [check_raises, lambda: CheckResult("after", True)],
    )
    assert main(["verify", "--suite", "paper"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_raises  (ValueError: bad input inside a check)" in out
    assert "PASS after" in out
    assert "1/2 checks passed" in out


def test_verify_times_each_check_on_stderr_and_keeps_its_report(capsys):
    # stdout is the report CI pins by sha256; stderr has one "name seconds"
    # line per check, in the order the report lists them.
    assert main(["verify", "--suite", "all"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "14458f3eed0d26dc076acc7cf782c6eca0e8b213c741c8884ef74a264161303a")
    names = [line.split()[1] for line in captured.out.splitlines()[:-1]]
    timed = [re.fullmatch(r"(\S+) (\d+\.\d{3})", line) for line in captured.err.splitlines()]
    assert all(timed) and [m[1] for m in timed] == names
    assert len(names) == 16


# -- JSON round trips over the shared matrix -----------------------------------------
# No command reads a document back; each test rebuilds the object from the
# document to check that the writer loses nothing.

def _json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def test_graded_json_round_trip_full_matrix():
    from krchar.verify import acceptance_matrix

    for rs, lam, ell in acceptance_matrix():
        g = gch_N(rs, lam, ell)
        doc = _json(graded_to_json(rs.lie_type, ell, g))
        back = GradedChar({
            (tuple(e["weight"]), tuple(e["degree"])): e["mult"] for e in doc["entries"]
        })
        assert (parse_lie_type(doc["algebra"]), doc["ell"], back) == (rs.lie_type, ell, g)


def test_gamma_json_round_trip_full_matrix():
    from krchar.verify import acceptance_matrix

    for rs, lam, ell in acceptance_matrix():
        psi = psi_i(rs, i_lambda(rs, lam))
        gamma = gamma_psi(rs, psi, LambdaPoint(lam, (0,) * ell), ell)
        doc = _json(gamma_to_json(rs.lie_type, gamma))
        points = [LambdaPoint(tuple(p["weight"]), tuple(p["degree"])) for p in doc["points"]]
        back = GammaSet(
            LambdaPoint(tuple(doc["base"]["weight"]), tuple(doc["base"]["degree"])),
            frozenset(tuple(w) for w in doc["psi"]),
            tuple(points),
            {p.weight: e["d"] for p, e in zip(points, doc["points"])},
        )
        assert (parse_lie_type(doc["algebra"]), doc["ell"]) == (rs.lie_type, ell)
        assert (back.base, back.psi, back.points, back.d_of) == \
            (gamma.base, gamma.psi, gamma.points, gamma.d_of)


def test_iso_json_round_trip():
    rs = build_root_system("D4")
    iso = tensor_decompose(rs, omega_weight(4, (2, 1)), omega_weight(4, (2, 1)))
    doc = _json(iso_to_json(rs.lie_type, iso))
    back = IsoChar({tuple(e["weight"]): e["mult"] for e in doc["entries"]})
    assert (parse_lie_type(doc["algebra"]), back) == (rs.lie_type, iso)


def test_latex_multiplicity_prefix():
    text = graded_latex(GradedChar({((1, 0, 1, 0, 0), (1,)): 2}))
    assert "2\\,\\ch V(\\omega_{1}+\\omega_{3})\\, t_{1}" in text


def test_tensor_json(capsys):
    code = main(["tensor", "--algebra", "A1", "--weight", "1", "--weight", "1",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [
        {"weight": [0], "mult": 1},
        {"weight": [2], "mult": 1},
    ]


@pytest.mark.parametrize("argv", [
    ["gch", "--algebra", "D4", "--weight", "0,2,0,0"],
    ["ext", "--algebra", "D4", "--from", "0,1,0,0@0", "--to", "0,0,0,0@1", "--j", "1"],
    ["gamma", "--algebra", "D4", "--weight", "0,2,0,0"],
    ["psi", "--algebra", "D4", "--node", "2"],
    ["verify", "--suite", "paper"],
    ["tensor", "--algebra", "A1", "--weight", "2", "--weight", "2"],
], ids=["gch", "ext", "gamma", "psi", "verify", "tensor"])
def test_command_leaves_no_store_behind(argv, tmp_path, monkeypatch, capsys):
    # Only tensor --cache names a store; the environment names none, so with
    # KRCHAR_CACHE set no command loads or writes the file it names, not
    # even a tensor call that computes its decomposition cold.
    from krchar.repchar import TensorCache, set_active_tensor_cache

    path = tmp_path / "absent.cache"
    monkeypatch.setenv("KRCHAR_CACHE", str(path))
    previous = set_active_tensor_cache(TensorCache())
    try:
        assert main(argv) == 0
    finally:
        set_active_tensor_cache(previous)
    capsys.readouterr()
    assert not path.exists()


# -- the persistent tensor store ------------------------------------------------------

_TENSOR = ["tensor", "--algebra", "D4", "--weight", "0,1,0,0", "--weight", "1,0,1,1"]


def _cold_run(capsys, argv):
    """Run ``krchar <argv>`` from a cold in-memory cache; (code, out, err)."""
    from krchar.repchar import TensorCache, set_active_tensor_cache

    previous = set_active_tensor_cache(TensorCache())
    try:
        code = main(argv)
    finally:
        set_active_tensor_cache(previous)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tensor_run(capsys, *extra):
    return _cold_run(capsys, _TENSOR + list(extra))


# A2 omega_2 (x) omega_1 is V(1,1) + V(0,0); this line keeps the dimension 9
# but lacks the top constituent V(1,1), so the store's line check drops it.
_EDITED_A2_STORE = ('{"format": "krchar-tensor-store", "version": 1}\n'
                    '["A",2,[0,1],[1,0],[[[0,0],3],[[2,0],1]]]\n')


def test_verify_neither_reads_nor_rewrites_the_store(tmp_path, monkeypatch, capsys):
    import krchar.verify as verify_mod

    path = tmp_path / "edited.cache"
    path.write_text(_EDITED_A2_STORE)
    data = path.read_bytes()
    monkeypatch.setenv("KRCHAR_CACHE", str(path))
    monkeypatch.setitem(verify_mod.SUITES, "identities",
                        [verify_mod.check_tensor_vs_product_rank2])
    code, out, err = _cold_run(capsys, ["verify", "--suite", "identities"])
    assert code == 0
    assert re.fullmatch(r"tensor-vs-character-product-rank2 \d+\.\d{3}\n", err)  # no store warning
    assert out.endswith("1/1 checks passed\n")
    assert path.read_bytes() == data


def test_verify_has_no_cache_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cache", "mults.cache"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


def test_store_cut_mid_line_is_recomputed(tmp_path, capsys):
    path = tmp_path / "mults.cache"
    assert _tensor_run(capsys, "--cache", str(path))[0] == 0
    data = path.read_bytes()
    first = data.index(b"\n") + 1
    path.write_bytes(data[:first + (len(data) - first) // 2])

    code, out, err = _tensor_run(capsys, "--cache", str(path))
    assert (code, out) == _tensor_run(capsys)[:2]
    assert "warning: skipping corrupt cache line 2" in err
    assert _tensor_run(capsys, "--cache", str(path))[2] == ""  # rewritten whole


def test_store_with_edited_multiplicity_is_recomputed(tmp_path, capsys):
    path = tmp_path / "mults.cache"
    assert _tensor_run(capsys, "--cache", str(path))[0] == 0
    header, line = path.read_text().splitlines()
    family, rank, lam, nu, pairs = json.loads(line)
    pairs[0][1] += 1
    path.write_text(header + "\n" + json.dumps([family, rank, lam, nu, pairs]) + "\n")

    code, out, err = _tensor_run(capsys, "--cache", str(path))
    assert (code, out) == _tensor_run(capsys)[:2]
    assert "dim V(lam) * dim V(nu)" in err


def test_store_line_without_the_top_constituent_is_recomputed(tmp_path, capsys):
    path = tmp_path / "edited.cache"
    path.write_text(_EDITED_A2_STORE)
    argv = ["tensor", "--algebra", "A2", "--weight", "0,1", "--weight", "1,0"]

    code, out, err = _cold_run(capsys, argv + ["--cache", str(path)])
    assert (code, out) == (0, "V(0,0)  x1\nV(1,1)  x1\n")
    assert "skipping corrupt cache line 2" in err
    assert "V(lam + nu) does not occur exactly once" in err
    assert path.read_text().splitlines()[1] == '["A",2,[0,1],[1,0],[[[0,0],1],[[1,1],1]]]'


def test_store_line_with_dimension_and_top_constituent_is_served(tmp_path, capsys):
    # The line checks do not prove a decomposition: A2 omega_1 (x) omega_1 is
    # V(2,0) + V(0,1), and this line keeps both the dimension 9 and V(2,0) x1.
    path = tmp_path / "edited.cache"
    path.write_text('{"format": "krchar-tensor-store", "version": 1}\n'
                    '["A",2,[1,0],[1,0],[[[0,0],3],[[2,0],1]]]\n')
    argv = ["tensor", "--algebra", "A2", "--weight", "1,0", "--weight", "1,0"]
    assert _cold_run(capsys, argv + ["--cache", str(path)]) == (0, "V(0,0)  x3\nV(2,0)  x1\n", "")


def test_old_format_store_is_ignored_then_rewritten(tmp_path, capsys):
    path = tmp_path / "mults.cache"
    path.write_text("D,4|0,1,0,0|1,0,1,1|1,0,1,1 1\n")

    code, out, err = _tensor_run(capsys, "--cache", str(path))
    assert (code, out) == _tensor_run(capsys)[:2]
    assert "ignoring multiplicity cache" in err
    lines = path.read_text().splitlines()
    assert lines[0] == '{"format": "krchar-tensor-store", "version": 1}'
    assert json.loads(lines[1])[:4] == ["D", 4, [0, 1, 0, 0], [1, 0, 1, 1]]


def test_dropped_line_is_written_out_on_the_next_run(tmp_path, capsys):
    # A corrupt line that no command asks for must not stay in the store.
    from krchar.cache import _decomposition

    path = tmp_path / "mults.cache"
    pairs = [["--weight", "1,0", "--weight", "0,1"], ["--weight", "1,1", "--weight", "1,1"]]
    argvs = [["tensor", "--algebra", "A2", *pair, "--cache", str(path)] for pair in pairs]
    for argv in argvs:
        assert _cold_run(capsys, argv)[0] == 0
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, second[:len(second) // 2]]) + "\n")

    code, out, err = _cold_run(capsys, argvs[0])
    assert code == 0
    assert "warning: skipping corrupt cache line 3" in err
    assert _cold_run(capsys, argvs[0]) == (0, out, "")
    lines = path.read_text().splitlines()
    assert lines == [header, first]
    for line in lines[1:]:
        _decomposition(line.encode())  # raises if a line check fails


@pytest.mark.parametrize("weights", [["1,-1", "1,0"], ["1,0"]],
                         ids=["non-dominant", "one-weight"])
def test_malformed_tensor_call_leaves_a_corrupt_store_alone(weights, tmp_path, capsys):
    # The input is checked before the store is read: no warning about the
    # corrupt line, and the file is not rewritten.
    path = tmp_path / "mults.cache"
    path.write_text('{"format": "krchar-tensor-store", "version": 1}\n["A",2,[1,0]\n')
    data = path.read_bytes()
    argv = ["tensor", "--algebra", "A2", "--cache", str(path)]
    for w in weights:
        argv += ["--weight", w]

    code, out, err = _cold_run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_bytes() == data


def test_warm_hit_does_not_rewrite_the_store(tmp_path, capsys):
    path = tmp_path / "mults.cache"
    cold = _tensor_run(capsys, "--cache", str(path))
    before = path.stat()
    data = path.read_bytes()

    assert _tensor_run(capsys, "--cache", str(path)) == cold
    after = path.stat()
    assert path.read_bytes() == data
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
