"""Command-line front end: character computations, set enumeration and the
verification suites, with plain, JSON and LaTeX output."""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import cache as cache_io
from .graded import GradedChar, ext_dim, gch_N
from .poset import (
    GammaSet,
    LambdaPoint,
    check_polytope_condition,
    check_psi_extra,
    gamma_psi,
    i_lambda,
    psi_i,
    psi_of_mu,
)
from .repchar import IsoChar, ModuleSpec, active_tensor_cache, tensor_decompose
from .rootsys import (LieType, build_root_system, parse_lie_type, require_degree,
                      require_dominant, require_ell)
from .verify import run_suite


class InputError(ValueError):
    """Raised for malformed job input; mapped to exit code 2."""


# -- input parsing ---------------------------------------------------------------

# An optional '-' then ASCII digits: int() alone also takes '1_0', '+1'
# and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


def parse_coords(text: str, kind: str = "weight") -> tuple[int, ...]:
    """Parse a comma-separated integer vector, naming bad tokens by position."""
    out = []
    for pos, token in enumerate(text.split(","), 1):
        stripped = token.strip()
        if not _INTEGER.fullmatch(stripped):
            raise InputError(
                f"invalid {kind} coordinate {token!r} at position {pos} in {text!r}"
            )
        out.append(int(stripped))
    return tuple(out)


def _integer(text: str) -> int:
    """argparse type of the integer options, as strict as a coordinate."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def parse_point(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse the 'coords@degree' syntax into a (weight, multidegree) pair."""
    left, sep, right = text.partition("@")
    if not sep:
        raise InputError(f"expected 'coords@degree' but found no '@' in {text!r}")
    return parse_coords(left, "weight"), parse_coords(right, "degree")


# -- serialisation ------------------------------------------------------------------

def graded_to_json(algebra: LieType, ell: int, g: GradedChar) -> dict:
    return {
        "algebra": str(algebra),
        "ell": ell,
        "entries": [
            {"weight": list(w), "degree": list(r), "mult": m}
            for (w, r), m in g.canonical_items()
        ],
    }


def iso_to_json(algebra: LieType, iso: IsoChar) -> dict:
    return {
        "algebra": str(algebra),
        "entries": [
            {"weight": list(w), "mult": m} for w, m in sorted(iso.entries.items())
        ],
    }


def gamma_to_json(algebra: LieType, gamma: GammaSet) -> dict:
    return {
        "algebra": str(algebra),
        "ell": gamma.ell,
        "base": {"weight": list(gamma.base.weight), "degree": list(gamma.base.degree)},
        "psi": [list(w) for w in sorted(gamma.psi)],
        "points": [
            {
                "weight": list(p.weight),
                "degree": list(p.degree),
                "d": gamma.d_of[p.weight],
            }
            for p in gamma.points
        ],
    }


def weight_latex(w) -> str:
    terms = []
    for i, c in enumerate(w, 1):
        if not c:
            continue
        coeff = "" if c == 1 else str(c)
        terms.append(f"{coeff}\\omega_{{{i}}}")
    return "+".join(terms) if terms else "0"


def degree_latex(r) -> str:
    factors = []
    for j, c in enumerate(r, 1):
        if not c:
            continue
        factors.append(f"t_{{{j}}}" if c == 1 else f"t_{{{j}}}^{{{c}}}")
    return " ".join(factors)


def graded_latex(g: GradedChar) -> str:
    terms = []
    for (w, r), m in g.canonical_items():
        coeff = "" if m == 1 else f"{m}\\,"
        monomial = degree_latex(r)
        tail = f"\\, {monomial}" if monomial else ""
        terms.append(f"{coeff}\\ch V({weight_latex(w)}){tail}")
    return " + ".join(terms) if terms else "0"


def iso_latex(iso: IsoChar) -> str:
    terms = []
    for w, m in sorted(iso.entries.items()):
        coeff = "" if m == 1 else f"{m}\\,"
        terms.append(f"{coeff}\\ch V({weight_latex(w)})")
    return " + ".join(terms) if terms else "0"


def graded_plain(g: GradedChar) -> str:
    lines = [
        f"V({','.join(map(str, w))}) t^({','.join(map(str, r))})  x{m}"
        for (w, r), m in g.canonical_items()
    ]
    return "\n".join(lines) if lines else "(zero character)"


def iso_plain(iso: IsoChar) -> str:
    lines = [
        f"V({','.join(map(str, w))})  x{m}" for w, m in sorted(iso.entries.items())
    ]
    return "\n".join(lines) if lines else "(zero character)"


def gamma_plain(gamma: GammaSet) -> str:
    lines = []
    for p in gamma.points:
        lines.append(
            f"({','.join(map(str, p.weight))}) @ ({','.join(map(str, p.degree))})"
            f"  d={gamma.d_of[p.weight]}"
        )
    return "\n".join(lines)


# -- command handlers ----------------------------------------------------------------
# Each handler parses and checks its own arguments, then returns (exit code,
# output text).

def _run_gch(args: argparse.Namespace) -> tuple[int, str]:
    algebra = parse_lie_type(args.algebra)
    lam = parse_coords(args.weight)
    ell = require_ell(args.ell)
    rs = build_root_system(algebra)
    g = gch_N(rs, lam, ell)
    if args.format == "json":
        return 0, json.dumps(graded_to_json(rs.lie_type, ell, g), indent=2)
    if args.format == "latex":
        return 0, graded_latex(g)
    return 0, graded_plain(g)


def _run_ext(args: argparse.Namespace) -> tuple[int, str]:
    algebra = parse_lie_type(args.algebra)
    (a_w, a_d), (b_w, b_d) = parse_point(args.source), parse_point(args.target)
    if args.j < 0:
        raise InputError(f"cohomological degree must be nonnegative, got {args.j}")
    rs = build_root_system(algebra)
    require_dominant(rs, a_w, "source weight")
    require_dominant(rs, b_w, "target weight")
    if len(a_d) != len(b_d):
        raise InputError(
            f"degree vectors {list(a_d)} and {list(b_d)} have different lengths"
        )
    ms = ModuleSpec.adjoint(rs, len(a_d))
    value = ext_dim(rs, ms, LambdaPoint(a_w, a_d), LambdaPoint(b_w, b_d), args.j)
    if args.format == "json":
        return 0, json.dumps({"algebra": str(rs.lie_type), "j": args.j, "value": value})
    return 0, str(value)


def _run_gamma(args: argparse.Namespace) -> tuple[int, str]:
    algebra = parse_lie_type(args.algebra)
    lam = parse_coords(args.weight)
    ell = require_ell(args.ell)
    degree = parse_coords(args.degree, "degree") if args.degree is not None else (0,) * ell
    rs = build_root_system(algebra)
    require_dominant(rs, lam)
    require_degree(degree, ell)
    node = args.node if args.node is not None else i_lambda(rs, lam)
    psi = psi_i(rs, node)  # raises on a node out of range
    gamma = gamma_psi(rs, psi, LambdaPoint(lam, degree), ell)
    if args.format == "json":
        return 0, json.dumps(gamma_to_json(rs.lie_type, gamma), indent=2)
    return 0, gamma_plain(gamma)


def _run_tensor(args: argparse.Namespace) -> tuple[int, str]:
    algebra = parse_lie_type(args.algebra)
    weights = [parse_coords(w) for w in args.weight]
    rs = build_root_system(algebra)
    if len(weights) != 2:
        raise InputError("tensor needs exactly two --weight arguments")
    lam, nu = weights
    require_dominant(rs, lam)
    require_dominant(rs, nu)
    # The store is read only after the input checks, and rewritten only when
    # this call succeeded and computed a decomposition or dropped a corrupt
    # line.
    path = args.cache_path
    cache = active_tensor_cache()
    before = (cache.computed, cache.dropped)
    if path:
        cache_io.cache_load(path, cache)
    iso = tensor_decompose(rs, lam, nu)
    if path and (cache.computed, cache.dropped) != before:
        cache_io.cache_store(path, cache)
    if args.format == "json":
        return 0, json.dumps(iso_to_json(rs.lie_type, iso), indent=2)
    if args.format == "latex":
        return 0, iso_latex(iso)
    return 0, iso_plain(iso)


def _run_psi(args: argparse.Namespace) -> tuple[int, str]:
    algebra = parse_lie_type(args.algebra)
    # --weight is parsed first, so a bad token is named before the
    # exactly-one check.
    mu = parse_coords(args.weight) if args.weight is not None else None
    rs = build_root_system(algebra)
    if (args.node is None) == (mu is None):
        raise InputError("psi needs exactly one of --node or --weight")
    if args.node is not None:
        psi = psi_i(rs, args.node)  # raises on a node out of range
        header = f"psi_{args.node} for {rs.lie_type}"
    else:
        psi = psi_of_mu(rs, mu)
        header = f"psi({list(mu)}) for {rs.lie_type}"
    polytope = check_polytope_condition(rs, psi)
    extra = check_psi_extra(rs, psi)
    if args.format == "json":
        return 0, json.dumps({
            "algebra": str(rs.lie_type),
            "elements": [list(w) for w in sorted(psi)],
            "polytope_condition": polytope,
            "support_conditions": extra,
        }, indent=2)
    lines = [header]
    if psi:
        lines.extend(f"  ({','.join(map(str, w))})" for w in sorted(psi))
    else:
        lines.append("  (empty)")
    lines.append(f"polytope condition: {'satisfied' if polytope else 'violated'}")
    lines.append(f"support conditions: {'satisfied' if extra else 'violated'}")
    return 0, "\n".join(lines)


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    results = run_suite(args.suite)
    lines = []
    failed = 0
    for res, elapsed in results:
        tag = "PASS" if res.ok else "FAIL"
        suffix = f"  ({res.detail})" if res.detail else ""
        lines.append(f"{tag} {res.name}{suffix}")
        failed += not res.ok
        print(f"{res.name} {elapsed:.3f}", file=sys.stderr)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return (1 if failed else 0), "\n".join(lines)


# -- argument parsing -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krchar",
        description="Exact multigraded characters of generalized "
                    "Kirillov-Reshetikhin modules for classical Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def common(p, *extra_formats):
        p.add_argument("--algebra", required=True, help="algebra label, e.g. D5")
        p.add_argument("--format", choices=("plain", "json", *extra_formats), default="plain")

    p = command("gch", _run_gch, "graded character of a generalized KR module")
    common(p, "latex")
    p.add_argument("--weight", required=True, help="fundamental coordinates, e.g. 0,0,2,0,0")
    p.add_argument("--ell", type=_integer, default=1, help="number of grading variables")

    p = command("ext", _run_ext, "Ext dimension between two graded simples")
    common(p)
    p.add_argument("--from", dest="source", required=True, metavar="W@D",
                   help="source point, e.g. 0,0,2,0,0@0,0")
    p.add_argument("--to", dest="target", required=True, metavar="W@D")
    p.add_argument("--j", type=_integer, required=True, help="cohomological degree")

    p = command("gamma", _run_gamma, "enumerate the convex up-set above a point")
    common(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--ell", type=_integer, default=1)
    p.add_argument("--degree", default=None, help="base multidegree (default all zero)")
    p.add_argument("--node", type=_integer, default=None,
                   help="psi node override (default: largest non-spin support node)")

    p = command("tensor", _run_tensor, "tensor product decomposition")
    common(p, "latex")
    p.add_argument("--cache", dest="cache_path", default=None,
                   help="persistent multiplicity cache")
    p.add_argument("--weight", action="append", required=True,
                   help="give twice: the two dominant factors")

    p = command("psi", _run_psi, "psi set of a node or of a dominant weight")
    common(p)
    p.add_argument("--node", type=_integer, default=None)
    p.add_argument("--weight", default=None)

    p = command("verify", _run_verify, "run a verification suite")
    p.add_argument("--suite", choices=("paper", "identities", "all"), default="all")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError, RecursionError) as exc:  # an oversized rank, ell or degree
        print(f"error: input too large to compute: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
