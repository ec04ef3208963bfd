"""Verification suites: closed formulas, matrix identities and property sweeps.

Each check returns a :class:`CheckResult`; the CLI ``verify`` command and the
acceptance tests run the same functions, so a passing suite here is exactly
the library's advertised correctness contract.
"""

from __future__ import annotations

import operator
import random
import time
from itertools import chain, repeat
from typing import Callable, Iterator, NamedTuple

from . import ratlp  # Unused; kept only because perfbench/tracer.py resolves its feasible.
from .graded import (
    GradedChar,
    ext_dim,
    gch_N,
    gch_P_direct,
    gch_P_recursive,
    multiplicity_ell_profile,
    verify_AE_identity,
    verify_alternating_sum,
)
from .poset import (
    LambdaPoint,
    check_psi_extra,
    compositions,
    d_psi,
    gamma_psi,
    i_lambda,
    psi_i,
    psi_lambda,
)
from .repchar import (
    ModuleSpec,
    freudenthal,
    tensor_decompose,
)
from .rootsys import (
    LieType,
    Weight,
    _descend,
    add_weights,
    build_root_system,
    dominant_weights_below,
    omega_weight,
    sub_weights,
    weyl_dim,
    weyl_orbit,
)

RANDOM_SEED = 20250811


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


# -- the shared test matrix ----------------------------------------------------

def acceptance_matrix() -> Iterator[tuple]:
    """(root system, highest weight, ell) triples shared by the identity
    checks: D4/D5, multiples of the non-spin fundamentals up to 3 plus
    2*omega_3, each with one to three grading variables."""
    for label in ("D4", "D5"):
        rs = build_root_system(label)
        lams = []
        for i in range(1, rs.rank + 1):
            if i in rs.spin_nodes:
                continue
            lams.extend(omega_weight(rs.rank, (i, m)) for m in (1, 2, 3))
        two_omega3 = omega_weight(rs.rank, (3, 2))
        if two_omega3 not in lams:
            lams.append(two_omega3)
        for lam in lams:
            for ell in (1, 2, 3):
                yield rs, lam, ell


def _kr_gamma(rs, lam, ell):
    psi = psi_lambda(rs, lam)
    base = LambdaPoint(lam, (0,) * ell)
    return base, gamma_psi(rs, psi, base, ell)


# -- closed formulas and worked values --------------------------------------------

def _cauchy_char(ell: int, terms) -> GradedChar:
    """The sum over the terms (mu, d, squarefree) of V(mu) h_d(t), or
    V(mu) e_d(t) where squarefree, in ell grading variables: h_d has one
    monomial for each composition of d into ell parts, e_d only those with
    every entry 0 or 1."""
    entries: dict = {}
    for mu, d, squarefree in terms:
        for r in compositions(d, ell):
            if not squarefree or max(r) <= 1:
                entries[mu, r] = entries.get((mu, r), 0) + 1
    return GradedChar(entries)


def _over_closed_forms(name: str, detail: str, cases) -> CheckResult:
    """Compare gch_N(rs, lam, ell) with :func:`_cauchy_char` of ``terms`` for
    each case ``(where, rs, lam, ell, terms)``, stopping at the first
    mismatch.  ``gch_N`` is looked up on each call, so a rebinding of the
    module attribute takes effect."""
    for where, rs, lam, ell, terms in cases:
        if gch_N(rs, lam, ell) != _cauchy_char(ell, terms):
            return _fail(name, where)
    return _ok(name, detail)


def check_gch_2omega3() -> CheckResult:
    # V(2 omega_3) + V(omega_1 + omega_3) h_1 + V(omega_2) e_2 + V(2 omega_1) h_2 + V(0) e_3.
    rs = build_root_system("D5")
    w = lambda *terms: omega_weight(5, *terms)
    terms = ((w((3, 2)), 0, False), (w((3, 1), (1, 1)), 1, False), (w((2, 1)), 2, True),
             (w((1, 2)), 2, False), ((0,) * 5, 3, True))
    return _over_closed_forms("gchN-D5-2omega3", "ell=1,2,3 exact", (
        (f"ell={ell}: characters differ", rs, w((3, 2)), ell, terms) for ell in (1, 2, 3)))


def check_closed_formula_momega2() -> CheckResult:
    # The sum over k <= m of V((m - k) omega_2) h_k.
    cases = []
    for label in ("D4", "D5"):
        rs = build_root_system(label)
        for m in range(1, 5):
            lam = omega_weight(rs.rank, (2, m))
            terms = [(omega_weight(rs.rank, (2, m - k)), k, False) for k in range(m + 1)]
            cases += [(f"{label}, m={m}, ell={ell}", rs, lam, ell, terms) for ell in (1, 2, 3)]
    return _over_closed_forms("closed-form-m-omega2", "D4/D5, m<=4, ell<=3 exact", cases)


def check_ell1_momega3() -> CheckResult:
    # The sum over r <= m of V((m - r) omega_3 + r omega_1) t^r.
    rs = build_root_system("D5")
    return _over_closed_forms("ell1-m-omega3-D5", "m<=3 exact", (
        (f"m={m}", rs, omega_weight(5, (3, m)), 1,
         [(omega_weight(5, (3, m - r), (1, r)), r, False) for r in range(m + 1)])
        for m in (1, 2, 3)))


def check_trivial_cases() -> CheckResult:
    name = "trivial-KR"
    cases = []
    for label, nodes in (("D4", (1, 3, 4)), ("D5", (1, 4, 5))):
        rs = build_root_system(label)
        for i in nodes:
            for m in range(1, 5):
                lam = omega_weight(rs.rank, (i, m))
                for ell in (1, 2, 3):
                    if len(_kr_gamma(rs, lam, ell)[1]) != 1:
                        return _fail(name, f"{label}, i={i}, m={m}: gamma not a singleton")
                    where = f"{label}, i={i}, m={m}, ell={ell}"
                    cases.append((where, rs, lam, ell, [(lam, 0, False)]))
    return _over_closed_forms(name, "node 1 and spin nodes, m<=4", cases)


def check_psi_structure() -> CheckResult:
    name = "psi-sets"
    for label in ("D4", "D5"):
        rs = build_root_system(label)
        for i in (1, *rs.spin_nodes):
            if psi_i(rs, i):
                return _fail(name, f"{label}: psi_{i} should be empty")
        theta = rs.highest_root.weight
        if psi_i(rs, 2) != {tuple(-c for c in theta)}:
            return _fail(name, f"{label}: psi_2 is not the negated highest root")
        table = rs.adjoint_coords
        for i in range(1, rs.rank + 1):
            psi = psi_i(rs, i)
            face = frozenset()  # the empty face, unless theta_i = 2
            if rs.highest_root.coords[i - 1] == 2:
                # (x, omega_i) is d_i times x's root coordinate at node i, so
                # omega_i is smallest exactly where that coordinate is: a face
                # certificate in integers that shares no code with psi_of_mu
                # or with checked_psi's face test.
                low = min(c[i - 1] for c in table.values())
                face = {x for x, c in table.items() if c[i - 1] == low}
            if psi != face or not check_psi_extra(rs, psi):
                return _fail(name, f"{label}: psi_{i} is not a face meeting the support conditions")
    d5 = build_root_system("D5")
    if len(psi_i(d5, 3)) != 3:
        return _fail(name, "D5: psi_3 should have three elements")
    return _ok(name)


def check_c_table() -> CheckResult:
    name = "c-table-D5-2omega3"
    rs = build_root_system("D5")
    ms = ModuleSpec.adjoint(rs, 2)
    base = LambdaPoint(omega_weight(5, (3, 2)), (0, 0))
    w = lambda *terms: omega_weight(5, *terms)
    cases = [
        (base.weight, (0, 0), 0, 1),
        (w((3, 1), (1, 1)), (1, 0), 1, 1),
        (w((2, 1)), (1, 1), 2, 1),
        (w((2, 1)), (2, 0), 2, 1),
        (w((1, 2)), (1, 1), 2, 1),
        (w((1, 2)), (2, 0), 2, 0),
        ((0,) * 5, (2, 1), 3, 1),
    ]
    for mu, s, j, expected in cases:
        got = ext_dim(rs, ms, base, LambdaPoint(mu, s), j)
        if got != expected:
            return _fail(name, f"Ext^{j} to ({mu}, {s}): got {got}, expected {expected}")
    return _ok(name, "all seven coefficients")


def check_gamma_2omega3() -> CheckResult:
    name = "gamma-D5-2omega3"
    rs = build_root_system("D5")
    base, gamma = _kr_gamma(rs, omega_weight(5, (3, 2)), 2)
    expected = {
        omega_weight(5, (3, 2)): 0,
        omega_weight(5, (3, 1), (1, 1)): 1,
        omega_weight(5, (2, 1)): 2,
        omega_weight(5, (1, 2)): 2,
        (0,) * 5: 3,
    }
    if gamma.d_of != expected:
        return _fail(name, f"distances {gamma.d_of}")
    return _ok(name)


def check_ell_dependence() -> CheckResult:
    name = "ell-dependence"
    rs = build_root_system("D5")
    lam = omega_weight(5, (3, 2))
    omega2 = multiplicity_ell_profile(rs, lam, omega_weight(5, (2, 1)), 3)
    if omega2 != [0, 1, 3]:
        return _fail(name, f"omega_2 profile {omega2}")
    trivial = multiplicity_ell_profile(rs, lam, (0,) * 5, 3)
    if trivial != [0, 0, 1]:
        return _fail(name, f"trivial profile {trivial}")
    stable = multiplicity_ell_profile(rs, omega_weight(5, (2, 3)), omega_weight(5, (2, 1)), 3)
    if stable != [1, 3, 6]:
        return _fail(name, f"m*omega_2 profile {stable}")
    return _ok(name, "presence thresholds at ell=2 and ell=3")


# -- identity checks ----------------------------------------------------------------

def _over_acceptance_matrix(name: str, unit: str, case) -> CheckResult:
    """Run ``case(rs, ms, base, gamma) -> (ok, detail)`` on the KR gamma set of
    every acceptance-matrix triple, stopping at the first failure.
    ``acceptance_matrix`` is looked up on each call, so a rebinding of the
    module attribute takes effect."""
    count = 0
    for rs, lam, ell in acceptance_matrix():
        base, gamma = _kr_gamma(rs, lam, ell)
        ok, detail = case(rs, ModuleSpec.adjoint(rs, ell), base, gamma)
        if not ok:
            where = f"{rs.lie_type}, lam={lam}, ell={ell}"
            return _fail(name, f"{where}: {detail}" if detail else where)
        count += 1
    return _ok(name, f"{count} {unit}")


def check_ae_identity() -> CheckResult:
    return _over_acceptance_matrix(
        "ae-identity", "gamma sets",
        lambda rs, ms, base, gamma: verify_AE_identity(rs, ms, gamma),
    )


def check_cross_path() -> CheckResult:
    return _over_acceptance_matrix(
        "cross-path-direct-vs-recursive", "gamma sets",
        lambda rs, ms, base, gamma: (
            gch_P_direct(rs, ms, base, gamma) == gch_P_recursive(rs, ms, base, gamma),
            None,
        ),
    )


def check_alternating_sum() -> CheckResult:
    return _over_acceptance_matrix("alternating-sum", "gamma sets", verify_alternating_sum)


def check_mode_agreement() -> CheckResult:
    def agree(rs, ms, base, gamma):
        per_weight = gch_P_recursive(rs, ms, base, gamma, mode="per-weight-psi")
        if gch_N(rs, base.weight, gamma.ell) == per_weight:
            return True, None
        node = i_lambda(rs, base.weight)
        return False, f"fixed psi_{node} gamma disagrees with the per-weight gamma family"

    return _over_acceptance_matrix("mode-agreement", "characters", agree)


def _rank2_pairs() -> Iterator[tuple]:
    """(label, root system, pairs) for A1, A2, B2 and C2, where pairs lists
    every pair (lam, nu), lam <= nu, of weights with coordinates below 4
    (the product is symmetric)."""
    for label in ("A1", "A2", "B2", "C2"):
        rs = build_root_system(label)
        if rs.rank == 1:
            weights = [(a,) for a in range(4)]
        else:
            weights = [(a, b) for a in range(4) for b in range(4)]
        yield label, rs, [(lam, nu) for lam in weights for nu in weights if nu >= lam]


def _weyl_shifts(rs) -> tuple[tuple[Weight, int], ...]:
    """(rho - w rho, sgn w) for every element w of the Weyl group.

    rho = (1, ..., 1) is regular, so w -> w rho is a bijection from W onto
    the orbit of rho, which :func:`weyl_orbit` lists with each sign.
    """
    rho = (1,) * rs.rank
    return tuple((sub_weights(rho, x), s) for x, s in weyl_orbit(rs, rho).items())


def _weyl_numerator(rs, product: dict[int, int], shifts, conjugates: dict,
                    packed: _PackedType) -> dict[Weight, int]:
    """Simple multiplicities N_mu of a module from its multiplicities
    ``product`` at its dominant weights, by the Weyl character formula.

    Multiplying the character by the Weyl denominator, the sum over w of
    sgn(w) e^(w rho), gives the sum of N_mu times the alternating sums over w
    of sgn(w) e^(w(mu + rho)).  Of these only e^(mu + rho) itself is strictly
    dominant, so N_mu is the coefficient of e^(mu + rho): the sum over w of
    sgn(w) P(mu + rho - w rho), with P read at the dominant conjugate, since
    the character is Weyl-invariant.  V(mu) occurs only when mu is a weight,
    so only the mu with P(mu) != 0 are tried.  ``shifts`` is the table
    of :func:`_weyl_shifts`.

    ``product`` is keyed by the packed weights of ``packed``, and the result
    by weights.  ``conjugates`` maps a packed mu to the packed dominant
    conjugates of the mu + rho - w rho, in the order of ``shifts``, and is
    filled here, so a check that shares it descends each of them once.  A
    conjugate that is none of the type's dominant weights below a sum
    lam + nu is no weight of any of its products and is kept as None, which
    reads 0.
    """
    shifts, signs = zip(*shifts)
    get = product.get
    weight_of, packed_of = packed.weight_of, packed.packed_of.get
    zeros = repeat(0)
    out: dict[Weight, int] = {}
    for mu in product:
        doms = conjugates.get(mu)
        if doms is None:
            x = weight_of[mu]
            doms = conjugates[mu] = [packed_of(_descend(rs, add_weights(x, shift))[0])
                                     for shift in shifts]
        n = sum(map(operator.mul, signs, map(get, doms, zeros)))
        if n:
            out[weight_of[mu]] = n
    return out


class _PackedType:
    """The full characters of the factors and the dominant weights below the
    sums lam + nu of one type's pairs, each packed into integers once, in one
    base for the whole type.

    pack(x) = sum of x_i M^i in the balanced base M = 2B + 1, where B is the
    largest |coordinate| over the characters plus the largest coordinate over
    the dominant weights.  pack is linear, so pack(w) - pack(u) = pack(w - u).
    It is injective on the box [-B, B]^n: if pack(x) = pack(y) there,
    z = x - y has |z_i| <= 2B < M and sum z_i M^i = 0; at the lowest i with
    z_i != 0, M would divide z_i.  The convolution reads w - u for a dominant
    w below lam + nu and a weight u of one factor, so w - u lies in the box,
    as does every weight of the other factor: the packed character of that
    factor returns its multiplicity at w - u, and 0 exactly when w - u is not
    one of its weights.
    """

    def __init__(self, rs, pairs):
        chars = {x: freudenthal(rs, x).entries for x in set(chain.from_iterable(pairs))}
        sums = {pair: add_weights(*pair) for pair in pairs}
        below = {s: dominant_weights_below(rs, s) for s in set(sums.values())}
        bound = _max_abs(chain.from_iterable(chars.values()))
        bound += max(map(max, chain.from_iterable(below.values())))
        powers = [(2 * bound + 1) ** i for i in range(rs.rank)]

        def pack(x):
            return sum(map(operator.mul, x, powers))

        # x -> (packed weights, multiplicities, {packed weight: multiplicity})
        self.chars = {}
        for x, ch in chars.items():
            keys, mults = tuple(map(pack, ch)), tuple(ch.values())
            self.chars[x] = keys, mults, dict(zip(keys, mults))
        packed_below = {s: tuple(map(pack, ws)) for s, ws in below.items()}
        self.tops = {pair: packed_below[s] for pair, s in sums.items()}
        self.packed_of = {w: pack(w) for ws in below.values() for w in ws}
        self.weight_of = {p: w for w, p in self.packed_of.items()}

    def dominant_product(self, lam, nu) -> dict[int, int]:
        """Multiplicities of V(lam) (x) V(nu) at its dominant weights, keyed
        by packed weight: each is the convolution sum over u of
        m_lam(u) m_nu(w - u), taken over the factor with fewer weights.

        Every weight of the product lies below lam + nu, so its dominant
        weights are among those of V(lam + nu), the weights that
        ``dominant_weights_below(lam + nu)`` lists without any multiplicity.
        No reflection is used.
        """
        small, large = self.chars[lam], self.chars[nu]
        if len(small[0]) > len(large[0]):
            small, large = large, small
        keys, mults, _ = small
        get = large[2].get
        zeros = repeat(0)
        out: dict[int, int] = {}
        for w in self.tops[lam, nu]:
            c = sum(map(operator.mul, mults, map(get, map(w.__sub__, keys), zeros)))
            if c:
                out[w] = c
        return out


def _max_abs(weights) -> int:
    return max(map(abs, chain.from_iterable(weights)))


def check_tensor_vs_product_rank2() -> CheckResult:
    """Racah-Speiser against the character product, in simple multiplicities.

    The product's multiplicities at its dominant weights determine its
    simple multiplicities through the Weyl numerator, so no constituent's
    character is computed.  The check takes the pairs one type at a time:
    it builds the type's Weyl group table once, packs each factor's
    character and the dominant weights below each lam + nu once, and
    descends each weight the inversion reads once.
    """
    name = "tensor-vs-character-product-rank2"
    count = 0
    for label, rs, pairs in _rank2_pairs():
        packed = _PackedType(rs, pairs)
        shifts, conjugates = _weyl_shifts(rs), {}
        for lam, nu in pairs:
            simples = _weyl_numerator(rs, packed.dominant_product(lam, nu), shifts, conjugates, packed)
            if simples != tensor_decompose(rs, lam, nu).entries:
                return _fail(name, f"{label}: {lam} (x) {nu}")
            count += 1
    return _ok(name, f"{count} pairs")


def check_dimension_conservation() -> CheckResult:
    name = "tensor-dimension-conservation"
    rng = random.Random(RANDOM_SEED)
    types = [LieType("A", n) for n in range(1, 6)]
    types += [LieType("B", n) for n in range(2, 6)]
    types += [LieType("C", n) for n in range(2, 6)]
    types += [LieType("D", n) for n in (4, 5)]

    def draw_weight(rank):
        coords = [0] * rank
        for _ in range(rng.randint(1, 2)):
            coords[rng.randrange(rank)] += rng.randint(1, 2)
        return tuple(coords)

    for trial in range(200):
        t = rng.choice(types)
        rs = build_root_system(t)
        lam, nu = draw_weight(t.rank), draw_weight(t.rank)
        iso = tensor_decompose(rs, lam, nu)
        if not iso.is_genuine():
            return _fail(name, f"trial {trial}: negative multiplicity for {t} {lam} {nu}")
        if iso.total_dimension(rs) != weyl_dim(rs, lam) * weyl_dim(rs, nu):
            return _fail(name, f"trial {trial}: dimension mismatch for {t} {lam} {nu}")
    return _ok(name, "200 seeded pairs, rank <= 5")


def check_root_sum_decompositions() -> CheckResult:
    name = "root-sum-decompositions"
    labels = [f"A{n}" for n in range(1, 9)]
    labels += [f"B{n}" for n in range(2, 9)]
    labels += [f"C{n}" for n in range(2, 9)]
    labels += [f"D{n}" for n in range(4, 9)]
    for label in labels:
        rs = build_root_system(label)
        # Root coordinates lie in 0..2 on the classical types (the highest
        # root's do) and their differences in -2..2, so sum c_i 5^i packs
        # them injectively: two points of [-2, 2]^n that pack alike differ
        # by a z with |z_i| <= 4 < 5 that packs to 0, so z = 0.  beta - gamma
        # is then a root exactly when it packs to one.
        powers = [5 ** i for i in range(rs.rank)]
        packed = {r.coords: sum(map(operator.mul, r.coords, powers)) for r in rs.positive_roots}
        roots = set(packed.values())
        # gamma must have coordinate 1 at node j in both splits; the rest
        # then has 1 there when beta has 2, and 0 when beta has 1.
        at_node = [[p for g, p in packed.items() if g[j] == 1] for j in range(rs.rank)]
        for beta, b in packed.items():
            for j in range(rs.rank):
                if beta[j] == 2 or (beta[j] == 1 and sum(beta) > 1):
                    if roots.isdisjoint(map(b.__sub__, at_node[j])):
                        split = "1+1" if beta[j] == 2 else "0+1"
                        return _fail(name, f"{label}: no {split} split of {beta} at node {j + 1}")
    return _ok(name, "exhaustive, classical rank <= 8")


def check_dpsi_additivity() -> CheckResult:
    name = "dpsi-additivity"
    triples = 0
    for rs, lam, ell in acceptance_matrix():
        if ell != 1:
            continue  # the distance lives on weights; one gamma per weight set
        base, gamma = _kr_gamma(rs, lam, 1)
        psi = gamma.psi
        # The walk that lists gamma against the per-weight search below lam.
        for nu in dominant_weights_below(rs, lam):
            if d_psi(rs, psi, lam, nu) != gamma.d_of.get(nu):
                return _fail(name, f"{rs.lie_type}: the walk and d_psi disagree at {nu}")
        weights = sorted(gamma.d_of)
        for x in weights:
            for y in weights:
                dxy = d_psi(rs, psi, x, y)
                if dxy is None:
                    continue
                if x != y and d_psi(rs, psi, y, x) is not None:
                    return _fail(name, f"antisymmetry fails between {x} and {y}")
                for z in weights:
                    dyz = d_psi(rs, psi, y, z)
                    if dyz is None:
                        continue
                    if d_psi(rs, psi, x, z) != dxy + dyz:
                        return _fail(name, f"{rs.lie_type}: chain {x} <= {y} <= {z}")
                    triples += 1
    return _ok(name, f"{triples} chains")


FORMULA_CHECKS: list[Callable[[], CheckResult]] = [
    check_gch_2omega3,
    check_closed_formula_momega2,
    check_ell1_momega3,
    check_trivial_cases,
    check_psi_structure,
    check_c_table,
    check_gamma_2omega3,
    check_ell_dependence,
]

IDENTITY_CHECKS: list[Callable[[], CheckResult]] = [
    check_ae_identity,
    check_cross_path,
    check_alternating_sum,
    check_mode_agreement,
    check_tensor_vs_product_rank2,
    check_dimension_conservation,
    check_root_sum_decompositions,
    check_dpsi_additivity,
]

SUITES = {
    "paper": FORMULA_CHECKS,
    "identities": IDENTITY_CHECKS,
    "all": FORMULA_CHECKS + IDENTITY_CHECKS,
}


def run_suite(suite: str) -> list[tuple[CheckResult, float]]:
    """Each check's result with its elapsed wall time in seconds, in order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    results = []
    for check in SUITES[suite]:
        start = time.perf_counter()
        try:
            res = check()
        except Exception as exc:  # one broken check must not stop the suite
            res = _fail(check.__name__, f"{type(exc).__name__}: {exc}")
        results.append((res, time.perf_counter() - start))
    return results
