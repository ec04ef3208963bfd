"""Exact feasibility test for small systems of rational linear constraints.

No module of the library calls it: ``verify`` imports this module only so
that perfbench/tracer.py can resolve ``ratlp.feasible``.  The face of the
adjoint weight polytope that ``verify``'s psi-sets check needs is certified in
integers there, and the tests enumerate the faces as Weyl orbits.

A single phase-1 simplex with Bland's rule over ``fractions.Fraction``; the
problem sizes here (at most rank+1 unknowns and a few hundred constraints)
make exactness affordable and remove any floating-point concerns.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def feasible(equalities, inequalities, nvars: int) -> bool:
    """Decide whether some x in Q^nvars satisfies a.x == b for every (a, b) in
    ``equalities`` and c.x >= d for every (c, d) in ``inequalities``."""
    rows: list[tuple[list[Fraction], Fraction]] = []
    for a, b in equalities:
        av = [Fraction(x) for x in a]
        rows.append((av, Fraction(b)))
        rows.append(([-x for x in av], -Fraction(b)))
    for c, d in inequalities:
        rows.append(([Fraction(x) for x in c], Fraction(d)))
    if not rows:
        return True
    m = len(rows)
    # Variables: u (nvars), v (nvars), t, slacks (m); x = u - v, all >= 0.
    # Row i: C_i u - C_i v + t - s_i = d_i, minimise t; feasible iff min t = 0.
    tcol = 2 * nvars
    ncols = 2 * nvars + 1 + m
    tableau: list[list[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        # Stored with the slack coefficient +1 so slacks can start basic.
        row = [ZERO] * (ncols + 1)
        for j, cj in enumerate(coeffs):
            row[j] = -cj
            row[nvars + j] = cj
        row[tcol] = -ONE
        row[tcol + 1 + i] = ONE
        row[ncols] = -rhs
        tableau.append(row)
    basis = [tcol + 1 + i for i in range(m)]

    def pivot(r: int, c: int) -> None:
        prow = tableau[r]
        inv = ONE / prow[c]
        tableau[r] = prow = [x * inv for x in prow]
        for i in range(m):
            if i != r and tableau[i][c] != 0:
                f = tableau[i][c]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], prow)]
        basis[r] = c

    worst = min(range(m), key=lambda i: tableau[i][ncols])
    if tableau[worst][ncols] < 0:
        pivot(worst, tcol)
    # Reduced costs for min t: cost vector is e_t.
    cost = [ZERO] * ncols
    cost[tcol] = ONE
    obj = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            obj = [x - f * y for x, y in zip(obj, tableau[i])]
    while True:
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            break
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][ncols] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise AssertionError("phase-1 objective unbounded")  # cannot happen: t >= 0
        pivot(best[1], entering)
        f = obj[entering]
        obj = [x - f * y for x, y in zip(obj, tableau[best[1]])]
    objective_value = -obj[ncols]
    return objective_value == 0
