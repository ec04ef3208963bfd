"""Exact character arithmetic for the classical simple Lie algebras.

Weight multiplicities come from Freudenthal's formula on the dominant
weights, the only multiplicities memoised.  One signed Racah-Speiser kernel
computes every tensor product from them, walking one Weyl orbit at a time:
two simples, and the graded Hom coefficients, which one memoised recursion
folds into V(lam) by Newton's identity on Adams operations, so the kernel
builds neither a power nor a full weight system.  ``freudenthal`` builds a
full character only for the oracles and for ``verify``'s rank-2 tensor
check, which convolves the two factors' characters and reads simple
multiplicities off the product's dominant multiplicities through the Weyl
numerator, building no constituent's character.  The power DP, the
convolution of two WeightChars and ``iso_decompose`` are kept only as
independent oracles for the tests.  All intermediate characters may be
virtual (signed); genuineness is asserted only where a result promises an
actual module.
"""

from __future__ import annotations

import heapq
import math
import operator
import threading
from collections import OrderedDict
from typing import Mapping

from .rootsys import (
    RootSystem,
    Weight,
    _descend,
    _weyl_dim_cache,
    add_weights,
    dominant_weights_below,
    require_degree,
    require_dominant,
    require_ell,
    stabilizer_orbits,
    weyl_dim,
    weyl_orbit,
)

DEFAULT_CACHE_ENTRIES = 100_000

_cache_registry: list = []


def register_cache(cache):
    """Track a module-level memo table (anything with ``clear()``) so
    clear_memo_caches can reach it."""
    _cache_registry.append(cache)
    return cache


# Weyl dimensions stay a plain dict: the store's line check looks them up
# thousands of times a load, and a dict lookup is several times cheaper than
# a locked one.
register_cache(_weyl_dim_cache)


class BoundedCache:
    """FIFO-bounded, lock-protected mapping used for all memo tables."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def put(self, key, value):
        with self._lock:
            if key not in self._data:
                self._data[key] = value
                while len(self._data) > self.max_entries:
                    self._data.popitem(last=False)

    def items(self):
        with self._lock:
            return list(self._data.items())

    def __len__(self):
        return len(self._data)

    def clear(self):
        with self._lock:
            self._data.clear()


class SparseChar:
    """Finite integer combination of hashable keys: the arithmetic shared by
    the character types.

    Entries with value zero are never stored.  Two combinations are equal
    only when they have the same type and the same entries; ``*`` by an
    integer scales every entry.
    """

    __slots__ = ("entries",)
    __hash__ = None

    def __init__(self, entries: Mapping | None = None):
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    @classmethod
    def _wrap(cls, entries: dict):
        """The combination with exactly these entries, taken without a copy:
        the caller guarantees that no value is zero and hands the dict over."""
        out = cls.__new__(cls)
        out.entries = entries
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def _combine(self, other, sign: int):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, 0) + sign * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return type(self)(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.entries.items()})

    def __mul__(self, scalar: int):
        return type(self)({k: v * scalar for k, v in self.entries.items()})

    __rmul__ = __mul__

    def is_genuine(self) -> bool:
        return all(v > 0 for v in self.entries.values())

    def __repr__(self):
        return f"{type(self).__name__}({self.entries!r})"


class WeightChar(SparseChar):
    """Finite integer combination of weights (a virtual g-character).

    ``*`` is the convolution product (character of a tensor product) for
    another WeightChar, which only the oracles use, and plain scaling for an
    integer.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return SparseChar.__mul__(self, other)
        out: dict[Weight, int] = {}
        for u, a in self.entries.items():
            for v, b in other.entries.items():
                w = add_weights(u, v)
                c = out.get(w, 0) + a * b
                if c:
                    out[w] = c
                else:
                    del out[w]
        return WeightChar(out)

    __rmul__ = __mul__


class IsoChar(SparseChar):
    """Decomposition of a character into simple-module multiplicities."""

    __slots__ = ()

    def __getitem__(self, mu: Weight) -> int:
        return self.entries.get(tuple(mu), 0)

    def total_dimension(self, rs: RootSystem) -> int:
        return sum(m * weyl_dim(rs, mu) for mu, m in self.entries.items())


class ModuleSpec:
    """Degree-one layers V_1, ..., V_ell of the graded algebra, each given as
    a multiset of dominant highest weights.

    Immutable; equal to another ModuleSpec, and hashed, by its components.
    Not a dataclass: ``dataclasses`` imports ``inspect``, and the two add
    start-up time and memory to every cold process.
    """

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[Weight, ...], ...]):
        require_ell(len(components))
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable ModuleSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable ModuleSpec")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash((self.components,))

    def __repr__(self):
        return f"ModuleSpec(components={self.components!r})"

    @property
    def ell(self) -> int:
        return len(self.components)

    @classmethod
    def adjoint(cls, rs: RootSystem, ell: int) -> "ModuleSpec":
        theta = rs.highest_root.weight
        return cls(((theta,),) * require_ell(ell))


def adjoint_char(rs: RootSystem) -> WeightChar:
    """Character of the adjoint module, straight from the root enumeration."""
    entries: dict[Weight, int] = {(0,) * rs.rank: rs.rank}
    for root in rs.positive_roots:
        entries[root.weight] = 1
        entries[tuple(-c for c in root.weight)] = 1
    return WeightChar(entries)


# -- Freudenthal --------------------------------------------------------------

_char_cache = register_cache(BoundedCache())


def dominant_multiplicities(rs: RootSystem, lam) -> Mapping[Weight, int]:
    """Multiplicities of V(lam) at its dominant weights; treat the result as
    immutable.

    Freudenthal's formula is evaluated on the dominant weights only, from the
    top down (Moody-Patera, Bull. AMS 7, 1982): each m(mu + k beta) is read at
    the dominant conjugate of mu + k beta, which lies strictly above mu and is
    therefore already known.  The stabilizer of mu permutes the root strings
    through mu and keeps their terms, and the string of a root orthogonal to
    mu gives what the string of its negative does, so one string is walked
    per orbit of ``stabilizer_orbits``, counted once for each root (of
    either sign) the orbit and its negative hold.  Strings of different mu
    meet, so each string weight is descended once per call and its
    conjugate kept until the call returns.  Everything is plain integer
    arithmetic.
    """
    lam = require_dominant(rs, lam)  # before the lookup: 1.0 would hit the key of 1
    key = (rs.lie_type, lam)
    hit = _char_cache.get(key)
    if hit is not None:
        return hit
    n = rs.rank
    d = rs.half_lengths
    mults: dict[Weight, int] = {}
    conjugate: dict[Weight, Weight] = {}
    for mu, off in dominant_weights_below(rs, lam).items():
        if mu == lam:
            mults[mu] = 1
            continue
        num = 0
        for root, count in stabilizer_orbits(rs.lie_type, tuple(map(operator.not_, mu))):
            rw = root.weight
            pair = sum(map(operator.mul, root.md, mu))
            step = 2 * root.half_norm
            k = 1
            acc = 0
            x = tuple(map(operator.add, mu, rw))
            while True:
                dom = conjugate.get(x)
                if dom is None:
                    dom = conjugate[x] = _descend(rs, x)[0]
                mx = mults.get(dom)
                if mx is None:  # weight strings are unbroken
                    break
                acc += mx * (pair + k * step)
                k += 1
                x = tuple(map(operator.add, x, rw))
            num += count * acc
        den = sum(off[i] * d[i] * (lam[i] + mu[i] + 2) for i in range(n))
        if den <= 0 or num % den:
            raise AssertionError(f"Freudenthal division failed at {mu}")
        m = num // den
        if m <= 0:
            raise AssertionError(f"non-positive multiplicity at {mu}")
        mults[mu] = m
    _char_cache.put(key, mults)
    return mults


def freudenthal(rs: RootSystem, lam) -> WeightChar:
    """Character of the simple module V(lam): each dominant multiplicity
    spread over its Weyl orbit, walked by :func:`weyl_orbit`.  Only the
    oracles and ``verify``'s rank-2 tensor check build it; the Racah-Speiser
    kernel walks the orbits itself."""
    full: dict[Weight, int] = {}
    for mu, m in dominant_multiplicities(rs, lam).items():
        full.update(dict.fromkeys(weyl_orbit(rs, mu), m))
    return WeightChar._wrap(full)  # dominant_multiplicities refuses m <= 0


# -- tensor products -----------------------------------------------------------


class TensorCache(BoundedCache):
    """Memo of full tensor decompositions, optionally persisted to disk.

    ``computed`` counts actual Racah-Speiser runs (cache misses);
    ``dropped`` counts stored lines that failed their checks on load."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        super().__init__(max_entries)
        self.computed = 0
        self.dropped = 0

    def count_compute(self):
        with self._lock:
            self.computed += 1

    def count_drop(self):
        with self._lock:
            self.dropped += 1


_tensor_cache = TensorCache()


def active_tensor_cache() -> TensorCache:
    return _tensor_cache


def set_active_tensor_cache(cache: TensorCache) -> TensorCache:
    global _tensor_cache
    previous = _tensor_cache
    _tensor_cache = cache
    return previous


def _racah_speiser(rs: RootSystem, dominant: Mapping, start: Mapping, out: dict) -> None:
    """Add the signed simple multiplicities of M (x) N into ``out``, keyed by
    mu + rho, for the virtual module M whose Weyl-invariant character has the
    multiplicities ``dominant`` = {mu: m} at its dominant weights, and
    N = sum of k V(lam) over ``start`` = {lam + rho: k}.

    Each orbit of M's weights is walked once, by :func:`weyl_orbit`, and no
    weight system is built.  Each weight w of an orbit of multiplicity m adds
    k m to the entry of mu + rho, the dominant conjugate of lam + rho + w,
    with the sign (-1)^(number of reflections).  A shifted weight with a zero
    coordinate is fixed by that simple reflection, and lying on a wall is
    W-invariant, so such a term contributes nothing: the descent leaves at
    the first wall, checked before it starts and after every reflection.
    Entries that cancel stay in ``out`` as zeros.
    """
    links = rs.reflection_links
    starts = start.items()
    for mu, m in dominant.items():
        if min(mu) < 0:  # weyl_orbit refuses it too, but names no caller
            raise AssertionError(f"Racah-Speiser kernel given the non-dominant weight {mu}")
        for w in weyl_orbit(rs, mu):
            for shifted, k in starts:
                x = list(map(operator.add, shifted, w))
                if 0 in x:
                    continue
                sign = m * k
                while True:
                    for i, c in enumerate(x):
                        if c < 0:
                            break
                    else:
                        key = tuple(x)
                        out[key] = out.get(key, 0) + sign
                        break
                    x[i] = -c
                    for j, b in links[i]:
                        x[j] += c * b
                    if 0 in x:
                        break
                    sign = -sign


def _shift(w: Weight) -> Weight:
    """w + rho."""
    return tuple(c + 1 for c in w)


def tensor_decompose(rs: RootSystem, lam, nu) -> IsoChar:
    """Decompose V(lam) (x) V(nu) into simple multiplicities (Racah-Speiser).

    The orbits of the factor with the smaller Weyl dimension are walked
    (ties go to nu).
    """
    lam, nu = require_dominant(rs, lam), require_dominant(rs, nu)
    key = (rs.lie_type,) + tuple(sorted((lam, nu)))
    cache = _tensor_cache
    hit = cache.get(key)
    if hit is not None:
        return IsoChar(hit)
    if weyl_dim(rs, lam) < weyl_dim(rs, nu):
        small, big = lam, nu
    else:
        small, big = nu, lam
    shifted: dict[Weight, int] = {}
    _racah_speiser(rs, dominant_multiplicities(rs, small), {_shift(big): 1}, shifted)
    out = {tuple(c - 1 for c in key): v for key, v in shifted.items() if v}
    if any(v < 0 for v in out.values()):
        raise AssertionError("negative multiplicity from Racah-Speiser")
    cache.count_compute()
    cache.put(key, out)
    return IsoChar(out)


# -- exterior and symmetric powers ---------------------------------------------

def _power_char(ch: WeightChar, k: int, kind: str) -> WeightChar:
    if k < 0:
        raise ValueError("power degree must be nonnegative")
    if any(m < 0 for m in ch.entries.values()):
        raise ValueError(f"{kind}_power requires a genuine character")
    if not ch.entries:
        if k == 0:
            raise ValueError("cannot infer the rank from an empty character")
        return WeightChar()
    rank = len(next(iter(ch.entries)))
    zero = (0,) * rank
    dp: list[dict[Weight, int]] = [{} for _ in range(k + 1)]
    dp[0][zero] = 1
    for w, mult in ch.entries.items():
        # Multiply the truncated series by (1 + x e^w)^mult or (1 - x e^w)^-mult.
        if kind == "ext":
            top = min(mult, k)
            coeffs = [math.comb(mult, j) for j in range(top + 1)]
        else:
            top = k
            coeffs = [math.comb(mult + j - 1, j) for j in range(top + 1)]
        ndp: list[dict[Weight, int]] = [{} for _ in range(k + 1)]
        for deg in range(k + 1):
            layer = ndp[deg]
            for j in range(min(deg, top) + 1):
                cj = coeffs[j]
                if not cj:
                    continue
                shift = tuple(j * c for c in w)
                for u, a in dp[deg - j].items():
                    key = add_weights(u, shift) if j else u
                    layer[key] = layer.get(key, 0) + cj * a
        dp = ndp
    return WeightChar(dp[k])


def ext_power(ch: WeightChar, k: int) -> WeightChar:
    """Character of the k-th exterior power of a module with character ch."""
    return _power_char(ch, k, "ext")


def sym_power(ch: WeightChar, k: int) -> WeightChar:
    """Character of the k-th symmetric power of a module with character ch."""
    return _power_char(ch, k, "sym")


# -- isotypical decomposition ---------------------------------------------------

def iso_decompose(rs: RootSystem, ch: WeightChar) -> IsoChar:
    """Write a Weyl-invariant character as a combination of simple characters.

    Extracts repeatedly at a maximal remaining weight; a maximal weight with
    a negative coordinate proves the input was not Weyl-invariant.  Neither a
    production path nor ``verify`` uses it: it is the tests' independent
    oracle for the Racah-Speiser results.
    """
    # cartan_det * (omega_i, rho): a positive multiple keeps the pop order and ties.
    rho_row = tuple(sum(d * row[i] for row, d in zip(rs.adj_cartan_t, rs.half_lengths))
                    for i in range(rs.rank))

    def score(w):
        return sum(c * g for c, g in zip(w, rho_row))

    work = dict(ch.entries)
    heap = [(-score(w), w) for w in work]
    heapq.heapify(heap)
    out: dict[Weight, int] = {}
    while work:
        while True:
            _, w = heapq.heappop(heap)
            if w in work:
                break
        if not rs.is_dominant(w):
            raise ValueError(
                f"character is not Weyl-invariant: maximal weight {w} has a negative coordinate"
            )
        c = work.pop(w)
        out[w] = c
        for u, m in freudenthal(rs, w).entries.items():
            if u == w:
                continue
            v = work.get(u, 0) - c * m
            if v:
                if u not in work:
                    heapq.heappush(heap, (-score(u), u))
                work[u] = v
            else:
                work.pop(u, None)
    return IsoChar(out)


# -- graded Hom-space coefficients ----------------------------------------------

# The dominant multiplicities of each degree-one layer, which the fold reads.
_component_char_cache = register_cache(BoundedCache())
# Unused by the library; kept only because perfbench/tracer.py resolves memo.power_iso.
_power_iso_cache = register_cache(BoundedCache())
_coeff_cache = register_cache(BoundedCache())


def component_char(rs: RootSystem, comp: tuple[Weight, ...]) -> WeightChar:
    """Character of one degree-one layer, given as its tuple of highest
    weights (an entry of ``ModuleSpec.components``).  Only the oracles build
    it; the fold reads the layer's dominant multiplicities."""
    return sum((freudenthal(rs, w) for w in comp), WeightChar())


def _layer_dominant(rs: RootSystem, comp: tuple[Weight, ...]) -> Mapping[Weight, int]:
    """Multiplicities of one degree-one layer at its dominant weights; treat
    the result as immutable."""
    key = (rs.lie_type, comp)
    hit = _component_char_cache.get(key)
    if hit is None:
        hit = {}
        for w in comp:
            for mu, m in dominant_multiplicities(rs, w).items():
                hit[mu] = hit.get(mu, 0) + m
        _component_char_cache.put(key, hit)
    return hit


def _fold(rs: RootSystem, kind: str, factors: tuple, lam: Weight) -> Mapping[Weight, int]:
    """Simple multiplicities of P^{d_1}(V_1) (x) ... (x) P^{d_r}(V_r) (x) V(lam)
    for the sorted factors ((V_i, d_i), ...), P = Sym or wedge, each V(mu)
    keyed by mu + rho, as the Racah-Speiser kernel writes and reads them;
    treat the result as immutable.  With (V, d) the last factor, Newton's
    identity d F = sum_{j=1..d} eps_j psi^j(V) (x) F(rest, (V, d-j)),
    eps_j = 1 for Sym and (-1)^(j-1) for wedge, runs each term as one
    Racah-Speiser pass of the Adams operation psi^j(V), whose dominant
    multiplicities are eps_j m_mu at j mu, over the whole previous fold; all
    d passes add into one sum, and no power of V is built.
    """
    if not factors:
        return {_shift(lam): 1}
    key = (rs.lie_type, kind, factors, lam)
    out = _coeff_cache.get(key)
    if out is not None:
        return out
    *rest, (comp, d) = factors
    layer = _layer_dominant(rs, comp).items()
    total: dict[Weight, int] = {}
    for j in range(1, d + 1):
        sign = -1 if kind == "ext" and j % 2 == 0 else 1
        adams = {tuple(j * c for c in w): sign * m for w, m in layer}
        lower = tuple(sorted(rest + [(comp, d - j)] if j < d else rest))
        _racah_speiser(rs, adams, _fold(rs, kind, lower, lam), total)
    out = {}
    for mu, v in total.items():
        q, r = divmod(v, d)
        if r:
            raise AssertionError(
                f"Newton sum for {kind}^{d} at {tuple(c - 1 for c in mu)} is not divisible by {d}")
        if q:
            out[mu] = q
    if any(v < 0 for v in out.values()):
        raise AssertionError(f"negative multiplicity in the {kind}^{d} power fold")
    _coeff_cache.put(key, out)
    return out


def _hom_coefficient(rs: RootSystem, ms: ModuleSpec, lam, mu, k, kind: str) -> int:
    lam, mu = require_dominant(rs, lam), require_dominant(rs, mu)
    for comp in ms.components:  # before the lookup: 1.0 would hit the key of 1
        for w in comp:
            require_dominant(rs, w)
    k = require_degree(k, ms.ell, "degree vector")
    if min(k) < 0:  # a Hom degree lies in Z_+^ell
        raise ValueError(f"degree vector {list(k)} has a negative entry")
    factors = tuple(sorted((ms.components[i], ki) for i, ki in enumerate(k) if ki))
    return _fold(rs, kind, factors, lam).get(_shift(mu), 0)


def c_coefficient(rs: RootSystem, ms: ModuleSpec, lam, mu, k) -> int:
    """Multiplicity of V(mu) in (wedge^{k_1} V_1 (x) ... (x) wedge^{k_ell} V_ell) (x) V(lam),
    folded into V(lam) by Newton's identity: the product is never built."""
    return _hom_coefficient(rs, ms, lam, mu, k, "ext")


def sym_coefficient(rs: RootSystem, ms: ModuleSpec, lam, mu, k) -> int:
    """Multiplicity of V(mu) in (Sym^{k_1} V_1 (x) ... (x) Sym^{k_ell} V_ell) (x) V(lam),
    folded into V(lam) by Newton's identity: the product is never built."""
    return _hom_coefficient(rs, ms, lam, mu, k, "sym")


def clear_memo_caches() -> None:
    """Drop every in-memory memo table (the persistent store is untouched)."""
    for cache in _cache_registry:
        cache.clear()
    _tensor_cache.clear()  # swappable, so looked up at call time
