"""Persistent store for tensor-product decompositions: a JSON Lines file of
a version header and one sorted ``[family, rank, lam, nu, [[mu, m], ...]]``
line per decomposition.  A line is loaded only if its weights are dominant
of the type's rank, ``lam <= nu`` as ``tensor_decompose`` keys them, each mu
appears once with a positive integer multiplicity m, the top constituent
V(lam + nu) has m = 1, and sum m dim V(mu) = dim V(lam) dim V(nu) holds
exactly.  Any other line is dropped with a warning and counted in
``TensorCache.dropped``, so it is recomputed on demand and left out of the
next write; a file without the header is ignored with a warning.  Storing
writes a temporary file and renames it into place, so readers never observe
a partial file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from .repchar import IsoChar, TensorCache
from .rootsys import LieType, add_weights, build_root_system, require_dominant, weyl_dim

HEADER = json.dumps({"format": "krchar-tensor-store", "version": 1})


def _decomposition(line: bytes):
    """The cache key and multiplicities on one stored line; raises ValueError
    or TypeError when one of the module's line checks fails."""
    family, rank, lam, nu, pairs = json.loads(line)
    if type(rank) is not int or rank != len(lam):  # so a corrupt rank never builds a root system
        raise ValueError(f"rank {rank!r} is not an integer or not the length of lam")
    rs = build_root_system(LieType(family, rank))
    lam, nu = require_dominant(rs, lam), require_dominant(rs, nu)
    mults = {require_dominant(rs, mu): m for mu, m in pairs}
    if (lam > nu or len(mults) != len(pairs)
            or not all(type(m) is int and m > 0 for m in mults.values())):
        raise ValueError("lam > nu, a repeated mu or a multiplicity that is not a positive integer")
    if mults.get(add_weights(lam, nu)) != 1:  # lam + nu is the top weight, of multiplicity 1
        raise ValueError("V(lam + nu) does not occur exactly once")
    if IsoChar(mults).total_dimension(rs) != weyl_dim(rs, lam) * weyl_dim(rs, nu):
        raise ValueError("sum m * dim V(mu) differs from dim V(lam) * dim V(nu)")
    return (rs.lie_type, lam, nu), mults


def cache_load(path: str, cache: TensorCache) -> int:
    """Merge the checked decompositions stored at ``path`` into ``cache``; a
    missing or empty file is an empty store.  Returns the number loaded."""
    if not os.path.exists(path):
        return 0
    loaded = 0
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            if header and header.rstrip(b"\n") != HEADER.encode():
                print(f"warning: ignoring multiplicity cache {path}: "
                      f"no krchar-tensor-store version 1 header", file=sys.stderr)
                return 0
            for lineno, line in enumerate(fh, 2):
                try:
                    key, mults = _decomposition(line)
                except (ValueError, TypeError) as exc:
                    print(f"warning: skipping corrupt cache line {lineno} in {path}: {exc}",
                          file=sys.stderr)
                    cache.count_drop()
                    continue
                cache.put(key, mults)
                loaded += 1
    except OSError as exc:
        raise OSError(f"cannot read multiplicity cache {path}: {exc}") from exc
    return loaded


def cache_store(path: str, cache: TensorCache) -> int:
    """Write every cached decomposition to ``path`` atomically; returns the
    number of decompositions written."""
    lines = [HEADER] + [
        json.dumps([*lt, lam, nu, sorted(mults.items())], separators=(",", ":"))
        for (lt, lam, nu), mults in sorted(cache.items(), key=lambda item: item[0])
    ]
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".krchar-cache-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write multiplicity cache {path}: {exc}") from exc
    return len(lines) - 1
