"""Per-layer tracing of krchar from outside the package.

The tracer swaps selected public functions of the ``krchar`` modules for
wrappers that record spans (call count and self time) or plain call counts,
and observes every ``BoundedCache.get``/``put`` to count memo hits, misses
and table sizes.  Nothing under ``src/`` is edited: the wrappers are
installed by rebinding module attributes and removed again by
:meth:`Tracer.uninstall`.

A span's self time is its wall time minus the wall time of the spans it
encloses.  Calls that are only counted add their (small) cost to the self
time of the enclosing span.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# metric name -> (kind, [(module, attribute), ...]).  "span" records calls
# and self time, "count" records calls only (hot helpers where a timer would
# cost more than the call), "load"/"store" are spans that also record the
# size of the cache file they read or wrote.  A target that cannot be found
# is listed in ``Tracer.missing``, and the run counts it as a failure: its
# metrics would otherwise read zero, as if the layer had become free.
SPANS = {
    "rootsys._descend": ("span", [("rootsys", "_descend")]),
    "rootsys.add_weights": ("count", [("rootsys", "add_weights")]),
    "rootsys.weyl_dim": ("span", [("rootsys", "weyl_dim")]),
    "repchar.freudenthal": ("span", [("repchar", "freudenthal"),
                                     ("repchar", "dominant_multiplicities")]),
    "repchar.power_dp": ("span", [("repchar", "_power_char")]),
    "repchar.char_product": ("span", [("repchar", "WeightChar.__mul__")]),
    "repchar.iso_decompose": ("span", [("repchar", "iso_decompose")]),
    "repchar.tensor_decompose": ("span", [("repchar", "tensor_decompose")]),
    "repchar.hom_coefficient": ("span", [("repchar", "c_coefficient"),
                                         ("repchar", "sym_coefficient")]),
    "poset.checked_psi": ("span", [("poset", "checked_psi")]),
    "poset.ratlp.feasible": ("span", [("ratlp", "feasible")]),
    "poset.d_psi": ("span", [("poset", "d_psi")]),
    "poset.gamma_psi": ("span", [("poset", "gamma_psi")]),
    "graded.gch_N": ("span", [("graded", "gch_N")]),
    "graded.gch_P_direct": ("span", [("graded", "gch_P_direct")]),
    "graded.gch_recursive_node": ("span", [("graded", "_gch_recursive_base0")]),
    "graded.verify_AE_identity": ("span", [("graded", "verify_AE_identity")]),
    "graded.verify_alternating_sum": ("span", [("graded", "verify_alternating_sum")]),
    "cache.cache_load": ("load", [("cache", "cache_load")]),
    "cache.cache_store": ("store", [("cache", "cache_store")]),
    "cli.main": ("span", [("cli", "main")]),
}

# Memo tables reported by name; a table is named after the module attribute
# that holds it ("_char_cache" -> "char"), and every TensorCache is "tensor".
MEMO_TABLES = ("char", "component_char", "power_iso", "coeff", "tensor",
               "d_psi", "gch_n0", "gch_n")


def _lookup(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`
    and read :meth:`metrics`."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0] for name in SPANS}  # calls, self_s, bytes
        self.memo = {name: [0, 0, 0] for name in MEMO_TABLES}  # hits, misses, peak entries
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._table_names: dict[int, str] = {}
        self.missing: list[str] = []  # targets and memo tables not found

    # -- wrappers ---------------------------------------------------------------

    def _span(self, record, fn, file_size=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if file_size == "before":
                record[2] += _file_bytes(args[0])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if file_size == "after":
                    record[2] += _file_bytes(args[0])

        return wrapper

    @staticmethod
    def _count(record, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace every binding of ``original`` in the krchar modules and in
        their classes, so callers that imported the name are traced too."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "krchar" or mod_name.startswith("krchar.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._undo.append((value, cattr, cvalue))
                            setattr(value, cattr, wrapper)

    def install(self) -> None:
        import krchar  # noqa: F401  (loads every submodule)

        for name, (kind, targets) in SPANS.items():
            record = self.spans[name]
            for mod_name, dotted in targets:
                module = sys.modules.get(f"krchar.{mod_name}")
                original = None if module is None else _lookup(module, dotted)
                if original is None:
                    self.missing.append(f"{mod_name}.{dotted}")
                    continue
                if kind == "count":
                    wrapper = self._count(record, original)
                else:
                    side = {"load": "before", "store": "after"}.get(kind)
                    wrapper = self._span(record, original, side)
                self._rebind(original, wrapper)
        self._install_memo_observer()

    def _install_memo_observer(self) -> None:
        repchar = sys.modules.get("krchar.repchar")
        bounded = getattr(repchar, "BoundedCache", None)
        if bounded is None:
            self.missing.append("repchar.BoundedCache")
            return
        tensor_type = getattr(repchar, "TensorCache", None)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("krchar."):
                continue
            for attr, value in vars(module).items():
                if isinstance(value, bounded) and not (
                        tensor_type and isinstance(value, tensor_type)):
                    name = attr.strip("_")
                    self._table_names[id(value)] = name.removesuffix("_cache")
        names = self._table_names
        found = set(names.values()) | ({"tensor"} if tensor_type is not None else set())
        self.missing += [f"memo table {name}" for name in MEMO_TABLES if name not in found]
        memo = self.memo
        unnamed = [0, 0, 0]  # tables the metrics do not name

        def record_for(cache):
            if tensor_type is not None and isinstance(cache, tensor_type):
                return memo["tensor"]
            return memo.get(names.get(id(cache)), unnamed)

        orig_get, orig_put = bounded.get, bounded.put

        def get(cache, key):
            value = orig_get(cache, key)
            record_for(cache)[0 if value is not None else 1] += 1
            return value

        def put(cache, key, value):
            orig_put(cache, key, value)
            rec = record_for(cache)
            rec[2] = max(rec[2], len(cache))

        for attr, wrapper in (("get", get), ("put", put)):
            self._undo.append((bounded, attr, vars(bounded)[attr]))
            setattr(bounded, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict:
        """Every metric that is not a time; two traced passes over the same
        inputs must give identical counts."""
        return {name: value for name, value in self.metrics().items()
                if not name.endswith((".self_s", ".hit_ratio"))}

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s, nbytes) in self.spans.items():
            kind = SPANS[name][0]
            out[f"{name}.calls"] = calls
            if kind != "count":
                out[f"{name}.self_s"] = self_s
            if kind in ("load", "store"):
                out[f"{name}.bytes"] = nbytes
        for name, (hits, misses, entries) in self.memo.items():
            out[f"memo.{name}.hits"] = hits
            out[f"memo.{name}.misses"] = misses
            out[f"memo.{name}.entries"] = entries
            out[f"memo.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
