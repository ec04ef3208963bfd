"""One workload in one process: the timed passes, the traced passes and the
correctness checks.  Started by ``run.py``; prints one JSON object as its
last line.

A pass runs every operation of the workload once, from cleared memo tables,
and records each operation's wall and CPU time.  Outputs are checked after
the pass, outside the timed windows and with tracing removed, so checking
costs neither time nor trace counts.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import subprocess
import tempfile
import threading
import time
import traceback

import krchar
from krchar import cli, verify
from krchar.rootsys import LieType

from speed import SpeedSampler
from tracer import Tracer


SETUP_INTERVAL_S = 2.0  # one set-up sample per this much workload time
SETUP_MIN_SAMPLES = 15
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3  # a timed run's medians are taken over at least this many passes


class Mismatch(Exception):
    """An operation returned a result that fails its correctness check."""


def _fresh_caches() -> int:
    """Process-cold state: no memo table and no tensor decomposition kept.
    Returns the Racah-Speiser runs counted by the tensor cache replaced."""
    krchar.clear_memo_caches()
    return krchar.set_active_tensor_cache(krchar.TensorCache()).computed


def _cli(argv: list[str]) -> str:
    """Run ``krchar <argv>`` in-process and return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise Mismatch(f"krchar {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _weight_text(w) -> str:
    return ",".join(map(str, w))


class Pass:
    """Timings and outputs of one pass.  ``ops`` holds (kind, label, wall,
    cpu, output) per operation; kind "call" marks a user-visible call.
    ``spans`` holds each operation's (start, end) in ``time.perf_counter``."""

    def __init__(self, between=None):
        self.between = between  # called after each operation, outside its timing
        self.ops: list[tuple[str, str, float, float, object]] = []
        self.spans: list[tuple[float, float]] = []
        self.failures: dict[str, str] = {}  # label -> first reason
        self.info: dict = {}
        self.tensor_computed = 0

    def run(self, kind: str, label: str, fn):
        out = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with self.guard(label):
            out = fn()
        wall1, cpu = time.perf_counter(), time.process_time() - cpu0
        self.ops.append((kind, label, wall1 - wall0, cpu, out))
        self.spans.append((wall0, wall1))
        if self.between is not None:
            self.between()
        return out

    @contextlib.contextmanager
    def guard(self, label: str):
        """Count an exception or a mismatch inside the block as one failed
        operation, never a crash."""
        try:
            yield
        except Mismatch as exc:
            self.fail(label, str(exc))
        except (Exception, SystemExit):
            self.fail(label, traceback.format_exc(limit=3))

    def fail(self, label: str, why: str) -> None:
        self.failures.setdefault(label, why)

    @property
    def wall_s(self) -> float:
        return sum(op[2] for op in self.ops)

    def call_ms(self) -> list[float]:
        return [op[2] * 1000 for op in self.ops if op[0] == "call"]

    def digest(self) -> str:
        h = hashlib.sha256()
        for _, label, _, _, out in self.ops:
            h.update(f"{label}\0{out!r}\0".encode())
        return h.hexdigest()


# -- gch-direct -------------------------------------------------------------------

# (algebra, weight, ell) -> sha256 of the canonical JSON output, recorded from
# the seed commit.  D6 2w4 ell=2 (19 s a job) and D7 2w5 ell=2 (418 s) are
# left out: a pass must fit a run.
GCH_CASES = {
    ("D5", "0,0,3,0,0", 3): "931bfeb98bc8bc7d3bac031809b0be899041f686f1cc412ff7ff61a9364ce804",
    ("B4", "0,0,3,0", 2): "04eb4635f121ad431698cbe980f4886b345c9aee84650f3fe3da242587dd192a",
    ("C4", "0,0,3,0", 2): "68a2850197452dbed6ed2138b991f2991e3db98ed83ab0ba0fef51d3063d2a09",
    ("B5", "0,0,2,0,0", 2): "85a21fe028e47f37f264007599f4a569e9ec9855813380ec56919056314983a4",
    ("C5", "0,0,2,0,0", 2): "74d42d3b95060014c85fe609ad12d8c16855634993f2db4612115f1937f2ed83",
}


class GchDirect:
    """Cold ``krchar gch --format json`` jobs through ``cli.main``; fixed input."""

    def properties(self) -> dict:
        return {"cases": [f"{a} {w} ell={ell}" for a, w, ell in GCH_CASES]}

    def run_pass(self, p: Pass) -> None:
        for algebra, weight, ell in GCH_CASES:
            p.tensor_computed += _fresh_caches()
            argv = ["gch", "--algebra", algebra, "--weight", weight,
                    "--ell", str(ell), "--format", "json"]
            p.run("call", f"gch {algebra} {weight} ell={ell}", lambda: _cli(argv))

    def check(self, p: Pass) -> None:
        for (_, label, _, _, out), golden in zip(p.ops, GCH_CASES.values()):
            if out is None:
                continue
            with p.guard(label):
                doc = json.loads(out)
                canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
                if hashlib.sha256(canon.encode()).hexdigest() != golden:
                    raise Mismatch("output differs from the recorded golden character")
                if not all(e["mult"] > 0 for e in doc["entries"]):
                    raise Mismatch("character is not genuine")


# -- verify-identities ---------------------------------------------------------------

def _reduced_matrix(full):
    """The acceptance matrix cut to D4 (every weight, ell <= 3) and the
    fundamental weights of D5.  The full matrix takes about 40 s a pass, too
    long to repeat inside one run; the cut keeps every check and every code
    path it reaches, including the per-weight-psi recursion."""

    def matrix():
        for rs, lam, ell in full():
            if rs.rank == 4 or max(lam) <= 1:
                yield rs, lam, ell

    return matrix


def _check_label(check) -> str:
    return check.__name__.removeprefix("check_")


class VerifyIdentities:
    """The checks of ``verify.SUITES["identities"]`` in order, caches shared
    across checks within a pass; fixed input."""

    def __init__(self):
        verify.acceptance_matrix = _reduced_matrix(verify.acceptance_matrix)
        self.checks = list(verify.SUITES["identities"])

    def properties(self) -> dict:
        cases = [f"{rs.lie_type} {_weight_text(lam)} ell={ell}"
                 for rs, lam, ell in verify.acceptance_matrix()]
        return {"checks": [c.__name__ for c in self.checks],
                "acceptance_matrix": cases}

    def run_pass(self, p: Pass) -> None:
        p.tensor_computed += _fresh_caches()
        for check in self.checks:
            p.run("call", _check_label(check), check)

    def check(self, p: Pass) -> None:
        for _, label, _, _, res in p.ops:
            if res is not None:
                with p.guard(label):
                    if not res.ok:
                        raise Mismatch(f"check failed: {res.detail}")


# -- tensor-store ----------------------------------------------------------------------

TENSOR_TYPES = ([LieType("A", n) for n in range(2, 6)] + [LieType("B", n) for n in range(2, 6)]
                + [LieType("C", n) for n in range(2, 6)] + [LieType("D", n) for n in (4, 5)])
HEAVY_TYPES = (LieType("A", 5), LieType("D", 5))
WARM_CALLS = 60         # warm CLI calls per pass; p83 then has 10 calls beyond it
NEW_CALLS = 9           # of which this many ask for a pair not yet in the store
STORE_METRICS = ("cold_s", "warm_s", "warm_call_p50_ms", "warm_call_tail_ms",
                 "bytes", "warm_hit_share")


def _small_weights(rank: int, total: int):
    """Dominant weights whose coordinates sum to ``total``."""
    out = set()
    for nodes in itertools.combinations_with_replacement(range(rank), total):
        w = [0] * rank
        for i in nodes:
            w[i] += 1
        out.add(tuple(w))
    return sorted(out)


def _tensor_pairs(t: LieType):
    """(cold, spare) pairs of weights of ``t``.

    Cold is a fixed set, so the store (which every warm call reads and
    rewrites whole) has the same size for every seed:

    * in rank <= 4, every pair of weights with coordinate sum 1 or 2: many
      small decompositions, which make most of the store;
    * in the types of ``HEAVY_TYPES``, the tensor square of every weight
      with coordinate sum 3: few large Racah-Speiser runs, which make most of
      the cold phase's time.

    Spare is the pairs of weights with coordinate sum 1 or 2 in rank 5 whose
    smaller factor has dimension <= 200, so that a new pair costs about what
    a stored one does."""
    small = _small_weights(t.rank, 1) + _small_weights(t.rank, 2)
    pairs = list(itertools.combinations_with_replacement(small, 2))
    if t.rank <= 4:
        return [(t, lam, nu) for lam, nu in pairs], []
    rs = krchar.build_root_system(t)
    cold = [(t, lam, lam) for lam in _small_weights(t.rank, 3)] if t in HEAVY_TYPES else []
    spare = [(t, lam, nu) for lam, nu in pairs
             if min(krchar.weyl_dim(rs, lam), krchar.weyl_dim(rs, nu)) <= 200]
    return cold, spare


def _tail(values) -> float:
    """The highest sample with at least ten samples above it: with the 60
    warm calls of a pass, the 83rd percentile."""
    return sorted(values)[max(0, len(values) - 11)]


class TensorStore:
    """Cold: a sweep of ``tensor_decompose`` pairs in seeded order, then
    ``cache_store``.  Warm: ``krchar tensor --cache`` calls through
    ``cli.main``, each from process-cold memo tables; seeded picks of stored
    pairs (reads) and a seeded few new pairs (writes that grow the store)."""

    def __init__(self, seed: int, tmp_root: str):
        rng = random.Random(seed)
        self.tmp_root = tmp_root
        self.cold, spare = [], []
        for t in TENSOR_TYPES:
            cold, extra = _tensor_pairs(t)
            self.cold += cold
            spare += extra
        rng.shuffle(self.cold)
        new = rng.sample(spare, NEW_CALLS)
        hits = rng.sample(self.cold, WARM_CALLS - NEW_CALLS)
        self.warm = [(pair, False) for pair in new] + [(pair, True) for pair in hits]
        rng.shuffle(self.warm)
        self.reference: dict = {}  # pair -> output of the command run without a store

    def properties(self) -> dict:
        pairs = self.cold + [pair for pair, stored in self.warm if not stored]
        hist = collections.Counter(f"{t.family}{t.rank}" for t, _, _ in pairs)
        return {"cold_pairs": len(self.cold), "warm_calls": len(self.warm),
                "warm_new_pairs": NEW_CALLS, "distinct_pairs": len(pairs),
                "family_rank_histogram": dict(sorted(hist.items())),
                "warm_tail_percentile": 100 * (len(self.warm) - 10) / len(self.warm)}

    def run_pass(self, p: Pass) -> None:
        workdir = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            store = os.path.join(workdir, "tensor.store")
            p.tensor_computed += _fresh_caches()
            cache = krchar.active_tensor_cache()
            for t, lam, nu in self.cold:
                rs = krchar.build_root_system(t)
                p.run("cold", f"tensor {t.family}{t.rank} {lam} {nu}",
                      lambda: dict(krchar.tensor_decompose(rs, lam, nu).entries))
            p.run("cold", "cache_store", lambda: krchar.cache_store(store, cache))
            cold_s = p.wall_s
            computed = []
            for (t, lam, nu), _ in self.warm:
                p.tensor_computed += _fresh_caches()
                argv = self._argv(t, lam, nu) + ["--cache", store]
                p.run("call", f"warm {t.family}{t.rank} {lam} {nu}", lambda: _cli(argv))
                computed.append(krchar.active_tensor_cache().computed)
            warm_ms = p.call_ms()
            p.info = {
                "cold_s": cold_s,
                "warm_s": p.wall_s - cold_s,
                "warm_call_p50_ms": statistics.median(warm_ms),
                "warm_call_tail_ms": _tail(warm_ms),
                "bytes": os.path.getsize(store),
                "warm_hit_share": sum(c == 0 for c in computed) / len(computed),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    @staticmethod
    def _argv(t: LieType, lam, nu) -> list[str]:
        return ["tensor", "--algebra", f"{t.family}{t.rank}", "--weight", _weight_text(lam),
                "--weight", _weight_text(nu), "--format", "json"]

    def check(self, p: Pass) -> None:
        """Every cold result and warm output passes the dimension identity;
        every warm output equals, byte for byte, the same command run cold
        without a store, and a stored pair's output matches its cold sweep
        result.  The command without a store runs once a pair per run."""
        cold = {}
        for pair, (_, label, _, _, out) in zip(self.cold, p.ops):
            if out is not None:
                cold[pair] = out
                with p.guard(label):
                    self._check_dimension(pair, out)
        for (pair, stored), (_, label, _, _, out) in zip(
                self.warm, p.ops[len(self.cold) + 1:]):
            if out is None:
                continue
            with p.guard(label):
                if pair not in self.reference:
                    _fresh_caches()
                    self.reference[pair] = _cli(self._argv(*pair))
                if out != self.reference[pair]:
                    raise Mismatch("warm output differs from the cold output")
                got = {tuple(e["weight"]): e["mult"] for e in json.loads(out)["entries"]}
                if stored and got != cold.get(pair):
                    raise Mismatch("warm output differs from the cold sweep result")
                self._check_dimension(pair, got)

    @staticmethod
    def _check_dimension(pair, mults) -> None:
        t, lam, nu = pair
        rs = krchar.build_root_system(t)
        if any(m <= 0 for m in mults.values()):
            raise Mismatch("non-positive multiplicity")
        total = sum(m * krchar.weyl_dim(rs, mu) for mu, m in mults.items())
        if total != krchar.weyl_dim(rs, lam) * krchar.weyl_dim(rs, nu):
            raise Mismatch("sum of m * dim V(mu) differs from dim V(lam) * dim V(nu)")


# -- running a workload ---------------------------------------------------------------

# Root systems each workload uses, built before its timed phase; run.py times
# this step as set-up.
ALGEBRAS = {
    "gch-direct": sorted({case[0] for case in GCH_CASES}),
    "verify-identities": ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                          + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]),
    "tensor-store": [f"{t.family}{t.rank}" for t in TENSOR_TYPES],
}


def make_workload(name: str, seed: int, tmp_root: str):
    if name == "gch-direct":
        return GchDirect()
    if name == "verify-identities":
        return VerifyIdentities()
    return TensorStore(seed, tmp_root)


class SetupClock:
    """Times set-up: interpreter start, ``import krchar`` and the workload's
    root systems built, in a child process (``setup_child.py``) that stops
    there.  A sample is the time from the spawn to the child's end at
    reference speed (see ``speed.py``), as the child, which samples its own
    speed, works it out.

    :meth:`tick` is called after every operation, outside its timing, and
    times one start for every ``SETUP_INTERVAL_S`` of workload time since
    the last start; the samples then spread over the whole run, as the
    passes do.  The parent's speed sampling pauses while a child runs."""

    def __init__(self, workload: str, sampler: SpeedSampler):
        self.script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
        self.algebras = ALGEBRAS[workload]
        self.sampler = sampler
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in tick()
        self._start()  # untimed: writes the bytecode caches
        self.owed = 0.0  # workload time not yet covered by a start
        self.last = time.perf_counter()

    def _start(self) -> float:
        """Run one set-up child to completion and return its time at
        reference speed.  The wait blocks; a timer kills a child that
        hangs."""
        argv = [sys.executable, self.script, repr(time.perf_counter()), *self.algebras]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
            watchdog.join()
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        return float(out)

    def tick(self) -> None:
        now = time.perf_counter()
        self.owed += now - self.last
        if self.owed >= SETUP_INTERVAL_S:
            self.sampler.stop()
            while self.owed >= SETUP_INTERVAL_S:
                self.samples.append(self._start())
                self.owed -= SETUP_INTERVAL_S
            self.sampler.start()
        self.last = time.perf_counter()
        self.spent += self.last - now

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.samples.append(self._start())
        return statistics.median(self.samples)


def one_pass(workload, tracer: Tracer | None = None, between=None) -> Pass:
    p = Pass(between)
    p.tensor_computed = -krchar.active_tensor_cache().computed
    try:
        if tracer is not None:
            tracer.install()
        workload.run_pass(p)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.tensor_computed += krchar.active_tensor_cache().computed
    if tracer is not None and tracer.missing:
        p.fail("tracer", "not found in krchar, so unmeasured: " + ", ".join(tracer.missing))
    workload.check(p)
    return p


def per_op_median(times: list[list[float]]) -> float:
    """The time of one pass, operation by operation: the sum over the
    operations of each one's median over the passes (``times`` holds one
    list of operation times a pass)."""
    return sum(statistics.median(op) for op in zip(*times))


def timed_run(workload_name: str, workload, seconds: float) -> tuple[dict, dict, list[Pass]]:
    """``MIN_PASSES`` whole passes, then more while the next one is expected
    to end within ``seconds`` of workload time (set-up samples do not count,
    so they cost no pass), with the machine's speed sampled throughout.
    Metrics are medians over the passes, and over the set-up samples taken
    between their operations.  The raw wall and CPU times go with the
    properties."""
    sampler = SpeedSampler()
    clock = SetupClock(workload_name, sampler)
    sampler.start()
    try:
        passes, lengths = [], []
        start = time.perf_counter()
        while True:
            t0, spent0 = time.perf_counter(), clock.spent
            passes.append(one_pass(workload, between=clock.tick))
            lengths.append(time.perf_counter() - t0 - (clock.spent - spent0))
            elapsed = time.perf_counter() - start - clock.spent
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(lengths) > seconds:
                break
    finally:
        sampler.stop()
    metrics = {
        "setup_s": clock.median(),
        "wall_ref_s": per_op_median([[sampler.at_reference(*span) for span in p.spans]
                                     for p in passes]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"raw_wall_s": per_op_median([[op[2] for op in p.ops] for p in passes]),
           "raw_cpu_s": per_op_median([[op[3] for op in p.ops] for p in passes])}
    return metrics, raw, passes


def traced_run(workload) -> tuple[dict, list[Pass]]:
    """An untraced pass, two traced passes whose counts must agree, and a
    second untraced pass, so that drift in machine speed during the run
    weighs on both sides of ``trace_overhead_ratio`` alike.  Self times are
    the median of the two traced passes; per-check and store timings the
    median of the two untraced ones."""
    plain = [one_pass(workload)]
    tracers = [Tracer(), Tracer()]
    traced = [one_pass(workload, tr) for tr in tracers]
    plain.append(one_pass(workload))
    if tracers[0].counts() != tracers[1].counts():
        traced[1].fail("trace self-test", "two traced passes gave different counts")
    first, second = (tr.metrics() for tr in tracers)
    metrics = {name: statistics.median([value, second[name]]) if name.endswith(".self_s")
               else value for name, value in first.items()}
    metrics["memo.tensor.computed"] = traced[0].tensor_computed
    for check in verify.SUITES["identities"]:
        metrics[f"verify.{_check_label(check)}.s"] = 0.0
    if isinstance(workload, VerifyIdentities):
        for ops in zip(*(p.ops for p in plain)):
            metrics[f"verify.{ops[0][1]}.s"] = statistics.median(op[2] for op in ops)
    for key in STORE_METRICS:
        metrics[f"store.{key}"] = statistics.median(p.info.get(key, 0) for p in plain)
    metrics["trace_overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                       / statistics.median(p.wall_s for p in plain))
    return metrics, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(ALGEBRAS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", help="directory for the store files")
    args = ap.parse_args(argv)

    for label in ALGEBRAS[args.workload]:
        krchar.build_root_system(label)
    workload = make_workload(args.workload, args.seed, args.tmp)
    raw = {}
    if args.trace:
        metrics, passes = traced_run(workload)
    else:
        metrics, raw, passes = timed_run(args.workload, workload, args.seconds)

    digests = sorted({p.digest() for p in passes})
    if len(digests) != 1:
        passes[-1].fail("output self-test", "outputs differ between passes")
    for p in passes:
        for label, why in p.failures.items():
            print(f"FAIL {label}: {why}", file=sys.stderr)
    properties = workload.properties()
    properties.update(passes=len(passes), calls_per_pass=len(passes[0].call_ms()),
                      output_sha256=digests, **raw)
    if passes[0].info:
        properties["store_per_pass"] = [p.info for p in passes]
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p.ops) for p in passes),
        "failed": failed,
        "metrics": metrics,
        "properties": properties,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
