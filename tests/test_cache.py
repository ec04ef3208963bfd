"""Persistent multiplicity-cache tests: round trips, corruption handling, the
warm-cache guarantee that no tensor decomposition is recomputed, and graded
characters that never reach the store, iso_decompose or a character product."""

import os

import pytest

from krchar import repchar
from krchar.cache import cache_load, cache_store
from krchar.graded import ext_dim, gch_N
from krchar.poset import LambdaPoint
from krchar.repchar import (
    ModuleSpec,
    TensorCache,
    active_tensor_cache,
    clear_memo_caches,
    set_active_tensor_cache,
    tensor_decompose,
)
from krchar.rootsys import build_root_system, omega_weight


@pytest.fixture
def fresh_cache():
    previous = set_active_tensor_cache(TensorCache())
    clear_memo_caches()
    yield active_tensor_cache()
    set_active_tensor_cache(previous)
    clear_memo_caches()


def test_empty_file_gives_empty_cache(tmp_path, fresh_cache):
    path = tmp_path / "mults.cache"
    path.write_text("")
    assert cache_load(str(path), fresh_cache) == 0
    assert len(fresh_cache) == 0


def test_missing_file_gives_empty_cache(tmp_path, fresh_cache):
    assert cache_load(str(tmp_path / "absent.cache"), fresh_cache) == 0


def test_store_load_round_trip(tmp_path, fresh_cache):
    rs = build_root_system("D4")
    tensor_decompose(rs, omega_weight(4, (2, 1)), omega_weight(4, (2, 2)))
    tensor_decompose(rs, omega_weight(4, (1, 1)), omega_weight(4, (1, 1)))
    a1 = build_root_system("A1")
    tensor_decompose(a1, (2,), (3,))
    before = dict(fresh_cache.items())
    path = tmp_path / "mults.cache"
    assert cache_store(str(path), fresh_cache) == len(before)

    other = TensorCache()
    assert cache_load(str(path), other) == len(before)
    assert dict(other.items()) == before


def test_corrupt_lines_are_skipped_with_warning(tmp_path, fresh_cache, capsys):
    rs = build_root_system("A1")
    tensor_decompose(rs, (1,), (1,))
    tensor_decompose(rs, (1,), (2,))
    path = tmp_path / "mults.cache"
    cache_store(str(path), fresh_cache)
    header, first, second = path.read_text().splitlines()

    # Garbage before the header: the whole file is ignored.
    path.write_text("this line is garbage\n" + "\n".join([header, first, second]) + "\n")
    assert cache_load(str(path), TensorCache()) == 0
    assert "no krchar-tensor-store version 1 header" in capsys.readouterr().err

    # Garbage after the header: only that line is dropped.
    path.write_text("\n".join([header, first, "this line is garbage", second]) + "\n")
    other = TensorCache()
    assert cache_load(str(path), other) == 2
    err = capsys.readouterr().err
    assert err.count("warning: skipping corrupt cache line") == 1
    assert "line 3" in err
    assert dict(other.items()) == dict(fresh_cache.items())


# Each tampered line breaks exactly one of the per-line checks.
_TAMPERED = {
    "rank": '["A",2,[1],[1],[[[0],1],[[2],1]]]',
    "order": '["A",1,[2],[1],[[[1],1],[[3],1]]]',
    "non-dominant": '["A",1,[1],[1],[[[-2],1],[[2],1]]]',
    "float weight": '["A",1,[1.0],[1],[[[0],1],[[2],1]]]',
    "zero multiplicity": '["A",1,[1],[1],[[[0],1],[[2],1],[[4],0]]]',
    "float multiplicity": '["A",1,[1],[1],[[[0],1.0],[[2],1]]]',
    "bool multiplicity": '["A",1,[1],[1],[[[0],true],[[2],1]]]',
    "repeated weight": '["A",1,[1],[1],[[[0],1],[[0],1]]]',
    "top constituent": '["A",1,[1],[1],[[[0],4]]]',
    "dimension identity": '["A",1,[1],[1],[[[0],2],[[2],1]]]',
    "family": '["E",1,[1],[1],[[[0],1],[[2],1]]]',
    "shape": '["A",1,[1],[1]]',
}


@pytest.mark.parametrize("check", sorted(_TAMPERED))
def test_each_line_check_drops_a_tampered_line(tmp_path, fresh_cache, capsys, check):
    tensor_decompose(build_root_system("A1"), (1,), (2,))
    path = tmp_path / "mults.cache"
    cache_store(str(path), fresh_cache)
    path.write_text(path.read_text() + _TAMPERED[check] + "\n")

    other = TensorCache()
    assert cache_load(str(path), other) == 1
    assert dict(other.items()) == dict(fresh_cache.items())
    assert "skipping corrupt cache line 3" in capsys.readouterr().err


def test_stored_lines_are_sorted_json_with_a_header(tmp_path, fresh_cache):
    rs = build_root_system("A1")
    tensor_decompose(rs, (2,), (1,))
    tensor_decompose(rs, (1,), (1,))
    path = tmp_path / "mults.cache"
    assert cache_store(str(path), fresh_cache) == 2
    assert path.read_text().splitlines() == [
        '{"format": "krchar-tensor-store", "version": 1}',
        '["A",1,[1],[1],[[[0],1],[[2],1]]]',
        '["A",1,[1],[2],[[[1],1],[[3],1]]]',
    ]


def test_store_is_atomic_rename(tmp_path, fresh_cache):
    rs = build_root_system("A1")
    tensor_decompose(rs, (1,), (2,))
    path = tmp_path / "mults.cache"
    cache_store(str(path), fresh_cache)
    cache_store(str(path), fresh_cache)  # overwrite in place
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".krchar-cache-")]
    assert leftovers == []


def _tensor_sweep():
    """Every D4 and D5 pair of weights with coordinate sum 1 (plus 2*omega_3)."""
    out = {}
    for label in ("D4", "D5"):
        rs = build_root_system(label)
        weights = [omega_weight(rs.rank, (i, 1)) for i in range(1, rs.rank + 1)]
        weights.append(omega_weight(rs.rank, (3, 2)))
        for a, lam in enumerate(weights):
            for nu in weights[a:]:
                out[(label, lam, nu)] = tensor_decompose(rs, lam, nu)
    return out


def test_warm_cache_avoids_all_tensor_recomputation(tmp_path, fresh_cache):
    cold = _tensor_sweep()
    assert fresh_cache.computed == len(cold)
    path = tmp_path / "mults.cache"
    cache_store(str(path), fresh_cache)

    warm = TensorCache()
    set_active_tensor_cache(warm)
    clear_memo_caches()
    cache_load(str(path), warm)
    assert _tensor_sweep() == cold  # cache only changes timing, never values
    assert warm.computed == 0  # every decomposition served from disk


def test_graded_characters_bypass_iso_decompose_and_the_store(monkeypatch, fresh_cache):
    def refuse(*args, **kwargs):
        raise AssertionError("iso_decompose reached from a production path")

    convolve = repchar.WeightChar.__mul__

    def scale_only(self, other):
        # Integer scaling stays; the convolution of two characters is the
        # oracle's alone.
        if isinstance(other, repchar.WeightChar):
            raise AssertionError("two characters multiplied on a production path")
        return convolve(self, other)

    monkeypatch.setattr(repchar, "iso_decompose", refuse)
    monkeypatch.setattr(repchar.WeightChar, "__mul__", scale_only)
    monkeypatch.setattr(repchar.WeightChar, "__rmul__", scale_only)
    assert sum((repchar.freudenthal(build_root_system("A1"), (1,)) * 2).entries.values()) == 4
    rs = build_root_system("D5")
    lam = omega_weight(5, (3, 2))
    g = gch_N(rs, lam, 3)
    assert g.entries[((0,) * 5, (1, 1, 1))] == 1
    ms = ModuleSpec.adjoint(rs, 2)
    source = LambdaPoint(lam, (0, 0))
    assert ext_dim(rs, ms, source, LambdaPoint((0,) * 5, (2, 1)), 3) == 1
    assert fresh_cache.computed == 0
