"""Native C kernels vs pure-Python fallbacks.

The compiled kernels are an optional accelerator: every routing
decision they make must match the pure-Python chunk loops bit for bit.
These tests force both implementations (via ``REPRO_NO_NATIVE``) and
compare; they skip where no compiler is available.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro._native import build as native_build
from repro._native import get_kernels
from repro.core.engine import (
    InterleavedRouter,
    bind_route_chunk,
    greedy_route_chunk,
    hashed_greedy_route_chunk,
    least_loaded_chunk,
)
from repro.hashing import HashFamily
from repro.hashing.families import family_from_seeds
from repro.partitioning.base import MASKED_LOAD
from repro.partitioning.jbsq import JoinBoundedShortestQueue
from repro.partitioning.pkg import PartialKeyGrouping

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    get_kernels() is None, reason="no C compiler / native kernels unavailable"
)


@pytest.fixture
def forced_python(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert get_kernels() is None


def random_choices(m, d, num_workers, seed):
    return np.ascontiguousarray(
        np.random.default_rng(seed).integers(0, num_workers, size=(m, d)),
        dtype=np.int64,
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_greedy_route_native_matches_python(monkeypatch, d):
    choices = random_choices(7_000, d, 9, seed=d)
    native_loads = np.zeros(9, dtype=np.int64)
    native_out = greedy_route_chunk(choices, native_loads)

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    python_loads = np.zeros(9, dtype=np.int64)
    python_out = greedy_route_chunk(choices, python_loads)

    assert np.array_equal(native_out, python_out)
    assert np.array_equal(native_loads, python_loads)


def test_least_loaded_native_matches_python(monkeypatch):
    native_loads = np.array([3, 0, 5, 0, 1], dtype=np.int64)
    native_out = least_loaded_chunk(4_000, native_loads)

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    python_loads = np.array([3, 0, 5, 0, 1], dtype=np.int64)
    python_out = least_loaded_chunk(4_000, python_loads)

    assert np.array_equal(native_out, python_out)
    assert np.array_equal(native_loads, python_loads)


@pytest.mark.parametrize("with_choices", [True, False])
def test_bind_route_native_matches_python(monkeypatch, with_choices):
    rng = np.random.default_rng(4)
    codes = np.ascontiguousarray(rng.integers(0, 300, size=5_000), dtype=np.int64)
    choices = random_choices(5_000, 2, 6, seed=9) if with_choices else None

    native_table = np.full(300, -1, dtype=np.int64)
    native_loads = np.zeros(6, dtype=np.int64)
    native_out = bind_route_chunk(codes, choices, 6, native_table, native_loads)

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    python_table = np.full(300, -1, dtype=np.int64)
    python_loads = np.zeros(6, dtype=np.int64)
    python_out = bind_route_chunk(codes, choices, 6, python_table, python_loads)

    assert np.array_equal(native_out, python_out)
    assert np.array_equal(native_table, python_table)
    assert np.array_equal(native_loads, python_loads)


@pytest.mark.parametrize("mode", ["local", "global", "probing"])
def test_interleaved_native_matches_python(monkeypatch, mode):
    choices = random_choices(6_000, 2, 5, seed=1)
    sources = np.ascontiguousarray(np.arange(6_000) % 3, dtype=np.int64)
    times = np.arange(6_000, dtype=np.float64)
    period = 400.0 if mode == "probing" else 0.0

    native = InterleavedRouter(3, 5, mode, period)
    native_out = np.concatenate(
        [
            native.route(choices[i : i + 1_000], sources[i : i + 1_000],
                         times[i : i + 1_000] if mode == "probing" else None)
            for i in range(0, 6_000, 1_000)
        ]
    )

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    python = InterleavedRouter(3, 5, mode, period)
    python_out = np.concatenate(
        [
            python.route(choices[i : i + 1_000], sources[i : i + 1_000],
                         times[i : i + 1_000] if mode == "probing" else None)
            for i in range(0, 6_000, 1_000)
        ]
    )

    assert np.array_equal(native_out, python_out)
    assert np.array_equal(native.true_loads, python.true_loads)
    if native.views is not None:
        assert np.array_equal(native.views, python.views)
    if native.next_probe is not None:
        assert np.array_equal(native.next_probe, python.next_probe)


# -- hash kernels against the numpy splitmix64_array reference --------------

HASH_DTYPES = [np.int8, np.int32, np.int64, np.uint32, np.uint64]
EDGE_KEYS = [0, -1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1]


def hash_keys(dtype, m, seed=0):
    """``m`` keys of ``dtype``: its representable edge keys, then noise."""
    info = np.iinfo(dtype)
    edges = [k for k in EDGE_KEYS if info.min <= k <= info.max]
    noise = np.random.default_rng(seed).integers(
        info.min, info.max, size=m, dtype=dtype, endpoint=True
    )
    return np.concatenate([np.array(edges, dtype=dtype), noise])[:m]


def hash_families(d):
    return [
        HashFamily(size=d, seed=5),
        family_from_seeds([0, 2**64 - 1, -7, 2**40][:d]),
    ]


def seeded_loads(num_workers):
    """Loads with ties and a masked slot (when there is room for one)."""
    loads = np.random.default_rng(num_workers).integers(
        0, 3, size=num_workers, dtype=np.int64
    )
    if num_workers > 1:
        loads[num_workers // 2] = MASKED_LOAD
    return loads


@pytest.mark.parametrize("dtype", HASH_DTYPES)
@pytest.mark.parametrize("m", [0, 1, 65_539])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("num_workers", [1, 2, 7, 1000])
def test_hash_kernels_match_numpy_reference(
    monkeypatch, dtype, m, d, num_workers
):
    keys = hash_keys(dtype, m)
    families = hash_families(d)

    def run():
        results = []
        for family in families:
            loads = seeded_loads(num_workers)
            out = hashed_greedy_route_chunk(family, keys, loads)
            results.append(
                (
                    family.choice_matrix(keys, num_workers),
                    family[0].bucket_array(keys, num_workers),
                    out,
                    loads,
                )
            )
        return results

    native = run()
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    reference = run()

    for got, want in zip(native, reference):
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == np.int64
            assert np.array_equal(got_array, want_array)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jbsq_fused_route_matches_numpy_reference(monkeypatch, d):
    def run():
        jbsq = JoinBoundedShortestQueue(7, num_choices=d, seed=11)
        jbsq.outstanding[:] = seeded_loads(7)
        out = np.concatenate(
            [jbsq.route_chunk(np.zeros(size)) for size in (0, 1, 4_999, 5_000)]
        )
        return out, jbsq.outstanding.copy()

    native_out, native_outstanding = run()
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    python_out, python_outstanding = run()

    assert np.array_equal(native_out, python_out)
    assert np.array_equal(native_outstanding, python_outstanding)


def test_fused_route_leaves_non_integer_keys_to_numpy():
    """Float keys are hashed as keys, never truncated to int64."""
    family = HashFamily(size=2, seed=1)
    keys = np.array([1.5, 2.0, 1.5, 7.25, 1.0])
    pkg = PartialKeyGrouping(3, hash_family=family)
    expected = [pkg.route(k) for k in keys]
    out = hashed_greedy_route_chunk(family, keys, np.zeros(3, dtype=np.int64))
    assert out.tolist() == expected


class TestArgumentGuards:
    """The ctypes layer refuses arrays C cannot read safely."""

    def test_wrong_dtype_is_a_type_error(self):
        choices = random_choices(10, 2, 4, seed=0)
        with pytest.raises(TypeError, match="int64"):
            get_kernels().greedy_route(
                choices, np.zeros(4, dtype=np.int32), np.empty(10, np.int64)
            )

    def test_strided_array_is_a_value_error(self):
        choices = random_choices(10, 2, 4, seed=0)
        loads = np.zeros(8, dtype=np.int64)[::2]
        with pytest.raises(ValueError, match="contiguous"):
            get_kernels().greedy_route(choices, loads, np.empty(10, np.int64))

    def test_float_guard(self):
        with pytest.raises(TypeError, match="float64"):
            native_build.NativeKernels._f64(np.zeros(3, dtype=np.float32))

    def test_hash_kernels_refuse_zero_buckets_and_bad_out(self):
        kernels = get_kernels()
        keys = np.arange(5, dtype=np.int64)
        mixes = HashFamily(size=2).mixes
        with pytest.raises(ValueError, match="bucket count"):
            kernels.hash_choices(keys, mixes, 0, np.empty((5, 2), np.int64))
        with pytest.raises(ValueError, match="shape"):
            kernels.hash_choices(keys, mixes, 3, np.empty((5, 1), np.int64))
        with pytest.raises(ValueError, match="bucket count"):
            kernels.hash_greedy_route(
                keys, mixes, np.empty(0, np.int64), np.empty(5, np.int64)
            )

    def test_lindley_and_sampler_refuse_bad_shapes(self):
        kernels = get_kernels()
        times = np.ones(3, dtype=np.float64)
        free, busy = np.zeros(2), np.zeros(2)
        with pytest.raises(ValueError, match="workers outside"):
            kernels.lindley(np.array([0, 2, 1]), times, times, 0, free, busy)
        with pytest.raises(ValueError, match="one arrival"):
            kernels.lindley(np.array([0, 1]), times, times, 0, free, busy)
        with pytest.raises(ValueError, match="warmup"):
            kernels.lindley(np.array([0, 1, 1]), times, times, 4, free, busy)
        cdf, guide = np.array([0.5, 1.0]), np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="slots"):
            kernels.cdf_sample(times, cdf, guide, np.empty(2, np.int64))
        with pytest.raises(ValueError, match="non-empty"):
            kernels.cdf_sample(times, cdf, guide[:0], np.empty(3, np.int64))

    def test_guards_survive_optimised_python(self):
        code = (
            "import numpy as np\n"
            "from repro._native import get_kernels\n"
            "k = get_kernels()\n"
            "try:\n"
            "    k.least_loaded(3, np.zeros(8, np.int64)[::2], np.empty(3, np.int64))\n"
            "except ValueError:\n"
            "    print('guarded')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert result.stdout.strip() == "guarded", result.stderr


def test_build_artifacts_are_content_addressed():
    path = native_build._shared_object_path()
    assert path.name.startswith("_kernels_")
    assert path.suffix == ".so"
    assert path.exists()  # built by the session that imported the kernels


def test_disable_env_round_trip(monkeypatch, forced_python):
    monkeypatch.delenv("REPRO_NO_NATIVE")
    assert get_kernels() is not None
