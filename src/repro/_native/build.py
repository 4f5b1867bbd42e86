"""On-demand compilation and loading of the C routing kernels.

No build system, no new dependencies: when a system C compiler exists,
``kernels.c`` is compiled once into ``_kernels_<hash>.so`` next to this
module (hash over source, platform, compiler and flags, so stale
binaries are never reused) and bound through :mod:`ctypes`.  When compilation is
impossible -- no compiler, read-only checkout, sandboxed subprocess --
:func:`get_kernels` returns ``None`` and callers use the pure-Python
chunk loops, which are decision-identical.

Set ``REPRO_NO_NATIVE=1`` to force the pure-Python paths (used by the
equivalence tests to compare both implementations).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NativeKernels", "WordCountRun", "get_kernels", "native_disabled"]

_SOURCE = Path(__file__).with_name("kernels.c")
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

#: compiler flags.  No FMA contraction: the float-accumulating kernels
#: must round like the Python they mirror, on every target.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: cached load result; False = not attempted yet
_KERNELS: object = False


def native_disabled() -> bool:
    """Whether the ``REPRO_NO_NATIVE`` escape hatch is set."""
    return os.environ.get("REPRO_NO_NATIVE", "").strip() not in ("", "0")


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build_tag() -> str:
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(platform.machine().encode())
    digest.update((sysconfig.get_platform() or "").encode())
    digest.update(" ".join([_find_compiler() or "", *_CFLAGS]).encode())
    return digest.hexdigest()[:16]


def _shared_object_path() -> Path:
    return _SOURCE.with_name(f"_kernels_{_build_tag()}.so")


def _compile(compiler: str, target: Path) -> bool:
    """Compile kernels.c to ``target`` atomically; True on success."""
    try:
        fd, tmp_name = tempfile.mkstemp(
            suffix=".so", prefix=".kernels-", dir=str(target.parent)
        )
        os.close(fd)
    except OSError:
        return False
    tmp = Path(tmp_name)
    cmd = [compiler, *_CFLAGS, str(_SOURCE), "-o", str(tmp)]
    try:
        result = subprocess.run(
            cmd, capture_output=True, timeout=120, check=False
        )
        if result.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


class NativeKernels:
    """ctypes bindings over the compiled routing kernels."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.repro_greedy_route.argtypes = [
            _INT64_P, ctypes.c_int64, ctypes.c_int64, _INT64_P, _INT64_P,
        ]
        lib.repro_hash_choices.argtypes = [
            _INT64_P, ctypes.c_int64, _UINT64_P, ctypes.c_int64,
            ctypes.c_int64, _INT64_P,
        ]
        lib.repro_hash_greedy_route.argtypes = [
            _INT64_P, ctypes.c_int64, _UINT64_P, ctypes.c_int64,
            ctypes.c_int64, _INT64_P, _INT64_P,
        ]
        lib.repro_least_loaded.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _INT64_P, _INT64_P,
        ]
        lib.repro_bind_route.argtypes = [
            _INT64_P, ctypes.c_int64, _INT64_P, ctypes.c_int64,
            ctypes.c_int64, _INT64_P, _INT64_P, _INT64_P,
        ]
        lib.repro_interleaved_route.argtypes = [
            _INT64_P, ctypes.c_int64, ctypes.c_int64, _INT64_P,
            ctypes.c_int64, _INT64_P, _INT64_P, _DOUBLE_P,
            ctypes.c_double, _DOUBLE_P, _INT64_P,
        ]
        lib.repro_counting_scatter.argtypes = [
            _INT64_P, ctypes.c_int64, ctypes.c_int64, _INT64_P, _INT64_P,
        ]
        lib.repro_running_stats.argtypes = [
            _DOUBLE_P, ctypes.c_int64, ctypes.c_int64, _DOUBLE_P,
        ]
        lib.repro_wordcount.argtypes = [ctypes.POINTER(_WordCountState)]
        lib.repro_wordcount.restype = ctypes.c_int64
        for fn in (
            lib.repro_greedy_route,
            lib.repro_hash_choices,
            lib.repro_hash_greedy_route,
            lib.repro_least_loaded,
            lib.repro_bind_route,
            lib.repro_interleaved_route,
            lib.repro_counting_scatter,
            lib.repro_running_stats,
        ):
            fn.restype = None

    @staticmethod
    def _pointer(array: np.ndarray, dtype: type, pointer_type):
        # Explicit checks, not asserts: ``python -O`` must not let a
        # wrong-dtype or strided array hand C a bad pointer.
        if not isinstance(array, np.ndarray) or array.dtype != dtype:
            raise TypeError(
                f"native kernels need a {np.dtype(dtype)} ndarray, got "
                f"{getattr(array, 'dtype', type(array).__name__)}"
            )
        if not array.flags.c_contiguous:
            raise ValueError("native kernels need a C-contiguous array")
        return array.ctypes.data_as(pointer_type)

    @classmethod
    def _i64(cls, array: np.ndarray):
        return cls._pointer(array, np.int64, _INT64_P)

    @classmethod
    def _u64(cls, array: np.ndarray):
        return cls._pointer(array, np.uint64, _UINT64_P)

    @classmethod
    def _f64(cls, array: Optional[np.ndarray]):
        if array is None:
            return None
        return cls._pointer(array, np.float64, _DOUBLE_P)

    def greedy_route(
        self, choices: np.ndarray, loads: np.ndarray, out: np.ndarray
    ) -> None:
        m, d = choices.shape
        self._lib.repro_greedy_route(
            self._i64(choices), m, d, self._i64(loads), self._i64(out)
        )

    def hash_choices(
        self, keys: np.ndarray, mixes: np.ndarray, num_workers: int,
        out: np.ndarray,
    ) -> None:
        """``out[i, j] = splitmix64(keys[i] ^ mixes[j]) % num_workers``."""
        self._check_hash_args(mixes, num_workers)
        if out.shape != (keys.size, mixes.size):
            raise ValueError(
                f"out has shape {out.shape}, expected "
                f"{(keys.size, mixes.size)}"
            )
        self._lib.repro_hash_choices(
            self._i64(keys), keys.size, self._u64(mixes), mixes.size,
            num_workers, self._i64(out),
        )

    def hash_greedy_route(
        self, keys: np.ndarray, mixes: np.ndarray, loads: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fused hash + Greedy-d over ``loads.size`` workers."""
        self._check_hash_args(mixes, loads.size)
        if out.size != keys.size:
            raise ValueError(f"out has {out.size} slots for {keys.size} keys")
        self._lib.repro_hash_greedy_route(
            self._i64(keys), keys.size, self._u64(mixes), mixes.size,
            loads.size, self._i64(loads), self._i64(out),
        )

    @staticmethod
    def _check_hash_args(mixes: np.ndarray, num_workers: int) -> None:
        # A zero bucket count would be a SIGFPE in C, and an empty
        # family would read past the mixes.
        if num_workers < 1:
            raise ValueError(f"bucket count must be >= 1, got {num_workers}")
        if mixes.size < 1:
            raise ValueError("hash kernels need at least one seed mix")

    def least_loaded(self, m: int, loads: np.ndarray, out: np.ndarray) -> None:
        self._lib.repro_least_loaded(
            m, loads.size, self._i64(loads), self._i64(out)
        )

    def bind_route(
        self,
        codes: np.ndarray,
        choices: Optional[np.ndarray],
        num_workers: int,
        table: np.ndarray,
        loads: np.ndarray,
        out: np.ndarray,
    ) -> None:
        d = choices.shape[1] if choices is not None else 0
        self._lib.repro_bind_route(
            self._i64(codes),
            codes.size,
            self._i64(choices) if choices is not None else None,
            d,
            num_workers,
            self._i64(table),
            self._i64(loads),
            self._i64(out),
        )

    def counting_scatter(
        self,
        dest: np.ndarray,
        base: int,
        cursors: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self._lib.repro_counting_scatter(
            self._i64(dest), dest.size, base, self._i64(cursors), self._i64(out)
        )

    def running_stats(
        self, values: np.ndarray, count: int, mean: float, maximum: float
    ) -> Tuple[float, float]:
        """``(mean, max)`` after recording ``values`` on top of ``count``
        samples with that mean and max, one sample at a time."""
        stats = np.array([mean, maximum], dtype=np.float64)
        self._lib.repro_running_stats(
            self._f64(values), values.size, count, self._f64(stats)
        )
        return float(stats[0]), float(stats[1])

    def wordcount(
        self, service: Sequence[float], num_keys: int, window: int, **timing: float
    ) -> "WordCountRun":
        """A single-spout word-count cluster of ``len(service)`` workers,
        ready to :meth:`~WordCountRun.run`; ``timing`` gives the seconds
        named in :data:`_WC_TIMING`."""
        if sorted(timing) != sorted(_WC_TIMING):
            raise TypeError(f"wordcount needs exactly the timings {_WC_TIMING}")
        return WordCountRun(self._lib, service, num_keys, window, timing)

    def interleaved_route(
        self,
        choices: np.ndarray,
        sources: np.ndarray,
        num_workers: int,
        views: Optional[np.ndarray],
        true_loads: np.ndarray,
        times: Optional[np.ndarray],
        probe_period: float,
        next_probe: Optional[np.ndarray],
        out: np.ndarray,
    ) -> None:
        m, d = choices.shape
        self._lib.repro_interleaved_route(
            self._i64(choices),
            m,
            d,
            self._i64(sources),
            num_workers,
            self._i64(views) if views is not None else None,
            self._i64(true_loads),
            self._f64(times),
            probe_period,
            self._f64(next_probe),
            self._i64(out),
        )


#: the seconds that configure a word-count run
_WC_TIMING = (
    "emit_cost", "hop", "period", "entry_cost", "warmup", "duration", "sample_period",
)


class _WordCountState(ctypes.Structure):
    """``repro_wc_state`` of kernels.c, field for field."""

    _fields_ = [
        (name, kind)
        for names, kind in (
            ("num_workers window num_keys", ctypes.c_int64),
            (" ".join(_WC_TIMING), ctypes.c_double),
            ("service keys routes", ctypes.c_void_p),
            ("key_pos key_len", ctypes.c_int64),
            ("heap fifo", ctypes.c_void_p),
            (
                "heap_len heap_cap fifo_head fifo_tail fifo_cap seq started",
                ctypes.c_int64,
            ),
            ("now", ctypes.c_double),
            ("emitting emitted in_flight", ctypes.c_int64),
            ("busy flush_req processed queue_head queue_tail", ctypes.c_void_p),
            ("slot_next slot_key slot_time", ctypes.c_void_p),
            ("free_slot", ctypes.c_int64),
            ("counts touched touched_len", ctypes.c_void_p),
            ("live", ctypes.c_int64),
            ("pair_key pair_count", ctypes.c_void_p),
            ("pair_len pair_cap pair_want", ctypes.c_int64),
            ("totals totals_order", ctypes.c_void_p),
            ("totals_len received mem_samples mem_peak", ctypes.c_int64),
            ("mem_sum", ctypes.c_double),
            ("sojourns", ctypes.c_void_p),
            ("sojourn_len sojourn_cap", ctypes.c_int64),
        )
        for name in names.split()
    ]


# repro_wordcount's return codes.
(
    _WC_DONE,
    _WC_NEED_KEYS,
    _WC_NEED_DRAIN,
    _WC_NEED_HEAP,
    _WC_NEED_FIFO,
    _WC_NEED_PAIRS,
) = range(6)
#: sizeof(repro_wc_event)
_WC_EVENT_BYTES = 48
#: sojourns handed to the caller per drain
_WC_SOJOURN_CHUNK = 1 << 14


class WordCountRun:
    """One native word-count run, every buffer of it a numpy array held here.

    :meth:`run` calls ``repro_wordcount`` until the simulated duration
    is over.  Whenever the kernel stops for input it is given it: the
    next routed key batch from ``next_batch``, a drained sojourn
    buffer, or a larger heap, hop FIFO or batch pool.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        service: Sequence[float],
        num_keys: int,
        window: int,
        timing: Dict[str, float],
    ):
        self._lib = lib
        workers = len(service)
        self._arrays: Dict[str, np.ndarray] = {}
        state = self._state = _WordCountState(
            num_workers=workers, window=window, num_keys=num_keys, **timing
        )
        self._attach("service", np.array(service, dtype=np.float64))
        for name in ("busy", "flush_req", "processed", "touched_len"):
            self._attach(name, np.zeros(workers, dtype=np.int64))
        for name in ("queue_head", "queue_tail"):
            self._attach(name, np.full(workers, -1, dtype=np.int64))
        slot_next = np.arange(1, window + 1, dtype=np.int64)
        slot_next[-1] = -1
        self._attach("slot_next", slot_next)
        self._attach("slot_key", np.zeros(window, dtype=np.int64))
        self._attach("slot_time", np.zeros(window, dtype=np.float64))
        # Key lists are written before they are read: left unzeroed, only
        # the pages a run reaches become resident.
        self._attach("counts", np.zeros(num_keys * workers, dtype=np.int32))
        self._attach("touched", np.empty(num_keys * workers, dtype=np.int32))
        self._attach("totals", np.zeros(num_keys, dtype=np.int64))
        self._attach("totals_order", np.empty(num_keys, dtype=np.int64))
        # The heap holds the emit, the sampler, and per worker its timer
        # and its one completion or shipment; the FIFO holds un-acked
        # tuples and batches on their way to the aggregator.
        state.heap_cap = 2 * workers + 4
        state.fifo_cap = 64
        for name in ("heap", "fifo"):
            size = getattr(state, f"{name}_cap") * _WC_EVENT_BYTES
            self._attach(name, np.zeros(size, dtype=np.uint8))
        state.pair_cap = 4096
        for name in ("pair_key", "pair_count"):
            self._attach(name, np.zeros(state.pair_cap, dtype=np.int64))
        state.sojourn_cap = _WC_SOJOURN_CHUNK
        self._attach("sojourns", np.empty(state.sojourn_cap, dtype=np.float64))

    def _attach(self, name: str, array: np.ndarray) -> None:
        self._arrays[name] = array
        setattr(self._state, name, array.ctypes.data)

    def _grow(self, name: str, used: int, size: int) -> None:
        old = self._arrays[name]
        new = np.zeros(size, dtype=old.dtype)
        new[:used] = old[:used]
        self._attach(name, new)

    def run(
        self,
        next_batch: Callable[[], Tuple[np.ndarray, np.ndarray]],
        drain: Callable[[np.ndarray], None],
    ) -> None:
        """Simulate to the end: ``next_batch()`` returns the next keys
        and their workers; ``drain`` receives the post-warmup sojourns
        in completion order, a chunk at a time."""
        state = self._state
        while True:
            status = self._lib.repro_wordcount(ctypes.byref(state))
            if status == _WC_NEED_KEYS:
                self._supply(*next_batch())
            elif status == _WC_NEED_HEAP:
                state.heap_cap *= 2
                self._grow(
                    "heap",
                    state.heap_len * _WC_EVENT_BYTES,
                    state.heap_cap * _WC_EVENT_BYTES,
                )
            elif status == _WC_NEED_FIFO:
                state.fifo_cap *= 2
                self._grow(
                    "fifo",
                    state.fifo_tail * _WC_EVENT_BYTES,
                    state.fifo_cap * _WC_EVENT_BYTES,
                )
            elif status == _WC_NEED_PAIRS:
                state.pair_cap = max(2 * state.pair_cap, state.pair_want)
                for name in ("pair_key", "pair_count"):
                    self._grow(name, state.pair_len, state.pair_cap)
            else:
                drain(self._arrays["sojourns"][: state.sojourn_len].copy())
                state.sojourn_len = 0
                if status == _WC_DONE:
                    return

    def _supply(self, keys: np.ndarray, routes: np.ndarray) -> None:
        # The kernel indexes its dense arrays with these: check them.
        state = self._state
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        routes = np.ascontiguousarray(routes, dtype=np.int64)
        if keys.shape != routes.shape or keys.ndim != 1 or keys.size == 0:
            raise ValueError("need one worker per key, and at least one key")
        for name, values, bound in (
            ("keys", keys, state.num_keys),
            ("routes", routes, state.num_workers),
        ):
            if values.min() < 0 or values.max() >= bound:
                raise ValueError(f"{name} outside [0, {bound})")
            self._attach(name, values)
        state.key_pos, state.key_len = 0, keys.size

    @property
    def state(self) -> _WordCountState:
        """The kernel's scalars: ``emitted``, ``in_flight``, ``received``,
        ``mem_samples``, ``mem_sum``, ``mem_peak`` and the rest."""
        return self._state

    @property
    def processed(self) -> List[int]:
        return self._arrays["processed"].tolist()

    def live_counters(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Each worker's live counters: keys in first-touch order, counts."""
        workers, num_keys = self._state.num_workers, self._state.num_keys
        counts = self._arrays["counts"].reshape(num_keys, workers)
        touched = self._arrays["touched"].reshape(workers, num_keys)
        out = []
        for w, n in enumerate(self._arrays["touched_len"].tolist()):
            keys = touched[w, :n]
            out.append((keys, counts[keys, w]))
        return out

    def totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """The aggregator's totals: keys in first-touch order, counts."""
        keys = self._arrays["totals_order"][: self._state.totals_len]
        return keys, self._arrays["totals"][keys]


def get_kernels() -> Optional[NativeKernels]:
    """The native kernels, building them on first use; None if unavailable."""
    global _KERNELS
    if native_disabled():
        return None
    if _KERNELS is not False:
        return _KERNELS
    _KERNELS = None
    try:
        target = _shared_object_path()
        if not target.exists():
            compiler = _find_compiler()
            if compiler is None or not _compile(compiler, target):
                return None
        _KERNELS = NativeKernels(ctypes.CDLL(str(target)))
    except OSError:
        _KERNELS = None
    return _KERNELS
