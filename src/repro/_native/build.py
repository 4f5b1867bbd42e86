"""On-demand compilation and loading of the C routing kernels.

No build system, no new dependencies: when a system C compiler exists,
``kernels.c`` is compiled once into ``_kernels_<hash>.so`` next to this
module (hash over source + platform, so stale binaries are never
reused) and bound through :mod:`ctypes`.  When compilation is
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
from typing import Optional

import numpy as np

__all__ = ["NativeKernels", "get_kernels", "native_disabled"]

_SOURCE = Path(__file__).with_name("kernels.c")
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

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
    cmd = [compiler, "-O3", "-shared", "-fPIC", str(_SOURCE), "-o", str(tmp)]
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
        for fn in (
            lib.repro_greedy_route,
            lib.repro_hash_choices,
            lib.repro_hash_greedy_route,
            lib.repro_least_loaded,
            lib.repro_bind_route,
            lib.repro_interleaved_route,
            lib.repro_counting_scatter,
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
