"""Per-call control of the BLAS thread pools numpy and scipy have loaded.

The spectral solvers make many small dense LAPACK calls: a companion-pencil
QZ, a few LU inverse iterations per eigenvalue and one ``(N + 1) s`` boundary
solve.  On matrices this small a multi-threaded OpenBLAS spends more time
waking and synchronising its threads than computing, and next to the
service's shard workers or a sweep's process pool the extra threads
oversubscribe the CPUs.  So every spectral solve runs on one BLAS thread, and
parallelism comes only from processes.

:func:`single_threaded_blas` is the scope: a re-entrant, reference-counted
context manager (and decorator) that sets each controlled library to one
thread when the first caller enters and restores the saved counts when the
last one leaves.  It is applied per call, at the dense entry points of
:mod:`repro.spectral`, rather than pinned once at import, so a program that
imports :mod:`repro` keeps its own BLAS threading everywhere else.  The count
is process-wide: while any thread is inside the scope, BLAS calls made by
other threads of the process also run on one thread.

Libraries are found by reading ``/proc/self/maps`` for the mapped files whose
name contains ``blas`` and asking each, through :mod:`ctypes`, for an OpenBLAS
thread setter/getter pair under any of the known symbol spellings.  Where
none is found (another BLAS vendor, or no procfs) the scope is a no-op and
:func:`blas_runtime` says ``controlled: false``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Callable
from contextlib import ContextDecorator
from dataclasses import dataclass
from types import TracebackType
from typing import TypedDict

# Imported for their side effect: both load their BLAS before the maps are read.
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401

#: BLAS threads inside :func:`single_threaded_blas`.
SOLVE_THREADS = 1

#: OpenBLAS thread-control symbols are ``<prefix>_{get,set}_num_threads<suffix>``:
#: the plain build, the ``scipy-openblas`` wheels, and their 64-bit-integer
#: builds, which append ``64_`` to every symbol.
_SYMBOL_PREFIXES = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES = ("", "64_")


@dataclass(frozen=True, eq=False)
class BlasLibrary:
    """One loaded BLAS library whose thread count can be read and set."""

    path: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]

    @property
    def name(self) -> str:
        """The library's file name."""
        return os.path.basename(self.path)


def usable_cpus() -> int:
    """The CPUs this process may actually run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def _mapped_files() -> list[tuple[int, int, str]]:
    """The file-backed mappings of this process, as ``(start, end, path)``."""
    mappings: list[tuple[int, int, str]] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    start, end = (int(bound, 16) for bound in fields[0].split("-"))
                    mappings.append((start, end, fields[5].rstrip("\n")))
    except OSError:  # no procfs
        return []
    return mappings


def _bind(
    handle: ctypes.CDLL, prefix: str, suffix: str, mappings: list[tuple[int, int, str]]
) -> BlasLibrary | None:
    """The thread controls one symbol spelling resolves to through ``handle``.

    A library's symbols also resolve through every extension module linked
    against it, so the library is named after the mapping that contains its
    setter, not after ``handle``.
    """
    setter_name = f"{prefix}_set_num_threads{suffix}"
    getter_name = f"{prefix}_get_num_threads{suffix}"
    if not (hasattr(handle, setter_name) and hasattr(handle, getter_name)):
        return None
    setter = getattr(handle, setter_name)
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    getter = getattr(handle, getter_name)
    getter.argtypes = []
    getter.restype = ctypes.c_int
    config = ""
    config_name = f"{prefix}_get_config{suffix}"
    if hasattr(handle, config_name):
        get_config = getattr(handle, config_name)
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        config = " ".join((get_config() or b"").decode(errors="replace").split())
    address = ctypes.cast(setter, ctypes.c_void_p).value or 0
    owner = next((path for start, end, path in mappings if start <= address < end), handle._name)
    return BlasLibrary(owner, config, getter, setter)


@functools.cache
def controlled_libraries() -> tuple[BlasLibrary, ...]:
    """Every loaded BLAS library that exports an OpenBLAS thread setter/getter."""
    mappings = _mapped_files()
    found: dict[str, BlasLibrary] = {}
    for path in dict.fromkeys(path for _, _, path in mappings):
        if "blas" not in os.path.basename(path).lower():
            continue
        try:
            handle = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a shared library, or not loadable by name
            continue
        for prefix in _SYMBOL_PREFIXES:
            for suffix in _SYMBOL_SUFFIXES:
                library = _bind(handle, prefix, suffix, mappings)
                if library is not None:
                    found.setdefault(library.path, library)
    return tuple(found.values())


# The thread count is process-wide state of the libraries themselves, so the
# scope that saves and restores it is process-wide too.
_lock = threading.Lock()
_local = threading.local()
#: Threads currently inside the scope.
_holders = 0
#: Each library's thread count, saved by the first holder.
_ambient: dict[BlasLibrary, int] = {}


def _restore() -> None:
    for library, threads in _ambient.items():
        library.set_num_threads(threads)
    _ambient.clear()


class _SingleThreadedBlas(ContextDecorator):
    def __enter__(self) -> None:
        global _holders
        depth = getattr(_local, "depth", 0)
        _local.depth = depth + 1
        if depth:  # nested on this thread: already single-threaded
            return
        with _lock:
            if _holders == 0:
                for library in controlled_libraries():
                    _ambient[library] = library.get_num_threads()
                    library.set_num_threads(SOLVE_THREADS)
            _holders += 1

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        global _holders
        _local.depth -= 1
        if _local.depth:
            return
        with _lock:
            _holders -= 1
            if _holders == 0:
                _restore()


def single_threaded_blas() -> _SingleThreadedBlas:
    """Run the enclosed block, or the decorated function, on one BLAS thread."""
    return _SingleThreadedBlas()


def _reset_after_fork() -> None:
    """Only the forking thread survives a fork, so in the child the scope's
    lock may be held by a thread that no longer exists, and only the forking
    thread's own entry still counts."""
    global _lock, _holders
    _lock = threading.Lock()
    inside = 1 if getattr(_local, "depth", 0) else 0
    if _holders and not inside:
        _restore()
    _holders = inside


os.register_at_fork(after_in_child=_reset_after_fork)


class BlasLibraryInfo(TypedDict):
    """One controlled library: file name, ``get_config`` string, ambient threads."""

    library: str
    config: str
    threads: int


class BlasRuntime(TypedDict):
    """What :func:`blas_runtime` reports."""

    cpus: int
    controlled: bool
    solve_threads: int | None
    libraries: list[BlasLibraryInfo]


def blas_runtime() -> BlasRuntime:
    """The BLAS runtime, as ``/healthz``, ``/metrics`` and bench records report it.

    ``threads`` is each library's ambient count, the one it has outside the
    scope, even while a solve holds it at :data:`SOLVE_THREADS`.
    """
    libraries = controlled_libraries()
    with _lock:
        ambient = [
            _ambient[library] if library in _ambient else library.get_num_threads()
            for library in libraries
        ]
    return {
        "cpus": usable_cpus(),
        "controlled": bool(libraries),
        "solve_threads": SOLVE_THREADS if libraries else None,
        "libraries": [
            {"library": library.name, "config": library.config, "threads": threads}
            for library, threads in zip(libraries, ambient)
        ],
    }
