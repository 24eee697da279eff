"""One thread policy for the whole program: one pool, one level of fan-out,
and the BLAS library held at one thread while the program computes.

`in_lanes(fn, n, lanes)` returns [fn(0), ..., fn(n-1)]. Its lanes, the
calling thread and workers of one module-level pool (usable CPUs - 1 of them,
none on one CPU), take the items one at a time as they come free, so items of
different sizes still share the work. Each item must write memory that no
other item touches; then the bits do not depend on the number of lanes. An
item never fans out again: `in_lanes` called inside an item runs inline, so
at most one thread per usable CPU computes and the pool never waits on
itself. What fans out: training's heads and AdamW blocks (`classifier`), an
evaluation's samples and a manifest's entries (`harness`).

`one_blas_thread()` sets the BLAS library numpy links to one thread on its
outermost entry and restores the caller's count on its outermost exit.
`classifier.train`, `classifier.forward`, `harness.featurize_manifest` and
every fan-out enter it: the program's own threads own the CPUs, and a matrix
product sums in one fixed order, so the bits do not depend on the host's
BLAS thread count either. Where numpy's BLAS exports no known thread-count
call, `BLAS_PINNED` is False and the context does nothing.
"""

from __future__ import annotations

import contextvars
import ctypes
import importlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# worker threads beside the caller's; read at every fan-out, so setting it to 0
# runs every item on the calling thread. Threads start on first use
POOL_SIZE = usable_cpus() - 1
_pool = ThreadPoolExecutor(max_workers=max(POOL_SIZE, 1), thread_name_prefix="moric-lane")
_in_lane = contextvars.ContextVar("moric_in_lane", default=False)


def lane_count(n: int, lanes: Optional[int] = None) -> int:
    """Lanes a fan-out of n items runs on: at most `lanes` (default n), n and
    the usable CPUs; 1 inside an item of another fan-out."""
    if _in_lane.get():
        return 1
    return max(1, min(n, POOL_SIZE + 1, n if lanes is None else lanes))


def in_lanes(fn: Callable[[int], object], n: int, lanes: Optional[int] = None) -> list:
    """[fn(0), ..., fn(n-1)] on lane_count(n, lanes) lanes, each taking the
    next item as it comes free. After an item fails no lane takes another,
    and once every started item has finished the lowest failing item's
    exception is raised: the one a serial loop would raise."""
    lanes = lane_count(n, lanes)
    if lanes == 1:
        return [fn(i) for i in range(n)]
    results: list = [None] * n
    errors: Dict[int, BaseException] = {}
    todo = itertools.count()  # next() on it is atomic

    def lane() -> None:
        _in_lane.set(True)  # in this lane's copy of the caller's context only
        while not errors and (i := next(todo)) < n:
            try:
                results[i] = fn(i)
            except BaseException as exc:
                errors[i] = exc

    with one_blas_thread():
        # each lane runs in a copy of the caller's context: numpy's error state too
        futures = [_pool.submit(contextvars.copy_context().run, lane) for _ in range(lanes - 1)]
        contextvars.copy_context().run(lane)
        for f in futures:
            f.result()
    if errors:
        raise errors[min(errors)]
    return results


# thread-count calls of the OpenBLAS builds numpy links: the scipy-openblas
# wheels' ILP64 and LP64 names, then a plain OpenBLAS's ILP64 and LP64 names
_BLAS_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _blas_thread_calls():
    """The (set, get) thread-count functions of the OpenBLAS numpy has loaded,
    or None. Symbols looked up through numpy's own extension module resolve
    in the libraries it links too, wherever the installation put them (a
    wheel's numpy.libs or .dylibs, conda, the system); on Windows, where a
    lookup does not search those, the wheel's numpy.libs is searched itself."""
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:  # numpy 1.x
        umath = importlib.import_module("numpy.core._multiarray_umath")
    wheel_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in [umath.__file__, *sorted(map(str, wheel_libs.glob("*openblas*")))]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_CALLS:
            set_threads, get_threads = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


_blas = _blas_thread_calls()
BLAS_PINNED = _blas is not None  # whether one_blas_thread acts
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextmanager
def one_blas_thread():
    """BLAS at one thread inside; re-entrant, from any thread. Also a decorator."""
    global _blas_depth, _blas_saved
    if _blas is None:
        yield
        return
    set_threads, get_threads = _blas
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get_threads()
            if _blas_saved != 1:
                set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and _blas_saved != 1:
                set_threads(_blas_saved)
