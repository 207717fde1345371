"""Independent forward branches on two threads, with BLAS pinned to one
thread each.

numpy and scipy each load their own OpenBLAS (``libscipy_openblas64_`` and
``libscipy_openblas``), and each keeps one process-wide thread pool. Two
branches that both ran 2-thread GEMMs on two CPUs would oversubscribe them,
so while branches run, every loaded OpenBLAS is set to one thread through
its global setter, and set back after the join. (In the OpenBLAS 0.3.31
that numpy bundles, ``openblas_set_num_threads_local(1)`` called on one
thread leaves every thread's count at 1, so it is no per-thread pin.)
``blas_threads`` is the one setter; ``--deterministic`` and forked runs use it.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import re
import threading
from typing import Callable

from .tensor import active_tape

# a mapped OpenBLAS; numpy's copy suffixes its C entry points with "64_"
_OPENBLAS = re.compile(r" (/[^\n]*/libscipy_openblas(64_)?-[^/\n]*\.so)$", re.M)
# held by each blas_threads block, so one thread at a time sets the counts
_PIN = threading.RLock()


@functools.cache
def _thread_count_functions(path: str, suffix: str) -> tuple[Callable, Callable]:
    lib = ctypes.CDLL(path)
    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


def openblas_libraries() -> list[tuple[Callable, Callable]]:
    """``(get, set)`` thread-count functions of every OpenBLAS this process
    has loaded, as ``/proc/self/maps`` lists them; none without that file."""
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return []
    found = {m.group(1): m.group(2) or "" for m in _OPENBLAS.finditer(maps)}
    return [_thread_count_functions(path, suffix) for path, suffix in found.items()]


@contextlib.contextmanager
def blas_threads(libraries: list[tuple[Callable, Callable]], n: int):
    """Set each of ``libraries`` to ``n`` threads inside the block, and back
    to its previous count on the way out, also when the block raises. A block
    in another thread waits for this one to end."""
    with _PIN:
        before = [get() for get, _ in libraries]
        for _, set_threads in libraries:
            set_threads(n)
        try:
            yield
        finally:
            for (_, set_threads), count in zip(libraries, before):
                set_threads(count)


def branches(*calls: Callable[[], object]) -> list:
    """``[call() for call in calls]``, each call a function of no arguments.

    With no tape recording, an OpenBLAS found and its pool at two threads or
    more, the calls fan out: the first runs on a short-lived thread, the
    rest one after another on this one, every OpenBLAS at one thread until
    the join. Otherwise, as for a call nested inside a branch or made while
    another thread sets the counts, the calls run here, in order. Either way
    the results are the same bytes. An exception is raised here after the
    join; where both threads raised, it is the first call's, as in order.
    """
    libraries = openblas_libraries() if len(calls) > 1 and active_tape() is None else []
    if libraries and _PIN.acquire(blocking=False):
        try:
            if max(get() for get, _ in libraries) >= 2:
                return _fan_out(calls, libraries)
        finally:
            _PIN.release()
    return [call() for call in calls]


def _fan_out(calls, libraries) -> list:
    first: dict = {}

    def run_first():
        try:
            first["out"] = calls[0]()
        except BaseException as exc:
            first["exc"] = exc

    with blas_threads(libraries, 1):
        worker = threading.Thread(target=run_first, name="ndcore-branch")
        worker.start()
        try:
            rest = [call() for call in calls[1:]]
        finally:
            worker.join()
            if "exc" in first:
                raise first.pop("exc")
    return [first["out"], *rest]
