"""How streamdec uses more than one CPU: the only code that starts worker
processes or asks numpy's BLAS for its thread count. Every worker runs BLAS
on one thread for its whole life, since processes that each keep a BLAS
pool as wide as the machine fight over its CPUs (criterion 4's training
step ran about three times slower).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import multiprocessing
import os
import signal
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterator

import numpy as np


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when this numpy has none that can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Holds numpy's BLAS, which ``openblas`` must reach, to one thread for
    the block, and then restores the old count."""
    get, put = openblas()
    was = get()
    put(1)
    try:
        yield
    finally:
        put(was)


def _set_up_worker() -> None:
    """Every worker's set-up: one BLAS thread for life, where it can."""
    if (blas := openblas()) is not None:
        blas[1](1)


def _serve(conn: Connection, parent_end: Connection) -> None:
    """The shard worker's loop: it answers each (function, args) with
    (error, result), the error noting the worker's traceback. It closes its
    copy of the caller's end, or it would not see the caller close the pipe,
    on which it exits. Its jobs last milliseconds: Ctrl-C is the caller's."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _set_up_worker()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = None, fn(*args)
        except Exception as e:
            e.add_note(f"in the shard worker:\n{traceback.format_exc()}")
            reply = e, None
        try:
            conn.send(reply)
        except OSError:  # the caller has gone
            return


_WORKER: ContextVar[Connection | None] = ContextVar("shard worker", default=None)


@contextmanager
def shard_worker() -> Iterator[None]:
    """For the block, when two CPUs are usable and numpy's BLAS can be
    held to one thread, a worker process runs the second job of every
    ``pair`` call, and both processes run BLAS on one thread. The worker is
    joined and the BLAS thread count restored however the block ends."""
    if usable_cpus() < 2 or openblas() is None:
        yield
        return
    with _one_blas_thread():
        conn, child_end = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=_serve, args=(child_end, conn), daemon=True)
        proc.start()
        child_end.close()
        token = _WORKER.set(conn)
        try:
            yield
        finally:
            _WORKER.reset(token)
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


def pair(fn: Callable[..., Any], args0: tuple, args1: tuple) -> tuple[Any, Any]:
    """``fn(*args0)`` and ``fn(*args1)``. Inside ``shard_worker`` the second
    runs in the worker while the first runs here; otherwise both run here,
    one after the other. The worker's error is raised here.

    Jobs of milliseconds go over this one pipe, not a one-process
    ``ProcessPoolExecutor``: there the bench's training step read x1.02 at
    the median and criterion 4's training x1.055, the executor's feeder and
    result threads taking the GIL from the job that runs here."""
    conn = _WORKER.get()
    if conn is None:
        return fn(*args0), fn(*args1)
    try:
        conn.send((fn, args1))
    except OSError:
        raise RuntimeError("the training shard worker exited") from None
    try:
        first = fn(*args0)
    finally:  # the reply is read even if the first job failed
        try:
            error, second = conn.recv()
        except EOFError:
            raise RuntimeError("the training shard worker exited") from None
    if error is not None:
        raise error
    return first, second


def pool(workers: int) -> ProcessPoolExecutor:
    """Worker processes for the sweep's cells, each with BLAS held to one
    thread. A cell lasts seconds to minutes: over pipes the cells would need
    a dispatcher of their own, more code than ``pool.map``, and a worker
    keeps the default Ctrl-C handler so that Ctrl-C stops a long cell."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_set_up_worker)
