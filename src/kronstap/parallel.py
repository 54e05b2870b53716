"""Deterministic work distribution for the thread pool.

Two loops in the package run on a pool, and every other stage measured
no faster on one than on the calling thread and runs there:

- the Kronecker estimator's snapshot-path sweeps (lrkron, fewer
  snapshots than p*q), the loop that the bench's thread-speedup row
  times, through WorkerPool.run. The loop is a list of index spans
  produced by chunk_spans. Span boundaries depend only on the problem
  size, never on the pool width, and each span writes a disjoint slice
  of the output;
- the scene generator's blocks (simulate), through WorkerPool.ordered,
  which draws each block into a buffer of its own and yields the blocks
  in order. Each block draws from streams of its own.

The numerical result is therefore bitwise identical for any thread
count, including the serial pool.

OpenBLAS runs its own threads inside a product. one_blas_thread holds
it at one thread for a block of code. The scene generator's blocks run
under it at every pool width, the serial one too: beside the pool's
threads a threaded small product stalls, and on the calling thread
alone its second BLAS thread only spins (see simulate).
"""

from collections import deque
from contextlib import contextmanager
from functools import lru_cache

from .errors import DimensionError

# Upper bound on spans per loop; keeps dispatch overhead bounded while
# leaving enough pieces for any plausible pool width.
_MAX_SPANS = 64


def chunk_spans(n, min_chunk=1):
    """Cut range(n) into at most _MAX_SPANS contiguous (start, stop) spans.

    The cut depends only on n and min_chunk so that the same problem is
    always chunked the same way.
    """
    if n < 0:
        raise DimensionError("span count must be non-negative")
    if n == 0:
        return []
    chunk = max(min_chunk, -(-n // _MAX_SPANS))
    return [(start, min(start + chunk, n)) for start in range(0, n, chunk)]


class WorkerPool:
    """Thread pool that runs span functions and keeps span order.

    threads == 1 runs everything inline. Larger pools only change where
    a span executes, not what it computes.
    """

    def __init__(self, threads=1):
        if threads < 1:
            raise DimensionError(f"thread count must be >= 1, got {threads}")
        self.threads = int(threads)
        self._executor = None
        if self.threads > 1:
            # imported here: the serial pool, which every stage but the
            # snapshot sweeps uses, keeps concurrent.futures out of the
            # import of the package
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.threads)

    def run(self, fn, spans):
        """Apply fn(start, stop) to every span, results in span order."""
        if self._executor is None:
            return [fn(start, stop) for start, stop in spans]
        futures = [self._executor.submit(fn, start, stop) for start, stop in spans]
        return [f.result() for f in futures]

    def ordered(self, fn, count, buffers):
        """Yield fn(i, buffer) for i in range(count), in order of i.

        Each call fills one of buffers, and a buffer goes to a later call
        only once the caller asks for the next result, so a result may
        be a view of its buffer. The serial pool makes every call inline
        into buffers[0]; a wider pool keeps one call per buffer under
        way. An exception from call i reaches the caller after results
        0..i-1, as in the serial loop, and the calls still under way
        are cancelled or waited for.
        """
        if self._executor is None:
            for i in range(count):
                yield fn(i, buffers[0])
            return
        free, pending = list(buffers), deque()
        try:
            for i in range(count):
                if not free:
                    future, buffer = pending.popleft()
                    yield future.result()
                    free.append(buffer)
                buffer = free.pop()
                pending.append((self._executor.submit(fn, i, buffer), buffer))
            while pending:
                yield pending[0][0].result()
                pending.popleft()
        finally:
            # no call may still write a buffer once the caller goes on
            for future, _ in pending:
                future.cancel()
            for future, _ in pending:
                if not future.cancelled():
                    future.exception()

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Shared inline pool used when callers do not pass one.
SERIAL = WorkerPool(1)


def get_pool(pool):
    return SERIAL if pool is None else pool


@lru_cache(maxsize=None)
def _blas_thread_calls():
    """(get, set) of the OpenBLAS that numpy bundles, or None.

    Looked up on first use, never at import: the lookup loads ctypes.
    numpy's wheels link scipy-openblas, whose thread calls carry the
    `scipy_openblas_` prefix and ILP64's `64_` suffix; the symbols are
    found through numpy's own extension module, which links it.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block.

    The count is process state: enter this on the thread that drives a
    pool, never on a pool thread. The old count is restored on exit.
    When numpy links another BLAS, or an OpenBLAS without these calls,
    the block runs unpinned, at the BLAS's own count. Pin only code
    whose bits do not depend on the count, as a GEMM's do not, so that
    the pin changes no result.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)
