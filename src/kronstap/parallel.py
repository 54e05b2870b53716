"""Deterministic work distribution for the thread pool.

The one parallel loop in the package is the Kronecker estimator's
snapshot-path sweeps (lrkron, fewer snapshots than p*q), the loop that
the bench's thread-speedup row times. Every other stage measured no
faster on a pool than on the calling thread and runs there.

The loop is expressed as a list of index spans produced by chunk_spans.
Span boundaries depend only on the problem size, never on the pool
width, and each span writes a disjoint slice of the output. The
numerical result is therefore bitwise identical for any thread count,
including the serial pool.
"""

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

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
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
