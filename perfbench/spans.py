"""Span recorder and per-layer arithmetic for the traced benchmark run.

Spans are recorded around calls into kronstap's public functions by
swapping, for the length of a traced pass, the attributes that the CLI
and the library modules look those functions up in. The package source
is never edited. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the union of its children's
intervals (clipped to the span). WorkerPool.run spans are recorded for
the parallel layer but are transparent to that arithmetic: spans opened
inside the pooled function, on any thread, name the span that called
WorkerPool.run as their parent. So the per-bin loop of a pooled stage
stays in its caller's self time, and children from two pool threads may
overlap; their overlap is reported as parallel.overlap_s.
"""

import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

POOL_SPAN = "WorkerPool.run"
STAGE_PREFIX = "stage."

# (module, attribute looked up there, layer of the function behind it).
# Span names are "<module>.<attribute>" for module attributes and the
# bare "Class.method" for methods, which every caller reaches alike.
_TARGETS = (
    ("cli", "gen_clutter", "simulate"),
    ("cli", "gen_multipass", "simulate"),
    ("cli", "inject_target", "simulate"),
    ("formats", "read_phase_history", "formats"),
    ("formats", "read_estimate", "formats"),
    ("formats", "write_phase_history", "formats"),
    ("formats", "write_estimate", "formats"),
    ("formats", "write_pgm", "formats"),
    ("formats", "write_detection_csv", "formats"),
    ("formats", "write_residuals_csv", "formats"),
    ("cli", "sample_covariance", "lrkron"),
    ("cli", "lr_kron_estimate", "lrkron"),
    ("lrkron", "eig_truncate", "linalg"),
    ("linalg", "hermitian_eig", "linalg"),
    ("filters", "hermitian_eig", "linalg"),
    ("cli", "build_filter", "filters"),
    ("cli", "detection_image", "filters"),
    ("multipass", "detection_image", "filters"),
    ("filters", "StapFilter.apply_matrix", "filters"),
    ("cli", "stack_passes", "multipass"),
    ("cli", "pass_images", "multipass"),
    ("cli", "change_detect", "multipass"),
)

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = (
    ("simulate.gen_s", "s"), ("simulate.inject_s", "s"),
    ("formats.read_s", "s"), ("formats.read_bytes", "bytes"),
    ("formats.write_s", "s"), ("formats.write_bytes", "bytes"),
    ("formats.csv_s", "s"),
    ("lrkron.scm_s", "s"), ("lrkron.scm_bytes", "bytes"),
    ("lrkron.als_s", "s"), ("lrkron.als_self_s", "s"),
    ("lrkron.iterations", "count"), ("lrkron.residual", "ratio"),
    ("linalg.eig_s", "s"), ("linalg.eig_calls", "count"),
    ("filters.build_self_s", "s"), ("filters.apply_s", "s"),
    ("filters.apply_calls", "count"), ("filters.detect_self_s", "s"),
    ("multipass.stack_s", "s"), ("multipass.stack_calls", "count"),
    ("multipass.images_self_s", "s"), ("multipass.change_s", "s"),
    ("parallel.runs", "count"), ("parallel.spans", "count"),
    ("parallel.run_s", "s"), ("parallel.overlap_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
# Times of layers that only some workloads run: the multipass layer needs
# K = 2 and pool-thread overlap needs --threads 2. Elsewhere they read
# exactly 0 on every run, so they are printed and kept in the trace file
# but left out of the result line's metrics.
WHERE_RUN = ("multipass.stack_s", "multipass.images_self_s",
             "multipass.change_s", "parallel.overlap_s")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: object          # id of the parent span, or None
    pass_id: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def transparent(self):
        return self.name == POOL_SPAN


class Tracer:
    """In-memory span recorder; pass_id tags every span it records."""

    def __init__(self, pass_id=0):
        self.spans = []
        self.pass_id = pass_id
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost span open on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name, layer, meta):
        stack = self._stack()
        with self._lock:
            record = Span(len(self.spans), name, layer,
                          stack[-1] if stack else None, self.pass_id,
                          threading.get_ident(), meta=meta)
            self.spans.append(record)
        stack.append(record.id)
        record.start = time.perf_counter()
        return record

    def _close(self, record):
        record.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name, layer, **meta):
        record = self._open(name, layer, meta)
        try:
            yield record
        finally:
            self._close(record)

    @contextmanager
    def adopt(self, parent):
        """Open spans on this thread under `parent` until the block ends."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def _wrap(self, fn, name, layer):
        tracer = self
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name, layer, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if annotate is not None:
                record.meta.update(annotate(args, result))
            return result

        return traced

    def _wrap_pool_run(self, run):
        tracer = self

        @functools.wraps(run)
        def traced_run(pool, fn, spans):
            caller = tracer.current()

            def adopted(start, stop):
                with tracer.adopt(caller):
                    return fn(start, stop)

            with tracer.span(POOL_SPAN, "parallel", spans=len(spans)):
                return run(pool, adopted, spans)

        return traced_run

    @contextmanager
    def installed(self):
        """Route the pipeline's calls through span wrappers for the block."""
        import kronstap.cli
        import kronstap.filters
        import kronstap.formats
        import kronstap.linalg
        import kronstap.lrkron
        import kronstap.multipass
        import kronstap.parallel

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            kronstap.cli, kronstap.filters, kronstap.formats, kronstap.linalg,
            kronstap.lrkron, kronstap.multipass)}
        patches = []
        for module, attr, layer in _TARGETS:
            owner = modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                name = f"{cls}.{attr}"
            else:
                name = f"{module}.{attr}"
            original = owner.__dict__[attr]
            patches.append((owner, attr, original,
                            self._wrap(original, name, layer)))
        pool_cls = kronstap.parallel.WorkerPool
        patches.append((pool_cls, "run", pool_cls.__dict__["run"],
                        self._wrap_pool_run(pool_cls.__dict__["run"])))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _scm_bytes(args, result):
    # a dense (pq x pq) complex128 matrix, computed from the call's shape
    return {"bytes": (args[1] * args[2]) ** 2 * 16}


def _fit(args, result):
    return {"iterations": result.iterations,
            "residual": float(result.residuals[-1])}


_ANNOTATE = {
    "formats.read_phase_history": _file_bytes,
    "formats.read_estimate": _file_bytes,
    "formats.write_phase_history": _file_bytes,
    "formats.write_estimate": _file_bytes,
    "formats.write_pgm": _file_bytes,
    "cli.sample_covariance": _scm_bytes,
    "cli.lr_kron_estimate": _fit,
}


# ---------------------------------------------------------------------------
# arithmetic on recorded spans

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans):
    kids = {}
    for s in spans:
        if not s.transparent and s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _clipped(parent, children):
    return [(max(c.start, parent.start), min(c.end, parent.end))
            for c in children if c.end > parent.start and c.start < parent.end]


def self_times(spans):
    """Self time of every non-transparent span, keyed by span id."""
    kids = _children(spans)
    return {s.id: s.duration - union_length(_clipped(s, kids.get(s.id, ())))
            for s in spans if not s.transparent}


def overlap_times(spans):
    """Per parent id: summed child time minus the time the children cover.

    Non-zero only where children ran concurrently on pool threads.
    """
    kids = _children(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for parent_id, children in kids.items():
        clipped = _clipped(by_id[parent_id], children)
        out[parent_id] = sum(e - s for s, e in clipped) - union_length(clipped)
    return out


def stage_balance(spans):
    """Per stage: (wall s, {layer: summed self s}, concurrent overlap s).

    Self times under a stage add up to its wall time plus the overlap of
    concurrent pool-thread children, exactly when every span lies inside
    its parent.
    """
    selfs = self_times(spans)
    overlap = overlap_times(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        if s.transparent:
            continue
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        if not root.name.startswith(STAGE_PREFIX):
            continue
        stage = root.name[len(STAGE_PREFIX):]
        wall, layers, over = out.get(stage, (root.duration, {}, 0.0))
        layers[s.layer] = layers.get(s.layer, 0.0) + selfs[s.id]
        out[stage] = (wall, layers, over + overlap.get(s.id, 0.0))
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}

    def add(key, value):
        m[key] += value

    for s in spans:
        n, d = s.name, s.duration
        if n in ("cli.gen_clutter", "cli.gen_multipass"):
            add("simulate.gen_s", d)
        elif n == "cli.inject_target":
            add("simulate.inject_s", d)
        elif n.startswith("formats.read_"):
            add("formats.read_s", d)
            add("formats.read_bytes", s.meta["bytes"])
        elif n.endswith("_csv"):
            add("formats.csv_s", d)
        elif n.startswith("formats.write_"):
            add("formats.write_s", d)
            add("formats.write_bytes", s.meta["bytes"])
        elif n == "cli.sample_covariance":
            add("lrkron.scm_s", d)
            add("lrkron.scm_bytes", s.meta["bytes"])
        elif n == "cli.lr_kron_estimate":
            add("lrkron.als_s", d)
            add("lrkron.als_self_s", selfs[s.id])
            add("lrkron.iterations", s.meta["iterations"])
            m["lrkron.residual"] = s.meta["residual"]
        elif n == "cli.build_filter":
            add("filters.build_self_s", selfs[s.id])
        elif n == "StapFilter.apply_matrix":
            add("filters.apply_s", d)
            add("filters.apply_calls", 1)
        elif n.endswith(".detection_image"):
            add("filters.detect_self_s", selfs[s.id])
        elif n == "cli.stack_passes":
            add("multipass.stack_s", d)
            add("multipass.stack_calls", 1)
        elif n == "cli.pass_images":
            add("multipass.images_self_s", selfs[s.id])
        elif n == "cli.change_detect":
            add("multipass.change_s", d)
        elif s.transparent:
            add("parallel.runs", 1)
            add("parallel.spans", s.meta["spans"])
            add("parallel.run_s", d)
        elif n.startswith(STAGE_PREFIX):
            add("cli.self_s", selfs[s.id])
        if s.layer == "linalg":
            if n.endswith(".hermitian_eig"):
                add("linalg.eig_calls", 1)
            parent = by_id.get(s.parent)
            if parent is None or parent.layer != "linalg":
                add("linalg.eig_s", d)
    m["parallel.overlap_s"] = sum(overlap_times(spans).values())
    return m


def span_records(spans):
    """Spans as plain dicts, for the trace file."""
    return [{"id": s.id, "name": s.name, "layer": s.layer,
             "parent": s.parent, "pass": s.pass_id, "thread": s.thread,
             "start": s.start, "end": s.end, **s.meta} for s in spans]
