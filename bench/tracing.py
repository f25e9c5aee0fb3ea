"""In-memory span tracing of the library's layers, installed from outside.

No library source is edited.  `Tracer.installed()` replaces a fixed set of
module attributes (the names the estimators look up at call time) with timed
wrappers and restores the originals on exit, even when the traced code
raises.  Every span records its name, thread, start, end and parent id; the
spans stay in memory until `Tracer.dump` writes them out.

Span names and the layer each belongs to:

    call / cli          one estimator call made by the benchmark (cli: cli.main)
    girsanov, coupling  run_vector_estimator as called from that module
    mc.batch            one sampler call; transparent, its self time goes to
                        the estimator layer that owns it
    mc.rng              one draw from the generator handed out by mc.derive_rng
    sylvester           tsylvester_batch
    legendre.endpoint   girsanov.endpoint_packed (its child is legendre.area)
    legendre.area       legendre.levy_area_packed
    gaussian_coupling   coupling.couple_to_shift
    catalog             the test function, timed by the benchmark's wrapper
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from carnot_coupling import coupling, girsanov, legendre, mc, sylvester
from carnot_coupling.catalog import TestFunction

TRANSPARENT = frozenset({"mc.batch"})

LAYER_OF = {
    "call": "bench",
    "cli": "cli",
    "girsanov": "girsanov",
    "coupling": "coupling",
    "mc.rng": "mc",
    "sylvester": "sylvester",
    "legendre.endpoint": "legendre",
    "legendre.area": "legendre",
    "gaussian_coupling": "gaussian_coupling",
    "catalog": "catalog",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: each span's duration minus the union of its children.

    A transparent span (mc.batch) adds its self time to the layer of its
    nearest non-transparent ancestor, so batch glue counts as estimator glue.
    Children on other threads (a worker pool) are subtracted from the parent
    by the union of their intervals, so the result is thread time, not wall.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))

    def layer(s: Span) -> str:
        while s.name in TRANSPARENT and s.parent in by_id:
            s = by_id[s.parent]
        return LAYER_OF.get(s.name, s.name)

    out: dict[str, float] = {}
    for s in spans:
        own = s.dur - union_length(children.get(s.id, ()))
        key = layer(s)
        out[key] = out.get(key, 0.0) + own
    return out


class Tracer:
    """Collects spans; thread-safe; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        with self._lock:
            sid = next(self._ids)
        st = self._stack()
        s = Span(sid, parent if parent is not None else (st[-1] if st else None),
                 name, threading.get_ident(), time.perf_counter(), attrs=attrs)
        st.append(sid)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append(s)

    # ---- wrappers -----------------------------------------------------

    def _sylvester(self, fn):
        def wrapped(v, w_mat, *args, **kwargs):
            with self.span("sylvester") as s:
                u, cond = fn(v, w_mat, *args, **kwargs)
            s.attrs["rows"] = int(v.shape[0])
            s.attrs["cond_over_limit"] = int(np.count_nonzero(cond > sylvester.COND_LIMIT))
            return u, cond
        return wrapped

    def _endpoint(self, fn):
        def wrapped(*args, **kwargs):
            with self.span("legendre.endpoint"):
                return fn(*args, **kwargs)
        return wrapped

    def _area(self, fn):
        def wrapped(xi, T, iu, ju, *args, **kwargs):
            with self.span("legendre.area") as s:
                out = fn(xi, T, iu, ju, *args, **kwargs)
            rows = int(np.prod(xi.shape[:-2], dtype=np.int64))
            s.attrs["rows"] = rows
            s.attrs["kmax"] = int(xi.shape[-2]) - 1
            s.attrs["n"] = int(xi.shape[-1])
            return out
        return wrapped

    def _couple(self, fn):
        def wrapped(X, target_shift, uniforms, *args, **kwargs):
            with self.span("gaussian_coupling") as s:
                coupled, met = fn(X, target_shift, uniforms, *args, **kwargs)
            s.attrs["rows"] = int(met.shape[0])
            s.attrs["met"] = int(np.count_nonzero(met))
            return coupled, met
        return wrapped

    def _estimator(self, fn, layer: str):
        tracer = self

        def wrapped(sampler, *args, **kwargs):
            with self.span(layer) as est:
                def timed_sampler(rng, count):
                    with tracer.span("mc.batch", parent=est.id):
                        return sampler(rng, count)
                return fn(timed_sampler, *args, **kwargs)
        return wrapped

    def _derive_rng(self, fn):
        def wrapped(*args, **kwargs):
            return TimedGenerator(fn(*args, **kwargs), self)
        return wrapped

    def timed_function(self, f):
        """A catalog TestFunction whose evaluations are recorded as spans."""
        inner = f.fn

        def fn(x, zp):
            with self.span("catalog"):
                return inner(x, zp)
        return TestFunction(f.name, fn, f.sup, f.min_value)

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced module attributes; restore every one on exit."""
        patches = [
            (girsanov, "tsylvester_batch", self._sylvester),
            (coupling, "tsylvester_batch", self._sylvester),
            (girsanov, "endpoint_packed", self._endpoint),
            (legendre, "levy_area_packed", self._area),
            (coupling, "couple_to_shift", self._couple),
            (girsanov, "run_vector_estimator", lambda f: self._estimator(f, "girsanov")),
            (coupling, "run_vector_estimator", lambda f: self._estimator(f, "coupling")),
            (mc, "derive_rng", self._derive_rng),
        ]
        saved = []
        try:
            for mod, name, make in patches:
                original = getattr(mod, name)
                saved.append((mod, name, original))
                setattr(mod, name, make(original))
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)

    def dump(self, path) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
             "t0": s.t0, "t1": s.t1, **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class TimedGenerator:
    """Proxy around a numpy Generator that records each draw as an mc.rng span."""

    __slots__ = ("_rng", "_tracer")

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def timed(*args, **kwargs):
            with tracer.span("mc.rng", method=name) as s:
                out = attr(*args, **kwargs)
            if name == "standard_normal":
                s.attrs["normals"] = int(np.size(out))
            return out
        return timed


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-layer metrics, each a total over the traced run divided by `cycles`.

    Counts and seconds are per cycle (one pass over the workload's calls), so
    they compare across runs of different length; ratios and percentiles are
    taken over the whole traced run.  A layer with no spans reports zeros.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def get(name):
        return by_name.get(name, [])

    def total(name, attr=None):
        items = get(name)
        if attr is None:
            return sum(s.dur for s in items)
        return sum(s.attrs.get(attr, 0) for s in items)

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / max(cycles, 1)
    batches_ms = [1e3 * s.dur for s in get("mc.batch")]
    rng = get("mc.rng")
    normal_s = sum(s.dur for s in rng if s.attrs.get("method") == "standard_normal")
    normals = total("mc.rng", "normals")

    area = get("legendre.area")
    terms = sum(s.attrs["rows"] * s.attrs["kmax"] for s in area)
    pairs = [s.attrs["n"] * (s.attrs["n"] - 1) // 2 for s in area]
    # computed from shapes: xi read once and the packed area written once;
    # 3 flops per odot entry, 2 per alpha multiply-add, 1 per T scaling
    area_bytes = sum(8 * s.attrs["rows"] * ((s.attrs["kmax"] + 1) * s.attrs["n"] + p)
                     for s, p in zip(area, pairs))
    area_ops = sum(s.attrs["rows"] * p * (5 * s.attrs["kmax"] + 1) for s, p in zip(area, pairs))

    syl_rows = total("sylvester", "rows")
    gc_rows = total("gaussian_coupling", "rows")
    own = self_times(spans)
    return {
        "mc.batches": len(batches_ms) * per,
        "mc.batch_ms_p50": _pct(batches_ms, 50),
        "mc.batch_ms_p90": _pct(batches_ms, 90),
        "mc.rng_s": total("mc.rng") * per,
        "mc.rng_normals": normals * per,
        "mc.rng_ns_per_normal": 1e9 * ratio(normal_s, normals),
        "sylvester.calls": len(get("sylvester")) * per,
        "sylvester.rows": syl_rows * per,
        "sylvester.s": total("sylvester") * per,
        "sylvester.us_per_row": 1e6 * ratio(total("sylvester"), syl_rows),
        "sylvester.cond_over_limit": total("sylvester", "cond_over_limit") * per,
        "legendre.endpoint_calls": len(get("legendre.endpoint")) * per,
        "legendre.endpoint_s": total("legendre.endpoint") * per,
        "legendre.area_s": total("legendre.area") * per,
        "legendre.terms": terms * per,
        "legendre.bytes_computed": area_bytes * per,
        "legendre.ops_per_byte": ratio(area_ops, area_bytes),
        "gaussian_coupling.rows": gc_rows * per,
        "gaussian_coupling.s": total("gaussian_coupling") * per,
        "gaussian_coupling.met_frac": ratio(total("gaussian_coupling", "met"), gc_rows),
        "catalog.f_calls": len(get("catalog")) * per,
        "catalog.f_s": total("catalog") * per,
        "girsanov.self_s": own.get("girsanov", 0.0) * per,
        "coupling.self_s": own.get("coupling", 0.0) * per,
        "cli.self_s": own.get("cli", 0.0) * per,
    }
