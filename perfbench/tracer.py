"""In-memory spans around the benchmark's calls into toric3d.

A span records its name, start, end, parent span and op id, plus work counts
attached to it.  Spans stay in memory and are summarised when the run ends.
A span's self time is its duration minus the time covered by its child
spans; an op's root span is named ``op`` and its self time is the
benchmark's own work between calls (layer ``harness``).
"""

from __future__ import annotations

import statistics
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key, value):
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        self.index = len(tracer.records)
        tracer.records.append([name, 0.0, 0.0, parent, tracer.op_id, {}])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.records[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.records[self.index][2] = perf_counter()
        tracer._stack.pop()
        if not tracer._stack:
            tracer.op_id = None
        return False

    def count(self, key, value):
        self.tracer.records[self.index][5][key] = value


class Tracer:
    """Span recorder; inert (one attribute test per span) when disabled."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.records = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self.op_id = None

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def op(self, op_id):
        """Root span of one op; spans opened inside it carry ``op_id``."""
        self.op_id = op_id if self.enabled else None
        return self.span("op")


def layer_of(name):
    """The toric3d layer a span's time is charged to."""
    if name == "op":
        return "harness"
    if name.startswith(("stabilizer.lattice_build", "stabilizer.star_matrix")):
        return "lattice"
    if name.startswith("stabilizer.gauge_rank"):
        return "kernels"
    return name.split(".", 1)[0]


def summarise(records):
    """Per-span-name mean self time (ms) and mean counts per call, and each
    layer's share of the self time inside ops."""
    child = [0.0] * len(records)
    for name, start, end, parent, _op, _c in records:
        if parent is not None:
            child[parent] += end - start
    self_ms = {}
    counts = {}
    layer_s = {}
    op_s = 0.0
    for i, (name, start, end, _parent, op, cnt) in enumerate(records):
        own = end - start - child[i]
        self_ms.setdefault(name, []).append(own * 1e3)
        for key, value in cnt.items():
            counts.setdefault(f"{name}.{key}", []).append(value)
        if op is not None:
            layer = layer_of(name)
            layer_s[layer] = layer_s.get(layer, 0.0) + own
            if name == "op":
                op_s += end - start
    out = {f"{name}.time_ms": statistics.fmean(v) for name, v in self_ms.items()}
    out.update({key: statistics.fmean(v) for key, v in counts.items()})
    if op_s > 0:
        out.update({f"{layer}.share": s / op_s for layer, s in layer_s.items()})
    return out
