"""In-memory span tracing of labskit's public functions.

`Tracer.wrap` returns a stand-in for a function that records one span
per call: name, start, end, parent span and the attempt id the
benchmark set for the current op.  `traced(tracer)` installs such
stand-ins under the names the callers look up (module globals and
class attributes) and restores the originals on exit, so the program
itself is unchanged and untraced runs pay nothing.

Spans live in flat arrays until the run ends; `layer_stats` then turns
them into per-layer call counts, self time (span minus the part of it
that child spans cover) and inclusive time.  `Tracer.save` writes them
out as columns of an .npz file.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter, defaultdict

import labskit.partitions
import labskit.records
import labskit.skew
import labskit.solver

# (owner, attribute, layer name, is_generator).  The owner is the
# namespace the caller resolves the name in: solver.py imported
# sample_member and the probe kernels into its own globals, and
# records.py imported core.energy, so those are patched there.
TARGETS = (
    (labskit.solver, "run", "solver.run", False),
    (labskit.solver, "pick_better_neighbor", "solver.pick_better_neighbor", False),
    (labskit.solver, "hash_half_bits", "solver.hash_half_bits", False),
    (labskit.solver, "append_delta_arrays", "pseudo.append_delta_arrays", False),
    (labskit.solver, "truncate_delta_arrays", "pseudo.truncate_delta_arrays", False),
    (labskit.solver, "sample_member", "partitions.sample_member", False),
    (labskit.skew.SkewSearchState, "__init__", "skew.SkewSearchState.__init__", False),
    (labskit.skew.SkewSearchState, "flip_delta", "skew.flip_delta", False),
    (labskit.skew.SkewSearchState, "apply_flip", "skew.apply_flip", False),
    (labskit.skew.SkewSearchState, "sequence", "skew.SkewSearchState.sequence", False),
    (labskit.partitions, "best_partition", "partitions.best_partition", False),
    (labskit.partitions, "potential", "partitions.potential", False),
    (labskit.partitions, "enumerate_partitions", "partitions.enumerate_partitions", True),
    (labskit.skew, "exhaustive_best", "skew.exhaustive_best", False),
    (labskit.records, "verify_all", "records.verify_all", False),
    (labskit.records, "verify_entry", "records.verify_entry", False),
    (labskit.records, "energy", "core.energy", False),
)

LAYERS = tuple(t[2] for t in TARGETS)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attempt = array("i")
        self.items: dict = defaultdict(int)  # {(generator layer, attempt id): items}
        self.attempt_id = 0
        self._stack: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attempt.append(self.attempt_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        # `begin`/`finish` inlined: this runs around every scan candidate
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_attempt = (self.name_id.append, self.parent.append,
                                             self.attempt.append)
        add_start, add_end, clock = start.append, end.append, time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            i = len(start)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_attempt(self.attempt_id)
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()

        return traced_call

    def wrap_generator(self, fn, name: str):
        """One span per `next`, so the consumer's work between items is
        not charged to the generator."""
        nid = self._id(name)
        begin, finish, items = self.begin, self.finish, self.items

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    finish(i)
                items[name, self.attempt_id] += 1
                yield item

        return traced_gen

    def calls_by_attempt(self) -> Counter:
        """{(layer name, attempt id): calls}."""
        names = self.names
        return Counter((names[n], a) for n, a in zip(self.name_id, self.attempt))

    def columns(self):
        """(layer name, start, end, parent index) of every span, as columns."""
        names = self.names
        return [names[n] for n in self.name_id], self.start, self.end, self.parent

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), attempt=np.asarray(self.attempt))


@contextlib.contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Install tracing stand-ins for `targets`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, is_gen in targets:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            wrap = tracer.wrap_generator if is_gen else tracer.wrap
            setattr(owner, attr, wrap(fn, name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(start, end, parent) -> list:
    """Self time per span: its duration minus the union of its direct
    children's intervals, clipped to the span itself.

    `parent[i]` is the index of span i's parent, or -1.
    """
    out = [e - s for s, e in zip(start, end)]
    covered_until = {}
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], covered_until.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_until[p] = hi
    return out


def layer_stats(names, start, end, parent, layers=LAYERS) -> dict:
    """{layer: {"calls", "self_s", "total_s"}} summed over spans given as
    columns (see `Tracer.columns`).

    `total_s` is inclusive time, counted once for spans nested in a
    span of the same layer.
    """
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in layers}
    selfs = self_times(start, end, parent)
    for i, name in enumerate(names):
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        if p < 0:
            st["total_s"] += end[i] - start[i]
    return stats
