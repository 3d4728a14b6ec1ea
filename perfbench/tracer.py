"""In-memory spans around calls into galq's modules.

A :class:`Tracer` replaces module-level bindings (``contraction.expm_multiply``,
``coherent.build_xp``, ...) with thin wrappers that open a span on entry and
close it on exit, and puts every original binding back on
:meth:`Tracer.restore`.  Calls are single-threaded and strictly nested, so the
open spans form a stack and each span's parent is the span on top of it.

A span's self time is its duration minus the durations of its direct
children.  Children lie inside their parent and do not overlap, so the self
times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str  # binding that was called, e.g. "contraction.coherent_amplitudes"
    func: str  # function behind it, e.g. "coherent.coherent_amplitudes"
    layer: str  # module that does the work, e.g. "coherent"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: int
    counts: dict | None = None  # set by the binding's counter, if any

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._saved = []  # (owner, attr, original) in wrap order

    # --- spans ------------------------------------------------------------

    def open(self, name, func, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, func, layer, self.clock(), 0.0, parent,
                               self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    @contextlib.contextmanager
    def span(self, name, layer="harness"):
        """A span around a block of the benchmark's own code."""
        idx = self.open(name, name, layer)
        try:
            yield idx
        finally:
            self.close(idx)

    # --- bindings ---------------------------------------------------------

    def wrap(self, owner, attr, layer, func, counter=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counter(args, kwargs, result)`` returns a dict of counts stored on
        the span; it runs after the span closes, so its cost is not charged
        to the wrapped call.
        """
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner).split('.')[-1]}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, func, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- output -----------------------------------------------------------

    def write(self, path):
        """Spans as gzip CSV: run_id,index,parent,layer,name,func,start,end."""
        # Level 1: a kernels run writes ~4e5 spans; level 9 takes seconds.
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8",
                       newline="") as fh:
            fh.write("run_id,index,parent,layer,name,func,start,end\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.run_id},{i},{parent},{s.layer},{s.name},"
                         f"{s.func},{s.start!r},{s.end!r}\n")


def self_times(spans, lo=0, hi=None):
    """Self time of each span in ``spans[lo:hi]`` (a closed set of spans:
    every parent of a span in the range is in the range or None)."""
    hi = len(spans) if hi is None else hi
    own = {i: spans[i].duration for i in range(lo, hi)}
    for i in range(lo, hi):
        parent = spans[i].parent
        if parent is not None:
            own[parent] -= spans[i].duration
    return own


def outermost(spans, funcs, lo=0, hi=None):
    """Indices in ``spans[lo:hi]`` whose func is in ``funcs`` and that have
    no ancestor whose func is in ``funcs``.  Parents precede children, so one
    forward sweep settles each span's ancestry."""
    hi = len(spans) if hi is None else hi
    covered = {}
    out = []
    for i in range(lo, hi):
        parent = spans[i].parent
        above = parent is not None and parent >= lo and (
            covered[parent] or spans[parent].func in funcs)
        covered[i] = above
        if spans[i].func in funcs and not above:
            out.append(i)
    return out
