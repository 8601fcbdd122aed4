"""Span recording from outside the engine.

`Tracer.install` replaces the public callables of each layer with wrappers
that open a span, call through, and close it. Spans live in flat arrays
(name id, start, end, parent index, operation id) and are reduced to self
times only after the run, so recording stays cheap enough to trace the
inner cosine loop. Names are patched where callers resolve them: a name
bound by ``from x import f`` is patched in the importing module, and class
methods are patched on the class.
"""

from __future__ import annotations

import functools
import inspect
import os
import subprocess
import time
from array import array
from collections import Counter, defaultdict


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        dur = ends[i] - starts[i]
        kids = children.get(i)
        out.append(dur - union_length(kids, starts[i], ends[i]) if kids else dur)
    return out


def subprocess_kind(args) -> str:
    """Classify a child process by its argv: git plumbing, an oracle command
    (run through the shell as one string), or the agent's persistent shell."""
    if isinstance(args, (str, bytes)):
        return "oracle"
    prog = os.path.basename(str(list(args)[0])) if args else ""
    if prog == "git":
        return "git"
    if prog in ("bash", "sh"):
        return "shell"
    return "other"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def current_layer(self) -> str | None:
        if not self.stack:
            return None
        return self.names[self.name_id[self.stack[-1]]].split(".", 1)[0]

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span named `name`; `after(args, kwargs, result)` runs
        once the span is closed, to update counters from the result."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` (a module function or a class method)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, after))
        else:
            wrapped = self.wrap(name, raw, after)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_popen(self) -> None:
        tracer = self
        base = subprocess.Popen

        class CountingPopen(base):
            def __init__(self, args, *rest, **kwargs):
                layer = tracer.current_layer()
                if layer is not None:
                    kind = subprocess_kind(args)
                    tracer.counts[f"subprocess.{kind}"] += 1
                    tracer.counts[f"{layer}.subprocess.{kind}"] += 1
                super().__init__(args, *rest, **kwargs)

        self._undo.append((subprocess, "Popen", base))
        subprocess.Popen = CountingPopen

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reduction ------------------------------------------------------------

    def reduce(self) -> dict:
        """Self time and call count per span name, and per operation the
        sum of the engine's self times (every span but the `bench.*` ones)."""
        selfs = self_times(self.start, self.end, self.parent)
        by_name: dict[str, list] = defaultdict(lambda: [0.0, 0])
        op_engine: dict[int, float] = defaultdict(float)
        for i, s in enumerate(selfs):
            name = self.names[self.name_id[i]]
            rec = by_name[name]
            rec[0] += s
            rec[1] += 1
            if not name.startswith("bench."):
                op_engine[self.op[i]] += s
        return {
            "self_s": {n: v[0] for n, v in by_name.items()},
            "calls": {n: v[1] for n, v in by_name.items()},
            "op_engine_s": dict(op_engine),
        }
