"""Spans around every public qxwit function, recorded from outside the package.

``Tracer.install`` replaces each public function in every namespace that
binds it (the package and its five modules) with a timing wrapper, so calls
between modules are seen too.  ``Tracer.uninstall`` puts every original
back.  Spans stay in memory until ``write``.

Layer metrics are computed from the spans: counts, busy time (the union of a
function's span intervals over all threads) and self time (a span's duration
minus the union of the intervals of its nearest descendants in other layers).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass

#: Namespaces that bind public qxwit functions.
MODULES = ("qxwit", "qxwit.qcore", "qxwit.xstate", "qxwit.witness", "qxwit.certify", "qxwit.cli")


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>", layer = defining module
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


def _seesaw_info(bound, result) -> dict:
    return {"cycles": result.cycles, "restarts": result.restarts, "max_cycles": bound.arguments["max_cycles"]}


def _exposedness_info(bound, result) -> dict:
    return {"prune_tasks": len(result.prune_records)}


#: Facts read off a call's arguments and result, per traced function.
INFO = {
    "witness.min_product_value": _seesaw_info,
    "certify.exposedness_certificate": _exposedness_info,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._main = threading.get_ident()
        self._stacks: dict = {}  # thread id -> [(span id, name)] of open spans
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: list = []

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("qxwit"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, name, obj = self._patches.pop()
            setattr(mod, name, obj)

    def _parent(self, tid: int):
        stack = self._stacks.setdefault(tid, [])
        if stack:
            return stack[-1][0]
        if tid == self._main:
            return None
        # A pool thread's first span belongs to the certify call that waits on it.
        main = list(self._stacks.get(self._main, ()))
        for sid, name in reversed(main):
            if name.startswith("certify."):
                return sid
        return main[-1][0] if main else None

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        info = INFO.get(name)
        sig = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            parent = self._parent(tid)
            with self._id_lock:
                self._next_id += 1
                sid = self._next_id
            stack = self._stacks[tid]
            stack.append((sid, name))
            span = Span(sid, name, 0.0, 0.0, parent, tid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if info:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            {"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "thread": s.thread, **({"info": s.info} if s.info else {})}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
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


class SpanIndex:
    def __init__(self, spans):
        self.spans = list(spans)
        self.children: dict = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, *names) -> list:
        return [s for s in self.spans if s.name in names]

    def calls(self, *names) -> int:
        return len(self.named(*names))

    def busy(self, *names) -> float:
        return union_length((s.start, s.end) for s in self.named(*names))

    def total(self, *names) -> float:
        return sum((s.end - s.start for s in self.named(*names)), 0.0)

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the nearest descendants in other layers."""
        foreign, todo = [], list(self.children.get(span.id, ()))
        while todo:
            child = todo.pop()
            if child.layer == span.layer:
                todo.extend(self.children.get(child.id, ()))
            else:
                foreign.append((max(child.start, span.start), min(child.end, span.end)))
        return (span.end - span.start) - union_length(i for i in foreign if i[1] > i[0])

    def self_total(self, name: str) -> float:
        return sum((self.self_time(s) for s in self.named(name)), 0.0)


def layer_metrics(spans, stdout_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    ix = SpanIndex(spans)
    seesaw = ("witness.min_product_value", "witness.seesaw_minima")
    mpv = [s.info for s in ix.named("witness.min_product_value") if s.info]
    cycle_restarts = sum(i["cycles"] * i["restarts"] for i in mpv)
    mpv_sum = ix.total("witness.min_product_value")
    ms = 1e3
    return {
        "witness.seesaw.calls": (ix.calls(*seesaw), "count"),
        "witness.seesaw.busy_s": (ix.busy(*seesaw), "s"),
        "witness.seesaw.sum_s": (ix.total(*seesaw), "s"),
        "witness.seesaw.cycle_restarts": (cycle_restarts, "count"),
        "witness.seesaw.us_per_cycle_restart": (1e6 * mpv_sum / cycle_restarts if cycle_restarts else 0.0, "us"),
        "witness.seesaw.at_cap_frac": (
            sum(i["cycles"] >= i["max_cycles"] for i in mpv) / len(mpv) if mpv else 0.0, "ratio"),
        "witness.kernel_vector.calls": (ix.calls("witness.kernel_vector"), "count"),
        "witness.kernel_vector.busy_ms": (ms * ix.busy("witness.kernel_vector"), "ms"),
        "witness.pairing.calls": (ix.calls("witness.pairing"), "count"),
        "witness.pairing.busy_ms": (ms * ix.busy("witness.pairing"), "ms"),
        "certify.exposedness.self_s": (ix.self_total("certify.exposedness_certificate"), "s"),
        "certify.exposedness.prune_tasks": (
            sum(s.info["prune_tasks"] for s in ix.named("certify.exposedness_certificate") if s.info), "count"),
        "certify.spanning.self_ms": (ms * ix.self_total("certify.spanning_check"), "ms"),
        "certify.detect.self_ms": (ms * ix.self_total("certify.find_ppt_entangled"), "ms"),
        "certify.ppt_check.calls": (ix.calls("certify.ppt_check"), "count"),
        "certify.ppt_check.busy_ms": (ms * ix.busy("certify.ppt_check"), "ms"),
        "certify.kernel_classify.calls": (ix.calls("certify.kernel_classify"), "count"),
        "certify.kernel_classify.busy_ms": (ms * ix.busy("certify.kernel_classify"), "ms"),
        "qcore.partial_transpose.calls": (ix.calls("qcore.partial_transpose"), "count"),
        "qcore.partial_transpose.busy_ms": (ms * ix.busy("qcore.partial_transpose"), "ms"),
        "qcore.herm_min_eig.calls": (ix.calls("qcore.herm_min_eig"), "count"),
        "qcore.herm_min_eig.busy_ms": (ms * ix.busy("qcore.herm_min_eig"), "ms"),
        "qcore.check_hermitian.calls": (ix.calls("qcore.check_hermitian"), "count"),
        "xstate.x_norm.calls": (ix.calls("xstate.x_norm"), "count"),
        "xstate.x_norm.busy_ms": (ms * ix.busy("xstate.x_norm"), "ms"),
        "xstate.rank4_separability_check.calls": (ix.calls("xstate.rank4_separability_check"), "count"),
        "xstate.rank4_separability_check.busy_ms": (ms * ix.busy("xstate.rank4_separability_check"), "ms"),
        "xstate.reconstruct_product_vector.calls": (ix.calls("xstate.reconstruct_product_vector"), "count"),
        "xstate.reconstruct_product_vector.busy_ms": (ms * ix.busy("xstate.reconstruct_product_vector"), "ms"),
        "cli.main.calls": (ix.calls("cli.main"), "count"),
        "cli.main.self_ms": (ms * ix.self_total("cli.main"), "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
