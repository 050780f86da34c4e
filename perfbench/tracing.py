"""Span tracing around calls into the simulator's layers.

Spans are recorded from the benchmark's side: :func:`install` wraps the
public entry point of each layer (trace build and compile, core
stepping, the FAME runner, the experiment context, the OS scheduler,
the result cache, the software pipeline, governor policies and the
service client) and :meth:`Installation.undo` puts the originals back, so
untraced passes run the unmodified program.  Nothing in ``src/`` is
edited.

A span is ``(name, start, end, parent, item, thread, extra)``: times
are ``perf_counter`` seconds, ``parent`` is the index of the enclosing
span on the same thread (or -1), ``item`` the benchmark item being
measured and ``extra`` a small per-layer payload (cycles stepped,
bytes fetched, ...).  Spans stay in memory until the run ends and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span log shared by every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # Telescoper counters are cumulative per core load; per-core
        # last readings turn them into deltas after every step.
        self._steady_seen: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self.jumps = 0
        self.jumped_cycles = 0

    # -- per-thread state ------------------------------------------------

    def set_item(self, item) -> None:
        """Tag spans opened on this thread from now on with ``item``."""
        self._local.item = item

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, extra=None):
        """``fn`` wrapped in a span called ``name``.

        ``name`` may be a callable of the call's arguments, for spans
        split by an argument (cell kind, governed or not).  ``extra``
        is called as ``extra(args, kwargs, result)`` after the call
        and its value is stored on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            label = name(args, kwargs) if callable(name) else name
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            payload = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    payload = extra(args, kwargs, result)
                return result
            finally:
                end = _clock()
                stack.pop()
                tracer.spans[index] = (
                    label, start, end, parent,
                    getattr(tracer._local, "item", None),
                    threading.get_ident(), payload)

        return traced

    def note_steady(self, core) -> None:
        """Fold the telescoper's jump counters of ``core`` into totals."""
        replay = getattr(core, "_steady", None)
        if replay is None:
            return
        last = self._steady_seen.get(core)
        if last is None or last[0] is not replay:
            base_jumps = base_cycles = 0
        else:
            _, base_jumps, base_cycles = last
        self.jumps += replay.jumps - base_jumps
        self.jumped_cycles += replay.jumped_cycles - base_cycles
        self._steady_seen[core] = (replay, replay.jumps,
                                   replay.jumped_cycles)

    def dump(self, out, pass_number: int) -> None:
        """Write every recorded span to ``out`` as one JSON line."""
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, item, thread, extra = span
            out.write(json.dumps({
                "pass": pass_number, "id": index, "name": name,
                "start": start, "end": end, "parent": parent,
                "item": item, "thread": thread, "extra": extra}) + "\n")


class Installation:
    """The set of wrappers :func:`install` put in place."""

    def __init__(self) -> None:
        self._methods: list[tuple] = []
        self._functions: list[tuple] = []

    def method(self, tracer, cls, attr, name, extra=None) -> None:
        original = cls.__dict__[attr]
        self._methods.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name, extra))

    def function(self, tracer, original, name, extra=None) -> None:
        """Wrap a module-level function under every name it is bound to.

        Modules import these functions by name (and the array engine
        binds one lazily), so each ``repro`` module holding the
        original object is patched, and :meth:`undo` sweeps again for
        bindings made while tracing was on.
        """
        wrapped = tracer.wrap(original, name, extra)
        self._functions.append((original, wrapped))
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def undo(self) -> None:
        for cls, attr, original in reversed(self._methods):
            setattr(cls, attr, original)
        for original, wrapped in self._functions:
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is wrapped:
                        setattr(module, attr, original)
        self._methods.clear()
        self._functions.clear()


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(tracer: Tracer) -> Installation:
    """Wrap each layer's public entry points; returns the undo handle."""
    from repro.core.array_engine import ArraySMTCore
    from repro.core.smt_core import SMTCore
    from repro.experiments.base import ExperimentContext
    from repro.fame.runner import FameRunner
    from repro.governor import policies
    from repro.sched.scheduler import OsScheduler
    from repro.service.client import ServiceClient
    from repro.simcache.store import SimCache
    from repro.workloads import tracecache
    from repro.workloads.pipeline import SoftwarePipeline

    inst = Installation()

    def stepped(args, kwargs, result):
        tracer.note_steady(args[0])
        return result

    inst.method(tracer, SMTCore, "step", "core.step", stepped)
    inst.method(tracer, ArraySMTCore, "step", "core.step", stepped)

    def fame_extra(args, kwargs, result):
        runner = args[0]
        secondary = args[2] if len(args) > 2 else kwargs.get("secondary")
        if secondary is None:
            return {"steady": runner.last_steady_state}
        return None

    inst.method(tracer, FameRunner, "run_pair", "fame.run_pair", fame_extra)
    inst.method(tracer, ExperimentContext, "compute_cell",
                lambda a, k: f"experiments.cell.{a[1][0]}")
    inst.method(tracer, ExperimentContext, "prefetch",
                "experiments.prefetch")
    inst.method(tracer, OsScheduler, "run", "sched.run")
    inst.method(tracer, SimCache, "store", "simcache.store")
    inst.method(tracer, SimCache, "lookup", "simcache.lookup",
                lambda a, k, r: {"hit": not SimCache.is_miss(r)})
    inst.method(tracer, SoftwarePipeline, "run",
                lambda a, k: ("pipeline.run.governed"
                              if k.get("governor") is not None
                              else "pipeline.run.static"))
    for cls in vars(policies).values():
        if (isinstance(cls, type) and issubclass(cls, policies.Policy)
                and "decide" in cls.__dict__):
            inst.method(tracer, cls, "decide", "governor.decide")
    inst.method(tracer, ServiceClient, "submit", "service.submit")
    inst.method(tracer, ServiceClient, "wait", "service.wait")
    inst.method(tracer, ServiceClient, "status", "service.status")
    inst.method(tracer, ServiceClient, "results", "service.results")
    inst.method(tracer, ServiceClient, "fetch_entry", "service.fetch",
                lambda a, k, r: {"bytes": len(r) if r else 0})

    inst.function(tracer, tracecache.cached_workload, "workloads.build")
    inst.function(tracer, tracecache.kernel_factory, "workloads.compile")
    inst.function(tracer, tracecache.compiled_trace, "workloads.compile")
    return inst


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _layer(name: str) -> str:
    """The layer a span's time is charged to.

    Span names are ``layer.entry`` or ``layer.entry.variant``; the
    variants of an entry (cell kinds, static or governed pipeline runs)
    share its layer.  Time of a span nested in another span of the
    same layer (compiled_trace inside kernel_factory, the object loop
    inside the array engine's step) is counted once, by the outer span.
    """
    return name.rsplit(".", 1)[0] if name.count(".") > 1 else name


def summarize(spans: list) -> dict:
    """Per-layer totals of a span list.

    Returns ``{"busy": {name: s}, "self": {name: s}, "count":
    {name: n}, ...}`` where ``busy`` and ``count`` skip spans nested in
    a span of the same layer and ``self`` is a span's duration minus
    the time its direct children cover.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    busy = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    cycles = 0
    chunks_in_fame = 0
    singles = engaged = 0
    lookups = hits = 0
    fetch_bytes = 0
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _, _, extra = span
        dur = end - start
        parent_span = spans[parent] if parent >= 0 else None
        nested = (parent_span is not None
                  and _layer(parent_span[0]) == _layer(name))
        own[name] += dur - child_time[index]
        if nested:
            continue
        busy[name] += dur
        count[name] += 1
        if name == "core.step":
            cycles += extra or 0
            if parent_span is not None and parent_span[0] == "fame.run_pair":
                chunks_in_fame += 1
        elif name == "fame.run_pair" and extra:
            singles += 1
            engaged += bool(extra["steady"])
        elif name == "simcache.lookup":
            lookups += 1
            hits += bool(extra and extra["hit"])
        elif name == "service.fetch" and extra:
            fetch_bytes += extra["bytes"]
    return {"busy": dict(busy), "self": dict(own), "count": dict(count),
            "cycles": cycles, "chunks_in_fame": chunks_in_fame,
            "singles": singles, "engaged": engaged,
            "lookups": lookups, "hits": hits, "fetch_bytes": fetch_bytes}
