"""Span recorder that times calls into each ``src/repro`` layer from outside.

The benchmark leaves ``src/`` untouched: :class:`Tracer` wraps the public
methods of every class (and the public module-level functions) of each
layer module in this process, records one span per call that *enters* a
layer, and restores the originals on :meth:`Tracer.stop`.

A span is ``(span_id, parent_id, layer, method, op, thread, start_ns,
end_ns, cpu_start_ns, cpu_end_ns)``: wall clock from ``perf_counter_ns``,
thread CPU from ``thread_time_ns``.  Calls that stay inside the layer of
the innermost open span record nothing, so ``calls`` counts layer entries.
The first span on a thread other than the client thread (the scatter pool,
the asyncio loop) takes the client thread's innermost open span as parent.
A generator's resumptions are merged into one span whose ``end_ns -
start_ns`` is their summed wall time (one span per resumption would
dominate the cost of a B+-tree range scan).

Self time (:func:`self_times`) is computed per thread: a span's duration
minus the durations of its children on the same thread.  Pool-thread spans
are therefore not subtracted from the client-thread span that waits for
them; that wait shows as the client span's self wall minus self CPU.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: layer name -> module prefix; a package prefix covers its submodules
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("core", "repro.core"),
    ("xpath", "repro.xpath"),
    ("engines", "repro.engines"),
    ("filters.client", "repro.filters.client"),
    ("secretshare", "repro.secretshare"),
    ("prg", "repro.prg"),
    ("filters.cluster", "repro.filters.cluster"),
    ("rmi.cluster", "repro.rmi.cluster"),
    ("rmi.aio", "repro.rmi.aio"),
    ("rmi.transport", "repro.rmi.transport"),
    ("rmi.codec", "repro.rmi.codec"),
    ("filters.server", "repro.filters.server"),
    ("storage", "repro.storage"),
    ("gf", "repro.gf"),
    ("encode", "repro.encode"),
    ("rmi.write", "repro.rmi.write"),
    ("rmi.server", "repro.rmi.server"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: scalar field arithmetic is called per coefficient; only the kernels'
#: vector operations are timed as the ``gf`` layer
GF_SCALAR_OPS = frozenset({"add", "sub", "neg", "mul", "inv", "div", "pow"})


class Span(NamedTuple):
    span_id: int
    parent_id: int
    layer: str
    method: str
    op: Optional[object]
    thread: int
    start_ns: int
    end_ns: int
    cpu_start_ns: int
    cpu_end_ns: int


def _module_layer(module_name: str) -> Optional[str]:
    for layer, prefix in LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _traceable(func) -> bool:
    return isinstance(func, types.FunctionType) and not (
        inspect.iscoroutinefunction(func) or inspect.isasyncgenfunction(func)
    )


class Tracer:
    """Records spans at the layer seams while :attr:`enabled` is set.

    Create it on the client thread.  :attr:`op` is set by the driver before
    each operation; every span, on any thread, is stamped with it.
    """

    def __init__(self) -> None:
        #: raw span tuples in :class:`Span` field order (see :meth:`drain`)
        self._records: List[tuple] = []
        self.op: Optional[object] = None
        self.enabled = False
        self.client_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: List[Tuple[int, str]] = []
        self._local.stack = self._client_stack
        #: (owner, attribute, original value) for every installed wrapper
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def start(self) -> None:
        """Wrap every layer's public callables and start recording."""
        if not self._patches:
            self._install()
        self.enabled = True

    def stop(self) -> None:
        """Stop recording and restore every original callable."""
        self.enabled = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def drain(self) -> List[Span]:
        """The spans recorded so far, which the tracer then forgets."""
        spans = [Span(*record) for record in self._records]
        self._records.clear()
        return spans

    def _install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro")
        ]
        functions: Dict[int, Tuple[object, object]] = {}
        for module in modules:
            layer = _module_layer(module.__name__)
            if layer is None:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
                elif (
                    layer != "gf"
                    and _traceable(value)
                    and value.__module__ == module.__name__
                ):
                    functions[id(value)] = (value, self.wrap(layer, name, value))
        # ``from module import function`` copies the reference, so replace
        # it wherever a repro module holds it.
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, entry[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        if layer == "gf":
            from repro.gf.kernels import FieldKernel

            if not issubclass(cls, FieldKernel):
                return
        for name, value in list(vars(cls).items()):
            if name.startswith("_") or (layer == "gf" and name in GF_SCALAR_OPS):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                if not _traceable(value.__func__):
                    continue
                wrapped = type(value)(self.wrap(layer, name, value.__func__))
            elif _traceable(value):
                wrapped = self.wrap(layer, name, value)
            else:
                continue
            self._patches.append((cls, name, value))
            setattr(cls, name, wrapped)

    # ------------------------------------------------------------------
    # The wrappers
    # ------------------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _parent(self, stack: List[Tuple[int, str]]) -> int:
        if stack:
            return stack[-1][0]
        top = self._client_stack[-1:]  # a slice: atomic against the client
        return top[0][0] if top else 0

    def wrap(self, layer: str, method: str, func):
        """``func`` wrapped to record a span in ``layer`` per call while enabled."""
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(layer, method, func)
        # The body runs on every call into a layer, so it inlines
        # _stack/_parent and binds every lookup it can up front.
        tracer = self
        local = self._local
        client_stack = self._client_stack
        next_id = self._ids.__next__
        append = self._records.append
        perf = time.perf_counter_ns
        cpu = time.thread_time_ns
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                top = stack[-1]
                if top[1] == layer:
                    return func(*args, **kwargs)
                parent = top[0]
            else:
                top = client_stack[-1:]  # a slice: atomic against the client
                parent = top[0][0] if top else 0
            span_id = next_id()
            op = tracer.op
            stack.append((span_id, layer))
            start = perf()
            cpu_start = cpu()
            try:
                return func(*args, **kwargs)
            finally:
                cpu_end = cpu()
                end = perf()
                stack.pop()
                append((span_id, parent, layer, method, op, get_ident(),
                        start, end, cpu_start, cpu_end))

        return functools.wraps(func)(traced)

    def _wrap_generator(self, layer: str, method: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            generator = func(*args, **kwargs)
            if not tracer.enabled:
                return generator
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return generator
            return tracer._resumptions(layer, method, generator, tracer._parent(stack))

        return traced

    def _resumptions(self, layer, method, generator, parent):
        perf = time.perf_counter_ns
        cpu = time.thread_time_ns
        span_id = next(self._ids)
        op = self.op
        stack = self._stack()
        wall = busy = 0
        first_start = first_cpu = None
        try:
            while True:
                stack.append((span_id, layer))
                start = perf()
                cpu_start = cpu()
                if first_start is None:
                    first_start, first_cpu = start, cpu_start
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    busy += cpu() - cpu_start
                    wall += perf() - start
                    stack.pop()
                yield item
        finally:
            generator.close()
            if first_start is not None:
                self._records.append(
                    (span_id, parent, layer, method, op, threading.get_ident(),
                     first_start, first_start + wall, first_cpu, first_cpu + busy)
                )


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


class SelfTime(NamedTuple):
    wall_ns: int
    cpu_ns: int


def self_times(spans: Sequence[Span]) -> Dict[int, SelfTime]:
    """Per span: duration minus the durations of its same-thread children."""
    by_id = {span.span_id: span for span in spans}
    child_wall: Dict[int, int] = defaultdict(int)
    child_cpu: Dict[int, int] = defaultdict(int)
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.thread == span.thread:
            child_wall[span.parent_id] += span.end_ns - span.start_ns
            child_cpu[span.parent_id] += span.cpu_end_ns - span.cpu_start_ns
    return {
        span.span_id: SelfTime(
            span.end_ns - span.start_ns - child_wall[span.span_id],
            span.cpu_end_ns - span.cpu_start_ns - child_cpu[span.span_id],
        )
        for span in spans
    }


class LayerTotals(NamedTuple):
    calls: int
    #: self CPU summed over every thread
    cpu_ns: int
    #: self wall time on the client thread
    client_wall_ns: int
    #: self CPU on the client thread
    client_cpu_ns: int


def layer_totals(spans: Sequence[Span], client_thread: int) -> Dict[str, LayerTotals]:
    """Aggregate self time by layer (every layer present, zeros included)."""
    totals = {layer: [0, 0, 0, 0] for layer in LAYER_NAMES}
    selfs = self_times(spans)
    for span in spans:
        own = selfs[span.span_id]
        entry = totals.setdefault(span.layer, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += own.cpu_ns
        if span.thread == client_thread:
            entry[2] += own.wall_ns
            entry[3] += own.cpu_ns
    return {layer: LayerTotals(*entry) for layer, entry in totals.items()}
