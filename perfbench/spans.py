"""Per-layer span tracing for the benchmark's traced run.

The tracer wraps calls into each layer's public functions from outside the
program — nothing under ``src/`` changes.  A span records a name, start,
end, its parent span and two counters whose meaning depends on the span
(bytes for frames, rows examined and rows returned for engine executions,
backends reached by a write broadcast, entries dropped by an invalidation).

Spans go on a thread-local parent stack and belong to one client operation.
Backend calls run on the load balancer's broadcast pool, whose threads have
an empty stack; they find their operation through the request object that
``execute_write_request`` and ``execute_request`` both receive.  A span's
self time is its duration minus the union of its children's intervals.

Spans stay in memory until their operation ends, when they are folded into
per-``(operation kind, span name)`` totals; :meth:`Tracer.dump` writes the
totals out at the end of the run.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "a", "b")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end: Optional[float] = None
        self.a = 0
        self.b = 0


class _Op:
    __slots__ = ("kind", "spans")

    def __init__(self, kind: Optional[str]):
        self.kind = kind
        self.spans: List[Span] = []


def _covered(children: Iterable[Span], low: float, high: float) -> float:
    """Length of the union of the children's intervals, clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted((c.start, c.end) for c in children if c.end is not None):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Collects spans per operation and folds them into totals.

    ``orphan_roots`` names spans that may start outside any operation and
    then count on their own, under operation kind ``None`` (the server's
    frame reads and writes happen between requests).
    """

    def __init__(self, orphan_roots: Iterable[str] = ()):
        self._local = threading.local()
        self._by_request: Dict[int, Tuple[_Op, Span]] = {}
        self._orphan_roots = frozenset(orphan_roots)
        self._lock = threading.Lock()
        self.ops: Dict[str, int] = defaultdict(int)
        #: (kind, name) -> [count, self seconds, inclusive seconds, a, b]
        self.totals: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.unfinished = 0

    def _stack(self) -> List[Tuple[_Op, Span]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin_op(self, kind: Optional[str], name: str) -> Span:
        """Start the root span of a new operation on this thread."""
        op = _Op(kind)
        span = Span(name, None)
        op.spans.append(span)
        self._stack().append((op, span))
        span.start = perf_counter()
        return span

    def begin(self, name: str, request=None) -> Optional[Span]:
        """Start a child span; None when it belongs to no traced operation."""
        stack = self._stack()
        if stack:
            op, parent = stack[-1]
        else:
            entry = self._by_request.get(id(request)) if request is not None else None
            if entry is None:
                if name in self._orphan_roots:
                    return self.begin_op(None, name)
                return None
            op, parent = entry
        span = Span(name, parent)
        op.spans.append(span)
        stack.append((op, span))
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        op, _ = self._stack().pop()
        if span.parent is None:
            self._fold(op)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def bind(self, request) -> None:
        """Let other threads' spans for ``request`` join the current span."""
        self._by_request[id(request)] = self._stack()[-1]

    def unbind(self, request) -> None:
        self._by_request.pop(id(request), None)

    def _fold(self, op: _Op) -> None:
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in op.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        with self._lock:
            if op.kind is not None:
                self.ops[op.kind] += 1
            for span in op.spans:
                if span.end is None:
                    self.unfinished += 1
                    continue
                duration = span.end - span.start
                kids = children.get(id(span))
                own = duration - _covered(kids, span.start, span.end) if kids else duration
                key = (op.kind, span.name)
                entry = self.totals.get(key)
                if entry is None:
                    entry = self.totals[key] = [0, 0.0, 0.0, 0, 0]
                entry[0] += 1
                entry[1] += own
                entry[2] += duration
                entry[3] += span.a
                entry[4] += span.b

    def dump(self) -> dict:
        with self._lock:
            return {
                "ops": dict(self.ops),
                "unfinished": self.unfinished,
                "spans": [[kind, name, *entry] for (kind, name), entry in self.totals.items()],
            }


class Totals:
    """Read side of a :meth:`Tracer.dump`: sums by span-name prefix and kind."""

    def __init__(self, dump: dict):
        self.op_counts = dict(dump["ops"])
        self.rows = dump["spans"]

    def ops(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(self.op_counts.values())
        return self.op_counts.get(kind, 0)

    def _sum(self, column: int, prefix: str, kind: Optional[str], orphans: bool) -> float:
        total = 0
        for row in self.rows:
            row_kind, name = row[0], row[1]
            if not (name == prefix or name.startswith(prefix + ".")):
                continue
            if kind is not None and row_kind != kind:
                continue
            if row_kind is None and not orphans:
                continue
            total += row[2 + column]
        return total

    def count(self, prefix, kind=None, orphans=False) -> float:
        return self._sum(0, prefix, kind, orphans)

    def self_s(self, prefix, kind=None, orphans=False) -> float:
        return self._sum(1, prefix, kind, orphans)

    def incl_s(self, prefix, kind=None, orphans=False) -> float:
        return self._sum(2, prefix, kind, orphans)

    def a(self, prefix, kind=None, orphans=False) -> float:
        return self._sum(3, prefix, kind, orphans)

    def b(self, prefix, kind=None, orphans=False) -> float:
        return self._sum(4, prefix, kind, orphans)


# ---------------------------------------------------------------------------
# instrumentation: wrappers around each layer's public functions
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, original: Callable, request_arg=None, note=None):
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        span = begin(name, args[request_arg] if request_arg is not None else None)
        if span is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
            if note is not None:
                note(span, args, result)
            return result
        finally:
            end(span)

    return wrapper


def install(tracer: Tracer, server: bool = False) -> Callable[[], None]:
    """Wrap every layer's entry points; return the function that unwraps them.

    With ``server`` set, a ``PreparedStatementHandle.execute`` outside any
    operation starts one: on the controller side of the wire it is the
    first call a client request makes into the controller.
    """
    import repro.net.protocol as protocol
    import repro.sql.engine as engine_module
    import repro.sql.parser as parser_module
    from repro.core.backend import DatabaseBackend
    from repro.core.cache.result_cache import ResultCache
    from repro.core.loadbalancer.base import AbstractLoadBalancer
    from repro.core.pipeline import Pipeline
    from repro.core.recovery.recovery_log import RecoveryLog
    from repro.core.request_manager import PreparedStatementHandle, RequestManager
    from repro.core.requestparser import ParsedTemplate, RequestFactory
    from repro.core.scheduler.base import AbstractScheduler
    from repro.net.client import RemotePreparedHandle
    from repro.planner.planner import QueryPlanner
    from repro.sql.executor import Executor
    from repro.sql.storage import HashIndex, Table

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def span(owner, attr, name, request_arg=None, note=None) -> None:
        patch(owner, attr, lambda original: _spanned(tracer, name, original, request_arg, note))

    def note_bytes(counter: str):
        # FrameSocket counts its own traffic; the span takes the delta
        def make(original):
            begin, end = tracer.begin, tracer.end

            def wrapper(frames, *args, **kwargs):
                span_ = begin(f"net.{original.__name__}")
                if span_ is None:
                    return original(frames, *args, **kwargs)
                before = getattr(frames, counter)
                try:
                    return original(frames, *args, **kwargs)
                finally:
                    span_.a = getattr(frames, counter) - before
                    end(span_)

            return wrapper

        return make

    # driver -> net (client side of the wire)
    span(RemotePreparedHandle, "execute", "net.call")
    patch(protocol.FrameSocket, "send", note_bytes("bytes_out"))
    patch(protocol.FrameSocket, "recv", note_bytes("bytes_in"))
    span(protocol, "encode_frame", "net.encode")
    span(protocol, "decode_frame_payload", "net.decode")

    # controller entry points and the pipeline
    def handle_root(original):
        inner = _spanned(tracer, "pipeline.handle", original)

        def wrapper(handle, *args, **kwargs):
            if tracer.current() is not None:
                return inner(handle, *args, **kwargs)
            root = tracer.begin_op("write" if handle.is_write else "read", "pipeline.handle")
            try:
                return original(handle, *args, **kwargs)
            finally:
                tracer.end(root)

        return wrapper

    if server:
        patch(PreparedStatementHandle, "execute", handle_root)
    else:
        span(PreparedStatementHandle, "execute", "pipeline.handle")
    span(RequestManager, "execute", "pipeline.manager")
    span(Pipeline, "execute", "pipeline.execute")

    # requestparser
    span(RequestFactory, "get_template", "requestparser.get_template")
    span(RequestFactory, "create_request", "requestparser.create_request")
    span(ParsedTemplate, "instantiate", "requestparser.instantiate")

    # scheduler, cache, recovery log, planner
    span(AbstractScheduler, "schedule_read", "scheduler.read")
    span(AbstractScheduler, "schedule_write", "scheduler.write")
    span(ResultCache, "get", "cache.get")
    span(ResultCache, "put", "cache.put")

    def note_invalidated(span_, args, dropped):
        span_.a = dropped

    span(ResultCache, "invalidate", "cache.invalidate", note=note_invalidated)
    span(RecoveryLog, "log_request", "recovery.log")
    span(QueryPlanner, "plan_for_request", "planner.plan")

    # load balancer: backend calls on pool threads join through the request
    span(AbstractLoadBalancer, "execute_read_request", "loadbalancer.read")

    def lb_write(original):
        begin, end = tracer.begin, tracer.end

        def wrapper(balancer, request, *args, **kwargs):
            span_ = begin("loadbalancer.write")
            if span_ is None:
                return original(balancer, request, *args, **kwargs)
            tracer.bind(request)
            try:
                outcome = original(balancer, request, *args, **kwargs)
                span_.a = outcome.backends_executed
                return outcome
            finally:
                tracer.unbind(request)
                end(span_)

        return wrapper

    patch(AbstractLoadBalancer, "execute_write_request", lb_write)
    span(DatabaseBackend, "execute_request", "backend.execute", request_arg=1)

    # engine: parses, executions, rows examined and returned
    span(engine_module, "parse", "sql.parse")
    span(parser_module, "parse", "sql.parse")

    def note_returned(span_, args, result):
        span_.b = len(result.rows) if result.columns else 0

    span(Executor, "execute", "sql.exec", note=note_returned)

    def rows(original):
        def wrapper(table):
            items = list(original(table))
            current = tracer.current()
            if current is not None:
                current.a += len(items)
            return iter(items)

        return wrapper

    def lookup(original):
        def wrapper(index, key):
            row_ids = original(index, key)
            current = tracer.current()
            if current is not None:
                current.a += len(row_ids)
            return row_ids

        return wrapper

    patch(Table, "rows", rows)
    patch(HashIndex, "lookup", lookup)

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall
