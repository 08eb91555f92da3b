"""In-memory span and counter recorder that wraps functions from outside.

The traced benchmark run installs timing wrappers around each layer's public
functions without touching the package's source: every module attribute (or
class attribute) that holds a wrapped function is replaced by the wrapper, so
calls that look the name up through any module are timed.  Spans are kept in
memory and aggregated once the run has ended.

Recording is thread-safe.  A span opened in a thread that has no open span of
its own (an engine worker thread) attaches to the innermost open span that was
declared a *spawner* (the engine calls that dispatch work to a thread pool).
"""

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; children that run
    concurrently (in worker threads) overlap and are counted once.
    """
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.sid: (s.end - s.start) - union_length(children[s.sid]) for s in spans}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spawners: list[int] = []
        self._installed: list[tuple] = []  # (owner, attr, original)

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, spawner: bool = False):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._spawners[-1] if self._spawners else None
            if spawner:
                self._spawners.append(sid)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token, name: str, spawner: bool = False) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        with self._lock:
            if spawner:
                self._spawners.remove(sid)
            self.spans.append(Span(sid, parent, name, start, end))

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn, name: str, spawner: bool = False, timed: bool = True,
             on_call=None, on_result=None, count_errors=None):
        """A wrapper that records a span named `name` around each call.

        on_call(tracer, args, kwargs) and on_result(tracer, args, result) feed
        counters; with timed=False only the hooks run.  count_errors names an
        exception type whose raises are counted as `<name>.errors`.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            token = tracer.open(spawner) if timed else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if count_errors is not None and isinstance(exc, count_errors):
                    tracer.count(name + ".errors")
                raise
            finally:
                if timed:
                    tracer.close(token, name, spawner)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package: str, targets) -> None:
        """Install wrappers for `targets`: (location, name, options) triples.

        A location is ``module:attr`` or ``module:Class.attr``.  A target at
        the module that defines the function is also installed at every other
        module of `package` that imported the same object, unless another
        target claims that alias under its own name.  A location that no
        longer exists is recorded in `absent`; the run carries on.
        """
        resolved = []
        for location, name, opts in targets:
            owner, attr = _resolve(location)
            if owner is None:
                self.absent.append(name)
                continue
            resolved.append((owner, attr, getattr(owner, attr), name, opts))
        modules = _package_modules(package)
        claimed = {(id(owner), attr) for owner, attr, *_ in resolved}
        for owner, attr, original, name, opts in resolved:
            wrapper = self.wrap(original, name, **opts)
            self._replace(owner, attr, wrapper)
            if isinstance(owner, type) or getattr(original, "__module__", None) != owner.__name__:
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original and (id(mod), alias) not in claimed:
                        self._replace(mod, alias, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds and call count."""
        selfs = self_times(self.spans)
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for s in self.spans:
            agg = out[s.name]
            agg["s"] += s.end - s.start
            agg["self_s"] += selfs[s.sid]
            agg["calls"] += 1
        return dict(out)


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def _resolve(location: str):
    """(owner, attr) for ``module:attr`` / ``module:Class.attr``, or (None, None)."""
    mod_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr
