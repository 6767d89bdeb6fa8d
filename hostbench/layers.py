"""Outside-in layer tracing: wrappers installed around each layer's public functions.

Nothing under ``src/`` is traced.  :func:`install` replaces the boundary
functions listed in :data:`TIMED` and :data:`COUNTED` with wrappers defined
here and returns a handle whose ``restore()`` puts every original back.

* Per-op functions (10^5-10^6 calls per pass) are only *counted*: a timer
  around each call would dominate what it measures.  Counting goes through
  ``itertools.count.__next__``, which is atomic under the interpreter lock,
  so worker-pool threads never lose an update.
* Phase-level functions are *timed* as spans ``(id, parent, metric, count,
  start, end, returned_true)``.  A span's parent is the innermost open span
  on the same thread; its self time is its duration minus the durations of
  its children.  Spans on pool threads have no parent, so
  ``runtime.join_wait_s`` (the root thread parked in ``TaskGroup.join``)
  overlaps the busy spans of the workers it waits for.
* A span is counted only when it is the outermost of its count on the
  thread, so ``Token.try_reclaim`` -> ``EpochManager.try_reclaim`` is one
  attempt, not two.

The columnar executor inlines its own charge/serve arithmetic, so
``comm.serve_calls`` and ``comm.charge_calls`` cover only the paths that
still call ``ServicePoint``/``NetworkModel`` methods.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (time metric, count metric or None, targets).  A target is
#: ``"module:Class.attr"`` (the class and every subclass that overrides
#: ``attr``) or ``"module:function"`` (every ``repro`` module that imported it).
TIMED: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("runtime.build_s", "runtime.builds", ("repro.runtime.runtime:Runtime.__init__",)),
    (
        "comm.route_compile_s",
        None,
        (
            "repro.comm.network:NetworkModel.atomic_class_routes",
            "repro.comm.network:NetworkModel.atomic_route_table",
        ),
    ),
    ("comm.route_compile_s", "comm.route_rows", ("repro.comm.topology:Topology.distance_row",)),
    ("runtime.spawn_s", "runtime.tasks", ("repro.runtime.tasking:TaskGroup.spawn",)),
    ("runtime.join_wait_s", None, ("repro.runtime.tasking:TaskGroup.join",)),
    (
        "engine.lower_s",
        "engine.columns",
        ("repro.engine.opstream:mix_column", "repro.engine.opstream:zipf_column"),
    ),
    (
        "engine.columnar_s",
        None,
        (
            "repro.engine.executor:run_uniform_atomic_phase",
            "repro.engine.executor:run_ebr_epoch_phase",
            "repro.engine.executor:run_guard_epoch_phase",
            "repro.engine.executor:run_epoch_workload_phase",
        ),
    ),
    ("engine.alloc_phase_s", None, ("repro.engine.executor:run_alloc_phase",)),
    ("engine.serial_s", None, ("repro.engine.executor:serial_tasks",)),
    (
        "reclaim.try_reclaim_s",
        "reclaim.attempts",
        (
            "repro.core.epoch_manager:EpochManager.try_reclaim",
            "repro.reclaim.protocol:ReclaimerBase.try_reclaim",
            "repro.reclaim.ebr:EBRReclaimer.try_reclaim",
            "repro.core.token:Token.try_reclaim",
            "repro.reclaim.protocol:GuardBase.try_reclaim",
        ),
    ),
    (
        "reclaim.clear_s",
        None,
        (
            "repro.core.epoch_manager:EpochManager.clear",
            "repro.reclaim.protocol:ReclaimerBase.clear",
            "repro.reclaim.ebr:EBRReclaimer.clear",
        ),
    ),
    ("memory.free_bulk_s", None, ("repro.memory.heap:Heap.free_bulk",)),
    (
        "structures.s",
        "structures.ops",
        (
            "repro.structures.treiber_stack:LockFreeStack.push",
            "repro.structures.treiber_stack:LockFreeStack.pop",
            "repro.structures.msqueue:LockFreeQueue.enqueue",
            "repro.structures.msqueue:LockFreeQueue.dequeue",
            "repro.structures.interlocked_hash_table:InterlockedHashTable.get",
            "repro.structures.interlocked_hash_table:InterlockedHashTable.contains",
            "repro.structures.interlocked_hash_table:InterlockedHashTable.put",
            "repro.structures.interlocked_hash_table:InterlockedHashTable.remove",
            "repro.structures.interlocked_hash_table:InterlockedHashTable.update",
        ),
    ),
    (
        "bench.report_s",
        None,
        (
            "repro.bench.scenarios:ScenarioRun.report_entry",
            "repro.bench.scenarios:_baseline_status",
        ),
    ),
)

#: (count metric, targets) for per-op functions.
COUNTED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "comm.serve_calls",
        ("repro.runtime.clock:ServicePoint.serve", "repro.runtime.clock:ServicePoint.serve_locked"),
    ),
    (
        "comm.charge_calls",
        (
            "repro.comm.network:NetworkModel.charge_atomic",
            "repro.comm.network:NetworkModel.atomic_op",
            "repro.comm.network:NetworkModel.read",
            "repro.comm.network:NetworkModel.write",
            "repro.comm.network:NetworkModel.am_roundtrip",
        ),
    ),
    (
        "core.pins",
        (
            "repro.core.token:Token.pin",
            "repro.core.token:Token.unpin",
            "repro.reclaim.protocol:GuardBase.pin",
            "repro.reclaim.protocol:GuardBase.unpin",
        ),
    ),
    ("memory.allocs", ("repro.memory.heap:Heap.alloc",)),
    ("memory.frees", ("repro.memory.heap:Heap.free",)),
)

#: Context-manager targets: the span covers the ``with`` block.
_CONTEXT_MANAGERS = {"repro.engine.executor:serial_tasks"}

TIME_METRICS = tuple(dict.fromkeys(metric for metric, _, _ in TIMED))
COUNT_METRICS = (
    tuple(dict.fromkeys(count for _, count, _ in TIMED if count))
    + ("reclaim.advances",)
    + tuple(metric for metric, _ in COUNTED)
)


class _Count:
    """A thread-safe call counter (``tick`` is ``itertools.count.__next__``)."""

    __slots__ = ("tick", "_reads")

    def __init__(self) -> None:
        self.tick = itertools.count().__next__
        self._reads = 0

    def value(self) -> int:
        value = self.tick() - self._reads
        self._reads += 1
        return value


class Tracer:
    """Spans and counts recorded by the installed wrappers, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, Optional[str], float, float, bool]] = []
        self.counts: Dict[str, _Count] = {metric: _Count() for metric, _ in COUNTED}
        self._ids = itertools.count(1).__next__
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def timed(self, fn: Callable, metric: str, count: Optional[str]) -> Callable:
        spans, new_id, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else (0, None)
            sid = new_id()
            stack.append((sid, count))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                outermost = count if parent[1] != count else None
                spans.append((sid, parent[0], metric, outermost, start, end, result is True))

        return wrapper

    def timed_context(self, fn: Callable, metric: str) -> Callable:
        spans, new_id, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args: Any, **kwargs: Any):
            # One span from entering the block to leaving it, open while
            # the block runs so the block's own spans nest under it.
            stack = stack_of()
            parent = stack[-1] if stack else (0, None)
            sid = new_id()
            stack.append((sid, None))
            start = clock()
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent[0], metric, None, start, end, False))

        return wrapper

    def counted(self, fn: Callable, metric: str) -> Callable:
        tick = self.counts[metric].tick

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- reading ---------------------------------------------------------
    def mark(self) -> Tuple[int, Dict[str, int]]:
        """A position to measure one pass from (see :meth:`since`)."""
        return len(self.spans), {m: c.value() for m, c in self.counts.items()}

    def since(self, mark: Tuple[int, Dict[str, int]]) -> Dict[str, float]:
        """Self time per time metric and counts per count metric since ``mark``."""
        first, before = mark
        spans = self.spans[first:]
        child_time: Dict[int, float] = {}
        for _sid, parent, _m, _c, start, end, _r in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, float] = {m: 0.0 for m in TIME_METRICS}
        out.update({m: 0 for m in COUNT_METRICS})
        for sid, _parent, metric, count, start, end, returned_true in spans:
            out[metric] += (end - start) - child_time.get(sid, 0.0)
            if count is not None:
                out[count] += 1
                if count == "reclaim.attempts" and returned_true:
                    out["reclaim.advances"] += 1
        for metric, counter in self.counts.items():
            out[metric] = counter.value() - before[metric]
        return out


def _resolve(target: str) -> Tuple[Any, str, Callable]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


def _owners(owner: Any, attr: str, original: Callable) -> List[Tuple[Any, str, Callable]]:
    """Every (namespace, name) bound to ``original`` or overriding it."""
    found = []
    if isinstance(owner, type):
        classes, seen = [owner], set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            fn = cls.__dict__.get(attr)
            if fn is None:
                continue
            # The override plus its aliases (``tryReclaim = try_reclaim``).
            found.extend((cls, name, fn) for name, value in vars(cls).items() if value is fn)
        return found
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            found.extend(
                (module, key, original) for key, value in vars(module).items() if value is original
            )
    return found


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes every patch."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Callable]] = []

    def patch(self, owner: Any, name: str, original: Callable, wrapper: Callable) -> None:
        if any(o is owner and n == name for o, n, _ in self.patches):
            raise ValueError(f"{owner!r}.{name} is named by two boundaries")
        self.patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every boundary function; call ``restore()`` on the result to undo."""
    import repro.reclaim  # noqa: F401 -- registers every reclaimer subclass
    import repro.structures  # noqa: F401

    handle = Installed()
    plan: List[Tuple[str, Callable[[Callable], Callable]]] = []
    for metric, count, targets in TIMED:
        for target in targets:
            if target in _CONTEXT_MANAGERS:
                make = functools.partial(tracer.timed_context, metric=metric)
            else:
                make = functools.partial(tracer.timed, metric=metric, count=count)
            plan.append((target, make))
    for metric, targets in COUNTED:
        for target in targets:
            plan.append((target, functools.partial(tracer.counted, metric=metric)))
    try:
        for target, make in plan:
            wrappers: Dict[int, Callable] = {}
            for owner, name, fn in _owners(*_resolve(target)):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = make(fn)
                handle.patch(owner, name, fn, wrappers[id(fn)])
    except BaseException:
        handle.restore()
        raise
    return handle
