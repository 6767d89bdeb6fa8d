"""Tasking: a persistent worker pool running simulated tasks on real threads.

Chapel's ``coforall`` creates one task per iteration and blocks until all
complete; ``forall`` creates a bounded number of worker tasks.  Both map
here onto :class:`TaskGroup`, a structured fork/join *submission handle*
over the runtime's :class:`WorkerPool`.  Each simulated task carries a
:class:`~repro.runtime.clock.TaskClock` seeded from its parent and runs on
one of a small, reused set of real Python threads (so interleavings, CAS
retries, and races are genuine) instead of a freshly created OS thread per
task — thread creation and GIL convoying used to dominate the simulator's
real wall-clock time.

Virtual-time composition is unchanged from the thread-per-task engine:
children are seeded at ``parent.now + fork_overhead`` where the overhead
models a binomial spawn tree (``ceil(log2(n+1))`` rounds of spawning); at
``join`` the parent's clock jumps to the latest child finish time plus a
join cost.  This is the rule that makes a timed ``forall`` report the
*slowest* task — exactly what a wall-clock measurement on the real machine
reports.  Virtual-time results are independent of real-thread scheduling
and therefore of the pool size (see docs/ENGINE.md).

Exception policy: the first exception raised by any child is re-raised in
the parent at ``join`` (after all children have stopped), so test failures
inside tasks surface as ordinary test failures.

Deadlock freedom: a joining task *helps* — while its children are pending
it pops and runs queued work items on its own thread.  A nested
``coforall`` inside a pool worker therefore always makes progress even
when every pool thread is blocked in a join, and the pool can stay small
(bounded by :meth:`~repro.runtime.config.RuntimeConfig.resolved_worker_pool_size`).
A joiner finding nothing to pop parks on the pool's one lock; it is woken
by the completion that drops its group's pending count to zero, or by a
submission that no idle worker will take.  Both read the parked-joiner
count under the same lock the joiner parks under, so no wake-up is lost
(:data:`PARK_BACKSTOP_S` is a backstop, not the wake mechanism).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from ..errors import RuntimeStateError
from .clock import TaskClock
from .context import TaskContext, context_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = ["TaskGroup", "WorkerPool", "spawn_tree_overhead"]


def spawn_tree_overhead(n_tasks: int, per_spawn: float) -> float:
    """Virtual cost of launching ``n_tasks`` via a binomial spawn tree.

    A single task spawning ``n`` children serially would pay ``n *
    per_spawn``; real runtimes fan out in a tree, paying ``ceil(log2(n+1))``
    rounds.  We charge every child the full tree depth (a conservative,
    uniform seed time).
    """
    if n_tasks <= 0:
        return 0.0
    return math.ceil(math.log2(n_tasks + 1)) * per_spawn


#: Longest a parked joiner sleeps before re-checking its group.  Every
#: wake-up it needs is signalled under the pool lock, so this only bounds
#: the damage of a protocol bug; it is not a tuning knob.
PARK_BACKSTOP_S = 0.05


class _WorkItem:
    """One submitted simulated task: body, context, and owning group."""

    __slots__ = ("fn", "args", "ctx", "group")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        ctx: TaskContext,
        group: "TaskGroup",
    ) -> None:
        self.fn = fn
        self.args = args
        self.ctx = ctx
        self.group = group

    def run(self) -> None:
        """Execute the task body under its context; report to the group."""
        group = self.group
        try:
            with context_scope(self.ctx):
                self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - forwarded at join
            # list.append is atomic; join reads the list only after it has
            # seen the pending count reach zero under the pool lock.
            group._errors.append(exc)
        finally:
            group._task_done()


class WorkerPool:
    """A bounded, lazily-grown pool of daemon threads running simulated tasks.

    One pool lives on each :class:`~repro.runtime.runtime.Runtime` and is
    reused across every ``coforall``/``forall`` for that runtime's whole
    life, then torn down on ``Runtime.close()`` (or garbage collection of
    the runtime).  Threads are created only when work is queued and no
    worker is idle, up to ``max_workers``; beyond that, items wait in the
    queue and are drained by workers finishing earlier items or by joining
    tasks *helping* (see :meth:`TaskGroup.join`).

    The pool's one lock also guards every group's pending count and the
    count of parked joiners (see the module docstring).
    """

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))
        # Two conditions over ONE lock: workers park on _cond, helping
        # joiners on _helpers.  Separate wait queues mean a submit's
        # notify() always lands on the idle worker it accounted for and
        # can never be stolen by a parked joiner.
        self._lock = lock = threading.Lock()
        self._cond = threading.Condition(lock)
        self._helpers = threading.Condition(lock)
        self._queue: Deque[_WorkItem] = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        #: Idle workers already notified but not yet re-running: submit
        #: must not count them as available or a burst of submissions
        #: would all "wake" the same worker and serialize on it.
        self._woken = 0
        #: Joiners waiting on _helpers; a completion or a submission
        #: notifies only when this is non-zero.
        self._parked = 0
        self._shutdown = False

    # -- introspection ----------------------------------------------------
    @property
    def max_workers(self) -> int:
        """Upper bound on pool threads (config: ``worker_pool_size``)."""
        return self._max_workers

    @property
    def thread_count(self) -> int:
        """Threads created so far (grows lazily, never shrinks until close)."""
        with self._lock:
            return len(self._threads)

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has run; submissions then fail."""
        return self._shutdown

    # -- submission / draining --------------------------------------------
    def submit(self, item: _WorkItem) -> None:
        """Queue one task (counted pending in its group); wake or grow."""
        with self._lock:
            if self._shutdown:
                raise RuntimeStateError("WorkerPool used after shutdown")
            item.group._pending += 1
            self._queue.append(item)
            if self._idle > self._woken:
                self._woken += 1
                self._cond.notify()
            elif len(self._threads) < self._max_workers:
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()
            elif self._parked:
                # Every worker is busy or already woken; wake parked
                # joiners so a helping join can pick the item up.
                self._helpers.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue:
                    if self._shutdown:
                        return
                    self._idle += 1
                    self._cond.wait()
                    self._idle -= 1
                    if self._woken:
                        self._woken -= 1
                item = self._queue.popleft()
            item.run()

    def shutdown(self) -> None:
        """Stop all workers (queued items are drained first, then exit).

        Called by ``Runtime.close()`` and by the runtime's garbage-collection
        finalizer; callers must be quiescent (no outstanding joins).
        Idempotent and safe to call from any thread, including a pool
        worker (it simply skips joining itself).
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
            self._helpers.notify_all()
            threads = list(self._threads)
        me = threading.current_thread()
        for t in threads:
            if t is not me:
                t.join(timeout=2.0)


class TaskGroup:
    """A structured group of simulated tasks submitted to the worker pool.

    The group decides once, at construction, whether its tasks go to the
    runtime's pool or run inline in spawn order (trace detail ``full``).
    """

    def __init__(self, runtime: "Runtime") -> None:
        self._rt = runtime
        self._pool: Optional[WorkerPool] = (
            None if runtime._inline_tasks else runtime._worker_pool()
        )
        self._clocks: List[TaskClock] = []
        self._errors: List[BaseException] = []
        #: Tasks submitted but not finished; guarded by the pool lock.
        self._pending = 0
        self._spawned = 0
        self._joined = False

    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        *,
        locale_id: int,
        start_time: float,
    ) -> None:
        """Submit ``fn(*args)`` as a task on ``locale_id`` at ``start_time``.

        The task receives a fresh :class:`TaskContext` whose RNG seed is
        derived from the runtime seed and the task id, so workload
        randomness is reproducible run-to-run and independent of which
        pool thread ends up executing the task.
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        rt = self._rt
        clock = TaskClock(start_time)
        task_id = rt._next_task_id()
        item = _WorkItem(
            fn,
            args,
            TaskContext(rt, locale_id, clock, task_id, (rt.config.seed << 20) ^ task_id),
            self,
        )
        pool = self._pool
        self._clocks.append(clock)
        if pool is None:
            # Canonical serial schedule (trace detail "full"): run the
            # task right here, in spawn-submission order — the schedule
            # the compiled engine replays.  Virtual time is unchanged by
            # the pool-size-invariance contract; per-serve micro-values
            # become schedule-independent facts.  context_scope nests, so
            # tasks spawning tasks compose; errors surface at join() as
            # usual.
            item.run()
        else:
            try:
                pool.submit(item)
            except BaseException:
                self._clocks.pop()
                raise
        self._spawned += 1

    # -- pool callbacks ----------------------------------------------------
    def _task_done(self) -> None:
        pool = self._pool
        if pool is None:
            return  # inline: the task finished inside spawn()
        with pool._lock:
            self._pending -= 1
            # Only this group's joiner waits on the count, and only for
            # zero; the parked count is read under the lock the joiner
            # parks under, so skipping the notify never loses a wake-up.
            if not self._pending and pool._parked:
                pool._helpers.notify_all()

    # -- join ---------------------------------------------------------------
    def join(self) -> float:
        """Block until all tasks finish; return the latest virtual finish.

        While waiting, the joining thread *helps*: it pops queued work
        items (its own children or anyone else's) and runs them inline.
        This keeps nested fork/join constructs deadlock-free on a bounded
        pool and shortens the critical path.  Re-raises the first child
        exception, if any, after all children have stopped.
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        self._joined = True
        pool = self._pool
        if pool is not None:
            queue = pool._queue
            helpers = pool._helpers
            while True:
                with pool._lock:
                    if not self._pending:
                        break
                    if not queue:
                        # All our remaining children are running on real
                        # threads: park until the last one completes or
                        # helpable work is queued.
                        pool._parked += 1
                        helpers.wait(PARK_BACKSTOP_S)
                        pool._parked -= 1
                        continue
                    item = queue.popleft()
                item.run()
        if self._errors:
            raise self._errors[0]
        return max((c.now for c in self._clocks), default=0.0)

    @property
    def task_count(self) -> int:
        """Number of tasks spawned into this group."""
        return self._spawned
