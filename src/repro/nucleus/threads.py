"""Threads and a deterministic scheduler (section 5.1.1).

"A given site can support many simultaneous actors ... each supporting
the execution of many parallel threads."  Thread bodies are Python
generators; each ``yield`` is a preemption point, and yielding a
:class:`Recv` or :class:`Join` request blocks the thread until the
condition holds.  Scheduling is strict round-robin over runnable
threads, so every interleaving is reproducible — this is the Nucleus
analogue of the deterministic simulation the original Chorus team used
for kernel development (the "Nucleus Simulator" of section 5.2).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import InvalidOperation, IpcError

_thread_serial = itertools.count(1)


@dataclass
class Recv:
    """Block until a message arrives on *port*; resume with it."""

    port: str
    dst_cache: Any = None
    dst_offset: int = 0


@dataclass
class Join:
    """Block until *thread* finishes; resume with its return value."""

    thread: "KThread"


class KThread:
    """One thread: a generator plus its scheduling state."""

    def __init__(self, scheduler: "Scheduler", body: Iterator,
                 name: Optional[str] = None, actor=None):
        self.scheduler = scheduler
        self.body = body
        self.thread_id = next(_thread_serial)
        self.name = name or f"thread{self.thread_id}"
        self.actor = actor
        self.state = "runnable"            # runnable | blocked | done
        self.wait_request: Optional[Any] = None
        self.resume_value: Any = None
        self.result: Any = None
        self.steps = 0

    @property
    def done(self) -> bool:
        """True once the body returned."""
        return self.state == "done"

    def __repr__(self) -> str:
        return f"KThread({self.name}, {self.state}, {self.steps} steps)"


class Scheduler:
    """Round-robin over runnable threads until everything finishes."""

    def __init__(self, nucleus=None):
        self.nucleus = nucleus
        self._run_queue: "deque[KThread]" = deque()
        self._blocked: List[KThread] = []
        self.context_switches = 0

    # -- thread creation ---------------------------------------------------------

    def spawn(self, body_fn: Callable[..., Iterator], *args,
              name: Optional[str] = None, actor=None) -> KThread:
        """Create a thread from a generator function."""
        body = body_fn(*args)
        if not hasattr(body, "__next__"):
            raise InvalidOperation(
                "thread bodies must be generator functions (use yield)"
            )
        thread = KThread(self, body, name=name, actor=actor)
        self._run_queue.append(thread)
        return thread

    # -- execution ---------------------------------------------------------------------

    def _step(self, thread: KThread) -> None:
        self.context_switches += 1
        thread.steps += 1
        value, thread.resume_value = thread.resume_value, None
        try:
            request = thread.body.send(value) if thread.steps > 1 \
                else next(thread.body)
        except StopIteration as stop:
            thread.state = "done"
            thread.result = getattr(stop, "value", None)
            return
        if request is None:
            self._run_queue.append(thread)
            return
        thread.state = "blocked"
        thread.wait_request = request
        self._blocked.append(thread)

    def _try_unblock(self, thread: KThread) -> bool:
        request = thread.wait_request
        if isinstance(request, Recv):
            if self.nucleus is None:
                raise InvalidOperation("Recv requires a nucleus")
            port = self.nucleus.ipc.lookup_port(request.port)
            if port.pending == 0:
                return False
            thread.resume_value = self.nucleus.ipc.receive(
                request.port, dst_cache=request.dst_cache,
                dst_offset=request.dst_offset)
        elif isinstance(request, Join):
            if not request.thread.done:
                return False
            thread.resume_value = request.thread.result
        else:
            raise InvalidOperation(f"unknown wait request {request!r}")
        thread.state = "runnable"
        thread.wait_request = None
        return True

    def run(self, max_steps: int = 100_000) -> None:
        """Run until all threads finish; detect deadlock."""
        steps = 0
        while self._run_queue or self._blocked:
            progressed = False
            for thread in list(self._blocked):
                if self._try_unblock(thread):
                    self._blocked.remove(thread)
                    self._run_queue.append(thread)
                    progressed = True
            if self._run_queue:
                thread = self._run_queue.popleft()
                self._step(thread)
                progressed = True
            if not progressed:
                blocked = ", ".join(t.name for t in self._blocked)
                raise IpcError(f"deadlock: all threads blocked ({blocked})")
            steps += 1
            if steps > max_steps:
                raise InvalidOperation("scheduler step budget exhausted")

    @property
    def runnable_count(self) -> int:
        """Threads ready to run."""
        return len(self._run_queue)

    @property
    def blocked_count(self) -> int:
        """Threads waiting on a Recv/Join."""
        return len(self._blocked)
