"""Lockdep for the locks of ``src/repro``, checked where they run.

The :func:`lock_discipline` fixture swaps every lock the package
constructs (:data:`LOCKS`) for a :class:`RecordingLock` around it, and
watches the calls that may block (:data:`BLOCKING`).  Two rules hold
over every test it is applied to:

* **GC110, lock order.**  Each thread keeps the stack of the locks it
  holds; acquiring lock *B* while holding *A* adds the edge *A* → *B* to
  one graph kept for the whole session.  Locks are nodes by name
  (``GraphCacheService._lock``), not by instance, as Linux lockdep keys
  them by class, so one test that takes two locks in one order and
  another that takes them in the other order make a cycle, though
  neither test deadlocked.  A test's teardown fails when an edge it
  added closed a cycle, so the test that closed it is the one that
  fails.
* **GC111, nothing blocks under the service lock.**  A socket send or
  receive, ``open``, ``os.replace``, ``time.sleep``, a ``subprocess``
  start, ``encode_snapshot`` or ``save_snapshot`` that runs while its
  thread holds ``GraphCacheService._lock`` fails the test's teardown:
  every session waits behind that lock.  A blocking call counts when the
  first caller outside the standard library is the package's own code;
  a test's stub that blocks on purpose is the test's business.

The recorded order is what the tests drove, as in lockdep, and the
lock-set idea is Eraser's (Savage et al., TOCS 1997).  GC120, who may
write the shared state, is a structural check:
``tests/test_lock_discipline.py``.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import io
import os
import socket
import subprocess
import sys
import sysconfig
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

import pytest

from repro.api.service import GraphCacheService
from repro.matching import plans
from repro.persist import snapshot as snapshot_codec
from repro.runtime.monitor import StatisticsMonitor
from repro.serve.metrics import ServerStats
from repro.serve.server import CacheServer

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")
STDLIB = tuple(sysconfig.get_paths()[key] for key in ("stdlib", "platstdlib"))

#: Every lock ``src/repro`` constructs, by name: the owner it lives on
#: and its attribute there.  A class's lock is wrapped per instance, on
#: its first read under the fixture (so a lock installed later, as
#: ``session()`` installs ``_lock`` under ``lock_mode="auto"``, and one
#: built before the fixture started are wrapped too); a module's lock
#: is wrapped once.  The no-op ``nullcontext`` that stands in for
#: ``_lock`` under ``lock_mode="auto"`` until then is wrapped as well:
#: a one-caller service holds it where a shared one holds the lock.
LOCKS: dict[str, tuple[Any, str]] = {
    "GraphCacheService._lock": (GraphCacheService, "_lock"),
    "GraphCacheService._close_lock": (GraphCacheService, "_close_lock"),
    "GraphCacheService._session_guard": (GraphCacheService,
                                         "_session_guard"),
    "GraphCacheService._save_lock": (GraphCacheService, "_save_lock"),
    "StatisticsMonitor._mutex": (StatisticsMonitor, "_mutex"),
    "CacheServer._drain_lock": (CacheServer, "_drain_lock"),
    "CacheServer._flight_cond": (CacheServer, "_flight_cond"),
    "ServerStats._lock": (ServerStats, "_lock"),
    "plans._ATOMS_LOCK": (plans, "_ATOMS_LOCK"),
}
SERVICE_LOCK = "GraphCacheService._lock"

#: What may not run under the service lock: (owner, attribute).
BLOCKING: tuple[tuple[Any, str], ...] = (
    (socket.socket, "send"), (socket.socket, "sendall"),
    (socket.socket, "recv"), (socket.socket, "recv_into"),
    (builtins, "open"), (io, "open"), (os, "replace"), (time, "sleep"),
    (subprocess.Popen, "__init__"),
    (snapshot_codec, "encode_snapshot"), (snapshot_codec, "save_snapshot"),
)

_LOCK_TYPES = (type(threading.Lock()), threading.Condition,
               contextlib.nullcontext)


class Recorder:
    """The session's lock graph, acquisition counts and blocking calls.

    ``edges`` maps ``(held, acquired)`` to where it was first seen."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], str] = {}
        self.acquired: Counter[str] = Counter()
        self.blocked: list[str] = []
        self._guard = threading.Lock()   # a plain lock: never recorded
        self._held = threading.local()

    def held(self) -> list[str]:
        """The calling thread's held locks, oldest first."""
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def took(self, name: str) -> None:
        stack = self.held()
        with self._guard:
            self.acquired[name] += 1
            for held in stack:
                if (held, name) not in self.edges:
                    self.edges[(held, name)] = _site()
        stack.append(name)

    def dropped(self, name: str) -> None:
        stack = self.held()
        for at in range(len(stack) - 1, -1, -1):
            if stack[at] == name:
                del stack[at]
                return

    def blocking(self, what: str) -> None:
        """Record ``what`` if it runs under the service lock at the
        package's request."""
        if SERVICE_LOCK in self.held() and _asked_by_package():
            with self._guard:
                self.blocked.append(f"{what} under {SERVICE_LOCK} at "
                                    f"{_site()}")

    def describe(self, cycle: list[str]) -> str:
        return "; ".join(f"{a} -> {b} first at {self.edges[(a, b)]}"
                         for a, b in zip(cycle, cycle[1:]))

    def mark(self) -> tuple[int, int]:
        """Where :meth:`faults_since` starts counting."""
        with self._guard:
            return len(self.blocked), len(self.edges)

    def faults_since(self, mark: tuple[int, int]) -> list[str]:
        """The blocking calls recorded since ``mark``, and a cycle
        through an edge added since (a cycle an earlier test closed
        fails that test, not every later one)."""
        blocked, seen = mark
        with self._guard:
            faults = [f"blocking under the service lock (GC111): {what}"
                      for what in self.blocked[blocked:]]
            edges = list(self.edges)
        for a, b in edges[seen:]:
            back = find_path(edges, b, a)
            if back is not None:
                cycle = [a, *back]
                faults.append(f"lock-order cycle (GC110) "
                              f"{' -> '.join(cycle)}: "
                              f"{self.describe(cycle)}")
                break
        return faults


def find_path(edges: list[tuple[str, str]], start: str,
              goal: str) -> list[str] | None:
    """A path ``[start, ..., goal]`` along ``edges``, or None."""
    successors: dict[str, list[str]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    came_from: dict[str, str | None] = {start: None}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = came_from[node]
            return path[::-1]
        for step in successors.get(node, ()):
            if step not in came_from:
                came_from[step] = node
                frontier.append(step)
    return None


def _site() -> str:
    """``file:line`` of the nearest frame outside this module and the
    standard library."""
    frame = sys._getframe(1)
    while frame is not None and (frame.f_code.co_filename == __file__
                                 or frame.f_code.co_filename.startswith(
                                     STDLIB)):
        frame = frame.f_back
    if frame is None:
        return "?"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _asked_by_package() -> bool:
    """The nearest caller outside this module and the standard library
    is in ``src/repro``."""
    return _site().startswith(SRC)


class RecordingLock:
    """A lock or condition (or the ``nullcontext`` standing in for one)
    that reports each acquire and release to a :class:`Recorder`;
    everything else is the wrapped object's."""

    def __init__(self, name: str, inner: Any, recorder: Recorder) -> None:
        self.name = name
        self._inner = inner
        self._recorder = recorder

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._recorder.took(self.name)
        return got

    def release(self) -> None:
        self._recorder.dropped(self.name)
        self._inner.release()

    def __enter__(self) -> Any:
        entered = self._inner.__enter__()
        self._recorder.took(self.name)
        return entered

    def __exit__(self, *exc: Any) -> Any:
        self._recorder.dropped(self.name)
        return self._inner.__exit__(*exc)

    def wait(self, timeout: float | None = None) -> bool:
        """A condition's wait gives the lock up until it returns."""
        self._recorder.dropped(self.name)
        try:
            return self._inner.wait(timeout)
        finally:
            self._recorder.took(self.name)

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._inner, attribute)

    @property  # type: ignore[misc]
    def __class__(self) -> type:
        """``isinstance`` sees the wrapped lock's type."""
        return type(self._inner)


class _Wrapping:
    """Class-level stand-in for a per-instance lock attribute: the
    instance's lock is read back wrapped, and stays so."""

    def __init__(self, name: str, attribute: str, recorder: Recorder) -> None:
        self.name = name
        self.attribute = attribute
        self.recorder = recorder

    def __get__(self, obj: object, owner: type | None = None) -> Any:
        if obj is None:
            return self
        try:
            value = obj.__dict__[self.attribute]
        except KeyError:
            raise AttributeError(self.attribute) from None
        if type(value) in _LOCK_TYPES:
            value = obj.__dict__[self.attribute] = RecordingLock(
                self.name, value, self.recorder)
        return value

    def __set__(self, obj: object, value: Any) -> None:
        obj.__dict__[self.attribute] = value


def _watched(what: str, function: Callable[..., Any],
             recorder: Recorder) -> Callable[..., Any]:
    @functools.wraps(function)
    def watched(*args: Any, **kwargs: Any) -> Any:
        recorder.blocking(what)
        return function(*args, **kwargs)
    return watched


RECORDER = Recorder()


def install(monkeypatch: pytest.MonkeyPatch,
            recorder: Recorder = RECORDER) -> None:
    """Wrap every lock of :data:`LOCKS` and watch every call of
    :data:`BLOCKING` for ``recorder``, until ``monkeypatch`` undoes it."""
    for name, (owner, attribute) in LOCKS.items():
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attribute,
                                _Wrapping(name, attribute, recorder),
                                raising=False)
        else:
            monkeypatch.setattr(owner, attribute, RecordingLock(
                name, getattr(owner, attribute), recorder))
    for owner, attribute in BLOCKING:
        original = getattr(owner, attribute)
        what = f"{getattr(owner, '__name__', owner)}.{attribute}"
        watched = _watched(what, original, recorder)
        monkeypatch.setattr(owner, attribute, watched)
        # A package module that imported the function by name calls
        # its own binding.
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro.")
                    and getattr(module, attribute, None) is original):
                monkeypatch.setattr(module, attribute, watched)


@pytest.fixture
def lock_discipline() -> Iterator[Recorder]:
    """Run the test under lockdep; its teardown fails on a blocking call
    under the service lock during the test, or on a lock-order cycle in
    the session's graph once the test added an edge to it."""
    mark = RECORDER.mark()
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch)
        yield RECORDER
    faults = RECORDER.faults_since(mark)
    assert not faults, "; ".join(faults)
