"""Keeping a campaign's objects out of CPython's cyclic garbage collector.

A campaign stage builds its corpus as hundreds of thousands of small
tuples (``Hop``, ``TraceResult`` and their hop lists) that stay alive
until the run ends and form no reference cycles.  A collection that
scans them frees nothing, so two mechanisms keep the collector off them:

* :func:`gc_paused` pauses automatic collection while a stage executes
  its jobs.  Under supervision the same holds for the supervisor while
  it ingests the pool's traces and for each worker while it runs a
  shard; a resumed checkpoint folds its records paused too.
* :func:`campaign_scope` brackets a whole run.  Inside it, a pause ends
  with :func:`gc.freeze` just before the collector comes back on: what
  the stage built moves to the permanent generation, so neither the
  first gen-0 pass after the stage nor a later gen-1 or gen-2 pass
  scans it again.  The outermost scope's exit calls
  :func:`gc.unfreeze`, on return and on raise alike, so whatever the
  run leaves behind is collectable again.

A pause outside any scope does not freeze.  A frozen reference cycle is
never collected, and code that runs stages on their own (the service's
toy jobs) has no end of run at which to unfreeze it: each job would
leak its cyclic garbage for the life of the process.

The outermost scope also counts the collections that run inside it, by
generation, and the seconds they take (:class:`GcActivity`); the
``--profile`` report prints them.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time


class GcActivity:
    """Cyclic collections seen while a campaign scope was open.

    Installed as one :data:`gc.callbacks` entry.  Its numbers are not
    deterministic, so they belong in a report, never in an artifact.
    """

    __slots__ = ("collections", "seconds", "_started")

    def __init__(self) -> None:
        #: Collections per generation (0, 1, 2).
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


#: Open campaign scopes in this process, and the outermost one's
#: activity record.  Only the outermost entry and exit act, under
#: ``_lock``: the collector, like this count, is process-wide.
_lock = threading.Lock()
_depth = 0
_activity: "GcActivity | None" = None
#: Whether the open scope freezes: only when it found nothing frozen,
#: so that its unfreeze gives back exactly the permanent generation
#: it was handed.
_freezing = False


@contextlib.contextmanager
def campaign_scope():
    """Let stage pauses freeze what they built until the scope exits.

    Scopes nest: an inner scope yields the outermost scope's
    :class:`GcActivity`, and only the outermost exit unfreezes and
    removes the callback.
    """
    global _depth, _activity, _freezing
    with _lock:
        if _depth == 0:
            _activity = GcActivity()
            _freezing = gc.get_freeze_count() == 0
            gc.callbacks.append(_activity)
        _depth += 1
        activity = _activity
    try:
        yield activity
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.callbacks.remove(activity)
                _activity = None
                if _freezing:
                    gc.unfreeze()
                _freezing = False


@contextlib.contextmanager
def gc_paused():
    """Disable automatic cyclic collection for the ``with`` body.

    Only a collector that was enabled is disabled, and it is
    re-enabled on exit, exceptions included; nested or concurrent
    pauses therefore never leave it off.  Inside a
    :func:`campaign_scope` every tracked object is frozen just before
    the collector is re-enabled.  No collection is forced on exit: the
    next allocation threshold triggers one as usual.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if _freezing:
            gc.freeze()
        gc.enable()
