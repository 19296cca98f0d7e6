"""Pausing CPython's automatic cyclic garbage collection.

A campaign stage builds its corpus as hundreds of thousands of small
tuples (``Hop``, ``TraceResult`` and their hop lists) that stay alive
until the run ends and form no reference cycles.  Every full collection
during the stage rescans all of them and frees nothing, so the runner
pauses automatic collection while a stage executes its jobs.  Under
supervision the same holds for the supervisor while it ingests the
pool's traces and for each worker while it runs a shard.
"""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def gc_paused():
    """Disable automatic cyclic collection for the ``with`` body.

    Only a collector that was enabled is disabled, and it is
    re-enabled on exit, exceptions included; nested or concurrent
    pauses therefore never leave it off.  No collection is forced on
    exit: the next allocation threshold triggers one as usual.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
