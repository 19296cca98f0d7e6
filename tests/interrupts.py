"""Interrupting a campaign the way a user does: Ctrl-C inside a probe."""

from __future__ import annotations


def interrupt_after(runner, traces: int):
    """Make *runner* raise ``KeyboardInterrupt`` from ``_run_trace``
    once it has run *traces* traces; returns the runner.

    The interrupt lands inside the next job, as a Ctrl-C mid-probe
    does, so that job is not finished and the stage saves the ones
    before it.  Serial and supervised runners alike: the supervised
    runner consumes its workers' traces through the same seam.
    """
    run_trace = runner._run_trace
    ran = 0

    def counting(vp, target, flow_id):
        nonlocal ran
        if ran == traces:
            raise KeyboardInterrupt
        ran += 1
        return run_trace(vp, target, flow_id)

    runner._run_trace = counting
    return runner
