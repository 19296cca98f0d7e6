"""A process-wide metrics registry: counters, gauges, histograms.

Zero-dependency and deliberately small: a metric is a named scalar (or
scalar summary) registered on first use, snapshot as plain JSON with
sorted keys so two runs' snapshots diff cleanly.  Names are dotted
paths by convention (``campaign.probes_sent``, ``cache.lookup_hits``,
``faults.stale_lookups``).

Three instrument kinds:

* :class:`Counter` — monotonically increasing count (cache hits,
  quarantined records);
* :class:`Gauge` — last-written value (fleet size, health snapshots
  published from cumulative component counters);
* :class:`Histogram` — count/sum/min/max summary of observations
  (per-stage trace counts, durations).

Producers either hold a bound instrument (the hot-path pattern used by
:class:`~repro.perf.cache.InferenceCache`) or publish a snapshot of
their own counters at sync points (the pattern used by
:class:`~repro.measure.runner.CampaignHealth`,
:class:`~repro.measure.traceroute.Tracerouter`, and
:class:`~repro.faults.injector.FaultStats`).
"""

from __future__ import annotations

import json


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: "int | float" = 0

    def set(self, value: "int | float") -> None:
        self.value = value


class Histogram:
    """A count/sum/min/max summary of observed values."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: "float | None" = None
        self.maximum: "float | None" = None

    def observe(self, value: "int | float") -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def as_dict(self) -> "dict[str, float]":
        payload = {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.minimum, 6) if self.minimum is not None else 0.0,
            "max": round(self.maximum, 6) if self.maximum is not None else 0.0,
        }
        if self.count:
            payload["mean"] = round(self.total / self.count, 6)
        return payload


class MetricsRegistry:
    """Creates-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # Convenience write/read
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: "int | float" = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: "int | float") -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: "int | float") -> None:
        self.histogram(name).observe(value)

    def counter_value(self, name: str) -> "int | float":
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def gauge_value(self, name: str) -> "int | float":
        instrument = self._gauges.get(name)
        return instrument.value if instrument is not None else 0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> "dict[str, dict[str, object]]":
        """All instruments as plain JSON-ready data, keys sorted."""

        def _round(value: "int | float") -> "int | float":
            return round(value, 6) if isinstance(value, float) else value

        return {
            "counters": {name: _round(c.value) for name, c in sorted(self._counters.items())},
            "gauges": {name: _round(g.value) for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.as_dict() for name, h in sorted(self._histograms.items())},
        }

    def to_json(self) -> str:
        payload = {"kind": "metrics-snapshot"}
        payload.update(self.snapshot())
        return json.dumps(payload, indent=2, sort_keys=True)
