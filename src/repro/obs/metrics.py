"""Counters, gauges and histogram timers behind a process-local registry.

This module is deliberately **zero-dependency** (stdlib only) and imports
nothing from the rest of ``repro``, so every layer — crypto, simulator,
overlay, secure core — can instrument itself without creating cycles.

Design goals, in order:

1. **Always on, and cheap.**  There is no off switch: every recording
   path is a dict lookup and an add, and hot paths hold an
   :class:`InternedCounter` to skip even the lookup.
2. **Bounded memory.**  Histograms keep exact count/sum/min/max forever
   but retain at most ``max_samples`` observations for the percentile
   estimates (ring-buffer overwrite beyond that), so a broker serving
   millions of operations does not grow without bound.
3. **One way to read.**  :meth:`Registry.snapshot` renders everything as
   plain dicts that serialise straight to ``BENCH_OBS.json``.

Naming conventions live in ``docs/OBSERVABILITY.md``; the machine-checked
pattern list is :data:`repro.obs.METRIC_PATTERNS`.
"""

from __future__ import annotations

import json
import math
import time

#: Retained observations per histogram (percentiles are computed over the
#: most recent window once exceeded; count/sum/min/max stay exact).
DEFAULT_MAX_SAMPLES = 8192


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, by: int = 1) -> None:
        self.value += by


class Gauge:
    """A named value that can go up and down (e.g. registered endpoints)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Streaming distribution summary with percentile estimates.

    Usable standalone or through a :class:`Registry`.  ``observe`` keeps
    exact aggregate moments and a bounded sample window for
    :meth:`percentile`.
    """

    __slots__ = ("name", "count", "total", "min_value", "max_value",
                 "_samples", "_sorted", "_max_samples", "_sum_sq")

    def __init__(self, name: str = "",
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min_value = 0.0
        self.max_value = 0.0
        self._sum_sq = 0.0
        self._samples: list[float] = []
        self._sorted: list[float] | None = []
        self._max_samples = max_samples

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min_value = self.max_value = value
        else:
            if value < self.min_value:
                self.min_value = value
            if value > self.max_value:
                self.max_value = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:  # ring-buffer overwrite: percentiles track the recent window
            self._samples[self.count % self._max_samples] = value
        self.count += 1
        self.total += value
        self._sum_sq += value * value
        self._sorted = None  # invalidate the percentile cache

    # -- statistics ----------------------------------------------------------

    @property
    def samples(self) -> tuple[float, ...]:
        """The retained observation window (insertion order)."""
        return tuple(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation over *all* observations (exact)."""
        if self.count < 2:
            return 0.0
        var = (self._sum_sq - self.count * self.mean * self.mean) / (self.count - 1)
        return math.sqrt(var) if var > 0.0 else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile over the retained window.

        An empty histogram reports 0.0 for every percentile (metrics must
        never raise in reporting paths); ``p`` outside [0, 100] raises.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (len(ordered) - 1) * (p / 100.0)
        lo = int(rank)
        frac = rank - lo
        if frac == 0.0:
            return ordered[lo]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _Timer:
    """Context manager recording elapsed wall time (ms) into a histogram."""

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._histogram.observe((time.perf_counter() - self._t0) * 1e3)


class Registry:
    """A namespace of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime.  The process registry (:func:`get_registry`) is what the
    instrumented layers record to; every overlay endpoint also owns one
    for its per-endpoint counts (``Endpoint.metrics``).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # -- recording conveniences ----------------------------------------------

    def incr(self, name: str, by: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.value += by

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def time(self, name: str) -> _Timer:
        """``with registry.time("overlay.login.latency_ms"): ...``"""
        return _Timer(self.histogram(name))

    # -- reading -------------------------------------------------------------

    def count(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def metric_names(self) -> list[str]:
        """Every metric name this registry has recorded, sorted."""
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> dict[str, dict]:
        """Everything recorded so far, as JSON-ready plain dicts."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self._histograms.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class InternedCounter:
    """A counter name resolved to its instrument once per registry.

    ``registry.incr(name)`` hashes the name into the instrument dict on
    every call; hot paths (one or more increments *per frame*) instead
    hold one of these, which caches the :class:`Counter` object and
    re-resolves only when the process registry is swapped (bench/test
    isolation).
    """

    __slots__ = ("name", "_registry", "_counter")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Registry | None = None
        self._counter: Counter | None = None

    def incr(self, by: int = 1) -> None:
        registry = _REGISTRY
        if registry is not self._registry:
            self._counter = registry.counter(self.name)
            self._registry = registry
        self._counter.value += by


class InternedHistogram:
    """Histogram twin of :class:`InternedCounter` (per-frame observes)."""

    __slots__ = ("name", "_registry", "_histogram")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Registry | None = None
        self._histogram: Histogram | None = None

    def observe(self, value: float) -> None:
        registry = _REGISTRY
        if registry is not self._registry:
            self._histogram = registry.histogram(self.name)
            self._registry = registry
        self._histogram.observe(value)


#: The process-local default registry every instrumented module records to.
_REGISTRY = Registry()


def get_registry() -> Registry:
    return _REGISTRY


def set_registry(registry: Registry) -> Registry:
    """Swap the process registry (tests / bench isolation).  Returns it."""
    global _REGISTRY
    _REGISTRY = registry
    return registry
