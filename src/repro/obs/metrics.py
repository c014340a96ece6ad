"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` is the single bookkeeping surface shared
by the planner, the adaptive service, the simulator, and the live
runtime.  Instruments are created on first touch and identified by a
name plus an optional label set (``node``, ``tree``, ``phase``, ...),
exactly like Prometheus series -- ``messages_sent{node="3"}`` and
``messages_sent{node="7"}`` are distinct series that aggregate to one
``messages_sent`` total.

Higher layers read the registry two ways:

- *totals* (:meth:`MetricsRegistry.counter_totals`): label sets summed
  per base name -- the stable, small view behind
  :class:`~repro.runtime.report.RuntimeReport` and ``--json`` output;
- *series* (:meth:`MetricsRegistry.counters`): every labeled series,
  the full-resolution view behind the Prometheus exporter
  (:func:`repro.obs.export.prometheus_text`).

A module-level *default registry* carries recordings from code that is
not handed an explicit registry (the planner's search counters, the
simulator's tallies).  The CLI swaps in a fresh one per invocation via
:func:`use_registry` so ``--metrics`` snapshots exactly one command.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]

#: Canonical label encoding: sorted ``(key, value)`` pairs, values
#: stringified so label identity never depends on value types.
LabelItems = Tuple[Tuple[str, str], ...]

#: One series: base name plus its canonical labels.
MetricKey = Tuple[str, LabelItems]


def labels_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonicalize a label mapping into a hashable series key."""
    # Nearly every hot-path incr/observe carries zero or one label;
    # those need no generator and no sort to be canonical.
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: LabelItems) -> str:
    """Prometheus-style series name: ``name{k="v",...}`` (or bare name)."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """A histogram that is exact while small and a sketch once large.

    Below ``SKETCH_THRESHOLD`` observations every value is retained and
    quantiles are exact (linear interpolation over the sorted values).
    Past the threshold the histogram switches to a bounded-memory
    reservoir sketch of ``RESERVOIR_SIZE`` slots, seeded so runs are
    reproducible: count, sum, mean, min and max stay exact via running
    accumulators, while quantiles become estimates read from the
    uniform sample.  The switch is one-way and automatic, so runs with
    millions of observations cannot grow memory without bound.

    The reservoir is Li's skip-count Algorithm L: rather than drawing a
    random number for every observation, it draws how many to skip
    before the next one enters.  ``_w`` is the largest of the retained
    items' uniform keys; the next key below it is a geometric number of
    observations away, and the retained keys then stand below ``_w``
    times a fresh ``U ** (1 / k)``.  Wherever the sample was formed
    whole -- the switch, a merge -- ``_w`` is drawn as the k-th smallest
    of ``count`` uniform keys, ``Beta(k, count - k + 1)``.
    """

    SKETCH_THRESHOLD = 4096
    RESERVOIR_SIZE = 1024  # at most SKETCH_THRESHOLD

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sketching = False
        self._rng = random.Random(0x5EED)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: While sketching: the reservoir's largest key, and the count at
        #: which the next observation replaces a retained value.
        self._w = 1.0
        self._next = 0

    # -- recording -----------------------------------------------------
    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` as ``times`` observations, in memory bounded
        whatever ``times`` is.  The sum grows by ``value * times``: the
        same float as ``times`` single observations for the integral
        readings it is used for (ages in periods)."""
        value = float(value)
        self._sum += value * times
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if not self._sketching:
            values = self._values
            room = self.SKETCH_THRESHOLD + 1 - len(values)
            if times < room:
                self._count += times
                values.extend([value] * times)
                return
            # One-way switch once past the threshold: downsample the
            # exact values into the reservoir, then keep a uniform
            # sample of the rest.
            values.extend([value] * room)
            self._count += room
            times -= room
            self._values = self._rng.sample(values, self.RESERVOIR_SIZE)
            self._sketching = True
            self._reseed()
        self._count += times
        while self._next <= self._count:
            self._values[self._rng.randrange(len(self._values))] = value
            self._skip()

    def _reseed(self) -> None:
        """Draw the skip state of a sample just formed whole from
        ``count`` observations."""
        k = len(self._values)
        self._w = self._rng.betavariate(k, self._count - k + 1)
        self._next = self._count
        self._skip()

    def _skip(self) -> None:
        """Schedule the next replacement past the one at ``_next``, and
        lower ``_w`` to the retained keys' new largest."""
        rng = self._rng
        gap = math.floor(math.log(1.0 - rng.random()) / math.log1p(-self._w))
        self._next += gap + 1
        self._w *= math.exp(math.log(1.0 - rng.random()) / len(self._values))

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still computed from every observation."""
        return not self._sketching

    def quantile(self, q: float) -> float:
        """q-quantile (exact, or estimated from the reservoir); 0.0 when empty."""
        return _interpolate(sorted(self._values), q)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self._values)  # once, for both quantiles
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": _interpolate(ordered, 0.5),
            "p95": _interpolate(ordered, 0.95),
            "max": self.max,
        }

    # -- cross-process merge (``repro deploy`` report aggregation) -----
    def dump(self) -> Dict[str, object]:
        """JSON-safe full state, for merging in another process."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "values": [], "exact": True}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "values": list(self._values),
            "exact": self.is_exact,
        }

    def absorb(self, data: Mapping[str, object]) -> None:
        """Fold a :meth:`dump` from another histogram into this one.

        Count, sum, min and max merge exactly.  Quantiles stay exact
        while the combined retained values fit under the sketch
        threshold; beyond that the merge downsamples into the
        reservoir.  A sketching side's retained value stands for
        ``count / len(values)`` observations, so each side gets
        reservoir slots in proportion to its observation count, not to
        how many values it kept.
        """
        count = int(data["count"])  # type: ignore[arg-type]
        if count == 0:
            return
        self._count += count
        self._sum += float(data["sum"])  # type: ignore[arg-type]
        self._min = min(self._min, float(data["min"]))  # type: ignore[arg-type]
        self._max = max(self._max, float(data["max"]))  # type: ignore[arg-type]
        incoming = [float(v) for v in data["values"]]  # type: ignore[union-attr]
        both_exact = not self._sketching and bool(data.get("exact", True))
        if both_exact and len(self._values) + len(incoming) <= self.SKETCH_THRESHOLD:
            self._values.extend(incoming)
            return
        take = round(self.RESERVOIR_SIZE * count / self._count)
        self._values = (self._pick(self._values, self.RESERVOIR_SIZE - take)
                        + self._pick(incoming, take))
        self._sketching = True
        self._reseed()

    def _pick(self, values: List[float], k: int) -> List[float]:
        """A uniform sample of ``k`` of ``values`` (all of them when ``k``
        covers every one)."""
        return values if k >= len(values) else self._rng.sample(values, k)


def _interpolate(ordered: List[float], q: float) -> float:
    """The q-quantile of sorted ``ordered`` by linear interpolation;
    0.0 when empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class _Untouched:
    """The value of a counter series nothing has added to yet: hidden
    from every reader, and the first addition starts it at ``0.0``."""

    __slots__ = ()

    def __add__(self, amount: Number) -> float:
        return 0.0 + amount


_UNTOUCHED = _Untouched()


class BoundCounter:
    """One counter series: the cell the registry keeps for it.

    ``incr(name, **labels)`` canonicalizes the labels and looks the
    cell up on every call; a hot path that always hits the same series
    binds it once (:meth:`MetricsRegistry.bind_counter`) and pays one
    attribute increment per :meth:`add`.  Binding records nothing: a
    cell starts untouched, and the first ``add`` makes the series, as
    the first ``incr`` would, so a bound but untouched counter shows up
    in no reader, exporter or dump.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[float, _Untouched] = _UNTOUCHED

    def add(self, amount: Number = 1) -> None:
        self.value += amount  # type: ignore[operator]


class MetricsRegistry:
    """Named counters, gauges, and histograms with label support."""

    def __init__(self) -> None:
        #: Every counter series' cell, untouched ones included (see
        #: :class:`BoundCounter`); readers go through :meth:`_touched`.
        self._counters: Dict[MetricKey, BoundCounter] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- recording -----------------------------------------------------
    def incr(self, name: str, amount: Number = 1, **labels: object) -> None:
        self._cell((name, labels_key(labels))).value += float(amount)  # type: ignore[operator]

    def bind_counter(self, name: str, **labels: object) -> BoundCounter:
        """The series ``incr(name, **labels)`` writes, pre-keyed."""
        return self._cell((name, labels_key(labels)))

    def _cell(self, key: MetricKey) -> BoundCounter:
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = BoundCounter()
        return cell

    def _touched(self) -> Iterator[Tuple[MetricKey, float]]:
        """Every counter series something has added to, with its value."""
        for key, cell in self._counters.items():
            value = cell.value
            if value is not _UNTOUCHED:
                yield key, value  # type: ignore[misc]

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, labels_key(labels))] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reading -------------------------------------------------------
    def counter(self, name: str, **labels: object) -> float:
        """The value of one exact series (0.0 when never touched)."""
        return self.counter_value((name, labels_key(labels)))

    def counter_total(self, name: str) -> float:
        """The sum of every series sharing ``name``, labels collapsed."""
        return sum(v for (n, _), v in self._touched() if n == name)

    def gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get((name, labels_key(labels)), 0.0)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """Get-or-create the histogram for one series."""
        key = (name, labels_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram()
        return found

    def counters(self) -> Dict[str, float]:
        """Every counter series, keyed by formatted series name."""
        return {
            format_series(name, labels): value
            for (name, labels), value in sorted(self._touched())
        }

    def gauges(self) -> Dict[str, float]:
        return {
            format_series(name, labels): value
            for (name, labels), value in sorted(self._gauges.items())
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {
            format_series(name, labels): hist
            for (name, labels), hist in sorted(self._histograms.items())
        }

    def counter_totals(self) -> Dict[str, float]:
        """Counters aggregated to base names (the compact report view)."""
        totals: Dict[str, float] = {}
        for (name, _labels), value in self._touched():
            totals[name] = totals.get(name, 0.0) + value
        return dict(sorted(totals.items()))

    def counter_value(self, key: MetricKey) -> float:
        """Series value by canonical key (exporter access path)."""
        cell = self._counters.get(key)
        if cell is None or cell.value is _UNTOUCHED:
            return 0.0
        return cell.value  # type: ignore[return-value]

    def gauge_value(self, key: MetricKey) -> float:
        return self._gauges.get(key, 0.0)

    def histogram_value(self, key: MetricKey) -> Histogram:
        return self._histograms[key]

    def series(self) -> Iterator[Tuple[str, MetricKey]]:
        """(kind, key) for every live series, in stable order."""
        for key, _value in sorted(self._touched()):
            yield "counter", key
        for key in sorted(self._gauges):
            yield "gauge", key
        for key in sorted(self._histograms):
            yield "histogram", key

    def as_dict(self) -> Dict[str, object]:
        """Full-resolution machine-readable snapshot."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: hist.summary() for name, hist in self.histograms().items()
            },
        }

    # -- cross-process merge (``repro deploy`` report aggregation) -----
    def dump(self) -> Dict[str, object]:
        """JSON-safe full-resolution state, labels preserved.

        Unlike :meth:`as_dict` (a human/CI summary), this is lossless
        enough to reconstruct totals and histogram quantile state in a
        different process -- workers dump, the supervisor absorbs.
        """
        return {
            "counters": [
                [name, [list(item) for item in labels], value]
                for (name, labels), value in sorted(self._touched())
            ],
            "gauges": [
                [name, [list(item) for item in labels], value]
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                [name, [list(item) for item in labels], hist.dump()]
                for (name, labels), hist in sorted(self._histograms.items())
            ],
        }

    def absorb(self, data: Mapping[str, object]) -> None:
        """Merge a :meth:`dump` into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge via :meth:`Histogram.absorb`.  Label sets are
        preserved, so per-worker series stay distinguishable when they
        carry distinguishing labels and aggregate when they do not.
        """

        def _key(name: object, labels: object) -> MetricKey:
            return (
                str(name),
                tuple((str(k), str(v)) for k, v in labels),  # type: ignore[union-attr]
            )

        for name, labels, value in data.get("counters", []):  # type: ignore[union-attr]
            self._cell(_key(name, labels)).value += float(value)  # type: ignore[operator]
        for name, labels, value in data.get("gauges", []):  # type: ignore[union-attr]
            self._gauges[_key(name, labels)] = float(value)
        for name, labels, hist_dump in data.get("histograms", []):  # type: ignore[union-attr]
            key = _key(name, labels)
            found = self._histograms.get(key)
            if found is None:
                found = self._histograms[key] = Histogram()
            found.absorb(hist_dump)

    def clear(self) -> None:
        # Counter cells stay: a bound counter keeps writing where every
        # reader looks, and reads as untouched until it does.
        for cell in self._counters.values():
            cell.value = _UNTOUCHED
        self._gauges.clear()
        self._histograms.clear()


#: The ambient registry used by code not handed an explicit one.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The current ambient registry (swap with :func:`use_registry`)."""
    return _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the ambient one; returns the previous."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the ambient default (the CLI's per-command
    isolation: two ``repro run`` invocations in one process must not
    bleed counters into each other's ``--metrics`` snapshot)."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
