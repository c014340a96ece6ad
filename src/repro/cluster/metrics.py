"""Time-varying metric value generators.

The real-system part of the paper's evaluation (Fig. 8) measures the
*average percentage error* between the collector's view of each
node-attribute pair and the ground-truth value at the same instant.
Error comes from staleness: values delayed by tree depth or dropped at
overloaded nodes leave the collector holding an old reading while the
true value keeps moving.  To reproduce that, the simulator needs
plausible continuously changing signals; this module provides the
generators (random walks, AR(1) processes, bursty regime-switching
rates, and noisy constants) plus a registry that owns one generator
per node-attribute pair.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.attributes import NodeAttributePair


class MetricGenerator:
    """Base class: a scalar signal advanced in unit-time steps.

    Subclasses implement :meth:`_step`; :attr:`current` always holds the
    value at the present simulation instant.
    """

    def __init__(self, initial: float) -> None:
        self.current = float(initial)

    def advance(self, rng: random.Random) -> float:
        """Advance one unit of time and return the new current value."""
        self.current = self._step(rng)
        return self.current

    def _step(self, rng: random.Random) -> float:
        raise NotImplementedError


class RandomWalkMetric(MetricGenerator):
    """A bounded additive random walk (e.g. queue occupancy)."""

    def __init__(
        self,
        initial: float = 50.0,
        step: float = 2.0,
        low: float = 0.0,
        high: float = 100.0,
    ) -> None:
        if low >= high:
            raise ValueError(f"need low < high, got [{low}, {high}]")
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        super().__init__(min(max(initial, low), high))
        self.step_size = step
        self.low = low
        self.high = high

    def _step(self, rng: random.Random) -> float:
        value = self.current + rng.uniform(-self.step_size, self.step_size)
        return min(max(value, self.low), self.high)


class AR1Metric(MetricGenerator):
    """A mean-reverting AR(1) process (e.g. CPU utilization)."""

    def __init__(
        self,
        mean: float = 50.0,
        phi: float = 0.9,
        sigma: float = 3.0,
        initial: Optional[float] = None,
    ) -> None:
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"phi must be in [0, 1), got {phi}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        super().__init__(mean if initial is None else initial)
        self.mean = mean
        self.phi = phi
        self.sigma = sigma

    def _step(self, rng: random.Random) -> float:
        return self.mean + self.phi * (self.current - self.mean) + rng.gauss(0.0, self.sigma)


class BurstyMetric(MetricGenerator):
    """A two-regime (calm/burst) rate signal.

    Stream processing workloads are "highly bursty" (Section 1); this
    generator switches between a calm level and a burst level with
    configurable transition probabilities, with multiplicative noise.
    """

    def __init__(
        self,
        calm_level: float = 100.0,
        burst_level: float = 1000.0,
        p_enter_burst: float = 0.05,
        p_exit_burst: float = 0.3,
        noise: float = 0.1,
    ) -> None:
        if calm_level <= 0 or burst_level <= 0:
            raise ValueError("levels must be > 0")
        if not (0 <= p_enter_burst <= 1 and 0 <= p_exit_burst <= 1):
            raise ValueError("transition probabilities must be in [0, 1]")
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        super().__init__(calm_level)
        self.calm_level = calm_level
        self.burst_level = burst_level
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self.noise = noise
        self._bursting = False

    def _step(self, rng: random.Random) -> float:
        if self._bursting:
            if rng.random() < self.p_exit_burst:
                self._bursting = False
        else:
            if rng.random() < self.p_enter_burst:
                self._bursting = True
        level = self.burst_level if self._bursting else self.calm_level
        return level * (1.0 + rng.uniform(-self.noise, self.noise))


class ConstantNoiseMetric(MetricGenerator):
    """A constant plus small Gaussian noise (e.g. a config-derived gauge)."""

    def __init__(self, level: float = 10.0, sigma: float = 0.5) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        super().__init__(level)
        self.level = level
        self.sigma = sigma

    def _step(self, rng: random.Random) -> float:
        return self.level + rng.gauss(0.0, self.sigma)


#: Factory signature used by :class:`MetricRegistry`.
MetricFactory = Callable[[NodeAttributePair, random.Random], MetricGenerator]


def default_metric_factory(pair: NodeAttributePair, rng: random.Random) -> MetricGenerator:
    """Mixed-population default: walks, AR(1), bursty, and gauges."""
    choice = rng.random()
    if choice < 0.4:
        return AR1Metric(mean=rng.uniform(20, 80), phi=0.9, sigma=rng.uniform(1, 5))
    if choice < 0.7:
        return RandomWalkMetric(initial=rng.uniform(10, 90), step=rng.uniform(1, 4))
    if choice < 0.85:
        return BurstyMetric(calm_level=rng.uniform(50, 200), burst_level=rng.uniform(500, 2000))
    return ConstantNoiseMetric(level=rng.uniform(5, 50), sigma=rng.uniform(0.1, 1.0))


class MetricRegistry:
    """Ground-truth signal store: one generator per node-attribute pair.

    The simulator advances all generators each unit of time; the
    collector's view is compared against :meth:`value` snapshots to
    compute percentage error.
    """

    def __init__(
        self,
        pairs: Iterable[NodeAttributePair],
        factory: MetricFactory = default_metric_factory,
        seed: Optional[int] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._generators: Dict[NodeAttributePair, MetricGenerator] = {
            pair: factory(pair, self._rng) for pair in pairs
        }

    def __len__(self) -> int:
        return len(self._generators)

    def __contains__(self, pair: NodeAttributePair) -> bool:
        return pair in self._generators

    def pairs(self) -> Iterable[NodeAttributePair]:
        return self._generators.keys()

    def value(self, pair: NodeAttributePair) -> float:
        """Ground-truth value of ``pair`` at the current instant."""
        return self._generators[pair].current

    def reader(self, pairs: Sequence[NodeAttributePair]) -> Callable[[], List[float]]:
        """A sampler bound to ``pairs``: each call returns their current
        values, in order, without looking a pair up again.  Agents sample
        and both engines score through it, so a registry that overrides
        :meth:`value` overrides this too."""
        generators = [self._generators[pair] for pair in pairs]
        return lambda: [generator.current for generator in generators]

    def advance_all(self) -> None:
        """Advance every signal by one unit of time."""
        for gen in self._generators.values():
            gen.advance(self._rng)

    def ensure(self, pair: NodeAttributePair, factory: Optional[MetricFactory] = None) -> None:
        """Register ``pair`` lazily (used when tasks add new pairs at runtime)."""
        if pair not in self._generators:
            make = factory if factory is not None else default_metric_factory
            self._generators[pair] = make(pair, self._rng)
