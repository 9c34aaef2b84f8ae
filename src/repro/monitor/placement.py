"""Boundary placement optimization.

"Zone boundaries can be adjusted by changing the biasing voltages
and/or the aspect ratio of the input transistors." (paper, Section V)

This module turns that observation into a design tool: given the
stimulus and the golden CUT, optimize the DC bias voltages of the
monitor bank to maximize the NDF response at a target deviation --
i.e. make the test *as sensitive as possible* where the tolerance
boundary lies, using only knobs the fabricated monitor exposes.

The search uses scipy's Nelder-Mead on the bias vector (one value per
DC-biased input, shared within a monitor where the paper shares them),
with a penalty keeping boundaries inside the signal window so the
signature does not degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.testflow import SignatureTester
from repro.core.zones import ZoneEncoder
from repro.monitor.comparator import MonitorBoundary, MonitorConfig


def bias_parameters(config: MonitorConfig) -> List[int]:
    """Indices of the hookups that are DC biases (tunable knobs).

    Inputs wired to x/y are not knobs; equal DC biases on one monitor
    (rows 3-5 of Table I share V3 = V4) are treated as one knob by
    :func:`apply_biases`.
    """
    return [i for i, h in enumerate(config.hookups)
            if not isinstance(h, str)]


def distinct_bias_values(config: MonitorConfig) -> List[float]:
    """The monitor's distinct DC bias values, in first-appearance order."""
    seen: List[float] = []
    for i in bias_parameters(config):
        value = float(config.hookups[i])
        if not any(abs(value - s) < 1e-12 for s in seen):
            seen.append(value)
    return seen


def apply_biases(config: MonitorConfig,
                 new_values: Sequence[float]) -> MonitorConfig:
    """Config with its distinct bias values replaced positionally.

    Inputs sharing a bias value keep sharing it (the paper's symmetric
    rows stay symmetric).
    """
    originals = distinct_bias_values(config)
    if len(new_values) != len(originals):
        raise ValueError(
            f"{config.name}: expected {len(originals)} bias values, "
            f"got {len(new_values)}")
    mapping = dict(zip(map(float, originals), map(float, new_values)))
    hookups = tuple(
        h if isinstance(h, str) else mapping[float(h)]
        for h in config.hookups)
    return MonitorConfig(config.widths_nm, hookups, config.length_nm,
                         config.name, config.reference_point)


@dataclass
class PlacementResult:
    """Outcome of a bias optimization run."""

    configs: List[MonitorConfig]
    encoder: ZoneEncoder
    initial_objective: float
    optimized_objective: float
    iterations: int

    @property
    def improvement(self) -> float:
        """Relative objective gain over the starting bank."""
        if self.initial_objective == 0.0:
            return float("inf")
        return (self.optimized_objective / self.initial_objective) - 1.0


class BiasPlacementOptimizer:
    """Optimizes monitor bias voltages for NDF sensitivity.

    Parameters
    ----------
    configs:
        The monitor bank's configurations (Table I order).
    tester_factory:
        Maps a :class:`ZoneEncoder` to a ready
        :class:`SignatureTester` (stimulus + golden CUT inside).
    target_cut_factory:
        Maps a deviation to the CUT the objective measures.
    target_deviation:
        Deviation where sensitivity is maximized (e.g. the tolerance).
    bias_bounds:
        Allowed bias range in volts (stay inside the signal window).
    """

    def __init__(self, configs: Sequence[MonitorConfig],
                 tester_factory: Callable[[ZoneEncoder], SignatureTester],
                 target_cut_factory: Callable[[float], object],
                 target_deviation: float = 0.05,
                 bias_bounds: Tuple[float, float] = (0.1, 0.9)) -> None:
        self.configs = list(configs)
        self.tester_factory = tester_factory
        self.target_cut_factory = target_cut_factory
        self.target_deviation = float(target_deviation)
        self.bias_bounds = bias_bounds
        self._layout = [len(distinct_bias_values(c)) for c in self.configs]

    # ------------------------------------------------------------------
    def _unpack(self, vector: np.ndarray) -> List[MonitorConfig]:
        configs = []
        cursor = 0
        for config, count in zip(self.configs, self._layout):
            values = vector[cursor:cursor + count]
            cursor += count
            configs.append(apply_biases(config, values))
        return configs

    def initial_vector(self) -> np.ndarray:
        """The bank's current bias values as the optimization start."""
        values: List[float] = []
        for config in self.configs:
            values.extend(distinct_bias_values(config))
        return np.asarray(values)

    def objective(self, vector: np.ndarray) -> float:
        """NDF at the target deviation for a candidate bias vector.

        Returns 0 for out-of-bounds candidates (the optimizer treats
        them as worthless rather than crashing the solve).
        """
        lo, hi = self.bias_bounds
        if np.any(vector < lo) or np.any(vector > hi):
            return 0.0
        encoder = ZoneEncoder(
            [MonitorBoundary(c) for c in self._unpack(vector)])
        tester = self.tester_factory(encoder)
        both = (tester.ndf_of(self.target_cut_factory(
                    self.target_deviation))
                + tester.ndf_of(self.target_cut_factory(
                    -self.target_deviation)))
        return both / 2.0

    def optimize(self, max_iterations: int = 40) -> PlacementResult:
        """Run Nelder-Mead from the current bank."""
        from scipy import optimize as _optimize  # deferred: import cost

        x0 = self.initial_vector()
        initial = self.objective(x0)
        result = _optimize.minimize(
            lambda v: -self.objective(v), x0, method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 5e-3,
                     "fatol": 1e-4})
        best = result.x if -result.fun >= initial else x0
        configs = self._unpack(np.asarray(best))
        encoder = ZoneEncoder([MonitorBoundary(c) for c in configs])
        return PlacementResult(configs, encoder, initial,
                               max(initial, -result.fun),
                               int(result.nit))
