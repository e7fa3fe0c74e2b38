"""Synthetic turbulent-combustion mixture-fraction field.

The paper's combustion dataset [9] is a 240x360x60 grid over 122 timesteps;
the ``Mixfrac`` attribute (fuel/oxidizer mass proportion) transitions from
fuel-rich (~1) to oxidizer (~0) across a wrinkled, turbulently-perturbed
flame interface.  This generator mimics it as a smoothed step across a wavy
interface whose wrinkles advect and grow with time:

* a base interface plane that drifts slowly through the domain;
* multi-mode sinusoidal wrinkling (a deterministic "turbulence" surrogate:
  several transverse Fourier modes with seed-fixed phases whose amplitudes
  grow and whose phases advect with ``t``);
* a tanh profile across the interface giving the mixture-fraction ramp with
  a high-gradient flame sheet — the structure importance sampling must keep.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import AnalyticDataset
from repro.grid import UniformGrid

__all__ = ["CombustionDataset"]


class CombustionDataset(AnalyticDataset):
    """Wrinkled-flame mixture-fraction field; stands in for [9]."""

    name = "combustion"
    attribute = "mixfrac"
    attributes = ("mixfrac", "temperature", "product")
    num_timesteps = 122

    #: number of transverse wrinkling modes
    NUM_MODES = 6
    #: flame-sheet thickness in normalized units
    THICKNESS = 0.035

    def __init__(self, grid: UniformGrid | None = None, seed: int = 0) -> None:
        super().__init__(grid=grid, seed=seed)
        rng = np.random.default_rng(1000 + self.seed)
        m = self.NUM_MODES
        self._ky = rng.integers(1, 6, size=m).astype(np.float64)
        self._kz = rng.integers(1, 5, size=m).astype(np.float64)
        self._phase = rng.uniform(0, 2 * np.pi, size=m)
        self._speed = rng.uniform(0.5, 2.0, size=m)
        self._amp = rng.uniform(0.4, 1.0, size=m)
        self._amp /= self._amp.sum()

    @classmethod
    def default_grid(cls) -> UniformGrid:
        # Paper resolution: 240 x 360 x 60.
        return UniformGrid((240, 360, 60))

    def _interface(self, y: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
        """x-position of the flame interface at transverse coords (y, z)."""
        base = 0.35 + 0.18 * tau  # flame front propagates in +x
        # Wrinkle amplitude grows as the flame becomes more turbulent.
        amp = 0.05 + 0.09 * tau
        wrinkle = np.zeros(np.broadcast_shapes(y.shape, z.shape))
        for i in range(self.NUM_MODES):
            wrinkle += self._amp[i] * np.sin(
                2 * np.pi * (self._ky[i] * y + self._kz[i] * z)
                + self._phase[i]
                + 2 * np.pi * self._speed[i] * tau
            )
        return base + amp * wrinkle

    def formula(self, x, y, z, tau, attribute) -> np.ndarray:
        mix = self._mixfrac(x, y, z, tau)
        if attribute == "mixfrac":
            return mix
        # Both derived attributes follow flamelet relationships in mixture
        # fraction: the reaction zone sits near stoichiometric (mix ~ 0.4).
        stoich = 0.4
        reaction = np.exp(-(((mix - stoich) / 0.12) ** 2))
        if attribute == "temperature":
            # Ambient 300 K; flame temperature ~2200 K at stoichiometric.
            return 300.0 + 1900.0 * reaction
        # "product": combustion-product mass fraction — accumulates on the
        # oxidizer side of the reaction zone.
        return np.clip(reaction * (1.0 - mix) * 1.4, 0.0, 1.0)

    def _mixfrac(self, x, y, z, tau) -> np.ndarray:
        xi = self._interface(y, z, tau)
        # Mixture fraction: ~1 on the fuel side (x < interface), ~0 beyond.
        mix = 0.5 * (1.0 - np.tanh((x - xi) / self.THICKNESS))

        # Mild large-scale stratification + pockets of partially-mixed fluid
        # downstream (keeps the field from being a pure step function).
        pockets = (
            0.06
            * np.exp(-((x - xi - 0.12) ** 2) / (2 * 0.05**2))
            * np.sin(2 * np.pi * (3 * y + 2 * z) + 4.0 * tau)
        )
        return np.clip(mix + pockets + 0.02 * (1 - x), 0.0, 1.0)
