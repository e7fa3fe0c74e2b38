"""Synthetic ionization-front density field.

The Ionization Front Instabilities dataset (Whalen & Norman [10]) is a
600x248x248 grid over 200 timesteps; the density attribute shows an
ionization front propagating through neutral hydrogen: very low density in
the ionized region behind the front, a *compressed shell* of enhanced
density at the front, and ambient neutral-gas density ahead — with
transverse instabilities corrugating the front as it advances.

The generator builds exactly that profile along x:

* front position advances with ``t``;
* transverse corrugation modes whose amplitude grows with time (the
  "instabilities");
* a density bump (compressed shell) just ahead of the front, a deep rarified
  region behind it, ambient density with weak clumping ahead.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import AnalyticDataset
from repro.grid import UniformGrid

__all__ = ["IonizationDataset"]


class IonizationDataset(AnalyticDataset):
    """Propagating ionization front; stands in for Whalen & Norman [10]."""

    name = "ionization"
    attribute = "density"
    attributes = ("density", "temperature", "ionization_fraction")
    num_timesteps = 200

    NUM_MODES = 5
    AMBIENT = 1.0       # neutral-gas density
    IONIZED = 0.02      # density behind the front
    SHELL_BOOST = 1.8   # compressed-shell peak over ambient

    def __init__(self, grid: UniformGrid | None = None, seed: int = 0) -> None:
        super().__init__(grid=grid, seed=seed)
        rng = np.random.default_rng(2000 + self.seed)
        m = self.NUM_MODES
        self._ky = rng.integers(1, 7, size=m).astype(np.float64)
        self._kz = rng.integers(1, 7, size=m).astype(np.float64)
        self._phase = rng.uniform(0, 2 * np.pi, size=m)
        self._weight = rng.uniform(0.3, 1.0, size=m)
        self._weight /= self._weight.sum()

    @classmethod
    def default_grid(cls) -> UniformGrid:
        # Paper resolution: 600 x 248 x 248.
        return UniformGrid((600, 248, 248))

    def _front(self, y: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
        """x-position of the ionization front at transverse coords (y, z)."""
        base = 0.12 + 0.62 * tau
        # Instability amplitude grows with time (linear growth phase).
        amp = 0.015 + 0.075 * tau
        corrugation = np.zeros(np.broadcast_shapes(y.shape, z.shape))
        for i in range(self.NUM_MODES):
            corrugation += self._weight[i] * np.cos(
                2 * np.pi * (self._ky[i] * y + self._kz[i] * z) + self._phase[i]
            )
        return base + amp * corrugation

    def formula(self, x, y, z, tau, attribute) -> np.ndarray:
        xf = self._front(y, z, tau)
        s = x - xf  # signed distance ahead of the front (positive = neutral gas)

        width = 0.02
        # Smooth ionized->neutral transition.
        step = 0.5 * (1.0 + np.tanh(s / width))

        if attribute == "ionization_fraction":
            # ~1 behind the front (ionized), ~0 ahead, smooth at the front.
            return 1.0 - step
        if attribute == "temperature":
            # Photoheated HII region ~1e4 K; cold neutral gas ~1e2 K, with
            # a mild shock-heated bump in the compressed shell.
            shell_width = 0.035
            shock = 1500.0 * np.exp(-((s - 0.5 * shell_width) ** 2) / (2 * shell_width**2))
            return 100.0 + (10_000.0 - 100.0) * (1.0 - step) + shock * step

        density = self.IONIZED + (self.AMBIENT - self.IONIZED) * step

        # Compressed shell: swept-up gas piled just ahead of the front; the
        # shell strengthens as the front sweeps up more material.
        shell_width = 0.035
        shell = (
            self.SHELL_BOOST
            * (0.3 + 0.7 * tau)
            * np.exp(-((s - 0.5 * shell_width) ** 2) / (2 * shell_width**2))
        )

        # Weak ambient clumping ahead of the front (smooth, deterministic).
        clumps = 0.12 * step * (
            np.sin(2 * np.pi * (2.0 * x + 3.0 * y) + 1.3)
            * np.sin(2 * np.pi * (1.0 * y + 2.0 * z) + 2.1)
        )

        return density + shell + clumps
