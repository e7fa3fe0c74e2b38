"""Synthetic hurricane pressure field (Hurricane Isabel stand-in).

The real Isabel dataset is a 250x250x50 grid over 48 timesteps whose
pressure attribute features a deep, compact low-pressure eye that moves
across the domain, surrounded by spiral rainbands, over a smooth synoptic
background.  This generator reproduces that structure analytically:

* a radially-Gaussian pressure depression (the eye) whose center follows a
  curved storm track across the domain as ``t`` advances and whose intensity
  peaks mid-simulation (landfall weakening afterwards);
* logarithmic spiral bands of alternating pressure perturbation rotating
  with time;
* a weak planetary-scale background gradient;
* vertical decay of the perturbation (hurricanes are surface-intense).

All components are smooth and deterministic, so gradients are well defined
and the sampler's feature-importance machinery has real structure to find.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import AnalyticDataset
from repro.grid import UniformGrid

__all__ = ["HurricaneDataset"]


class HurricaneDataset(AnalyticDataset):
    """Moving-vortex pressure field; stands in for Hurricane Isabel [8]."""

    name = "hurricane"
    attribute = "pressure"
    attributes = ("pressure", "temperature", "wind_speed")
    num_timesteps = 48

    #: ambient sea-level pressure (hPa) and maximum eye depression
    BACKGROUND = 1010.0
    MAX_DEPRESSION = 95.0

    def __init__(self, grid: UniformGrid | None = None, seed: int = 0) -> None:
        super().__init__(grid=grid, seed=seed)
        rng = np.random.default_rng(self.seed)
        # Fixed random phases make each seed a distinct but deterministic storm.
        self._band_phase = rng.uniform(0, 2 * np.pi)
        self._track_wobble = rng.uniform(0.8, 1.2)

    @classmethod
    def default_grid(cls) -> UniformGrid:
        # Paper resolution: 250 x 250 x 50.  Unit spacing, origin at 0.
        return UniformGrid((250, 250, 50))

    # ----------------------------------------------------------- components
    def _eye_center(self, tau: float) -> tuple[float, float]:
        """Normalized (x, y) of the eye at time fraction ``tau``.

        The track sweeps from the lower-right quadrant to the upper-left,
        with a gentle recurving arc — loosely Isabel's WNW-then-N track.
        """
        x = 0.78 - 0.55 * tau
        y = 0.22 + 0.58 * tau + 0.10 * np.sin(np.pi * tau * self._track_wobble)
        return x, y

    def _intensity(self, tau: float) -> float:
        """Eye depression amplitude: spins up, peaks near tau=0.55, decays."""
        return float(np.exp(-((tau - 0.55) ** 2) / (2 * 0.35**2)))

    # -------------------------------------------------------------- formula
    def formula(self, x, y, z, tau, attribute) -> np.ndarray:
        if attribute == "temperature":
            return self._temperature(x, y, z, tau)
        if attribute == "wind_speed":
            return self._wind_speed(x, y, z, tau)
        return self._pressure(x, y, z, tau)

    def _pressure(self, x, y, z, tau) -> np.ndarray:
        cx, cy = self._eye_center(tau)
        dx, dy = x - cx, y - cy
        r = np.sqrt(dx * dx + dy * dy)
        theta = np.arctan2(dy, dx)

        # Vertical structure: perturbation strongest at the surface.
        vertical = np.exp(-1.8 * z)

        # Eye: sharp Gaussian depression with a compact core.
        core = np.exp(-((r / 0.085) ** 2))
        # Outer circulation: broader, shallower depression.
        outer = 0.35 * np.exp(-((r / 0.28) ** 2))

        # Spiral rainbands: alternating perturbations along log spirals that
        # rotate as the storm evolves.  Attenuated inside the eye and far
        # out.  Winding and amplitude are kept gentle: sea-level pressure is
        # a smooth field (bands show up in wind/precip far more than in
        # pressure).
        spiral_arg = 3.0 * theta - 7.0 * np.log(r + 0.05) + 6.0 * tau + self._band_phase
        band_env = np.exp(-((r - 0.18) ** 2) / (2 * 0.12**2))
        bands = 0.05 * np.sin(spiral_arg) * band_env

        depression = self.MAX_DEPRESSION * self._intensity(tau) * (core + outer + bands)

        # Synoptic background: weak large-scale gradient + stationary ridge.
        background = (
            self.BACKGROUND
            + 4.0 * (x - 0.5)
            + 2.5 * (y - 0.5)
            + 1.5 * np.sin(2 * np.pi * (0.7 * x + 0.4 * y) + 0.5)
            + 6.0 * z  # pressure decreases with altitude relative to perturbation field
        )

        return background - depression * vertical

    def _temperature(self, x, y, z, tau) -> np.ndarray:
        """Warm-core temperature (deg C): lapse rate + eye warm anomaly.

        Hurricanes are warm-core systems — subsidence inside the eye heats
        it several degrees above the environment, strongest aloft.
        """
        cx, cy = self._eye_center(tau)
        r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        background = 28.0 - 45.0 * z + 2.0 * (y - 0.5)  # tropical lapse profile
        warm_core = (
            7.0
            * self._intensity(tau)
            * np.exp(-((r / 0.10) ** 2))
            * np.sin(np.pi * np.clip(z, 0, 1))  # peaks at mid-levels
        )
        return background + warm_core

    def _wind_speed(self, x, y, z, tau) -> np.ndarray:
        """Azimuthal wind speed (m/s) with a ring of maximum winds.

        A Rankine-like vortex profile: calm at the eye center, peak at the
        radius of maximum winds just outside the core, decaying outward and
        with altitude.
        """
        cx, cy = self._eye_center(tau)
        r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        rmw = 0.09
        profile = (r / rmw) * np.exp(1.0 - r / rmw)  # 0 at center, 1 at rmw
        vmax = 65.0 * self._intensity(tau)
        ambient = 6.0 + 3.0 * np.sin(2 * np.pi * (x + 0.5 * y))
        return ambient + vmax * profile * np.exp(-1.2 * z)
