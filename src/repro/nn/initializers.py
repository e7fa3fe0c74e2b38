"""Weight initializers.

He initialization is the natural partner of ReLU activations (it preserves
forward variance through rectified layers), so :func:`he_normal` is the
default for the paper's FCNN; :func:`xavier_normal` initializes the
non-rectified output layer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "xavier_normal", "get_initializer"]


def he_normal(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian with std ``sqrt(2 / fan_in)``."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))


def xavier_normal(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian with std ``sqrt(2 / (fan_in + fan_out))``."""
    return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_in, fan_out))


_INITIALIZERS = {
    "he_normal": he_normal,
    "xavier_normal": xavier_normal,
}


def get_initializer(name: str):
    """Resolve an initializer by name."""
    try:
        return _INITIALIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown initializer {name!r}; available: {sorted(_INITIALIZERS)}"
        ) from None
