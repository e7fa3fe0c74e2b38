"""Loss functions: value plus gradient with respect to predictions."""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "MSELoss"]


class Loss:
    """Base class: ``value`` for reporting, ``gradient`` to seed backprop.

    ``value`` always reduces in float64 (``_check`` upcasts), whatever the
    network's compute dtype — this is the fast path's float64-accumulation
    guarantee.  Losses whose ``gradient`` accepts an ``out=`` buffer set
    ``supports_out`` so the trainer can reuse a workspace buffer; the
    ``out=`` form applies the same operations in the same order and is
    bit-identical to the allocating form.
    """

    name = "loss"
    #: True when ``gradient`` accepts an ``out=`` float64 buffer.
    supports_out = False

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(
        self, prediction: np.ndarray, target: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _check(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = np.asarray(prediction, dtype=np.float64)
        t = np.asarray(target, dtype=np.float64)
        if p.shape != t.shape:
            raise ValueError(f"prediction shape {p.shape} != target shape {t.shape}")
        if p.size == 0:
            raise ValueError("empty batch")
        return p, t


class MSELoss(Loss):
    """Mean squared error over every output element (paper Sec III-C)."""

    name = "mse"
    supports_out = True

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        p, t = self._check(prediction, target)
        return float(np.mean((p - t) ** 2))

    def gradient(
        self, prediction: np.ndarray, target: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        p, t = self._check(prediction, target)
        if out is None:
            return 2.0 * (p - t) / p.size
        np.subtract(p, t, out=out)
        out *= 2.0
        out /= p.size
        return out
