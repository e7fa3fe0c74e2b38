# hot-path
"""The Adam optimizer.

:class:`Adam` with ``lr=0.001`` is the paper's configuration (Sec III-C).
It respects :attr:`Parameter.trainable`, so freezing layers for Case-2
fine-tuning simply stops their updates while the per-parameter moments
stay aligned.

Updates run fully in place: Adam keeps per-parameter scratch buffers
(allocated once, never checkpointed) and applies the textbook expressions
as a sequence of ``out=`` ufunc calls.  The operation order is unchanged
from the allocating form, so steps are bit-identical; the bias-correction
denominators ``1 - beta**t`` are computed once per step, not per
parameter.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) with bias-corrected moment estimates."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._s1 = [np.empty_like(p.value) for p in self.parameters]
        self._s2 = [np.empty_like(p.value) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._t += 1
        # Bias corrections depend only on t: hoisted out of the parameter loop.
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        one_minus_b1 = 1.0 - self.beta1
        one_minus_b2 = 1.0 - self.beta2
        for p, m, v, s1, s2 in zip(self.parameters, self._m, self._v, self._s1, self._s2):
            if not p.trainable:
                continue
            m *= self.beta1
            np.multiply(p.grad, one_minus_b1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(p.grad, p.grad, out=s2)
            s2 *= one_minus_b2
            v += s2
            np.divide(m, b1t, out=s1)          # m_hat
            np.divide(v, b2t, out=s2)          # v_hat
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 *= self.lr
            s1 /= s2
            p.value -= s1

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    # ----------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Resumable state: scalars plus the moment arrays (copies).

        ``load_state_dict(state_dict())`` restores the optimizer bit-exactly
        (see :mod:`repro.resilience.checkpoint`).
        """
        return {
            "kind": "Adam",
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        kind = state.get("kind")
        if kind != "Adam":
            raise ValueError(f"optimizer state is for {kind!r}, cannot load into Adam")
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self._t = int(state["t"])
        self._restore_buffers(self._m, state["m"], "m")
        self._restore_buffers(self._v, state["v"], "v")

    @staticmethod
    def _restore_buffers(dst: list[np.ndarray], src, label: str) -> None:
        """Copy checkpointed buffers over live ones, validating counts/shapes."""
        src = list(src)
        if len(src) != len(dst):
            raise ValueError(
                f"optimizer state {label!r} holds {len(src)} arrays, expected {len(dst)}"
            )
        for d, s in zip(dst, src):
            s = np.asarray(s, dtype=np.float64)
            if d.shape != s.shape:
                raise ValueError(
                    f"optimizer state {label!r} shape mismatch: {s.shape} vs {d.shape}"
                )
            d[...] = s
