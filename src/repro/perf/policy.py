"""Dtype policy: float32 compute with float64 accumulation, the default.

The paper trained its FCNN with PyTorch, whose default compute is float32,
and on CPU the FCNN's matmuls are bandwidth/SIMD bound and run roughly
twice as fast in float32; the paper's reconstruction quality (~25-40 dB
SNR) sits far above float32's ~7 decimal digits.  A :class:`DtypePolicy`
names the compute dtype; :class:`repro.core.FCNNReconstructor` and
:class:`repro.experiments.config.ExperimentConfig` default to
``"float32"``:

* ``compute`` — dtype of training rows, activations, weights, gradients
  and Adam moments inside the network (``float32`` or ``float64``).
* accumulation stays float64 regardless: losses upcast predictions before
  reduction (:meth:`repro.nn.Loss._check`), and reconstruction outputs are
  denormalized into float64 fields, so epoch losses, SNR and every
  downstream metric are accumulated at full precision.

``DtypePolicy()`` itself is ``float64``, the identity: it casts nothing,
and the fast path is then bit-identical to the allocating path.  Select
float64 per run via ``ExperimentConfig(dtype_policy="float64")`` or
``FCNNReconstructor(dtype_policy="float64")`` (the gradient checks and the
oracle's tight tolerance use it).  This is the one place float32 enters
the numerics (``repro.checks`` rule DT002 polices any other).

Checkpoint interplay: training checkpoints and journal sidecars store
float32 weights and Adam moments as they are (or widened to float64,
which every float32 value survives exactly), so a float32 run resumes
bit for bit, as a float64 one does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DtypePolicy"]

#: dtype names a policy accepts
_ALLOWED = ("float64", "float32")


@dataclass(frozen=True)
class DtypePolicy:
    """Compute-dtype selection; ``float64`` is the identity, ``float32`` the engine default."""

    compute: str = "float64"

    def __post_init__(self) -> None:
        if self.compute not in _ALLOWED:
            raise ValueError(
                f"dtype policy must be one of {_ALLOWED}, got {self.compute!r}"
            )

    @property
    def compute_dtype(self) -> np.dtype:
        return np.dtype(self.compute)

    @property
    def enabled(self) -> bool:
        """True when the policy changes anything (compute is not float64)."""
        return self.compute != "float64"

    def cast_model(self, model) -> None:
        """Cast a :class:`repro.nn.Sequential`'s parameters to the compute dtype.

        In-place on each :class:`~repro.nn.Parameter`: ``value`` and
        ``grad`` are replaced by casts, keeping identity of the Parameter
        objects (optimizers built *after* the cast pick up matching moment
        dtypes).  A float64 policy is a no-op.
        """
        if not self.enabled:
            return
        dt = self.compute_dtype
        for p in model.parameters():
            if p.value.dtype != dt:
                p.value = p.value.astype(dt)
            if p.grad.dtype != dt:
                p.grad = p.grad.astype(dt)
