"""Numerical health guard for training loops.

Long FCNN runs (the paper's 500-epoch pretraining and Case-2 fine-tuning
sweeps) can be destroyed by a single non-finite loss or gradient: Adam's
moments absorb the NaN and every parameter is poisoned within a step or
two.  :class:`HealthGuard` gives :meth:`repro.nn.Trainer.fit` a detection
point after each batch (loss, gradients) and each epoch (parameters), with
three recovery policies:

* ``raise``      — abort immediately with :class:`NumericalHealthError`;
* ``skip_batch`` — drop the poisoned update and continue the epoch;
* ``rollback``   — restore the last good training state, halve the
  learning rate, and retry, up to ``max_retries`` times.

Every intervention is recorded as a :class:`HealthEvent` so a run's
recovery story is auditable after the fact.

At inference, :func:`fill_nonfinite` is the one degradation of every FCNN
reconstruction route: a non-finite prediction takes the nearest sample's
value, or ``on_nonfinite="raise"`` aborts with
:class:`NumericalHealthError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import counter, record_event

__all__ = [
    "HealthGuard",
    "HealthEvent",
    "NumericalHealthError",
    "POLICIES",
    "check_on_nonfinite",
    "fill_nonfinite",
]

POLICIES = ("raise", "skip_batch", "rollback")


class NumericalHealthError(RuntimeError):
    """Training produced non-finite values and the policy could not recover."""


@dataclass(frozen=True)
class HealthEvent:
    """One detected problem and the action taken for it."""

    epoch: int
    batch: int          # -1 for per-epoch (parameter) checks
    kind: str           # "loss" | "gradient" | "parameter"
    detail: str
    action: str         # "raise" | "skip_batch" | "rollback"


class HealthGuard:
    """Detection + policy for NaN/Inf during training.

    Parameters
    ----------
    policy:
        One of :data:`POLICIES`.
    max_retries:
        Rollback budget; exceeded rollbacks escalate to
        :class:`NumericalHealthError`.
    lr_factor:
        Learning-rate multiplier applied on every rollback (paper-style
        halving by default).
    """

    def __init__(
        self,
        policy: str = "raise",
        max_retries: int = 3,
        lr_factor: float = 0.5,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not (0.0 < lr_factor <= 1.0):
            raise ValueError(f"lr_factor must be in (0, 1], got {lr_factor}")
        self.policy = policy
        self.max_retries = int(max_retries)
        self.lr_factor = float(lr_factor)
        self.rollbacks_used = 0
        self.events: list[HealthEvent] = []

    # ------------------------------------------------------------ detection
    @staticmethod
    def loss_problem(value: float) -> str | None:
        """Describe a non-finite batch loss, or ``None`` when healthy."""
        if np.isfinite(value):
            return None
        return f"non-finite loss {value!r}"

    @staticmethod
    def gradient_problem(parameters) -> str | None:
        """Name the first parameter with a non-finite gradient, if any."""
        for p in parameters:
            if not np.all(np.isfinite(p.grad)):
                bad = int(np.count_nonzero(~np.isfinite(p.grad)))
                return f"non-finite gradient in {p.name} ({bad}/{p.size} entries)"
        return None

    @staticmethod
    def parameter_problem(parameters) -> str | None:
        """Name the first parameter holding non-finite values, if any."""
        for p in parameters:
            if not np.all(np.isfinite(p.value)):
                bad = int(np.count_nonzero(~np.isfinite(p.value)))
                return f"non-finite values in {p.name} ({bad}/{p.size} entries)"
        return None

    # --------------------------------------------------------------- policy
    def record(self, epoch: int, batch: int, kind: str, detail: str, action: str) -> None:
        self.events.append(HealthEvent(epoch, batch, kind, detail, action))

    def retries_left(self) -> int:
        return self.max_retries - self.rollbacks_used


# --------------------------------------------------------------------------
# inference


def check_on_nonfinite(on_nonfinite: str) -> None:
    """Raise ``ValueError`` unless ``on_nonfinite`` is ``"fallback"`` or ``"raise"``."""
    if on_nonfinite not in ("fallback", "raise"):
        raise ValueError(
            f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
        )


def fill_nonfinite(
    pred: np.ndarray,
    samples,
    sample_values: np.ndarray,
    query_points: np.ndarray,
    report,
    on_nonfinite: str = "fallback",
) -> np.ndarray:
    """Degrade non-finite predictions at ``query_points`` to the nearest sample's value.

    ``samples`` holds the ``(M, 3)`` sample positions as ``.points`` (a
    :class:`~repro.sampling.SampledField` or a campaign geometry); they are
    read only when a prediction is non-finite.  Returns ``pred`` itself
    when every prediction is finite.  Otherwise ``on_nonfinite="raise"``
    raises :class:`NumericalHealthError`, and ``"fallback"`` returns a copy
    in which each non-finite entry holds the value of its nearest sample
    (the Voronoi fill), flags the count in ``report`` (a
    :class:`~repro.resilience.ReconstructionReport`), adds it to the
    ``reconstruct.fcnn.fallback`` counter and records a ``degraded`` event.
    """
    check_on_nonfinite(on_nonfinite)
    finite = np.isfinite(pred)
    if finite.all():  # the common case allocates no second mask
        return pred
    bad = ~finite
    count = int(bad.sum())
    if on_nonfinite == "raise":
        raise NumericalHealthError(
            f"FCNN produced {count}/{pred.size} non-finite predictions; "
            "the model state is numerically poisoned"
        )
    from scipy.spatial import cKDTree

    pred = pred.copy()
    _, nearest = cKDTree(samples.points).query(query_points[bad], k=1)
    pred[bad] = sample_values[nearest]
    report.flag(
        len(report.degraded),
        count,
        f"{count}/{pred.size} non-finite FCNN prediction(s)",
        "nearest",
    )
    counter("reconstruct.fcnn.fallback").inc(count)
    record_event("degraded", where="fcnn.predict", count=count, fallback="nearest")
    return pred
