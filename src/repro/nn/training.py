# hot-path
"""Mini-batch training loop with loss history, checkpointing and health guards.

The :class:`Trainer` reproduces the paper's training protocol: shuffled
mini-batches, MSE loss, Adam, a fixed epoch budget (500 epochs for full
training, ~10 for Case-1 fine-tuning, 300-500 for Case-2), and the per-epoch
loss history that Fig 12 plots.

Long runs additionally get the resilience hooks from
:mod:`repro.resilience`:

* ``checkpoint=`` saves atomic, checksummed training-state checkpoints
  (model + optimizer + RNG + history) every N epochs;
* ``resume_from=`` continues a killed run *bit-exactly* — the resumed
  run's parameters and loss history match an uninterrupted one;
* ``health=`` detects NaN/Inf in loss, gradients and parameters per batch
  and epoch, with ``raise`` / ``skip_batch`` / ``rollback`` policies.

When a :class:`repro.obs.RunRecorder` is active, every run additionally
emits telemetry (``train.fit``/``train.epoch`` spans, ``train.batches``
counters, ``train.loss``/``train.lr`` gauges, checkpoint and health
events) at no cost to uninstrumented runs — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import histogram as obs_histogram
from repro.obs import record_event, span
from repro.nn.losses import Loss, MSELoss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.resilience.checkpoint import (
    CheckpointConfig,
    TrainingCheckpoint,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.resilience.health import HealthGuard, NumericalHealthError

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run (feeds Fig 12 and Tables I-II)."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    def extend(self, other: "TrainingHistory") -> None:
        """Append another run (e.g. fine-tuning after pretraining)."""
        self.train_loss.extend(other.train_loss)
        self.val_loss.extend(other.val_loss)
        self.epoch_seconds.extend(other.epoch_seconds)


def _floating(a) -> np.ndarray:
    """``a`` as a float array; float32 rows stay float32, not a float64 copy of the set."""
    if isinstance(a, np.ndarray) and a.dtype in (np.float32, np.float64):
        return a
    return np.asarray(a, dtype=np.float64)


class _RollbackSignal(Exception):
    """Internal: a health problem under the rollback policy."""

    def __init__(self, detail: str) -> None:
        self.detail = detail
        super().__init__(detail)


class Trainer:
    """Drives mini-batch gradient descent on a :class:`Sequential` model.

    Parameters
    ----------
    model:
        Network to train (trained in place).
    loss:
        Defaults to :class:`MSELoss` per the paper.
    optimizer:
        Defaults to Adam with the paper's ``lr=0.001``; note the optimizer
        must be constructed *after* any layer freezing if you want its state
        lists to include frozen parameters (they are skipped during
        updates either way).
    batch_size:
        Mini-batch rows per update.
    seed:
        Shuffling seed (deterministic epochs).
    workspace:
        Optional :class:`repro.perf.Workspace`.  When given, ``fit``
        attaches it to the model for the duration of training: batch
        gathers, layer activations/gradients and the loss gradient reuse
        arena buffers, making the epoch loop allocation-free in steady
        state.  Results are bit-identical to training without a workspace
        (when the workspace dtype is float64).
    """

    def __init__(
        self,
        model: Sequential,
        loss: Loss | None = None,
        optimizer: Adam | None = None,
        batch_size: int = 4096,
        seed: int = 0,
        workspace=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.loss = loss if loss is not None else MSELoss()
        self.optimizer = optimizer if optimizer is not None else Adam(model.parameters())
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.workspace = workspace

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        callback=None,
        checkpoint: CheckpointConfig | None = None,
        resume_from: str | Path | TrainingCheckpoint | None = None,
        health: HealthGuard | None = None,
    ) -> TrainingHistory:
        """Train until ``epochs`` total passes over ``(x, y)`` are done.

        Every epoch visits the rows in a fresh permutation drawn from the
        trainer's seed.  ``callback(epoch, history)``, when given, runs
        after each epoch; returning ``False`` ends training there (LR
        schedules, see :func:`repro.nn.apply_schedule`, use this hook).

        ``checkpoint`` periodically persists the full training state with
        :func:`repro.resilience.save_training_checkpoint` (atomic replace,
        checksummed).  ``resume_from`` (a path or loaded
        :class:`TrainingCheckpoint`) restores such a state and continues
        from its epoch; the returned history covers the *whole* run
        including the restored prefix, and matches an uninterrupted run
        bit-exactly.  ``health`` enables NaN/Inf detection with the guard's
        recovery policy.
        """
        x, y = _floating(x), _floating(y)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError(f"expected matching 2D x/y, got {x.shape} and {y.shape}")
        if len(x) != len(y):
            raise ValueError(
                f"x and y row counts differ: x has shape {x.shape}, y has shape {y.shape}"
            )
        if len(x) == 0:
            raise ValueError(f"training set is empty: x has shape {x.shape}")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        n = len(x)
        rng = np.random.default_rng(self.seed)
        history = TrainingHistory()

        start_epoch = 0
        if resume_from is not None:
            ckpt = (
                resume_from
                if isinstance(resume_from, TrainingCheckpoint)
                else load_training_checkpoint(resume_from)
            )
            self._validate_resume(ckpt, n, epochs)
            ckpt.restore(self.model, self.optimizer, rng)
            history = TrainingHistory(
                train_loss=list(ckpt.history["train_loss"]),
                val_loss=list(ckpt.history["val_loss"]),
                epoch_seconds=list(ckpt.history["epoch_seconds"]),
            )
            start_epoch = ckpt.epoch

        # Rollback needs a known-good state to return to, even when no
        # on-disk checkpointing is configured: keep an in-memory snapshot
        # refreshed after every healthy epoch.
        snapshot = None
        if health is not None and health.policy == "rollback":
            snapshot = self._capture_state(rng, history, start_epoch)

        epoch = start_epoch
        ws = self.workspace
        if ws is not None:
            # One up-front cast to the compute dtype (a no-op for rows
            # already built in it) keeps the per-batch gathers cast-free.
            x = np.ascontiguousarray(x, dtype=ws.dtype)
            y = np.ascontiguousarray(y, dtype=ws.dtype)
            self.model.attach_workspace(ws)
        try:
            return self._fit_loop(
                x, y, epochs, validation, callback,
                checkpoint, health, n, rng, history, snapshot, epoch,
            )
        finally:
            if ws is not None:
                self.model.detach_workspace()
                obs_gauge("train.workspace.bytes").set(float(ws.nbytes))
                obs_gauge("train.workspace.buffers").set(float(ws.num_buffers))

    def _fit_loop(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        validation,
        callback,
        checkpoint: CheckpointConfig | None,
        health: HealthGuard | None,
        n: int,
        rng: np.random.Generator,
        history: TrainingHistory,
        snapshot: dict | None,
        epoch: int,
    ) -> TrainingHistory:
        with span("train.fit", epochs=int(epochs), rows=n, resumed_from=epoch):
            while epoch < epochs:
                with span("train.epoch", epoch=epoch):
                    t0 = time.perf_counter()
                    order = rng.permutation(n)
                    try:
                        epoch_loss = self._run_epoch(x, y, order, health, epoch)
                        if health is not None:
                            problem = health.parameter_problem(self.optimizer.parameters)
                            if problem is not None:
                                self._handle_epoch_problem(health, epoch, problem)
                    except _RollbackSignal as signal:
                        epoch = self._rollback(health, snapshot, rng, history, epoch, signal)
                        continue
                    history.train_loss.append(epoch_loss)
                    if validation is not None:
                        xv, yv = validation
                        history.val_loss.append(self.evaluate(xv, yv))
                    seconds = time.perf_counter() - t0
                    history.epoch_seconds.append(seconds)
                    obs_counter("train.epochs").inc()
                    obs_gauge("train.loss").set(epoch_loss)
                    obs_gauge("train.lr").set(self.optimizer.lr)
                    obs_histogram("train.epoch.seconds").observe(seconds)
                    completed = epoch + 1
                    if checkpoint is not None and checkpoint.due(completed, epochs):
                        with span("train.checkpoint", epoch=completed):
                            save_training_checkpoint(
                                checkpoint.path,
                                model=self.model,
                                optimizer=self.optimizer,
                                rng=rng,
                                history=history,
                                epoch=completed,
                                meta={"rows": n, "batch_size": self.batch_size, "seed": self.seed},
                            )
                        record_event("checkpoint", path=str(checkpoint.path), epoch=completed)
                        obs_counter("train.checkpoints").inc()
                    if snapshot is not None:
                        snapshot = self._capture_state(rng, history, completed)
                    if callback is not None and callback(epoch, history) is False:
                        return history
                    epoch = completed
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss on held-out data (no parameter updates)."""
        pred = self.model.predict(np.asarray(x, dtype=np.float64))
        return self.loss.value(pred, np.asarray(y, dtype=np.float64))

    # ------------------------------------------------------------- internals
    def _run_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        order: np.ndarray,
        health: HealthGuard | None,
        epoch: int,
    ) -> float:
        n = len(x)
        epoch_loss = 0.0
        counted = 0
        ws = self.model.workspace
        # getattr: loss wrappers (e.g. fault injectors) may predate supports_out
        grad_out = getattr(self.loss, "supports_out", False) and ws is not None
        for batch_index, start in enumerate(range(0, n, self.batch_size)):
            idx = order[start : start + self.batch_size]
            if ws is None:
                xb, yb = x[idx], y[idx]
            else:
                # Gather into arena buffers instead of fancy-index copies;
                # ``order`` is a permutation of range(n), so "clip" only
                # skips the bounds check.
                xb = ws.buffer(("batch", "x"), (len(idx), x.shape[1]), dtype=x.dtype)
                np.take(x, idx, axis=0, out=xb, mode="clip")
                yb = ws.buffer(("batch", "y"), (len(idx), y.shape[1]), dtype=y.dtype)
                np.take(y, idx, axis=0, out=yb, mode="clip")
            pred = self.model.forward(xb)
            batch_loss = self.loss.value(pred, yb)
            self.optimizer.zero_grad()
            if grad_out:
                # The loss gradient is float64 either way; the network
                # takes it rounded once into its compute dtype.
                grad = self.loss.gradient(
                    pred, yb, out=ws.buffer(("loss", "grad"), pred.shape, dtype=np.float64)
                )
                if ws.dtype != np.float64:
                    cast = ws.buffer(("loss", "cast"), pred.shape)
                    cast[...] = grad
                    grad = cast
                self.model.backward(grad)
            else:
                self.model.backward(self.loss.gradient(pred, yb))
            obs_counter("train.batches").inc()
            if health is not None:
                problem = health.loss_problem(batch_loss)
                kind = "loss"
                if problem is None:
                    problem = health.gradient_problem(self.optimizer.parameters)
                    kind = "gradient"
                if problem is not None:
                    health.record(epoch, batch_index, kind, problem, health.policy)
                    self._observe_health(epoch, batch_index, kind, problem, health.policy)
                    if health.policy == "raise":
                        raise NumericalHealthError(
                            f"epoch {epoch} batch {batch_index}: {problem}"
                        )
                    if health.policy == "skip_batch":
                        continue
                    raise _RollbackSignal(
                        f"epoch {epoch} batch {batch_index}: {problem}"
                    )
            self.optimizer.step()
            epoch_loss += batch_loss * len(idx)
            counted += len(idx)
        if counted == 0:
            return float("nan")
        return epoch_loss / counted

    @staticmethod
    def _observe_health(epoch: int, batch: int, kind: str, detail: str, action: str) -> None:
        """Mirror one health intervention into the active run record."""
        obs_counter("health.events").inc()
        record_event(
            "health", epoch=epoch, batch=batch, problem=kind, detail=detail, action=action
        )

    def _handle_epoch_problem(self, health: HealthGuard, epoch: int, problem: str) -> None:
        """Non-finite *parameters* after an epoch: skip_batch cannot help."""
        action = "rollback" if health.policy == "rollback" else "raise"
        health.record(epoch, -1, "parameter", problem, action)
        self._observe_health(epoch, -1, "parameter", problem, action)
        if action == "rollback":
            raise _RollbackSignal(f"epoch {epoch}: {problem}")
        raise NumericalHealthError(f"epoch {epoch}: {problem}")

    def _rollback(
        self,
        health: HealthGuard,
        snapshot: dict | None,
        rng: np.random.Generator,
        history: TrainingHistory,
        epoch: int,
        signal: _RollbackSignal,
    ) -> int:
        if snapshot is None or health.retries_left() <= 0:
            raise NumericalHealthError(
                f"{signal.detail} (rollback budget exhausted after "
                f"{health.rollbacks_used} retr{'y' if health.rollbacks_used == 1 else 'ies'})"
            )
        health.rollbacks_used += 1
        restored_epoch = self._restore_state(snapshot, rng, history)
        self.optimizer.lr *= health.lr_factor
        health.record(
            epoch,
            -1,
            "rollback",
            signal.detail,
            f"restored epoch {restored_epoch}, lr -> {self.optimizer.lr:g}",
        )
        self._observe_health(
            epoch, -1, "rollback", signal.detail,
            f"restored epoch {restored_epoch}, lr -> {self.optimizer.lr:g}",
        )
        return restored_epoch

    def _capture_state(
        self, rng: np.random.Generator, history: TrainingHistory, epoch: int
    ) -> dict:
        return {
            "epoch": epoch,
            "parameters": [p.value.copy() for p in self.optimizer.parameters],
            "optimizer": self.optimizer.state_dict(),
            "rng_state": rng.bit_generator.state,
            "history": (
                list(history.train_loss),
                list(history.val_loss),
                list(history.epoch_seconds),
            ),
        }

    def _restore_state(
        self, snapshot: dict, rng: np.random.Generator, history: TrainingHistory
    ) -> int:
        for p, saved in zip(self.optimizer.parameters, snapshot["parameters"]):
            p.value[...] = saved
        self.optimizer.load_state_dict(snapshot["optimizer"])
        rng.bit_generator.state = snapshot["rng_state"]
        train, val, seconds = snapshot["history"]
        history.train_loss[:] = list(train)
        history.val_loss[:] = list(val)
        history.epoch_seconds[:] = list(seconds)
        return int(snapshot["epoch"])

    def _validate_resume(self, ckpt: TrainingCheckpoint, rows: int, epochs: int) -> None:
        meta = ckpt.meta
        if "rows" in meta and int(meta["rows"]) != rows:
            raise ValueError(
                f"checkpoint was trained on {meta['rows']} rows, resuming with {rows}; "
                "bit-exact resume requires the identical training set"
            )
        if "batch_size" in meta and int(meta["batch_size"]) != self.batch_size:
            raise ValueError(
                f"checkpoint used batch_size={meta['batch_size']}, trainer has "
                f"{self.batch_size}; bit-exact resume requires matching batching"
            )
        if "seed" in meta and int(meta["seed"]) != self.seed:
            raise ValueError(
                f"checkpoint used seed={meta['seed']}, trainer has {self.seed}"
            )
        if ckpt.epoch > epochs:
            raise ValueError(
                f"checkpoint already covers {ckpt.epoch} epochs, target is {epochs}"
            )
