# hot-path
"""The FCNN reconstructor (paper Sec III-C/D/E, Fig 5).

Architecture: 23 inputs → five hidden Dense+ReLU layers sized 512, 256,
128, 64, 16 → linear head with 4 outputs (scalar + x/y/z gradients).
Training: MSE loss, Adam at lr=0.001, mini-batches, 500 epochs for full
training.  Fine-tuning: Case 1 retrains all layers for ~10 epochs; Case 2
freezes everything but the last two Dense layers and retrains for 300–500
epochs, enabling partial (last-two-layer) checkpoints per timestep.

A trained model reconstructs *any* sample of its field: different sampling
percentages (Fig 9), later timesteps (Fig 11) and higher-resolution/
domain-shifted grids (Fig 13) — features are recomputed per sample and
coordinates renormalized per target grid, value scaling stays fixed at the
training fit.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from pathlib import Path

import numpy as np

from repro.core.features import FeatureExtractor
from repro.core.normalization import Normalizer
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid
from repro.nn import Adam, MSELoss, Sequential, Trainer, TrainingHistory, WeightedMSELoss, mlp
from repro.nn.batched import BatchedAdam, BatchedTrainer, ModelStack
from repro.nn.serialization import load_model, save_model, save_partial
from repro.obs import counter as obs_counter
from repro.obs import record_event, span
from repro.perf import DtypePolicy, Workspace
from repro.resilience.checkpoint import CheckpointConfig, TrainingCheckpoint
from repro.resilience.health import HealthGuard, NumericalHealthError
from repro.resilience.report import ReconstructionReport
from repro.sampling.base import SampledField

__all__ = ["FCNNReconstructor", "PAPER_HIDDEN_LAYERS"]

#: Fig 5: "five hidden layers of size 512-16"
PAPER_HIDDEN_LAYERS: tuple[int, ...] = (512, 256, 128, 64, 16)


class FCNNReconstructor:
    """Train an FCNN on sampled data and reconstruct full grids from it.

    Parameters
    ----------
    hidden_layers:
        Hidden widths; defaults to the paper's architecture.
    num_neighbors:
        Sampled neighbors per feature vector (paper: 5).
    include_gradients:
        Predict gradients alongside the scalar (paper default; ``False``
        gives the Fig 8 ablation variant).
    learning_rate:
        Adam step size (paper: 0.001).
    batch_size:
        Mini-batch rows.
    gradient_loss_weight:
        Relative MSE weight of each gradient output column versus the
        scalar column.  The gradient head is an auxiliary task (Fig 8); its
        targets are noisier than the scalar's, so down-weighting keeps the
        paper's multi-task benefit without letting gradient error dominate
        the optimization.
    seed:
        Controls weight init and shuffling; same seed → identical run.
    fast_path:
        Route training and inference through a reused
        :class:`repro.perf.Workspace` (allocation-free hot loops, streamed
        chunked inference).  Bit-identical to the slow path when
        ``dtype_policy`` is ``"float64"``; set ``False`` to force the
        allocating seed path.
    dtype_policy:
        Compute dtype for the network (``"float64"`` or ``"float32"``); see
        :class:`repro.perf.DtypePolicy`.  Losses, SNR and reconstruction
        outputs accumulate in float64 regardless.
    """

    name = "fcnn"

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = PAPER_HIDDEN_LAYERS,
        num_neighbors: int = 5,
        include_gradients: bool = True,
        learning_rate: float = 1e-3,
        batch_size: int = 4096,
        gradient_loss_weight: float = 0.1,
        seed: int = 0,
        fast_path: bool = True,
        dtype_policy: str = "float64",
    ) -> None:
        if not hidden_layers:
            raise ValueError("need at least one hidden layer")
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.extractor = FeatureExtractor(
            num_neighbors=num_neighbors, include_gradients=include_gradients
        )
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        if gradient_loss_weight < 0:
            raise ValueError(f"gradient_loss_weight must be >= 0, got {gradient_loss_weight}")
        self.gradient_loss_weight = float(gradient_loss_weight)
        self.seed = int(seed)
        self.fast_path = bool(fast_path)
        self.dtype_policy = DtypePolicy(dtype_policy)
        self._workspace: Workspace | None = None
        # Single-writer guard for the shared Workspace arena: concurrent
        # fine_tune_batch calls on one instance serialize here (ALS002 —
        # arena buffers are keyed by tag, not by caller).
        self._ft_lock = threading.Lock()
        self.model: Sequential | None = None
        self.normalizer: Normalizer | None = None
        self.history = TrainingHistory()

    # ------------------------------------------------------------ plumbing
    def __getstate__(self) -> dict:
        # The fine-tune guard is per-instance runtime state: a copy or an
        # unpickled worker replica gets a fresh, unheld lock.
        state = self.__dict__.copy()
        state["_ft_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._ft_lock = threading.Lock()

    @property
    def is_trained(self) -> bool:
        return self.model is not None and self.normalizer is not None

    def _require_trained(self) -> tuple[Sequential, Normalizer]:
        if self.model is None or self.normalizer is None:
            raise RuntimeError("model is not trained; call train() or load() first")
        return self.model, self.normalizer

    def _get_workspace(self) -> Workspace | None:
        """The reconstructor's arena (one per instance), or ``None`` when slow."""
        if not self.fast_path:
            return None
        if self._workspace is None:
            self._workspace = Workspace(dtype=self.dtype_policy.compute_dtype)
        return self._workspace

    def _loss(self):
        if self.extractor.include_gradients:
            w = self.gradient_loss_weight
            return WeightedMSELoss([1.0, w, w, w])
        return MSELoss()

    def _build_model(self) -> Sequential:
        return mlp(
            self.extractor.feature_size,
            list(self.hidden_layers),
            self.extractor.target_size,
            activation="ReLU",
            seed=self.seed,
        )

    @staticmethod
    def _as_sample_list(samples: SampledField | list[SampledField]) -> list[SampledField]:
        if isinstance(samples, SampledField):
            return [samples]
        samples = list(samples)
        if not samples:
            raise ValueError("need at least one sample to train on")
        return samples

    @staticmethod
    def _kept_rows(rows: int, train_fraction: float) -> int:
        """How many of ``rows`` assembled training rows ``train_fraction`` keeps."""
        if not (0.0 < train_fraction <= 1.0):
            raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
        if train_fraction < 1.0:
            return max(1, int(round(train_fraction * rows)))
        return rows

    def _training_matrix(
        self,
        field: TimestepField,
        samples: list[SampledField],
        normalizer: Normalizer,
        train_fraction: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for sample in samples:
            x, y = self.extractor.training_data(field, sample, normalizer)
            xs.append(x)
            ys.append(y)
        if len(xs) == 1:
            x, y = xs[0], ys[0]
        else:
            x = np.concatenate(xs, axis=0)
            y = np.concatenate(ys, axis=0)
        del xs, ys
        keep = self._kept_rows(len(x), train_fraction)
        if train_fraction < 1.0:
            idx = rng.choice(len(x), size=keep, replace=False)
            x, y = x[idx], y[idx]
        return x, y

    # -------------------------------------------------------------- training
    def train(
        self,
        field: TimestepField,
        samples: SampledField | list[SampledField],
        epochs: int = 500,
        train_fraction: float = 1.0,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        checkpoint: CheckpointConfig | None = None,
        resume_from: str | Path | TrainingCheckpoint | None = None,
        health: HealthGuard | None = None,
    ) -> TrainingHistory:
        """Full (pre)training on one timestep's sample(s).

        ``samples`` may be several :class:`SampledField` draws — the paper
        concatenates a 1% and a 5% sample ("1%+5% model", Fig 7) so the
        network sees both sparse and dense neighborhoods.
        ``train_fraction`` sub-samples the assembled training rows
        (Fig 14 / Table II).

        ``checkpoint``, ``resume_from`` and ``health`` are forwarded to
        :meth:`repro.nn.Trainer.fit`: periodic atomic training-state
        checkpoints, bit-exact resume of a killed run (the model is
        deterministically rebuilt from ``seed``, then overwritten by the
        checkpointed state), and NaN/Inf recovery policies.
        """
        sample_list = self._as_sample_list(samples)
        combined_values = np.concatenate([s.values for s in sample_list])
        combined = SampledFieldView(values=combined_values)
        normalizer = Normalizer.fit(
            field.grid,
            combined.values,
            gradients=_field_gradients_cached(field) if self.extractor.include_gradients else None,
        )

        rng = np.random.default_rng(self.seed)
        with span("fcnn.features", samples=len(sample_list)):
            x, y = self._training_matrix(field, sample_list, normalizer, train_fraction, rng)

        self.model = self._build_model()
        # Cast before building the optimizer so Adam's moments match.
        self.dtype_policy.cast_model(self.model)
        self.normalizer = normalizer
        self.history = TrainingHistory()
        trainer = Trainer(
            self.model,
            loss=self._loss(),
            optimizer=Adam(self.model.parameters(), lr=self.learning_rate),
            batch_size=self.batch_size,
            seed=self.seed,
            workspace=self._get_workspace(),
        )
        run = trainer.fit(
            x,
            y,
            epochs=epochs,
            validation=validation,
            checkpoint=checkpoint,
            resume_from=resume_from,
            health=health,
        )
        self.history.extend(run)
        return run

    def fine_tune(
        self,
        field: TimestepField,
        samples: SampledField | list[SampledField],
        epochs: int = 10,
        strategy: str = "full",
        num_trainable: int = 2,
        train_fraction: float = 1.0,
        checkpoint: CheckpointConfig | None = None,
        health: HealthGuard | None = None,
    ) -> TrainingHistory:
        """Adapt a trained model to new data (new timestep / resolution).

        ``strategy="full"`` is the paper's Case 1 (all layers trainable,
        ~10 epochs); ``strategy="last"`` is Case 2 (only the last
        ``num_trainable`` Dense layers trainable, 300–500 epochs, enabling
        partial checkpoints).  Value normalization stays fixed at the
        pretraining fit so checkpoints remain interchangeable.
        """
        model, normalizer = self._require_trained()
        if strategy == "full":
            model.set_all_trainable(True)
        elif strategy == "last":
            model.freeze_all_but_last(num_trainable)
        else:
            raise ValueError(f"strategy must be 'full' or 'last', got {strategy!r}")

        sample_list = self._as_sample_list(samples)
        # Coordinates renormalize to the new field's grid; value scaling is
        # retained from pretraining.
        tuned = dataclasses.replace(
            normalizer,
            origin=np.asarray(field.grid.origin, dtype=np.float64),
            span=_grid_span(field.grid),
        )
        rng = np.random.default_rng(self.seed + 1)
        x, y = self._training_matrix(field, sample_list, tuned, train_fraction, rng)

        trainer = Trainer(
            model,
            loss=self._loss(),
            optimizer=Adam(model.parameters(), lr=self.learning_rate),
            batch_size=self.batch_size,
            seed=self.seed + 1,
            workspace=self._get_workspace(),
        )
        run = trainer.fit(x, y, epochs=epochs, checkpoint=checkpoint, health=health)
        self.history.extend(run)
        model.set_all_trainable(True)
        return run

    def fine_tune_batch(
        self,
        fields: list[TimestepField],
        samples_per_step: list,
        epochs: int = 10,
        strategy: str = "last",
        num_trainable: int = 2,
        train_fraction: float = 1.0,
        prefix_cache: bool = True,
    ) -> tuple[list[np.ndarray], list[TrainingHistory]]:
        """Fine-tune one model per field from the current base, fused.

        The batched counterpart of calling :meth:`fine_tune` once per
        timestep from the same pretrained base: every step gets its own
        weight set, all K advance together through the
        :mod:`repro.nn.batched` engine (one fused matmul per layer per
        batch instead of K serial ones).  Unlike :meth:`fine_tune` this
        does **not** mutate ``self.model`` — the base stays pristine and
        each step's result comes back as a flat weight vector
        (:func:`repro.perf.restore_weights` layout, journal-sidecar
        ready) plus its :class:`~repro.nn.TrainingHistory`.

        Fusing saves no time: on a 2-vCPU Xeon one K=4 Case-2 call and
        four K=1 calls take the same time, while peak memory grows with
        K.  The campaign drivers and :func:`repro.serve.build_registry`
        therefore pass one timestep per call; the Case-2 speed comes from
        the frozen-prefix cache below.

        ``strategy="last"`` (paper Case 2) additionally enables the
        frozen-prefix activation cache: the frozen layers run once per
        step over the full training slab instead of every batch of every
        epoch.  Pass ``prefix_cache=False`` for the exact serial Case-2
        op sequence (bit-identical to per-step :meth:`fine_tune`).

        Steps whose training matrices disagree in row count are grouped
        into separate stacks (fused batching needs a rectangular slab);
        each member's bits never depend on its group's size.  Each step's
        training matrix is built only when the trainer stages it and is
        freed before the next one is built, so peak memory is the
        ``(K, N, ·)`` training slabs plus one step's features.  Each
        member's result is the same for any K.

        **Single-writer:** the call shares the instance's one
        :class:`~repro.perf.Workspace` arena, whose buffers are keyed by
        tag rather than by caller, so concurrent submissions on the same
        instance are serialized on an internal lock (results are
        identical to running them back to back).  For true parallelism
        give each thread its own :meth:`clone`.
        """
        with self._ft_lock:
            return self._fine_tune_batch_locked(
                fields, samples_per_step, epochs, strategy, num_trainable,
                train_fraction, prefix_cache,
            )

    def _fine_tune_batch_locked(
        self,
        fields: list[TimestepField],
        samples_per_step: list,
        epochs: int,
        strategy: str,
        num_trainable: int,
        train_fraction: float,
        prefix_cache: bool,
    ) -> tuple[list[np.ndarray], list[TrainingHistory]]:
        model, normalizer = self._require_trained()
        if strategy not in ("full", "last"):
            raise ValueError(f"strategy must be 'full' or 'last', got {strategy!r}")
        fields = list(fields)
        samples_per_step = list(samples_per_step)
        if len(fields) != len(samples_per_step):
            raise ValueError(
                f"{len(fields)} fields but {len(samples_per_step)} sample groups"
            )
        if not fields:
            raise ValueError("need at least one timestep to fine-tune")

        sample_lists = [self._as_sample_list(samples) for samples in samples_per_step]

        def load(i: int) -> tuple[np.ndarray, np.ndarray]:
            """Step ``i``'s training matrix, built only when the trainer stages it."""
            field = fields[i]
            tuned = dataclasses.replace(
                normalizer,
                origin=np.asarray(field.grid.origin, dtype=np.float64),
                span=_grid_span(field.grid),
            )
            rng = np.random.default_rng(self.seed + 1)
            with span("fcnn.features.batched", step=i):
                return self._training_matrix(
                    field, sample_lists[i], tuned, train_fraction, rng
                )

        # The batched engine is float64-only; a float32 arena would change
        # the gather dtype, so fall back to the allocating float64 path.
        workspace = self._get_workspace()
        if workspace is not None and workspace.dtype != np.float64:
            workspace = None

        # Group by row count (known without building a matrix) so every
        # member of a stack trains on an equal number of rows.
        groups: dict[int, list[int]] = {}
        for i, sample_list in enumerate(sample_lists):
            rows = sum(len(sample.void_indices()) for sample in sample_list)
            groups.setdefault(self._kept_rows(rows, train_fraction), []).append(i)
        flats: list[np.ndarray | None] = [None] * len(fields)
        histories: list[TrainingHistory | None] = [None] * len(fields)
        for steps in groups.values():
            stack = ModelStack.from_network(model, k=len(steps))
            if strategy == "last":
                stack.freeze_all_but_last(num_trainable)
            trainer = BatchedTrainer(
                stack,
                loss=self._loss(),
                optimizer=BatchedAdam(stack.parameters(), lr=self.learning_rate),
                batch_size=self.batch_size,
                seed=self.seed + 1,
                workspace=workspace,
                case2_prefix_cache=prefix_cache,
            )
            # Members are built one at a time inside the trainer, which
            # releases each one's features once it is staged.
            runs = trainer.fit(
                [functools.partial(load, i) for i in steps], None, epochs=epochs
            )
            for member, i in enumerate(steps):
                flats[i] = stack.member_weights(member)
                histories[i] = runs[member]
        return flats, histories

    # --------------------------------------------------------- reconstruction
    def predict_values(
        self,
        sample: SampledField,
        points: np.ndarray,
        grid: UniformGrid | None = None,
    ) -> np.ndarray:
        """Predict (denormalized) scalar values at arbitrary positions.

        The one FCNN inference kernel: offline reconstruction, the warm
        campaign and shard pools and the serving evaluator all predict
        through it.  With ``fast_path`` the coordinate feature columns come
        from the extractor's per-geometry memo
        (:meth:`FeatureExtractor.prediction_block`), so a call refills only
        the value columns; rows then stream through the workspace in
        fixed-size blocks and are denormalized straight into the result.
        Block boundaries equal the slow path's prediction batches, keeping
        results bit-identical (``dtype_policy="float64"``).
        """
        model, normalizer = self._require_trained()
        g = grid if grid is not None else sample.grid
        local = dataclasses.replace(
            normalizer,
            origin=np.asarray(g.origin, dtype=np.float64),
            span=_grid_span(g),
        )
        with span("fcnn.predict", queries=len(points), fast=self.fast_path):
            if self.fast_path:
                return self._predict_values_fast(model, sample, points, local)
            x = self.extractor.features(sample, points, local)
            pred = model.predict(x, batch_size=max(self.batch_size, 16384))
            return local.denormalize_values(pred[:, 0])

    def _predict_values_fast(
        self,
        model: Sequential,
        sample: SampledField,
        points: np.ndarray,
        local: Normalizer,
    ) -> np.ndarray:
        """Chunked inference through the reused workspace (see predict_values)."""
        ws = self._get_workspace()
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        nq = len(points)
        out = np.empty(nq, dtype=np.float64)
        block = max(self.batch_size, 16384)
        feat, idx = self.extractor.prediction_block(sample, points, local, ws.dtype)
        model.attach_workspace(ws)
        model.set_training(False)
        try:
            for start in range(0, nq, block):
                stop = min(start + block, nq)
                rows = self.extractor.values_into(
                    sample, local, feat[start:stop], idx[start:stop], workspace=ws
                )
                pred = model.forward(rows)
                local.denormalize_values_into(pred[:, 0], out[start:stop])
        finally:
            model.set_training(True)
            model.detach_workspace()
        return out

    def reconstruct(
        self,
        sample: SampledField,
        target_grid: UniformGrid | None = None,
        on_nonfinite: str = "fallback",
        return_report: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, ReconstructionReport]:
        """Reconstruct the full field from a sample (shaped like the grid).

        With ``target_grid`` (Fig 13 upscaling) every grid point is
        predicted; otherwise sampled locations keep their exact stored
        values and only void locations are predicted.

        Non-finite FCNN predictions (a numerically-poisoned model, an
        overflowing feature) are handled per ``on_nonfinite``:
        ``"fallback"`` (default) fills the affected locations by nearest-
        neighbor interpolation from the sample and flags them in the
        report; ``"raise"`` aborts with
        :class:`~repro.resilience.NumericalHealthError`.  Request the
        degradation metadata with ``return_report=True`` — the result
        becomes ``(field, report)``.
        """
        if on_nonfinite not in ("fallback", "raise"):
            raise ValueError(
                f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
            )
        self._require_trained()
        grid = target_grid if target_grid is not None else sample.grid
        same_grid = target_grid is None or target_grid == sample.grid
        report = ReconstructionReport(
            total_points=int(grid.num_points), fallback_method="nearest"
        )
        with span("fcnn.reconstruct", points=int(grid.num_points)):
            if same_grid:
                out = grid.empty_field().ravel()
                out[sample.indices] = sample.values
                void = sample.void_indices()
                if void.size:
                    # Cached array identity (not just equal values) keeps the
                    # extractor's neighbor-index memo hot across timesteps.
                    points = sample.void_points()
                    out[void] = self._healthy_predictions(
                        sample, points, grid, on_nonfinite, report
                    )
                field = out.reshape(grid.dims)
            else:
                points = grid.points()
                field = self._healthy_predictions(
                    sample, points, grid, on_nonfinite, report
                ).reshape(grid.dims)
        if return_report:
            return field, report
        return field

    def _healthy_predictions(
        self,
        sample: SampledField,
        points: np.ndarray,
        grid: UniformGrid,
        on_nonfinite: str,
        report: ReconstructionReport,
    ) -> np.ndarray:
        """Predict at ``points``, degrading non-finite outputs to nearest-neighbor."""
        pred = self.predict_values(sample, points, grid)
        bad = ~np.isfinite(pred)
        count = int(bad.sum())
        if count == 0:
            return pred
        if on_nonfinite == "raise":
            raise NumericalHealthError(
                f"FCNN produced {count}/{pred.size} non-finite predictions; "
                "the model state is numerically poisoned"
            )
        from scipy.spatial import cKDTree

        pred = pred.copy()
        _, nearest = cKDTree(sample.points).query(points[bad], k=1)
        pred[bad] = sample.values[nearest]
        report.flag(
            len(report.degraded),
            count,
            f"{count}/{pred.size} non-finite FCNN prediction(s)",
            "nearest",
        )
        obs_counter("reconstruct.fcnn.fallback").inc(count)
        record_event(
            "degraded", where="fcnn.predict", count=count, fallback="nearest"
        )
        return pred

    # ------------------------------------------------------------- snapshots
    def snapshot(self):
        """Lightweight learned-state snapshot: ``(weights, normalizer)``.

        Copies only the parameter tensors (plus freeze flags) and keeps a
        reference to the immutable normalizer — unlike
        ``copy.deepcopy(self)``, which also clones the Workspace arenas,
        cached geometry and optimizer-adjacent scratch that are *not* part
        of the learned state.  Pair with :meth:`restore` for rollback
        points, or :meth:`clone` for an independent model.
        """
        model, normalizer = self._require_trained()
        return (model.snapshot(), normalizer)

    def restore(self, snapshot) -> None:
        """Return this model to a :meth:`snapshot`'s learned state, in place."""
        model, _ = self._require_trained()
        weights, normalizer = snapshot
        model.restore(weights)
        self.normalizer = normalizer

    def clone(self) -> "FCNNReconstructor":
        """An independent reconstructor with identical learned state.

        The replacement for per-timestep ``copy.deepcopy(model)`` in the
        rolling fine-tuning loops (Fig 5/11): the clone gets a fresh
        network and its own (empty) Workspace, then copies the weights in
        — so the two models can be trained/reconstructed independently,
        and nothing of the parent's arenas or caches is duplicated.
        Training history carries over; the normalizer (immutable) is
        shared.
        """
        recon = FCNNReconstructor(
            hidden_layers=self.hidden_layers,
            num_neighbors=self.extractor.num_neighbors,
            include_gradients=self.extractor.include_gradients,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            gradient_loss_weight=self.gradient_loss_weight,
            seed=self.seed,
            fast_path=self.fast_path,
            dtype_policy=self.dtype_policy.compute,
        )
        if self.model is not None:
            recon.model = self.model.clone_architecture()
            recon.dtype_policy.cast_model(recon.model)
            recon.model.restore(self.model.snapshot())
        recon.normalizer = self.normalizer
        recon.history.extend(self.history)
        return recon

    # ----------------------------------------------------------- checkpoints
    def save(self, path: str | Path) -> None:
        """Full checkpoint: weights + architecture + normalization stats."""
        model, normalizer = self._require_trained()
        meta = {
            "hidden_layers": list(self.hidden_layers),
            "num_neighbors": self.extractor.num_neighbors,
            "include_gradients": self.extractor.include_gradients,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "fast_path": self.fast_path,
            "dtype_policy": self.dtype_policy.compute,
            "normalizer": normalizer.as_dict(),
        }
        save_model(path, model, meta=meta)

    def save_partial(self, path: str | Path, num_layers: int = 2) -> None:
        """Case-2 checkpoint: only the last ``num_layers`` Dense layers."""
        model, normalizer = self._require_trained()
        save_partial(path, model, num_layers, meta={"normalizer": normalizer.as_dict()})

    @classmethod
    def load(cls, path: str | Path) -> "FCNNReconstructor":
        """Restore a reconstructor saved with :meth:`save`."""
        model, meta = load_model(path)
        recon = cls(
            hidden_layers=tuple(meta["hidden_layers"]),
            num_neighbors=int(meta["num_neighbors"]),
            include_gradients=bool(meta["include_gradients"]),
            learning_rate=float(meta["learning_rate"]),
            batch_size=int(meta["batch_size"]),
            seed=int(meta["seed"]),
            fast_path=bool(meta.get("fast_path", True)),
            dtype_policy=str(meta.get("dtype_policy", "float64")),
        )
        recon.model = model
        # Checkpoints store float64 weights; re-apply the compute policy.
        recon.dtype_policy.cast_model(model)
        recon.normalizer = Normalizer.from_dict(meta["normalizer"])
        return recon

    def load_partial(self, path: str | Path) -> None:
        """Graft a Case-2 partial checkpoint onto this trained model."""
        model, _ = self._require_trained()
        from repro.nn.serialization import load_partial as _load_partial

        _load_partial(path, model)


# --------------------------------------------------------------------------
# helpers


class SampledFieldView:
    """Minimal value holder used when blending multiple samples' statistics."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values


def _grid_span(grid: UniformGrid) -> np.ndarray:
    span = (np.asarray(grid.dims, dtype=np.float64) - 1.0) * np.asarray(grid.spacing)
    return np.where(span <= 0, 1.0, span)


def _field_gradients_cached(field: TimestepField) -> np.ndarray:
    from repro.grid import field_gradients

    return field_gradients(field.grid, field.values)
