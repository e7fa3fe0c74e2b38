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
import threading
from pathlib import Path

import numpy as np

from repro.core.features import TRAINING_BLOCK, FeatureExtractor
from repro.core.normalization import Normalizer
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid
from repro.nn import Adam, MSELoss, Sequential, Trainer, TrainingHistory, WeightedMSELoss, mlp
from repro.nn.serialization import load_model, save_model, save_partial
from repro.obs import counter as obs_counter
from repro.obs import record_event, span
from repro.perf import DtypePolicy, Workspace, snapshot_weights
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
        Compute dtype for the network and its training rows: ``"float32"``
        (the default, as the paper's PyTorch computes) or ``"float64"``;
        see :class:`repro.perf.DtypePolicy`.  Losses, SNR and
        reconstruction outputs accumulate in float64 regardless.
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
        dtype_policy: str = "float32",
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
        # Single-writer guard: fine_tune_batch trains self.model in place
        # and puts the base back, so concurrent calls on one instance
        # serialize here.
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

    def _step_rows(self, samples: list[SampledField], train_fraction: float) -> int:
        """Training rows of one step: its samples' void rows, thinned by ``train_fraction``."""
        return self._kept_rows(sum(len(s.void_indices()) for s in samples), train_fraction)

    def _training_blocks(
        self,
        field: TimestepField,
        samples: list[SampledField],
        normalizer: Normalizer,
        train_fraction: float,
        rng: np.random.Generator,
        gradients: np.ndarray | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
        dtype=None,
    ):
        """Build one step's training rows as consecutive ``(x, y)`` blocks.

        The rows are every sample's void rows, concatenated in sample
        order.  With ``train_fraction < 1`` they are the
        ``rng.choice(N, size=kept, replace=False)`` subset in drawn order:
        the draw comes first and only the kept rows are built.  Blocks are
        at most ``TRAINING_BLOCK`` rows (:meth:`FeatureExtractor.training_rows`);
        with ``out=(x, y)`` they are written in place into ``x`` and ``y``,
        otherwise they are ``dtype`` blocks (the compute dtype by default).
        One ``fcnn.features`` span covers the build, and ``gradients``
        (:meth:`FeatureExtractor.training_gradients`) are computed once
        when the caller has none.
        """
        ext = self.extractor
        if dtype is None:
            dtype = self.dtype_policy.compute_dtype
        counts = [len(sample.void_indices()) for sample in samples]
        total = sum(counts)
        keep = self._kept_rows(total, train_fraction)
        with span("fcnn.features", samples=len(samples), rows=keep):
            if gradients is None:
                gradients = ext.training_gradients(field)
            if train_fraction >= 1.0:
                start = 0
                for sample, n in zip(samples, counts):
                    part = slice(start, start + n)
                    yield from ext.training_rows(
                        field, sample, normalizer, TRAINING_BLOCK, gradients,
                        out=None if out is None else (out[0][part], out[1][part]),
                        dtype=dtype,
                    )
                    start += n
                return
            kept = rng.choice(total, size=keep, replace=False)
            offsets = np.cumsum([0, *counts])
            owner = np.searchsorted(offsets, kept, side="right") - 1
            if out is None:  # one spare pair, refilled for every block
                height = min(keep, TRAINING_BLOCK)
                spare = (
                    np.empty((height, ext.feature_size), dtype=dtype),
                    np.empty((height, ext.target_size), dtype=dtype),
                )
            for start in range(0, keep, TRAINING_BLOCK):
                stop = min(start + TRAINING_BLOCK, keep)
                if out is None:
                    x, y = spare[0][: stop - start], spare[1][: stop - start]
                else:
                    x, y = out[0][start:stop], out[1][start:stop]
                # A block's rows may come from several samples: build each
                # sample's share and scatter it to its drawn positions.
                for s in np.unique(owner[start:stop]):
                    mine = owner[start:stop] == s
                    rows = kept[start:stop][mine] - offsets[s]
                    for xs, ys in ext.training_rows(
                        field, samples[s], normalizer, len(rows), gradients, rows=rows,
                        dtype=dtype,
                    ):
                        x[mine], y[mine] = xs, ys
                yield x, y

    def _training_matrix(
        self,
        field: TimestepField,
        samples: list[SampledField],
        normalizer: Normalizer,
        train_fraction: float,
        rng: np.random.Generator,
        gradients: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step's ``(N, features)`` / ``(N, targets)`` training pair, built in place.

        Both are in the compute dtype, so the trainer gathers its batches
        straight from them.
        """
        rows = self._step_rows(samples, train_fraction)
        dtype = self.dtype_policy.compute_dtype
        x = np.empty((rows, self.extractor.feature_size), dtype=dtype)
        y = np.empty((rows, self.extractor.target_size), dtype=dtype)
        blocks = self._training_blocks(
            field, samples, normalizer, train_fraction, rng, gradients, out=(x, y)
        )
        for _ in blocks:
            pass  # each block is already in place
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
        # One gradient pass per timestep serves the fit and the targets.
        gradients = self.extractor.training_gradients(field)
        normalizer = Normalizer.fit(
            field.grid, np.concatenate([s.values for s in sample_list]), gradients=gradients
        )

        rng = np.random.default_rng(self.seed)
        x, y = self._training_matrix(
            field, sample_list, normalizer, train_fraction, rng, gradients
        )
        del gradients

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

        Case 2 runs the frozen layers once per fit
        (:meth:`_prefix_activations`) and trains only the suffix, so a
        ``checkpoint`` holds the suffix and its Adam state.  Every layer is
        trainable again afterwards, also when the fit raises.
        """
        model, normalizer = self._require_trained()
        if strategy not in ("full", "last"):
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
        cut = 0
        if strategy == "full":
            model.set_all_trainable(True)
        else:
            model.freeze_all_but_last(num_trainable)
            cut = model.layers.index(model.dense_layers()[-num_trainable])
        try:
            trained = Sequential(model.layers[cut:])
            if cut:
                x, y = self._prefix_activations(
                    Sequential(model.layers[:cut]), field, sample_list, tuned,
                    train_fraction, rng,
                )
            else:
                x, y = self._training_matrix(field, sample_list, tuned, train_fraction, rng)
            trainer = Trainer(
                trained,
                loss=self._loss(),
                optimizer=Adam(trained.parameters(), lr=self.learning_rate),
                batch_size=self.batch_size,
                seed=self.seed + 1,
                workspace=self._get_workspace(),
            )
            run = trainer.fit(x, y, epochs=epochs, checkpoint=checkpoint, health=health)
        finally:
            model.set_all_trainable(True)
        self.history.extend(run)
        return run

    def _prefix_activations(
        self,
        prefix: Sequential,
        field: TimestepField,
        samples: list[SampledField],
        normalizer: Normalizer,
        train_fraction: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step's rows through the frozen ``prefix``: ``(N, width)`` / ``(N, targets)``.

        Blocks stream from :meth:`_training_blocks` (no ``(N, features)``
        matrix) through the prefix in eval mode on the workspace,
        ``batch_size`` rows at a time; rows round the same at any height, so
        the activations equal an uncached fit's per-batch prefix output.
        """
        rows = self._step_rows(samples, train_fraction)
        width = prefix.dense_layers()[-1].out_features
        dtype = self.dtype_policy.compute_dtype
        z = np.empty((rows, width), dtype=dtype)
        y = np.empty((rows, self.extractor.target_size), dtype=dtype)
        prefix.attach_workspace(self._get_workspace())
        prefix.set_training(False)
        try:
            with span("train.prefix", rows=rows, width=width):
                blocks = self._training_blocks(field, samples, normalizer, train_fraction, rng)
                try:
                    start = 0
                    for xb, yb in blocks:
                        y[start : start + len(yb)] = yb
                        for a in range(0, len(xb), self.batch_size):
                            b = min(a + self.batch_size, len(xb))
                            z[start + a : start + b] = prefix.forward(xb[a:b])
                        start += len(xb)
                        del xb, yb  # not held while the next block is built
                finally:
                    # A failed block leaves the build's fcnn.features span
                    # open in its generator: close it inside this span.
                    blocks.close()
            obs_counter("train.prefix_rows").inc(rows)
        finally:
            prefix.set_training(True)
            prefix.detach_workspace()
        return z, y

    def fine_tune_batch(
        self,
        fields: list[TimestepField],
        samples_per_step: list,
        epochs: int = 10,
        strategy: str = "last",
        num_trainable: int = 2,
        train_fraction: float = 1.0,
    ) -> tuple[list[np.ndarray], list[TrainingHistory]]:
        """Fine-tune one model per field from the current base.

        Each step restores the base and runs :meth:`fine_tune` in the
        policy's compute dtype; the base comes back afterwards, values and
        freeze flags, also when a step raises, and ``self.history`` is left
        as it was.  Each step's result is a flat float64 weight vector
        (:func:`repro.perf.restore_weights` layout, journal-sidecar ready)
        plus its :class:`~repro.nn.TrainingHistory`.  The campaign drivers
        and :func:`repro.serve.build_registry` pass one timestep per call.

        **Single-writer:** the steps train ``self.model`` in place, so
        concurrent calls on one instance serialize on an internal lock
        (results are identical to running them back to back).  For true
        parallelism give each thread its own :meth:`clone`.
        """
        with self._ft_lock:
            model, _ = self._require_trained()
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
            base = model.snapshot()
            history, self.history = self.history, TrainingHistory()
            flats: list[np.ndarray] = []
            runs: list[TrainingHistory] = []
            try:
                for field, samples in zip(fields, samples_per_step):
                    model.restore(base)
                    runs.append(
                        self.fine_tune(
                            field, samples, epochs, strategy, num_trainable, train_fraction
                        )
                    )
                    flats.append(snapshot_weights(model).data)
            finally:
                model.restore(base)
                self.history = history
            return flats, runs

    # --------------------------------------------------------- reconstruction
    def predict_values(
        self,
        sample: SampledField,
        points: np.ndarray,
        grid: UniformGrid | None = None,
    ) -> np.ndarray:
        """Predict (denormalized) scalar values at arbitrary positions.

        The one FCNN inference kernel: offline reconstruction, the warm
        campaign pool and the serving evaluator all predict
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
            # Files from before the float32 default carry no key: float64.
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


def _grid_span(grid: UniformGrid) -> np.ndarray:
    span = (np.asarray(grid.dims, dtype=np.float64) - 1.0) * np.asarray(grid.spacing)
    return np.where(span <= 0, 1.0, span)

