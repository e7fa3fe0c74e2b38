# hot-path
"""The batched mini-batch training loop: K fine-tunes per BLAS call.

:class:`BatchedTrainer` drives a :class:`~repro.nn.batched.ModelStack`
through the serial :class:`repro.nn.Trainer` protocol — shuffled
mini-batches, per-member loss history, Adam — with every step fused across
the K members.  All members share one shuffling seed (the campaign
fine-tunes every timestep with the same ``seed + 1``), so a single
permutation drives the whole stack and the per-member trajectories are
bit-identical to K serial runs (``tests/test_nn_batched.py``).

Case-2 fast path: when the stack has a frozen prefix
(:meth:`ModelStack.freeze_all_but_last`), the prefix is evaluated **once**
per fit (it never changes — its weights are frozen) and the epoch loop
trains only the suffix layers: no forward *or* backward work through
frozen layers, ever.  Members are staged one at a time, block by block:
each block of a member's rows goes through the prefix in mini-batch-sized
pieces straight into a ``(K, N, width)`` activation slab and is released,
so peak memory is the slabs plus one block — never a member's
``(N, features)`` inputs, let alone a ``(K, N, features)`` stack.  The
cached-prefix trajectory is proven correct against finite differences
rather than claimed bit-identical to the serial Case-2 run (the prefix
matmul happens at block rather than per-batch shape); disable it with
``case2_prefix_cache=False`` to recover the exact serial Case-2 op
sequence.

Fusing members saves no time on its own: on a 2-vCPU Xeon one K=4 Case-2
fit and four K=1 fits take the same time (6.9–8.2 s vs 7.6–7.9 s for
4 × 5 epochs at 72×72×36), and the prefix slabs make peak memory grow
with K.  The Case-2 speed-up is the prefix cache, which works at K=1;
:meth:`repro.core.FCNNReconstructor.fine_tune` has it too, so no library
module calls this trainer.

Telemetry mirrors the serial trainer under a ``train.batched.*`` prefix:
``train.batched.fit``/``train.batched.epoch`` spans, batch/epoch counters,
loss/model-count gauges and epoch-seconds histograms.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.nn.batched.optimizers import BatchedAdam
from repro.nn.batched.stack import ModelStack
from repro.nn.losses import Loss, MSELoss
from repro.nn.losses_weighted import WeightedMSELoss
from repro.nn.training import TrainingHistory
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import histogram as obs_histogram
from repro.obs import span

__all__ = ["BatchedTrainer", "batched_loss_gradient"]


def batched_loss_gradient(loss: Loss, pred: np.ndarray, target: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Loss gradient over a ``(K, B, C)`` stack, element-identical per member.

    The fused forms repeat the serial losses' exact ``out=`` op sequences
    (subtract, scale, divide by the *member* element count ``B * C``);
    unrecognized losses fall back to a per-member loop.
    """
    member_size = pred[0].size
    if type(loss) is MSELoss:
        np.subtract(pred, target, out=out)
        out *= 2.0
        out /= member_size
    elif type(loss) is WeightedMSELoss:
        np.subtract(pred, target, out=out)
        out *= 2.0 * loss.weights
        out /= member_size
    else:
        for k in range(pred.shape[0]):
            out[k] = loss.gradient(pred[k], target[k])
    return out


class BatchedTrainer:
    """Mini-batch gradient descent on a :class:`ModelStack`.

    Parameters
    ----------
    stack:
        The K-member model stack (trained in place).
    loss:
        Defaults to :class:`MSELoss`; applied per member.
    optimizer:
        Defaults to :class:`BatchedAdam` with the paper's ``lr=0.001``.
        Construct it *after* any freezing so its state lists line up.
    batch_size:
        Mini-batch rows per member per update.
    seed:
        Shared shuffling seed — one permutation drives all K members.
    workspace:
        Optional :class:`repro.perf.Workspace`; when given, batch gathers,
        activations, gradients and the cached Case-2 prefix all reuse
        arena buffers (allocation-free steady-state epochs).
    case2_prefix_cache:
        Enable the frozen-prefix activation cache (default).  ``False``
        keeps the frozen layers in the per-batch loop — slower, but the
        exact serial Case-2 op sequence.

    Members' results do not depend on K, and a larger K saves no time
    while its memory grows (see the module docstring).
    """

    def __init__(
        self,
        stack: ModelStack,
        loss: Loss | None = None,
        optimizer: BatchedAdam | None = None,
        batch_size: int = 4096,
        seed: int = 0,
        workspace=None,
        case2_prefix_cache: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.stack = stack
        self.loss = loss if loss is not None else MSELoss()
        self.optimizer = optimizer if optimizer is not None else BatchedAdam(stack.parameters())
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.workspace = workspace
        self.case2_prefix_cache = bool(case2_prefix_cache)

    def fit(
        self,
        x,
        y: np.ndarray | None,
        epochs: int,
        shuffle: bool = True,
    ) -> list[TrainingHistory]:
        """Train all K members for ``epochs`` passes over their data slabs.

        ``x`` is ``(K, N, features)`` and ``y`` is ``(K, N, targets)`` —
        member ``k`` trains on the ``(x[k], y[k])`` slab.  Alternatively
        pass ``y=None`` and ``x`` as K zero-argument callables, the k-th
        returning member ``k``'s ``(rows, blocks)``: its row count and an
        iterable of consecutive ``(x, y)`` row blocks.  Members are then
        staged one at a time, block by block, and each block is released
        once staged, so only one block of inputs is ever alive
        (:meth:`_stage`).  Every member sees the same number of rows (a
        rectangular stack is what makes the fused batching possible).
        Returns one :class:`~repro.nn.TrainingHistory` per member; epoch
        wall time is attributed ``1/K`` to each.
        """
        k = self.stack.k
        ws = self.workspace
        dtype = np.float64 if ws is None else ws.dtype
        if y is None:
            members = list(x)
            if len(members) != k:
                raise ValueError(
                    f"stack has K={k} members; got {len(members)} member loaders"
                )
            slabs = None
        else:
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            if x.ndim != 3 or y.ndim != 3:
                raise ValueError(f"expected stacked 3D x/y, got {x.shape} and {y.shape}")
            if x.shape[0] != k or y.shape[0] != k:
                raise ValueError(
                    f"stack has K={k} members; x/y carry {x.shape[0]}/{y.shape[0]} slabs"
                )
            if x.shape[1] != y.shape[1]:
                raise ValueError(
                    f"x and y row counts differ: x has shape {x.shape}, y has shape {y.shape}"
                )
            if x.shape[1] == 0:
                raise ValueError(f"training set is empty: x has shape {x.shape}")
            slabs = (
                np.ascontiguousarray(x, dtype=dtype),
                np.ascontiguousarray(y, dtype=dtype),
            )
            members = [functools.partial(_member_of, slabs, m) for m in range(k)]
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")

        if ws is not None:
            self.stack.attach_workspace(ws)
        try:
            return self._fit_loop(members, slabs, epochs, shuffle)
        finally:
            if ws is not None:
                self.stack.detach_workspace()
                obs_gauge("train.batched.workspace.bytes").set(float(ws.nbytes))
                obs_gauge("train.batched.workspace.buffers").set(float(ws.num_buffers))

    # ------------------------------------------------------------- internals
    def _fit_loop(
        self, members: list, slabs: tuple | None, epochs: int, shuffle: bool
    ) -> list[TrainingHistory]:
        k = self.stack.k
        cut = 0
        if self.case2_prefix_cache and any(not d.trainable for d in self.stack.dense_layers()):
            cut = self.stack.trainable_cut()
        rng = np.random.default_rng(self.seed)
        histories = [TrainingHistory() for _ in range(k)]
        with span(
            "train.batched.fit",
            models=k,
            epochs=int(epochs),
            case2_prefix=cut > 0,
        ) as fit_span:
            obs_gauge("train.batched.models").set(float(k))
            # Caller slabs already are the training input unless a frozen
            # prefix has to be applied first.
            x, y = slabs if slabs is not None and cut == 0 else self._stage(members, cut)
            n = x.shape[1]
            if fit_span is not None:  # the row count is known once staged
                fit_span.attrs["rows"] = n
            if cut > 0:
                obs_counter("train.batched.prefix_rows").inc(k * n)
            epoch = 0
            while epoch < epochs:
                with span("train.batched.epoch", epoch=epoch):
                    t0 = time.perf_counter()
                    order = rng.permutation(n) if shuffle else np.arange(n)
                    losses = self._run_epoch(x, y, order, cut)
                    seconds = time.perf_counter() - t0
                    for member, history in enumerate(histories):
                        history.train_loss.append(losses[member])
                        history.epoch_seconds.append(seconds / k)
                    obs_counter("train.batched.epochs").inc()
                    obs_gauge("train.batched.loss").set(float(np.mean(losses)))
                    obs_histogram("train.batched.epoch.seconds").observe(seconds)
                    epoch += 1
        return histories

    def _stage(self, members: list, cut: int) -> tuple[np.ndarray, np.ndarray]:
        """Build the ``(K, N, ·)`` training slabs one member block at a time.

        With a frozen prefix (``cut > 0``) each block of a member's inputs
        goes through :meth:`ModelStack.member_prefix` in pieces of at most
        ``batch_size`` rows straight into a ``(K, N, width)`` activation
        slab, so the prefix's arena buffers never outgrow the mini-batch
        shape; otherwise blocks are copied into one ``(K, N, features)``
        slab.  Targets go to the ``(K, N, targets)`` slab.  Rows round the
        same at any block height, so a member's bits depend neither on its
        blocks nor on how many members ride along.
        """
        k = self.stack.k
        dtype = np.float64 if self.workspace is None else self.workspace.dtype
        dense = self.stack.dense_layers()
        width = self.stack.prefix_width(cut) if cut > 0 else dense[0].in_features
        n, blocks = self._member(members, 0)
        x = np.empty((k, n, width), dtype=dtype)
        y = np.empty((k, n, dense[-1].out_features), dtype=dtype)
        for m in range(k):
            if m > 0:
                rows, blocks = self._member(members, m)
                if rows != n:
                    raise ValueError(
                        f"member {m} has {rows} rows, member 0 has {n}; "
                        "a stack trains on equal row counts"
                    )
            if cut == 0:
                self._fill(m, blocks, x, y, None)
                continue
            prefix = self.stack.member_prefix(m, cut)
            if self.workspace is not None:
                prefix.attach_workspace(self.workspace)
            with span("train.batched.prefix", member=m, rows=n, width=width):
                self._fill(m, blocks, x, y, prefix)
        return x, y

    def _member(self, members: list, m: int) -> tuple[int, object]:
        """Load member ``m``'s ``(rows, blocks)`` and check its row count."""
        rows, blocks = members[m]()
        if rows < 1:
            raise ValueError(f"training set is empty: member {m} has {rows} rows")
        return int(rows), blocks

    def _fill(
        self, m: int, blocks, x: np.ndarray, y: np.ndarray, prefix: ModelStack | None
    ) -> None:
        """Write member ``m``'s row blocks into its slab rows, through ``prefix`` if any."""
        n = x.shape[1]
        source = iter(blocks)
        start = 0
        try:
            for xb, yb in source:
                xb = np.ascontiguousarray(xb, dtype=x.dtype)
                yb = np.ascontiguousarray(yb, dtype=y.dtype)
                stop = start + len(xb)
                if xb.ndim != 2 or yb.ndim != 2 or len(yb) != len(xb) or stop > n:
                    raise ValueError(
                        f"member {m}: x/y block {xb.shape} / {yb.shape} at row "
                        f"{start} does not fit its {n} rows"
                    )
                y[m, start:stop] = yb
                if prefix is None:
                    x[m, start:stop] = xb
                else:
                    for a in range(0, len(xb), self.batch_size):
                        b = min(a + self.batch_size, len(xb))
                        x[m, start + a : start + b] = prefix.forward(xb[None, a:b])[0]
                start = stop
        finally:
            # A generator source may hold a span open across its blocks;
            # it must close before the caller's staging span does.
            close = getattr(source, "close", None)
            if close is not None:
                close()
        if start != n:
            raise ValueError(f"member {m} yielded {start} of its {n} rows")

    def _run_epoch(
        self, x: np.ndarray, y: np.ndarray, order: np.ndarray, cut: int
    ) -> list[float]:
        k = self.stack.k
        n = x.shape[1]
        ws = self.stack.workspace
        grad_out = (
            getattr(self.loss, "supports_out", False)
            and ws is not None
            and ws.dtype == np.float64
        )
        epoch_loss = [0.0] * k
        counted = 0
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if ws is None:
                xb, yb = x[:, idx], y[:, idx]
            else:
                # Gather into arena buffers instead of fancy-index copies.
                xb = ws.buffer(("batch", "x"), (k, len(idx), x.shape[2]), dtype=x.dtype)
                np.take(x, idx, axis=1, out=xb)
                yb = ws.buffer(("batch", "y"), (k, len(idx), y.shape[2]), dtype=y.dtype)
                np.take(y, idx, axis=1, out=yb)
            pred = self.stack.forward(xb, start=cut)
            batch_losses = [self.loss.value(pred[m], yb[m]) for m in range(k)]
            self.optimizer.zero_grad()
            if grad_out:
                gbuf = ws.buffer(("loss", "grad"), pred.shape, dtype=np.float64)
            else:
                gbuf = np.empty(pred.shape, dtype=np.float64)
            self.stack.backward(
                batched_loss_gradient(self.loss, pred, yb, out=gbuf), stop=cut
            )
            obs_counter("train.batched.batches").inc()
            self.optimizer.step()
            for member in range(k):
                epoch_loss[member] += batch_losses[member] * len(idx)
            counted += len(idx)
        if counted == 0:
            return [float("nan")] * k
        return [total / counted for total in epoch_loss]


def _member_of(slabs: tuple[np.ndarray, np.ndarray], m: int) -> tuple[int, list]:
    """Member ``m``'s rows of caller-provided ``(x, y)`` slabs as one block (views, no copy)."""
    x, y = slabs[0][m], slabs[1][m]
    return len(x), [(x, y)]
