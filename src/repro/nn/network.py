"""Sequential network composition and the MLP factory."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ACTIVATIONS, Dense, Layer

__all__ = ["Sequential", "mlp"]


class Sequential:
    """A straight pipeline of layers with joint forward/backward.

    This is all the paper's FCNN needs: input -> five Dense+ReLU blocks ->
    linear Dense head (Fig 5).
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)
        self._ws = None  # attached repro.perf.Workspace, or None (slow path)

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward propagation, caching intermediates for backward."""
        ws = self._ws
        out = np.asarray(x, dtype=np.float64 if ws is None else ws.dtype)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Backpropagate a loss gradient into every trainable parameter.

        Backprop stops at the lowest layer with a trainable parameter and
        does not form that layer's input gradient, as autograd does for
        frozen layers: Case-2 fine-tuning never runs the frozen prefix
        backward, and nothing forms the gradient with respect to the
        network input.  Parameters at or above the stop get the same
        gradients as a full backward.  Chain :meth:`Layer.backward` for
        input gradients.
        """
        ws = self._ws
        grad = np.asarray(grad_out, dtype=np.float64 if ws is None else ws.dtype)
        stop = self._lowest_trainable()
        if stop < 0:
            return
        for i in range(len(self.layers) - 1, stop, -1):
            grad = self.layers[i].backward(grad)
        self.layers[stop].backward(grad, need_input_grad=False)

    def _lowest_trainable(self) -> int:
        """Index of the lowest layer with a trainable parameter (-1 if none)."""
        for i, layer in enumerate(self.layers):
            if any(p.trainable for p in layer.parameters()):
                return i
        return -1

    # ------------------------------------------------------------ fast path
    def attach_workspace(self, workspace) -> None:
        """Route layer buffers through a :class:`repro.perf.Workspace`.

        Each layer is tagged with its index so arena keys stay distinct;
        results are bit-identical to the detached path (see
        :mod:`repro.perf.workspace`).  A workspace serves one model at a
        time — detach before attaching it elsewhere.
        """
        self._ws = workspace
        for i, layer in enumerate(self.layers):
            layer._ws = workspace
            layer._ws_tag = i

    def detach_workspace(self) -> None:
        """Return to the allocating (seed) path; the arena keeps its buffers."""
        self._ws = None
        for layer in self.layers:
            layer._ws = None
            layer._ws_tag = -1

    @property
    def workspace(self):
        """The attached :class:`repro.perf.Workspace`, or ``None``."""
        return self._ws

    def set_training(self, flag: bool) -> None:
        """Toggle train/eval mode on layers that distinguish them (Dropout)."""
        for layer in self.layers:
            if hasattr(layer, "training"):
                layer.training = bool(flag)

    def predict(self, x: np.ndarray, batch_size: int = 65536) -> np.ndarray:
        """Inference over arbitrarily many rows, processed in batches.

        Runs in eval mode (Dropout disabled) and restores train mode after;
        does not disturb training caches beyond the last batch.
        """
        ws = self._ws
        x = np.asarray(x, dtype=np.float64 if ws is None else ws.dtype)
        self.set_training(False)
        try:
            if ws is None:
                if len(x) <= batch_size:
                    return self.forward(x)
                chunks = [
                    self.forward(x[i : i + batch_size]) for i in range(0, len(x), batch_size)
                ]
                return np.concatenate(chunks, axis=0)
            # Fast lane: forward() returns an arena buffer that the next
            # block clobbers, so copy each block into one preallocated
            # result.  Block boundaries match the slow path, keeping the
            # matmul shapes — and therefore the bits — identical.
            first = self.forward(x[:batch_size])
            if len(x) <= batch_size:
                return first.copy()
            out = np.empty((len(x),) + first.shape[1:], dtype=first.dtype)
            out[: len(first)] = first
            for i in range(batch_size, len(x), batch_size):
                block = self.forward(x[i : i + batch_size])
                out[i : i + len(block)] = block
            return out
        finally:
            self.set_training(True)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ---------------------------------------------------------- parameters
    def parameters(self):
        """All parameters, in layer order."""
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------ freezing
    def dense_layers(self) -> list[Dense]:
        """The parameterized (Dense) layers, in order."""
        return [l for l in self.layers if isinstance(l, Dense)]

    def set_all_trainable(self, flag: bool = True) -> None:
        for layer in self.layers:
            layer.set_trainable(flag)

    def freeze_all_but_last(self, num_trainable: int) -> None:
        """Freeze every Dense layer except the last ``num_trainable``.

        This is the paper's Case-2 fine-tuning setup: with
        ``num_trainable=2`` only the last two layers adapt to a new
        timestep, so checkpoints for subsequent timesteps need only store
        those layers (see :func:`repro.nn.save_partial`).
        """
        dense = self.dense_layers()
        if not (1 <= num_trainable <= len(dense)):
            raise ValueError(
                f"num_trainable must be in [1, {len(dense)}], got {num_trainable}"
            )
        cut = len(dense) - num_trainable
        for i, layer in enumerate(dense):
            layer.set_trainable(i >= cut)

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> list[tuple[np.ndarray, bool]]:
        """Copy the learned state: per-parameter ``(value, trainable)`` pairs.

        This is the cheap alternative to ``copy.deepcopy(network)`` for
        save/rollback points: it copies only the weight tensors (and the
        freeze flags Case-2 fine-tuning flips), skipping attached
        :class:`repro.perf.Workspace` arenas, cached activations and
        gradient buffers — none of which are part of the learned state, and
        all of which deep copies drag along.
        """
        return [(p.value.copy(), bool(p.trainable)) for p in self.parameters()]

    def restore(self, snapshot: list[tuple[np.ndarray, bool]]) -> None:
        """Write a :meth:`snapshot` back into this network, in place.

        Values are copied into the existing parameter tensors (optimizers
        built against them stay valid, though their moment estimates are
        *not* rolled back — rebuild the optimizer for a fresh run, as
        :class:`repro.core.FCNNReconstructor.fine_tune` does).  The
        snapshot must come from an architecturally identical network.
        """
        params = self.parameters()
        if len(params) != len(snapshot):
            raise ValueError(
                f"snapshot has {len(snapshot)} parameters, network has {len(params)}"
            )
        for p, (value, trainable) in zip(params, snapshot):
            if p.value.shape != value.shape:
                raise ValueError(
                    f"snapshot shape {value.shape} != parameter {p.name} shape {p.value.shape}"
                )
            p.value[...] = value
            p.trainable = bool(trainable)
            p.zero_grad()

    # ---------------------------------------------------------- descriptors
    def spec(self) -> list[dict]:
        """Architecture description for checkpointing."""
        return [layer.spec() for layer in self.layers]

    def clone_architecture(self, rng: np.random.Generator | None = None) -> "Sequential":
        """A freshly-initialized network with the same architecture."""
        return from_spec(self.spec(), rng=rng)


def from_spec(spec: list[dict], rng: np.random.Generator | None = None) -> Sequential:
    """Rebuild a :class:`Sequential` from :meth:`Sequential.spec` output."""
    # Deterministic fallback, matching Dense's default (reproducible rebuilds).
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: list[Layer] = []
    for entry in spec:
        kind = entry["kind"]
        if kind == "Dense":
            layers.append(
                Dense(
                    int(entry["in_features"]),
                    int(entry["out_features"]),
                    weight_init=entry.get("weight_init", "he_normal"),
                    rng=rng,
                )
            )
        elif kind == "Dropout":
            from repro.nn.regularization import Dropout

            layers.append(Dropout(rate=float(entry.get("rate", 0.5))))
        elif kind == "LayerNorm":
            from repro.nn.layers import LayerNorm

            layers.append(LayerNorm(int(entry["features"])))
        elif kind in ACTIVATIONS:
            layers.append(ACTIVATIONS[kind]())
        else:
            raise ValueError(f"unknown layer kind {kind!r} in spec")
    return Sequential(layers)


def mlp(
    in_features: int,
    hidden: list[int] | tuple[int, ...],
    out_features: int,
    activation: str = "ReLU",
    weight_init: str = "he_normal",
    seed: int | None = 0,
) -> Sequential:
    """Build a multilayer perceptron: Dense+activation blocks + linear head.

    ``mlp(23, [512, 256, 128, 64, 16], 4)`` is the paper's architecture.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}; available: {sorted(ACTIVATIONS)}")
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    prev = int(in_features)
    for width in hidden:
        layers.append(Dense(prev, int(width), weight_init=weight_init, rng=rng))
        layers.append(ACTIVATIONS[activation]())
        prev = int(width)
    layers.append(Dense(prev, int(out_features), weight_init="xavier_normal", rng=rng))
    return Sequential(layers)
