# hot-path
"""Stacked layers: K models' weights as one 3-D tensor per layer.

A :class:`ModelStack` holds K architecturally-identical MLPs (one per
timestep or fine-tune case) with every ``Dense`` layer's weights stacked
into a single ``(K, in_features, out_features)`` tensor, so one
``np.matmul`` on the stack advances all K members per BLAS call — forward,
backward and the optimizer step all run fused.  The fusion itself saves
no time: on a 2-vCPU Xeon K=4 trains no faster than four K=1 stacks, and
memory grows with K (see :mod:`repro.nn.batched.trainer`).

Bit-identity contract: every stacked operation is the exact per-member
operation applied along the leading axis — ``np.matmul`` on ``(K, B, n) @
(K, n, m)`` computes each ``(B, n) @ (n, m)`` slice with the same kernel,
reductions use ``axis=1`` in place of ``axis=0``, and element-wise ufuncs
are position-independent.  Training a K-stack is therefore bit-identical
to K serial :class:`repro.nn.Trainer` runs that share a shuffling seed
(proven to the ulp by ``tests/test_nn_batched.py``).

Workspace discipline matches the serial fast path: with an attached
:class:`repro.perf.Workspace` every activation, gradient and optimizer
scratch tensor lives in a reused arena buffer (``out=`` writes only), so
steady-state epochs are allocation-free.

The stack is a training engine only.  Inference, serving included, runs
one member at a time through
:meth:`repro.core.FCNNReconstructor.predict_values`: a stacked forward
saved no per-member time there.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, Identity, ReLU
from repro.nn.network import Sequential

__all__ = ["StackedParameter", "StackedDense", "StackedReLU", "StackedIdentity", "ModelStack"]


class StackedParameter:
    """K members' copies of one parameter as a ``(K, *shape)`` tensor."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = str(name)
        self.trainable = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.trainable else ", frozen"
        return f"StackedParameter({self.name}, shape={self.shape}{flag})"


class StackedLayer:
    """Base class for layers operating on ``(K, B, features)`` activations."""

    _ws = None       # active repro.perf.Workspace, or None (allocating path)
    _ws_tag = -1     # layer index within the owning ModelStack

    def __init__(self) -> None:
        self.trainable = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def parameters(self) -> list[StackedParameter]:
        return []

    def set_trainable(self, flag: bool) -> None:
        self.trainable = bool(flag)
        for p in self.parameters():
            p.trainable = bool(flag)


class StackedDense(StackedLayer):
    """K affine maps ``y_k = x_k @ W_k + b_k`` advanced by one batched matmul."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 3 or bias.ndim != 2 or weight.shape[::2] != (bias.shape[0], bias.shape[1]):
            raise ValueError(
                f"need stacked (K, n, m) weights with (K, m) biases, got {weight.shape} / {bias.shape}"
            )
        self.k = int(weight.shape[0])
        self.in_features = int(weight.shape[1])
        self.out_features = int(weight.shape[2])
        self.weight = StackedParameter(weight, name="weight")
        self.bias = StackedParameter(bias, name="bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.k or x.shape[2] != self.in_features:
            raise ValueError(
                f"StackedDense(K={self.k}, {self.in_features}->{self.out_features}) "
                f"got input shape {x.shape}"
            )
        self._input = x
        ws = self._ws
        if ws is None:
            return np.matmul(x, self.weight.value) + self.bias.value[:, None, :]
        # Fast lane: one fused matmul over the stack, then the bias add —
        # per member the exact op sequence of the serial Dense fast path.
        out = ws.buffer((self._ws_tag, "fwd"), (self.k, x.shape[1], self.out_features))
        np.matmul(x, self.weight.value, out=out)
        out += self.bias.value[:, None, :]
        return out

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        ws = self._ws
        if ws is None:
            if self.trainable:
                self.weight.grad += np.matmul(x.transpose(0, 2, 1), grad_out)
                self.bias.grad += grad_out.sum(axis=1)
            if not need_input_grad:
                return None
            return np.matmul(grad_out, self.weight.value.transpose(0, 2, 1))
        if self.trainable:
            gw = ws.buffer((self._ws_tag, "gw"), self.weight.shape)
            np.matmul(x.transpose(0, 2, 1), grad_out, out=gw)
            self.weight.grad += gw
            gb = ws.buffer((self._ws_tag, "gb"), self.bias.shape)
            np.sum(grad_out, axis=1, out=gb)
            self.bias.grad += gb
        if not need_input_grad:
            return None
        gin = ws.buffer((self._ws_tag, "bwd"), x.shape)
        np.matmul(grad_out, self.weight.value.transpose(0, 2, 1), out=gin)
        return gin

    def parameters(self) -> list[StackedParameter]:
        return [self.weight, self.bias]


class StackedReLU(StackedLayer):
    """Rectifier over the whole stack, fused in place on arena buffers."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        ws = self._ws
        if ws is None:
            self._mask = x > 0
            return np.where(self._mask, x, 0.0)
        mask = ws.buffer((self._ws_tag, "mask"), x.shape, dtype=bool)
        np.greater(x, 0, out=mask)
        # Safe arena persistence: the key is unique to this layer instance
        # and backward() consumes the mask before the next forward() could
        # re-request (and clobber) it.
        self._mask = mask  # repro: noqa[ALS002]
        if ws.owns(x):
            # Fuse with the producing StackedDense: rectify in place.
            np.multiply(x, mask, out=x)
            return x
        out = ws.buffer((self._ws_tag, "fwd"), x.shape)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        if not need_input_grad:
            return None
        ws = self._ws
        if ws is None:
            return np.where(self._mask, grad_out, 0.0)
        if ws.owns(grad_out):
            np.multiply(grad_out, self._mask, out=grad_out)
            return grad_out
        out = ws.buffer((self._ws_tag, "bwd"), grad_out.shape)
        np.multiply(grad_out, self._mask, out=out)
        return out


class StackedIdentity(StackedLayer):
    """No-op layer (linear output head)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        return grad_out if need_input_grad else None


class ModelStack:
    """K copies of one :class:`repro.nn.Sequential`, trained in lockstep.

    Build one with :meth:`from_network` — every member starts from the
    source network's weights (the fine-tune base) and diverges as each
    member trains against its own data slab.  Only ``Dense``/``ReLU``/
    ``Identity`` layers stack (the paper's FCNN); anything else raises.
    """

    def __init__(self, layers: list[StackedLayer], k: int) -> None:
        if not layers:
            raise ValueError("ModelStack needs at least one layer")
        self.layers = list(layers)
        self.k = int(k)
        self._ws = None

    # ------------------------------------------------------------ factory
    @classmethod
    def from_network(cls, network: Sequential, k: int) -> "ModelStack":
        """Replicate ``network``'s current weights into a K-member stack."""
        if k < 1:
            raise ValueError(f"need at least one member, got k={k}")
        layers: list[StackedLayer] = []
        for layer in network.layers:
            if isinstance(layer, Dense):
                layers.append(
                    StackedDense(
                        _replicate(layer.weight.value, k),
                        _replicate(layer.bias.value, k),
                    )
                )
            elif isinstance(layer, ReLU):
                layers.append(StackedReLU())
            elif isinstance(layer, Identity):
                layers.append(StackedIdentity())
            else:
                raise TypeError(
                    f"cannot stack layer of type {type(layer).__name__}; "
                    "the batched engine supports Dense/ReLU/Identity networks"
                )
        return cls(layers, k)

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Forward through ``layers[start:stop]``, caching for backward."""
        out = x
        for layer in self.layers[start:stop]:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray, stop: int = 0) -> None:
        """Backpropagate down to (and including) ``layers[stop]``.

        The gradient with respect to ``layers[stop]``'s *input* is never
        materialized — with a frozen Case-2 prefix (``stop`` = first
        trainable layer) backprop through the frozen layers is skipped
        entirely, which is the fast path's whole point.
        """
        grad = grad_out
        for i in range(len(self.layers) - 1, stop - 1, -1):
            grad = self.layers[i].backward(grad, need_input_grad=i > stop)

    # ------------------------------------------------------------ fast path
    def attach_workspace(self, workspace) -> None:
        """Route layer buffers through a :class:`repro.perf.Workspace`."""
        self._ws = workspace
        for i, layer in enumerate(self.layers):
            layer._ws = workspace
            layer._ws_tag = i

    def detach_workspace(self) -> None:
        self._ws = None
        for layer in self.layers:
            layer._ws = None
            layer._ws_tag = -1

    @property
    def workspace(self):
        return self._ws

    # ---------------------------------------------------------- parameters
    def parameters(self) -> list[StackedParameter]:
        out: list[StackedParameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def dense_layers(self) -> list[StackedDense]:
        return [l for l in self.layers if isinstance(l, StackedDense)]

    def set_all_trainable(self, flag: bool = True) -> None:
        for layer in self.layers:
            layer.set_trainable(flag)

    def freeze_all_but_last(self, num_trainable: int) -> None:
        """Case-2 freeze: only the last ``num_trainable`` Dense layers adapt.

        Mirrors :meth:`repro.nn.Sequential.freeze_all_but_last`, so member
        freeze flags round-trip through :func:`member_weights` /
        :func:`repro.perf.restore_weights` unchanged.
        """
        dense = self.dense_layers()
        if not (1 <= num_trainable <= len(dense)):
            raise ValueError(
                f"num_trainable must be in [1, {len(dense)}], got {num_trainable}"
            )
        cut = len(dense) - num_trainable
        for i, layer in enumerate(dense):
            layer.set_trainable(i >= cut)

    def trainable_cut(self) -> int:
        """Index into ``layers`` where the trainable suffix starts.

        0 when every Dense layer is trainable.  Requires the freeze pattern
        :meth:`freeze_all_but_last` produces (a frozen prefix); a frozen
        layer *after* a trainable one raises, because backprop could not
        skip it.
        """
        cut = 0
        seen_trainable = False
        for i, layer in enumerate(self.layers):
            if not layer.parameters():
                continue
            if layer.trainable:
                if not seen_trainable:
                    cut = i
                seen_trainable = True
            elif seen_trainable:
                raise ValueError(
                    "frozen layer after a trainable one; the batched engine "
                    "needs a contiguous frozen prefix (freeze_all_but_last)"
                )
        if not seen_trainable:
            raise ValueError("every layer is frozen; nothing to train")
        return cut

    def prefix_width(self, cut: int) -> int:
        """Feature width entering ``layers[cut]`` (the Case-2 suffix input)."""
        for layer in reversed(self.layers[:cut]):
            if isinstance(layer, StackedDense):
                return layer.out_features
        raise ValueError(f"no Dense layer in the frozen prefix (cut={cut})")

    def member_prefix(self, member: int, cut: int) -> "ModelStack":
        """A one-member stack over ``layers[:cut]`` viewing ``member``'s weights.

        The weights are views, not copies, and the layers keep their
        indices (so their arena tags) and trainability: per member it runs
        the exact ops of the K-wide prefix, one ``(B, n) @ (n, m)`` slice
        per BLAS call either way.  The batched trainer's Case-2 staging
        streams each member's rows through it, so no K-wide input stack is
        ever built.
        """
        if not (0 <= member < self.k):
            raise IndexError(f"member {member} out of range for K={self.k}")
        layers: list[StackedLayer] = []
        for layer in self.layers[:cut]:
            if isinstance(layer, StackedDense):
                view = StackedDense(
                    layer.weight.value[member : member + 1],
                    layer.bias.value[member : member + 1],
                )
                view.set_trainable(layer.trainable)
            else:
                view = type(layer)()
            layers.append(view)
        return ModelStack(layers, k=1)

    # ------------------------------------------------------------ snapshots
    def member_weights(self, member: int) -> np.ndarray:
        """One member's weights as a flat float64 vector.

        Layout matches :func:`repro.perf.snapshot_weights` on the source
        network — :func:`repro.perf.restore_weights` applies it directly,
        and the campaign journal stores it as a per-timestep sidecar.
        """
        if not (0 <= member < self.k):
            raise IndexError(f"member {member} out of range for K={self.k}")
        return np.concatenate([p.value[member].ravel() for p in self.parameters()])

    def num_parameters(self) -> int:
        """Total scalar parameter count across the whole stack."""
        return sum(p.size for p in self.parameters())


def _replicate(value: np.ndarray, k: int) -> np.ndarray:
    """K contiguous copies of ``value`` stacked along a new leading axis."""
    value = np.asarray(value, dtype=np.float64)
    out = np.empty((k,) + value.shape, dtype=np.float64)
    out[...] = value
    return out
