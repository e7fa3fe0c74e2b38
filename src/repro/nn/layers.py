# hot-path
"""Layers: dense affine maps and element-wise activations.

Every layer implements ``forward`` (caching what backward needs) and
``backward`` (accumulating parameter gradients, returning the gradient with
respect to its input).  Layers with parameters take
``need_input_grad=False`` to skip forming that input gradient and return
``None``, as :meth:`repro.nn.Sequential.backward` does for the lowest
trainable layer.  Batches are rows: activations are ``(B, features)``.

Fast path: when a :class:`repro.perf.Workspace` is attached (via
:meth:`repro.nn.Sequential.attach_workspace`), ``Dense`` and ``ReLU``
write into reused arena buffers instead of allocating — ``np.matmul(...,
out=)`` for the affine maps, an in-place masked multiply for the
activation (fusing Dense+ReLU into one buffer; at inference an in-place
``np.maximum`` that keeps no mask).  The operation sequence is
unchanged, so results are bit-identical to the allocating path; layers
without a fast branch simply ignore the workspace and keep allocating,
which composes safely within one network.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.parameter import Parameter

__all__ = ["Layer", "Dense", "ReLU", "Tanh", "Sigmoid", "Identity", "LayerNorm"]

class Layer:
    """Base class: a differentiable map with (possibly zero) parameters."""

    # class-level defaults so subclasses that skip super().__init__ still
    # see "no workspace attached"
    _ws = None       # active repro.perf.Workspace, or None (slow path)
    _ws_tag = -1     # layer index within the owning Sequential
    training = True  # toggled by Sequential.set_training

    def __init__(self) -> None:
        self.trainable = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Parameters owned by this layer (empty for activations)."""
        return []

    def set_trainable(self, flag: bool) -> None:
        """Freeze/unfreeze this layer's parameters."""
        self.trainable = bool(flag)
        for p in self.parameters():
            p.trainable = bool(flag)

    def spec(self) -> dict:
        """JSON-serializable architecture description (for checkpoints)."""
        return {"kind": type(self).__name__}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Affine layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Weight shape.
    weight_init:
        Initializer name (see :mod:`repro.nn.initializers`).
    rng:
        Generator used for initialization; pass one seeded generator through
        an entire network for reproducible training runs.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init: str = "he_normal",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(f"Dense needs positive dims, got {in_features}x{out_features}")
        # Deterministic fallback: un-threaded construction must still be
        # reproducible run to run (pass a Generator to vary the init).
        rng = rng if rng is not None else np.random.default_rng(0)
        init = get_initializer(weight_init)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight_init = weight_init
        self.weight = Parameter(init(in_features, out_features, rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        ws = self._ws
        if ws is None:
            x = np.asarray(x, dtype=np.float64)
        elif x.dtype != ws.dtype:
            x = x.astype(ws.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense({self.in_features}->{self.out_features}) got input shape {x.shape}"
            )
        # Inference keeps no input, as ReLU keeps no mask: a backward after
        # it raises, and the caller's rows are not held past the call.
        self._input = x if self.training else None
        if ws is None:
            return x @ self.weight.value + self.bias.value
        # Fast lane: same ops (matmul, then the bias add), arena-owned output.
        out = ws.buffer((self._ws_tag, "fwd"), (x.shape[0], self.out_features))
        np.matmul(x, self.weight.value, out=out)
        out += self.bias.value
        return out

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        ws = self._ws
        if ws is None:
            # Accumulate (+=) so gradient checks can sum over micro-batches.
            self.weight.grad += x.T @ grad_out
            self.bias.grad += grad_out.sum(axis=0)
            return grad_out @ self.weight.value.T if need_input_grad else None
        gw = ws.buffer((self._ws_tag, "gw"), self.weight.shape)
        np.matmul(x.T, grad_out, out=gw)
        self.weight.grad += gw
        gb = ws.buffer((self._ws_tag, "gb"), self.bias.shape)
        np.sum(grad_out, axis=0, out=gb)
        self.bias.grad += gb
        if not need_input_grad:
            return None
        gin = ws.buffer((self._ws_tag, "bwd"), x.shape)
        np.matmul(grad_out, self.weight.value.T, out=gin)
        return gin

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def spec(self) -> dict:
        return {
            "kind": "Dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "weight_init": self.weight_init,
        }


class ReLU(Layer):
    """Rectified linear activation — the paper's choice (Sec III-C)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        ws = self._ws
        if not self.training:
            # Inference keeps no mask, so a backward after it raises rather
            # than reuse a stale one.  Negative inputs become +0.0, as on
            # the slow path.
            self._mask = None
            if ws is None:
                return np.where(x > 0, x, 0.0)
            out = x if ws.owns(x) else ws.buffer((self._ws_tag, "fwd"), x.shape)
            return np.maximum(x, 0.0, out=out)
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
            # Fuse with the producing Dense: rectify its buffer in place.
            np.multiply(x, mask, out=x)
            return x
        out = ws.buffer((self._ws_tag, "fwd"), x.shape)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        ws = self._ws
        if ws is None:
            return np.where(self._mask, grad_out, 0.0)
        if ws.owns(grad_out):
            np.multiply(grad_out, self._mask, out=grad_out)
            return grad_out
        out = ws.buffer((self._ws_tag, "bwd"), grad_out.shape)
        np.multiply(grad_out, self._mask, out=out)
        return out


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._output**2)


class Sigmoid(Layer):
    """Logistic activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
        return self._output

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._output * (1.0 - self._output)


class LayerNorm(Layer):
    """Layer normalization over the feature axis, with learned gain/bias.

    Stabilizes deep-ladder training (the Fig 6 nine-layer regime); rows are
    normalized to zero mean / unit variance before the affine map.
    """

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        self.features = int(features)
        self.eps = float(eps)
        self.gain = Parameter(np.ones(features), name="gain")
        self.bias = Parameter(np.zeros(features), name="bias")
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.features:
            raise ValueError(f"LayerNorm({self.features}) got input shape {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        self._cache = (xhat, inv, x)
        return xhat * self.gain.value + self.bias.value

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xhat, inv, _ = self._cache
        self.gain.grad += (grad_out * xhat).sum(axis=0)
        self.bias.grad += grad_out.sum(axis=0)
        if not need_input_grad:
            return None
        g = grad_out * self.gain.value
        # d/dx of (x - mu) / sqrt(var + eps), vectorized per row.
        return inv * (g - g.mean(axis=1, keepdims=True)
                      - xhat * (g * xhat).mean(axis=1, keepdims=True))

    def parameters(self) -> list[Parameter]:
        return [self.gain, self.bias]

    def spec(self) -> dict:
        return {"kind": "LayerNorm", "features": self.features}


class Identity(Layer):
    """No-op layer (linear output head)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


#: activations addressable by name in ``mlp()`` and checkpoints
ACTIVATIONS: dict[str, type[Layer]] = {
    "ReLU": ReLU,
    "Tanh": Tanh,
    "Sigmoid": Sigmoid,
    "Identity": Identity,
}
