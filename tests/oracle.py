"""A plain-numpy reference for the paper's reconstruction method.

Written from PAPER.md and DESIGN.md for reading, not for speed, and
sharing no code with ``repro``: every step below is the textbook
formula on small arrays, so ``tests/test_oracle.py`` checks the engine
against an outside answer rather than against another of its own paths.

The method (paper Sec III, Fig 4-5):

* **Normalization.** Coordinates map to the unit cube of the grid's
  extent, ``(p - origin) / ((dims - 1) * spacing)`` (a flat axis divides
  by 1).  Scalar values are standardized by the sample's mean and
  standard deviation; gradient targets share one scale, the standard
  deviation of all gradient components of the training field.
* **kNN features.** For each void point, the k nearest sampled points,
  nearest first: each neighbor's normalized (x, y, z) and standardized
  value, then the void's own normalized (x, y, z): ``4k + 3`` inputs.
* **Targets.** The standardized scalar and its three central-difference
  gradient components, each divided by the gradient scale.
* **Network.** Dense layers ``y = x @ W + b`` with ReLU between them and
  a linear head; loss is the column-weighted mean squared error.
* **Training.** Shuffled mini-batches; per batch one forward pass, one
  backward pass and one Adam step (bias-corrected moments).  Fine-tuning
  Case 2 updates only the last two Dense layers.
* **Void fill.** Sampled locations keep their stored values; voids get
  the network's de-standardized scalar prediction.  Non-finite
  predictions fall back to the value of the nearest sample: the
  Voronoi-cell fill of Fukami et al. 2021 (PAPERS.md).
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# normalization


def grid_positions(dims, spacing, origin) -> np.ndarray:
    """``(N, 3)`` physical positions of every grid point, C (x-major) order."""
    axes = [origin[a] + spacing[a] * np.arange(dims[a]) for a in range(3)]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def grid_span(dims, spacing) -> np.ndarray:
    """Extent of the grid per axis; a single-point axis spans 1."""
    span = (np.array(dims, dtype=float) - 1.0) * np.array(spacing, dtype=float)
    return np.where(span > 0, span, 1.0)


def field_gradients(values: np.ndarray, spacing) -> np.ndarray:
    """``(N, 3)`` central differences (one-sided at the edges); 0 on flat axes."""
    grads = []
    for axis in range(3):
        if values.shape[axis] == 1:
            grads.append(np.zeros(values.size))
        else:
            grads.append(np.gradient(values, spacing[axis], axis=axis).ravel())
    return np.stack(grads, axis=1)


def fit_stats(dims, spacing, origin, sample_values, gradients) -> dict:
    """The normalization of a training fit (see the module docstring)."""
    std = sample_values.std()
    gstd = gradients.std()
    return {
        "origin": np.array(origin, dtype=float),
        "span": grid_span(dims, spacing),
        "mean": sample_values.mean(),
        "std": std if std > 0 else 1.0,
        "grad_std": gstd if gstd > 0 else 1.0,
    }


# --------------------------------------------------------------------------
# kNN features and targets


def nearest_distances(sample_points, queries, k) -> np.ndarray:
    """``(Q, k)`` smallest query-to-sample distances per row, ascending (brute force)."""
    d = np.sqrt(((queries[:, None, :] - sample_points[None, :, :]) ** 2).sum(axis=2))
    return np.sort(d, axis=1)[:, :k]


def features(sample_points, sample_values, queries, neighbor_idx, stats) -> np.ndarray:
    """``(Q, 4k + 3)`` network inputs over the given neighbor indices."""
    rows = []
    for q, nbrs in zip(queries, neighbor_idx):
        row = []
        for i in nbrs:
            row.extend((sample_points[i] - stats["origin"]) / stats["span"])
            row.append((sample_values[i] - stats["mean"]) / stats["std"])
        row.extend((q - stats["origin"]) / stats["span"])
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(queries), -1)


def targets(field_values, flat_idx, gradients, stats) -> np.ndarray:
    """``(Q, 4)``: standardized scalar, then the scaled gradient components."""
    scalar = (field_values[flat_idx] - stats["mean"]) / stats["std"]
    return np.column_stack([scalar, gradients[flat_idx] / stats["grad_std"]])


# --------------------------------------------------------------------------
# the MLP: layers are (W, b) pairs, ReLU between them, a linear head


def forward(layers, x) -> tuple[np.ndarray, list]:
    """The network output and every layer's input (kept for backward)."""
    inputs = []
    for n, (w, b) in enumerate(layers):
        inputs.append(x)
        x = x @ w + b
        if n < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x, inputs


def weighted_mse(pred, target, column_weights) -> tuple[float, np.ndarray]:
    """Mean of ``w_j (p - t)^2`` over every element, and its gradient in ``p``."""
    diff = pred - target
    value = np.mean(column_weights * diff**2)
    return value, 2.0 * column_weights * diff / diff.size


def backward(layers, inputs, grad_out) -> list:
    """``(dW, db)`` per layer for an output gradient, by the chain rule."""
    grads = [None] * len(layers)
    g = grad_out
    for n in range(len(layers) - 1, -1, -1):
        w, _ = layers[n]
        x = inputs[n]
        grads[n] = (x.T @ g, g.sum(axis=0))
        g = g @ w.T
        if n > 0:
            g = g * (x > 0)  # ReLU between layer n-1 and n: x is its output
    return grads


# --------------------------------------------------------------------------
# Adam (Kingma & Ba), bias-corrected


class Adam:
    def __init__(self, layers, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
        self.v = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]
        self.t = 0

    def step(self, layers, grads, trainable) -> list:
        """New ``layers`` after one update; frozen layers are left as they are."""
        self.t += 1
        out = []
        for n, (params, param_grads) in enumerate(zip(layers, grads)):
            if not trainable[n]:
                out.append(params)
                continue
            new = []
            for j, (p, g) in enumerate(zip(params, param_grads)):
                self.m[n][j] = self.beta1 * self.m[n][j] + (1 - self.beta1) * g
                self.v[n][j] = self.beta2 * self.v[n][j] + (1 - self.beta2) * g * g
                m_hat = self.m[n][j] / (1 - self.beta1**self.t)
                v_hat = self.v[n][j] / (1 - self.beta2**self.t)
                new.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
            out.append(tuple(new))
        return out


def train_epoch(layers, x, y, order, batch_size, column_weights, adam, trainable):
    """One pass of shuffled mini-batches; returns ``(layers, mean loss per row)``."""
    total = 0.0
    for start in range(0, len(order), batch_size):
        rows = order[start : start + batch_size]
        pred, inputs = forward(layers, x[rows])
        loss, grad = weighted_mse(pred, y[rows], column_weights)
        layers = adam.step(layers, backward(layers, inputs, grad), trainable)
        total += loss * len(rows)
    return layers, total / len(order)


# --------------------------------------------------------------------------
# the void fill and its nearest-sample fallback


def predict(layers, x, stats) -> np.ndarray:
    """De-standardized scalar predictions for feature rows ``x``."""
    out, _ = forward(layers, x)
    return out[:, 0] * stats["std"] + stats["mean"]


def fill_voids(num_points, sample_idx, sample_values, void_idx, predictions) -> np.ndarray:
    """The reconstructed flat field: stored samples plus predicted voids."""
    field = np.full(num_points, np.nan)
    field[sample_idx] = sample_values
    field[void_idx] = predictions
    return field


def nearest_fill(sample_points, sample_values, queries) -> tuple[np.ndarray, np.ndarray]:
    """Voronoi-cell fill: each query takes the value of its nearest sample.

    Returns ``(values, distances)``; an equidistant tie takes the lowest
    sample index (any tied sample is an equally valid Voronoi owner).
    """
    d = np.sqrt(((queries[:, None, :] - sample_points[None, :, :]) ** 2).sum(axis=2))
    owner = d.argmin(axis=1)
    return sample_values[owner], d[np.arange(len(queries)), owner]
