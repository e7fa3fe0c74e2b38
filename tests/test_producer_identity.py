"""The in situ producer's rewrites keep every byte.

``AnalyticDataset.field`` evaluates each generator's one formula over a
slab's broadcast axis vectors, and the importance samplers bin each value
once and build their importance and Gumbel keys in place.  These
properties check both against plain references on drawn tiny inputs:

* (a) ``field()`` equals ``evaluate(grid.points())`` for every dataset
  and attribute, on drawn grids, spacings, origins and Fig 13 upscaled,
  shifted targets;
* (b) the samplers equal a verbatim copy of the code they replaced: two
  ``np.histogram`` / ``np.digitize`` passes, importance summed through
  grid-sized temporaries, and a hashing uniqueness check before the sort;
* (c) on uniform edges, ``np.bincount`` of the ``np.digitize`` bin numbers
  equals ``np.histogram``'s counts, with values tied on the edges;
* (d) ``acceptance_probabilities``, which scales in place when one
  water-filling pass suffices, equals a verbatim copy of the masked loop
  it replaced on random, zero-heavy, saturating, subnormal, all-zero and
  invalid importances.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import available_datasets, make_dataset
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid, gradient_magnitude, upscaled_grid
from repro.sampling import (
    GradientImportanceSampler,
    HistogramImportanceSampler,
    MultiCriteriaSampler,
    SampledField,
    acceptance_probabilities,
)

# ------------------------------------------------------------ (a) datasets


@st.composite
def _dataset_grids(draw):
    name = draw(st.sampled_from(available_datasets()))
    dims = tuple(draw(st.integers(1, 40)) for _ in range(3))
    dataset = make_dataset(name, dims=dims, seed=draw(st.integers(0, 5)))
    if draw(st.booleans()):
        grid = UniformGrid(
            dims,
            spacing=tuple(draw(st.floats(0.05, 20.0)) for _ in range(3)),
            origin=tuple(draw(st.floats(-300.0, 300.0)) for _ in range(3)),
        )
    elif draw(st.booleans()):
        small = tuple(max(1, d // 3) for d in dims)
        grid = upscaled_grid(
            dataset.grid.with_resolution(small),
            factor=tuple(draw(st.integers(1, 3)) for _ in range(3)),
            shift_fraction=tuple(draw(st.floats(-0.5, 0.5)) for _ in range(3)),
        )
    else:
        grid = dataset.grid
    last = dataset.num_timesteps - 1
    t = draw(st.one_of(st.just(0), st.just(last), st.integers(0, last)))
    return dataset, grid, t


@settings(max_examples=40, deadline=None)
@given(_dataset_grids())
def test_field_bytes_equal_pointwise_evaluation(case):
    dataset, grid, t = case
    points = grid.points()
    for attribute in dataset.attributes:
        got = dataset.field(t, grid=grid, attribute=attribute)
        want = dataset.evaluate(points, t=t, attribute=attribute)
        assert got.values.dtype == want.dtype == np.float64
        assert got.values.shape == grid.dims
        assert got.values.tobytes() == want.tobytes(), (dataset.name, attribute, grid, t)


# ------------------------------------------------------------- (b) sampler
#
# The pre-rewrite code, verbatim apart from names.


def _ref_select_from_probabilities(p, budget, rng, exact):
    if exact:
        eps = 1e-300
        gumbel = rng.gumbel(size=p.size)
        keys = np.log(p + eps) + gumbel
        positive = np.count_nonzero(p > 0)
        if positive < budget:
            keys = np.where(p > 0, np.inf, gumbel)
        return np.argpartition(-keys, budget - 1)[:budget]
    accept = rng.random(p.size) < p
    idx = np.flatnonzero(accept)
    if idx.size == 0:
        idx = np.array([int(np.argmax(p))], dtype=np.int64)
    return idx


def _ref_rarity_importance(values, bins):
    try:
        counts, edges = np.histogram(values, bins=bins)
    except ValueError as exc:
        # The one intended difference from the old code, which raised here:
        # finite values too close together for finite bins share one bin,
        # as a constant field's do.
        if "Too many bins" not in str(exc) or not np.isfinite(values).all():
            raise
        return np.ones(values.size)
    which = np.clip(np.digitize(values, edges[1:-1]), 0, bins - 1)
    occ = counts[which].astype(np.float64)
    occ[occ == 0] = 1.0
    imp = 1.0 / occ
    return imp / imp.max()


def _ref_normalized(x):
    m = x.max()
    return x / m if m > 0 else np.zeros_like(x)


def _ref_importance(sampler, field):
    if isinstance(sampler, HistogramImportanceSampler):
        return _ref_rarity_importance(field.flat, sampler.bins)
    if isinstance(sampler, GradientImportanceSampler):
        return _ref_normalized(gradient_magnitude(field.grid, field.values))
    w_hist, w_grad, w_uni = sampler._weights
    imp = np.zeros(field.grid.num_points, dtype=np.float64)
    if w_hist > 0:
        imp += w_hist * _ref_rarity_importance(field.flat, sampler.bins)
    if w_grad > 0:
        imp += w_grad * _ref_normalized(gradient_magnitude(field.grid, field.values))
    if w_uni > 0:
        imp += w_uni
    return imp


def _ref_validate(grid, indices, values):
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.ndim != 1 or values.ndim != 1 or indices.shape != values.shape:
        raise ValueError("indices and values must be matching 1D arrays")
    if indices.size == 0:
        raise ValueError("a SampledField needs at least one sample")
    if indices.size != np.unique(indices).size:
        raise ValueError("sampled indices must be unique")
    if indices.min() < 0 or indices.max() >= grid.num_points:
        raise ValueError("sampled indices out of grid range")
    order = np.argsort(indices)
    return indices[order], values[order]


def _ref_sample(sampler, field, fraction):
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"sampling fraction must be in (0, 1], got {fraction}")
    budget = int(round(fraction * field.grid.num_points))
    if budget < 1:
        raise ValueError(
            f"fraction {fraction} keeps zero of {field.grid.num_points} points"
        )
    rng = np.random.default_rng((sampler.seed, field.timestep, budget))
    p = acceptance_probabilities(_ref_importance(sampler, field), budget)
    indices = _ref_select_from_probabilities(p, budget, rng, sampler.exact)
    indices = np.asarray(indices, dtype=np.int64)
    return _ref_validate(field.grid, indices, field.flat[indices])


class _Raised:
    """An exception's type and message, comparable across two code paths."""

    def __init__(self, exc: Exception) -> None:
        self.kind, self.message = type(exc), str(exc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Raised):
            return False
        return (self.kind, self.message) == (other.kind, other.message)

    def __repr__(self) -> str:
        return f"{self.kind.__name__}({self.message!r})"


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return _Raised(exc)


_BINS = (2, 7, 32)


@st.composite
def _fields(draw):
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(3))
    grid = UniformGrid(dims, spacing=spacing)
    n = grid.num_points
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["random", "constant", "edges", "levels"]))
    if kind == "constant":
        values = np.full(n, draw(st.floats(-1e6, 1e6)))
    elif kind == "levels":
        # A handful of repeated levels: most histogram bins stay empty.
        values = rng.choice(rng.standard_normal(draw(st.integers(1, 4))), size=n)
    elif kind == "edges" and n > 2:
        # Pin the extremes, then put values exactly on the bin edges of
        # every drawn bin count (the last edge is the maximum).
        values = rng.uniform(-1.0, 2.0, n)
        values[0], values[1] = -1.0, 2.0
        edges = np.concatenate([np.histogram_bin_edges(values, bins=b)[1:] for b in _BINS])
        spots = rng.integers(2, n, size=draw(st.integers(1, n - 2)))
        values[spots] = rng.choice(edges, size=spots.size)
    else:
        values = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    return TimestepField(grid, values.reshape(dims), draw(st.integers(0, 50)))


_SAMPLERS = st.one_of(
    st.builds(
        lambda weights, **kw: MultiCriteriaSampler(*weights, **kw),
        st.tuples(
            st.sampled_from([0.0, 1.0, 2.5]),
            st.sampled_from([0.0, 1.0]),
            st.sampled_from([0.0, 0.1]),
        ).filter(any),
        bins=st.sampled_from(_BINS),
        seed=st.integers(0, 99),
        exact=st.booleans(),
    ),
    st.builds(
        HistogramImportanceSampler,
        bins=st.sampled_from(_BINS),
        seed=st.integers(0, 99),
        exact=st.booleans(),
    ),
    st.builds(GradientImportanceSampler, seed=st.integers(0, 99), exact=st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(field=_fields(), sampler=_SAMPLERS, budget=st.sampled_from(["one", 0.01, 0.05, 1.0]))
@example(
    field=TimestepField(UniformGrid((6, 1, 5)), np.linspace(0.0, 1.0, 30).reshape(6, 1, 5), 2),
    sampler=MultiCriteriaSampler(bins=5, seed=3),
    budget="one",
)
@example(
    field=TimestepField(
        UniformGrid((12, 12, 6)), (1.0 + (np.arange(864) % 3) * 2.0**-52).reshape(12, 12, 6), 4
    ),
    sampler=MultiCriteriaSampler(seed=3),
    budget=0.05,
)
# A real field, large enough that a changed key formula reorders the draw.
@example(
    field=make_dataset("combustion", dims=(24, 20, 10)).field(30),
    sampler=MultiCriteriaSampler(seed=3),
    budget=0.05,
)
def test_sampler_bytes_equal_reference(field, sampler, budget):
    fraction = 1.0 / field.grid.num_points if budget == "one" else budget
    importance = _outcome(lambda: sampler.importance(field).tobytes())
    assert importance == _outcome(lambda: _ref_importance(sampler, field).tobytes())
    want = _outcome(lambda: _ref_sample(sampler, field, fraction))
    got = _outcome(lambda: sampler.sample(field, fraction))
    if isinstance(want, _Raised) or isinstance(got, _Raised):
        assert got == want
        return
    assert got.indices.tobytes() == want[0].tobytes()
    assert got.values.tobytes() == want[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    raw=st.lists(st.integers(-3, 130), min_size=0, max_size=40),
    data=st.data(),
)
def test_sampled_field_validation_matches_reference(dims, raw, data):
    grid = UniformGrid(dims)
    values = np.arange(len(raw), dtype=np.float64) * 0.5
    if data.draw(st.booleans()) and raw:
        values = values[:-1]  # mismatched lengths
    want = _outcome(lambda: _ref_validate(grid, raw, values))
    got = _outcome(lambda: SampledField(grid, np.array(raw, dtype=np.int64), values, 0.1))
    if isinstance(want, _Raised) or isinstance(got, _Raised):
        assert got == want  # same type, same message: duplicates before range
        return
    assert got.indices.tobytes() == want[0].tobytes()
    assert got.values.tobytes() == want[1].tobytes()


# ------------------------------------------------- (c) histogram identity


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
    ),
    bins=st.integers(2, 40),
    ties=st.lists(st.integers(0, 10**6), max_size=20),
)
@example(values=[0.0, 1.0], bins=4, ties=[1, 2, 3, 4])
@example(values=[1.0, 1.0 + 2.0**-52], bins=32, ties=[5, 9])
def test_bincount_of_digitize_equals_histogram(values, bins, ties):
    v = np.asarray(values, dtype=np.float64)
    edges = _outcome(lambda: np.histogram_bin_edges(v, bins=bins))
    if isinstance(edges, _Raised):
        # A range too narrow for `bins` finite bins raises alike.
        assert _outcome(lambda: np.histogram(v, bins=bins)) == edges
        return
    # Values exactly on the bin edges (and the maximum) keep min and max.
    tied = np.concatenate([v, edges[1:][np.asarray(ties, dtype=np.int64) % bins]])
    edges = np.histogram_bin_edges(tied, bins=bins)
    got = np.bincount(np.digitize(tied, edges[1:-1]), minlength=bins)
    assert got.tolist() == np.histogram(tied, bins=bins)[0].tolist()


# ------------------------------------------- (d) acceptance probabilities


def _ref_acceptance_probabilities(importance, budget, max_iter=100):
    imp = np.asarray(importance, dtype=np.float64)
    if imp.ndim != 1:
        raise ValueError("importance must be 1D")
    if np.any(imp < 0) or not np.all(np.isfinite(imp)):
        raise ValueError("importance must be finite and non-negative")
    n = imp.size
    if not (1 <= budget <= n):
        raise ValueError(f"budget must be in [1, {n}], got {budget}")
    peak = imp.max()
    if peak > 0:
        imp = imp / peak
    p = np.zeros(n, dtype=np.float64)
    saturated = np.zeros(n, dtype=bool)
    remaining = float(budget)
    positive = imp > 0
    for _ in range(max_iter):
        free = ~saturated & positive
        if not free.any():
            break
        sub = imp[free]
        sub = sub / sub.max()
        total = sub.sum()
        p[free] = sub * (remaining / total)
        over = free & (p > 1.0)
        if not over.any():
            break
        p[over] = 1.0
        saturated |= over
        remaining = budget - float(saturated.sum())
        if remaining <= 0:
            p[~saturated] = 0.0
            break
    shortfall = budget - p.sum()
    if shortfall > 1e-9:
        free = p < 1.0
        headroom = (1.0 - p[free]).sum()
        if headroom > 0:
            p[free] += (1.0 - p[free]) * min(1.0, shortfall / headroom)
    return np.clip(p, 0.0, 1.0)


@st.composite
def _importances(draw):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(
        st.sampled_from(["random", "zero-heavy", "saturating", "subnormal", "all-zero", "invalid"])
    )
    if kind == "all-zero":
        imp = np.zeros(n)
    elif kind == "zero-heavy":
        imp = rng.random(n) * (rng.random(n) < draw(st.floats(0.0, 0.3)))
    elif kind == "saturating":
        # A few spikes far above the rest: their scaled share exceeds 1.
        imp = rng.random(n) * 1e-3
        imp[rng.integers(0, n, size=draw(st.integers(1, 5)))] = 10.0 ** draw(st.integers(0, 8))
    elif kind == "subnormal":
        imp = rng.integers(0, 4, size=n) * 5e-324
    elif kind == "invalid":
        imp = rng.random(n)
        imp[rng.integers(0, n)] = draw(st.sampled_from([-1.0, -1e-300, np.nan, np.inf]))
    else:
        imp = rng.lognormal(0.0, draw(st.floats(0.0, 4.0)), n)
    if draw(st.booleans()):
        imp[rng.integers(0, n)] = -0.0
    budget = draw(st.one_of(st.integers(1, n), st.sampled_from([0, n + 1])))
    max_iter = draw(st.one_of(st.just(100), st.integers(0, 3)))
    return imp, budget, max_iter


@settings(max_examples=300, deadline=None)
@given(case=_importances())
@example(case=(np.full(7, 2.0), 3, 100))
@example(case=(np.array([1e-320, 1e10, 3.0]), 2, 100))
def test_acceptance_probabilities_bytes_equal_reference(case):
    imp, budget, max_iter = case
    before = imp.tobytes()
    want = _outcome(lambda: _ref_acceptance_probabilities(imp, budget, max_iter).tobytes())
    assert _outcome(lambda: acceptance_probabilities(imp, budget, max_iter).tobytes()) == want
    assert imp.tobytes() == before  # the caller's importances are not scaled in place
