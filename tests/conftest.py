"""Shared fixtures: small grids/fields/samples sized for fast tests.

Also wires the runtime sanitizers (``repro.checks.sanitizers``) into the
suite: ``pytest --sanitize`` wraps every test in the lock-order, shm-leak
and array-aliasing sanitizers, so latent deadlocks, stranded ``/dev/shm``
segments and aliased ``out=`` kernels fail the owning test instead of
poisoning the session.  Tests that violate an invariant *on purpose*
(the sanitizers' own trigger tests) opt out with
``@pytest.mark.no_sanitize``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import HurricaneDataset
from repro.grid import UniformGrid
from repro.sampling import MultiCriteriaSampler, RandomSampler


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="wrap every test in the repro.checks runtime sanitizers "
        "(lock order, shm leaks, out= aliasing)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "no_sanitize: disable the runtime sanitizers for this test "
        "(for tests that deliberately violate a sanitized invariant)",
    )


@pytest.fixture(autouse=True)
def _runtime_sanitizers(request: pytest.FixtureRequest):
    if not request.config.getoption("--sanitize") or request.node.get_closest_marker(
        "no_sanitize"
    ):
        yield
        return
    from repro.checks.sanitizers import sanitize

    with sanitize():
        yield


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host (``repro.parallel.usable_cpus``).

    The pipelined campaign scheduler then prefetches on two threads, even
    on a one-CPU runner.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def grid() -> UniformGrid:
    """A small anisotropic grid (distinct dims expose axis-order bugs)."""
    return UniformGrid((12, 10, 8), spacing=(1.0, 2.0, 0.5), origin=(-1.0, 3.0, 0.0))


@pytest.fixture
def unit_grid() -> UniformGrid:
    return UniformGrid((8, 8, 8))


@pytest.fixture
def hurricane_field(grid):
    """Hurricane field materialized on the small test grid."""
    data = HurricaneDataset(grid=grid, seed=0)
    return data.field(t=0)


@pytest.fixture
def sample(hurricane_field):
    """A 5% multi-criteria sample of the hurricane test field."""
    return MultiCriteriaSampler(seed=3).sample(hurricane_field, 0.05)


@pytest.fixture
def dense_sample(hurricane_field):
    """A 20% random sample (dense enough for tight interpolation checks)."""
    return RandomSampler(seed=5).sample(hurricane_field, 0.20)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def serve_registry(tmp_path_factory):
    """A small populated model registry (trained once per session).

    Three fine-tuned timesteps of one combustion namespace — shared by
    the ``repro.serve`` suites, which treat it as read-only.
    """
    from repro.serve import build_registry

    root = tmp_path_factory.mktemp("serve-registry")
    return build_registry(
        root,
        dims=(10, 10, 5),
        fraction=0.06,
        timesteps=(0, 1, 2),
        epochs=6,
        finetune_epochs=2,
        hidden=(16, 8),
    )
