"""Workspace arena semantics: keying, reuse, ownership, stats."""

import numpy as np
import pytest

from repro.nn import mlp
from repro.perf import Workspace


class TestBuffer:
    def test_same_key_returns_same_array(self):
        ws = Workspace()
        a = ws.buffer("a", (4, 3))
        b = ws.buffer("a", (4, 3))
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_distinct_keys_get_distinct_buffers(self):
        # Keys are (tag, dtype): the shape is not part of the key.
        ws = Workspace()
        a = ws.buffer("a", (4, 3))
        assert not np.shares_memory(ws.buffer("b", (4, 3)), a)  # different tag
        assert not np.shares_memory(
            ws.buffer("a", (4, 3), dtype=np.float32), a
        )  # different dtype
        assert np.shares_memory(ws.buffer("a", (2, 3)), a)  # same key, other shape
        assert ws.num_buffers == 3

    def test_default_dtype_follows_workspace(self):
        ws = Workspace(dtype=np.float32)
        assert ws.buffer("x", (2,)).dtype == np.float32
        assert ws.buffer("y", (2,), dtype=bool).dtype == np.bool_

    def test_shape_normalization(self):
        ws = Workspace()
        a = ws.buffer("a", (np.int64(4), 3))
        assert a is ws.buffer("a", [4, 3])


class TestGrowth:
    def test_one_tag_at_two_shapes_shares_one_backing_buffer(self):
        ws = Workspace()
        big = ws.buffer("a", (8, 3))
        small = ws.buffer("a", (2, 5))
        assert small.shape == (2, 5) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        assert ws.num_buffers == 1 and ws.nbytes == 8 * 3 * 8

    def test_growth_is_a_miss_and_a_smaller_shape_is_a_hit(self):
        ws = Workspace()
        ws.buffer("a", (4, 3))
        assert (ws.hits, ws.misses) == (0, 1)
        ws.buffer("a", (2, 3))                 # fits: a view, no allocation
        assert (ws.hits, ws.misses) == (1, 1)
        grown = ws.buffer("a", (6, 3))         # outgrows: one new backing buffer
        assert (ws.hits, ws.misses) == (1, 2)
        assert ws.num_buffers == 1 and ws.nbytes == 6 * 3 * 8
        again = ws.buffer("a", (4, 3))
        assert (ws.hits, ws.misses) == (2, 2)
        assert np.shares_memory(again, grown)

    def test_views_are_cached_per_shape(self):
        ws = Workspace()
        a = ws.buffer("a", (4, 3))
        b = ws.buffer("a", (2, 3))
        assert ws.buffer("a", (4, 3)) is a
        assert ws.buffer("a", (2, 3)) is b

    def test_memory_follows_the_largest_request_not_the_history(self):
        swept, direct = Workspace(), Workspace()
        for k in range(1, 9):
            for block in (16, 5):
                swept.buffer(("serve", "feat"), (k, block, 23))
                swept.buffer((0, "mask"), (k, block, 8), dtype=bool)
        direct.buffer(("serve", "feat"), (8, 16, 23))
        direct.buffer((0, "mask"), (8, 16, 8), dtype=bool)
        assert swept.nbytes == direct.nbytes
        assert swept.num_buffers == direct.num_buffers == 2


class TestOwnership:
    def test_owns_only_arena_buffers(self):
        ws = Workspace()
        buf = ws.buffer("x", (3,))
        assert ws.owns(buf)
        assert not ws.owns(np.empty(3))

    def test_slices_of_an_owned_view_are_not_owned(self):
        ws = Workspace()
        buf = ws.buffer("x", (4, 3))
        assert not ws.owns(buf[1:])
        assert not ws.owns(buf.reshape(12))
        assert not ws.owns(buf[:, 0])

    def test_outgrown_views_are_no_longer_owned(self):
        ws = Workspace()
        old = ws.buffer("x", (2, 3))
        new = ws.buffer("x", (4, 3))
        assert not ws.owns(old)
        assert ws.owns(new)

    def test_clear_forgets_everything(self):
        ws = Workspace()
        buf = ws.buffer("x", (3,))
        ws.clear()
        assert not ws.owns(buf)
        assert ws.num_buffers == 0 and ws.nbytes == 0
        assert ws.hits == 0 and ws.misses == 0


class TestPreallocate:
    def test_warm_buffers_are_steady_state_hits(self):
        ws = Workspace()
        ws.preallocate([("a", (4, 3)), ("m", (4, 3), bool)])
        assert ws.num_buffers == 2
        assert ws.misses == 0  # warming is not a steady-state miss
        ws.buffer("a", (4, 3))
        assert ws.hits == 1 and ws.misses == 0


class TestAttachDetach:
    def test_attach_tags_layers_and_detach_restores(self):
        model = mlp(3, [4], 1, seed=0)
        ws = Workspace()
        model.attach_workspace(ws)
        assert model.workspace is ws
        assert [layer._ws_tag for layer in model.layers] == [0, 1, 2]
        assert all(layer._ws is ws for layer in model.layers)
        model.detach_workspace()
        assert model.workspace is None
        assert all(layer._ws is None for layer in model.layers)

    def test_forward_steady_state_is_allocation_free(self):
        model = mlp(3, [4], 1, seed=0)
        ws = Workspace()
        model.attach_workspace(ws)
        x = np.random.default_rng(0).normal(size=(8, 3))
        model.forward(x)
        ws.hits = ws.misses = 0
        model.forward(x)
        assert ws.misses == 0 and ws.hits > 0
