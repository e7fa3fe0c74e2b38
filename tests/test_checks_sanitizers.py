"""Runtime sanitizers: each catches a deliberately seeded violation.

Every trigger test is marked ``no_sanitize`` so the conftest-level
``--sanitize`` wiring (which wraps all tests) does not trip over the
intentional violations; the marker plus the ``--sanitize`` flag are
themselves exercised at the bottom via pytester.
"""

from __future__ import annotations

import sys
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.checks.sanitizers import (
    AliasGuard,
    AliasingViolation,
    LockOrderSanitizer,
    LockOrderViolation,
    ShmLeakError,
    ShmLeakTracker,
    sanitize,
)

pytest_plugins = ("pytester",)

pytestmark = pytest.mark.no_sanitize


# ----------------------------------------------------------------- lock order
def test_lock_order_inversion_detected():
    with pytest.raises(LockOrderViolation, match="cyclic lock-acquisition"):
        with LockOrderSanitizer():
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:  # inversion: b -> a after a -> b
                    pass


def test_lock_order_consistent_nesting_is_clean():
    with LockOrderSanitizer():
        a = threading.Lock()
        b = threading.Lock()
        for _ in range(3):
            with a:
                with b:
                    pass


def test_lock_order_short_lived_locks_in_one_order_are_clean():
    # Each pair is collected before the next one is made, so CPython hands
    # the new locks the old ones' ids, often swapped between the two.
    with LockOrderSanitizer():
        for _ in range(200):
            outer = threading.Semaphore(1)
            inner = threading.Lock()
            with outer:
                with inner:
                    pass
            del outer, inner


def test_lock_order_detects_inversion_across_threads():
    with pytest.raises(LockOrderViolation):
        with LockOrderSanitizer():
            a = threading.Lock()
            b = threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            t1 = threading.Thread(target=forward)
            t1.start()
            t1.join()
            t2 = threading.Thread(target=backward)
            t2.start()
            t2.join()


def test_lock_order_rlock_reentry_is_not_an_edge():
    with LockOrderSanitizer():
        r = threading.RLock()
        with r:
            with r:  # re-entrant acquire of the same lock: no self-edge
                pass


def test_lock_order_restores_threading_factories():
    original = threading.Lock
    with LockOrderSanitizer():
        assert threading.Lock is not original
    assert threading.Lock is original


def test_lock_proxy_supports_blocking_protocol():
    with LockOrderSanitizer():
        lock = threading.Lock()
        assert lock.acquire(timeout=1.0)
        assert lock.locked()
        assert not lock.acquire(blocking=False)  # failed acquire: no record
        lock.release()
        assert not lock.locked()


def test_lock_proxy_forwards_the_rest_of_the_lock_api():
    # Stdlib modules hand a lock's _at_fork_reinit to os.register_at_fork;
    # the proxy must expose it (and any other attribute) from the real lock.
    with LockOrderSanitizer():
        lock = threading.Lock()
        assert "sanitized" in repr(lock)
        assert lock._at_fork_reinit == lock._inner._at_fork_reinit
        lock._at_fork_reinit()
        assert not lock.locked()
        assert threading.Semaphore(2)._value == 2


def test_first_import_of_concurrent_futures_thread_under_sanitizer():
    # The module registers its shutdown lock's _at_fork_reinit at import.
    import concurrent.futures
    import concurrent.futures.thread as saved
    import importlib

    del sys.modules["concurrent.futures.thread"]
    try:
        with LockOrderSanitizer():
            module = importlib.import_module("concurrent.futures.thread")
            with module.ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(abs, -3).result(timeout=10) == 3
    finally:
        # Later tests keep the module the rest of the process uses.
        sys.modules["concurrent.futures.thread"] = saved
        concurrent.futures.thread = saved


def test_thread_pool_idle_semaphore_is_not_an_order_edge():
    # A pool's idle semaphore is a counter: the submitting thread acquires
    # it and a worker releases it.  Read as a lock the submitter holds, it
    # would close a cycle with the pool's shutdown lock on the next submit.
    from concurrent.futures import ThreadPoolExecutor

    with LockOrderSanitizer() as sanitizer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for i in range(6):
                assert pool.submit(abs, -i).result(timeout=10) == i
    assert sanitizer.violations == []


# ------------------------------------------------------------------ shm leaks
def test_shm_leak_detected_and_cleaned():
    leaked_name = None
    with pytest.raises(ShmLeakError, match="never unlinked"):
        with ShmLeakTracker(cleanup=True):
            seg = shared_memory.SharedMemory(create=True, size=64)
            leaked_name = seg.name
            seg.close()  # close() alone does not release the segment
    # cleanup=True unlinked the stranded segment before raising
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=leaked_name)


def test_shm_balanced_lifecycle_is_clean():
    with ShmLeakTracker():
        seg = shared_memory.SharedMemory(create=True, size=64)
        seg.buf[0] = 7
        seg.close()
        seg.unlink()


def test_shm_attach_is_not_a_creation():
    outer = shared_memory.SharedMemory(create=True, size=64)
    try:
        with ShmLeakTracker():
            view = shared_memory.SharedMemory(name=outer.name)
            view.close()  # attach-only: tracker must not demand unlink
    finally:
        outer.close()
        outer.unlink()


def test_shm_bundle_lifecycle_is_clean_under_tracker():
    """SharedArrayBundle.close() releases and unlinks deterministically."""
    from repro.perf import SharedArrayBundle

    with ShmLeakTracker():
        bundle = SharedArrayBundle.create({"a": np.arange(8.0)})
        bundle.close()


def test_shm_worker_crash_between_attach_and_read_is_clean():
    """A worker dying right after attach must not strand the segment.

    The parent's close() is the sole unlink authority; the tracker
    verifies that a crash inside the attach window leaves nothing behind
    once the parent tears the bundle down.
    """
    from repro.perf import SharedArrayBundle, attached_arrays

    with ShmLeakTracker():
        bundle = SharedArrayBundle.create({"a": np.arange(8.0)})
        with pytest.raises(RuntimeError, match="between attach"):
            with attached_arrays(bundle.specs):
                raise RuntimeError("crash between attach and first read")
        bundle.close()


def test_shm_tracker_restores_patches():
    orig_init = shared_memory.SharedMemory.__init__
    orig_unlink = shared_memory.SharedMemory.unlink
    with ShmLeakTracker():
        assert shared_memory.SharedMemory.__init__ is not orig_init
    assert shared_memory.SharedMemory.__init__ is orig_init
    assert shared_memory.SharedMemory.unlink is orig_unlink


# ------------------------------------------------------------------- aliasing
def test_alias_guard_catches_matmul_out_aliasing_input():
    with AliasGuard():
        x = np.eye(4)
        w = np.ones((4, 4))
        with pytest.raises(AliasingViolation, match="shares memory"):
            np.matmul(x, w, out=x)


def test_alias_guard_catches_overlapping_views():
    with AliasGuard():
        buf = np.zeros((8, 8))
        with pytest.raises(AliasingViolation):
            np.matmul(buf[:4], np.ones((8, 4)), out=buf[2:6, :4])


def test_alias_guard_passes_disjoint_out():
    with AliasGuard():
        x = np.arange(16.0).reshape(4, 4)
        w = np.eye(4)
        out = np.empty((4, 4))
        np.matmul(x, w, out=out)
        np.testing.assert_array_equal(out, x)


def test_alias_guard_leaves_elementwise_inplace_alone():
    with AliasGuard():
        x = np.arange(4.0)
        np.multiply(x, 2.0, out=x)  # elementwise in-place is well-defined
        np.testing.assert_array_equal(x, [0.0, 2.0, 4.0, 6.0])


def test_alias_guard_restores_numpy():
    orig = np.matmul
    with AliasGuard():
        assert np.matmul is not orig
    assert np.matmul is orig


# ------------------------------------------------------------ combined + flag
def test_sanitize_stacks_all_three():
    with sanitize():
        lock = threading.Lock()
        with lock:
            pass
        seg = shared_memory.SharedMemory(create=True, size=32)
        seg.close()
        seg.unlink()
        out = np.empty(3)
        np.dot(np.eye(3), np.ones(3), out=out)


def test_pytest_sanitize_flag_fails_seeded_leak(pytester: pytest.Pytester):
    pytester.makeconftest(
        """
import pytest

def pytest_addoption(parser):
    parser.addoption("--sanitize", action="store_true", default=False)

def pytest_configure(config):
    config.addinivalue_line("markers", "no_sanitize: disable sanitizers")

@pytest.fixture(autouse=True)
def _runtime_sanitizers(request):
    if not request.config.getoption("--sanitize") or request.node.get_closest_marker(
        "no_sanitize"
    ):
        yield
        return
    from repro.checks.sanitizers import sanitize
    with sanitize():
        yield
"""
    )
    pytester.makepyfile(
        """
import pathlib
from multiprocessing import shared_memory

def test_leaks_a_segment():
    seg = shared_memory.SharedMemory(create=True, size=16)
    pathlib.Path("leaked_name.txt").write_text(seg.name)
    seg.close()  # deliberately never unlinked
"""
    )
    assert pytester.runpytest().ret == 0  # without the flag: passes
    # tidy up the genuinely leaked segment from the unflagged run
    name = (pytester.path / "leaked_name.txt").read_text()
    seg = shared_memory.SharedMemory(name=name)
    seg.close()
    seg.unlink()
    result = pytester.runpytest("--sanitize")
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines(["*ShmLeakError*"])


def test_pytest_no_sanitize_marker_opts_out(pytester: pytest.Pytester):
    pytester.makeconftest(
        """
import pytest

def pytest_addoption(parser):
    parser.addoption("--sanitize", action="store_true", default=False)

def pytest_configure(config):
    config.addinivalue_line("markers", "no_sanitize: disable sanitizers")

@pytest.fixture(autouse=True)
def _runtime_sanitizers(request):
    if not request.config.getoption("--sanitize") or request.node.get_closest_marker(
        "no_sanitize"
    ):
        yield
        return
    from repro.checks.sanitizers import sanitize
    with sanitize():
        yield
"""
    )
    pytester.makepyfile(
        """
import pytest
from multiprocessing import shared_memory

@pytest.mark.no_sanitize
def test_marker_disables_tracking():
    seg = shared_memory.SharedMemory(create=True, size=16)
    seg.close()
"""
    )
    pytester.runpytest("--sanitize").assert_outcomes(passed=1)
