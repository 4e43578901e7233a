"""concurrency fixtures: locked-elsewhere attributes must not mutate
unlocked, unless the helper declares the lock is already held."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source, get_rule

MIXED = """
class Guard:
    def remember(self, tag):
        with self._lock:
            self._seen[tag] = 1

    def forget(self, tag):
        self._seen.pop(tag, None)
"""

MARKED = """
class Guard:
    def remember(self, tag):
        with self._lock:
            self._seen[tag] = 1
            self._forget(tag)

    def _forget(self, tag):
        # Caller holds self._lock.
        self._seen.pop(tag, None)
"""


@pytest.fixture()
def rule():
    return get_rule("concurrency")


def test_mixed_locked_and_unlocked_mutation_flags(rule):
    findings = analyze_source(MIXED, rule)
    assert len(findings) == 1
    assert "_seen" in findings[0].message
    assert "forget" in findings[0].message


def test_caller_holds_lock_marker_suppresses(rule):
    assert not analyze_source(MARKED, rule)


def test_init_is_exempt(rule):
    assert not analyze_source("""
class Guard:
    def __init__(self):
        self._seen = {}

    def remember(self, tag):
        with self._lock:
            self._seen[tag] = 1
""", rule)


def test_never_locked_attributes_are_fine(rule):
    # Single-threaded state: no lock anywhere, no finding.
    assert not analyze_source("""
class Counter:
    def bump(self):
        self.count += 1

    def reset(self):
        self.count = 0
""", rule)


def test_mutating_method_calls_count_as_mutations(rule):
    findings = analyze_source("""
class Pool:
    def push(self, item):
        with self._pool_lock:
            self._items.append(item)

    def drain(self):
        self._items.clear()
""", rule)
    assert findings and "_items" in findings[0].message


def test_augassign_outside_lock_flags(rule):
    assert analyze_source("""
class Stats:
    def record(self, n):
        with self._lock:
            self.total += n

    def fudge(self):
        self.total += 1
""", rule)


def test_nested_function_mutations_are_out_of_scope(rule):
    # A closure has its own locking story (e.g. the guard listener
    # in durable.py takes the lock inside the closure).
    assert not analyze_source("""
class Endpoint:
    def snapshot(self):
        with self._lock:
            self._mutations = 0

    def make_listener(self):
        def on_remember(tag):
            with self._lock:
                self._mutations = 1
        return on_remember
""", rule)


POOL_MIXED = """
class Engine:
    def start(self):
        with self._lock:
            self._pool = make_pool()

    def stop(self):
        self._pool.terminate()
"""

POOL_SWAPPED = """
class Engine:
    def start(self):
        with self._lock:
            self._pool = make_pool()

    def stop(self):
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()
"""


ASYNC_MIXED = """
class Mux:
    async def send(self, frame):
        async with self._write_lock:
            self._pending[1] = frame

    async def drop(self, frame_id):
        self._pending.pop(frame_id, None)
"""

ASYNC_LOCKED = """
class Mux:
    async def send(self, frame):
        async with self._write_lock:
            self._pending[1] = frame

    async def drop(self, frame_id):
        async with self._write_lock:
            self._pending.pop(frame_id, None)
"""

LOOP_AFFINE = """
class Transport:
    async def connect(self, dst):
        async with self._conn_lock:
            self._conns[dst] = open_conn(dst)

    async def shutdown(self):
        # Loop-affine: runs on the event loop thread, which owns the
        # connection table.
        self._conns.clear()
"""


def test_async_with_lock_counts_as_locked(rule):
    # ``async with self._lock`` is a lock context exactly like its
    # synchronous twin: the locked variant is clean...
    assert not analyze_source(ASYNC_LOCKED, rule)


def test_async_mutation_outside_lock_flags(rule):
    # ...and the unlocked one is the same torn-write hazard as in
    # threaded code.
    findings = analyze_source(ASYNC_MIXED, rule)
    assert len(findings) == 1
    assert "_pending" in findings[0].message
    assert "drop" in findings[0].message


def test_loop_affine_marker_suppresses(rule):
    # State owned by an event loop is serialized by the loop itself;
    # the marker takes credit for it the way caller-holds does.
    assert not analyze_source(LOOP_AFFINE, rule)


def test_loop_affine_marker_is_per_function(rule):
    # The marker only covers the function that carries it.
    findings = analyze_source(LOOP_AFFINE + """
    async def evict(self, dst):
        self._conns.pop(dst, None)
""", rule)
    assert len(findings) == 1
    assert "evict" in findings[0].message


def test_unlocked_pool_lifecycle_call_flags(rule):
    # .terminate() on an attribute assigned under the lock is the same
    # lost-update hazard as an unlocked .append.
    findings = analyze_source(POOL_MIXED, rule)
    assert len(findings) == 1
    assert "_pool" in findings[0].message
    assert "stop" in findings[0].message


def test_swap_under_lock_then_close_local_is_clean(rule):
    # The router's update_ring(): detach the pool under the lock, tear
    # down the local reference outside it — no self-attribute mutates
    # unlocked.
    assert not analyze_source(POOL_SWAPPED, rule)
