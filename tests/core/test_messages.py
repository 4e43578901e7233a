"""Envelope / replay-guard tests (data-integrity requirement §III.C)."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocols.messages import (Envelope, ReplayGuard,
                                           open_envelope, pack_fields,
                                           seal, unpack_fields)
from repro.exceptions import IntegrityError, ParameterError, ReplayError

KEY = b"\x42" * 32


class TestPackFields:
    def test_round_trip(self):
        fields = [b"", b"a", b"bb" * 100]
        assert unpack_fields(pack_fields(*fields)) == fields

    def test_empty(self):
        assert unpack_fields(pack_fields()) == []

    def test_expected_count_enforced(self):
        payload = pack_fields(b"a", b"b")
        assert unpack_fields(payload, expected=2) == [b"a", b"b"]
        with pytest.raises(ParameterError):
            unpack_fields(payload, expected=3)

    def test_truncated_rejected(self):
        payload = pack_fields(b"abcdef")
        with pytest.raises(ParameterError):
            unpack_fields(payload[:-2])
        with pytest.raises(ParameterError):
            unpack_fields(payload[:2])

    def test_unambiguous(self):
        assert pack_fields(b"ab", b"c") != pack_fields(b"a", b"bc")


class TestEnvelope:
    def test_seal_open(self):
        env = seal(KEY, "step", b"payload", 100.0)
        assert open_envelope(KEY, env, 100.5) == b"payload"

    def test_wrong_key_rejected(self):
        env = seal(KEY, "step", b"payload", 100.0)
        with pytest.raises(IntegrityError):
            open_envelope(b"\x43" * 32, env, 100.5)

    def test_tampered_payload_rejected(self):
        env = seal(KEY, "step", b"payload", 100.0)
        forged = replace(env, payload=b"qayload")
        with pytest.raises(IntegrityError):
            open_envelope(KEY, forged, 100.5)

    def test_tampered_timestamp_rejected(self):
        env = seal(KEY, "step", b"payload", 100.0)
        forged = replace(env, timestamp=130.0)
        with pytest.raises(IntegrityError):
            open_envelope(KEY, forged, 130.5)

    def test_stale_rejected(self):
        env = seal(KEY, "step", b"payload", 100.0)
        with pytest.raises(ReplayError):
            open_envelope(KEY, env, 100.0 + 61.0)

    def test_future_rejected(self):
        env = seal(KEY, "step", b"payload", 200.0)
        with pytest.raises(ReplayError):
            open_envelope(KEY, env, 100.0)

    def test_custom_skew(self):
        env = seal(KEY, "step", b"p", 100.0)
        assert open_envelope(KEY, env, 160.0, max_skew_s=120.0) == b"p"

    def test_size_accounting(self):
        env = seal(KEY, "step", b"x" * 100, 1.0)
        assert env.size_bytes() == 100 + 8 + 32


class TestReplayGuard:
    def test_replay_detected(self):
        guard = ReplayGuard()
        env = seal(KEY, "step", b"p", 100.0)
        open_envelope(KEY, env, 100.1, guard)
        with pytest.raises(ReplayError):
            open_envelope(KEY, env, 100.2, guard)

    def test_distinct_messages_pass(self):
        guard = ReplayGuard()
        for i in range(10):
            env = seal(KEY, "step", b"p%d" % i, 100.0 + i)
            open_envelope(KEY, env, 100.0 + i, guard)
        assert len(guard) == 10

    def test_pruning(self):
        guard = ReplayGuard(window_s=10.0)
        env1 = seal(KEY, "a", b"p1", 100.0)
        open_envelope(KEY, env1, 100.0, guard)
        env2 = seal(KEY, "b", b"p2", 150.0)
        open_envelope(KEY, env2, 150.0, guard, max_skew_s=10.0)
        assert len(guard) == 1  # env1 pruned


class _ScanGuard:
    """Reference model: the window as a dict, pruned by a full scan."""

    def __init__(self, window_s):
        self.window_s = window_s
        self.seen = {}

    def _prune(self, now):
        horizon = now - self.window_s
        for tag in [t for t, ts in self.seen.items() if ts < horizon]:
            del self.seen[tag]

    def check_and_remember(self, tag, timestamp):
        self._prune(timestamp)
        if tag in self.seen:
            return False
        self.seen[tag] = timestamp
        return True

    def insert(self, tag, timestamp):
        self._prune(timestamp)
        self.seen.setdefault(tag, timestamp)


_guard_ops = st.lists(
    st.tuples(st.sampled_from(["check", "insert", "load"]),
              st.integers(min_value=0, max_value=11),
              st.integers(min_value=0, max_value=4000)),
    max_size=60)


class TestReplayGuardExpiry:
    """The heap-backed guard against the full-scan model, with
    timestamps presented out of order as skewed client clocks do."""

    @given(_guard_ops, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_model(self, ops, shuffler):
        ops = list(ops)
        shuffler.shuffle(ops)
        guard, model = ReplayGuard(window_s=10.0), _ScanGuard(10.0)
        for kind, tag_id, ts_ms in ops:
            tag, timestamp = b"tag-%d" % tag_id, ts_ms / 100.0
            if kind == "check":
                env = Envelope(label="x", payload=b"", timestamp=timestamp,
                               tag=tag)
                accepted = model.check_and_remember(tag, timestamp)
                if accepted:
                    guard.check_and_remember(env)
                else:
                    with pytest.raises(ReplayError):
                        guard.check_and_remember(env)
            elif kind == "insert":
                guard.insert(tag, timestamp)
                model.insert(tag, timestamp)
            else:
                guard.load_state([(tag, timestamp)])
                model.seen.setdefault(tag, timestamp)
            assert guard.export_state() == sorted(model.seen.items())
            assert len(guard) == len(model.seen)

    def test_prune_touches_only_expired_entries(self, monkeypatch):
        from repro.core.protocols import messages
        guard = ReplayGuard(window_s=60.0)
        stamps = [1000.0 + i / 40 for i in range(2000)]  # a 50 s spread
        random.Random(7).shuffle(stamps)
        for i, ts in enumerate(stamps):
            guard.insert(b"t%d" % i, ts)
        assert len(guard) == 2000
        pops = []
        heappop = messages.heapq.heappop

        def counting_pop(heap):
            pops.append(heap[0])
            return heappop(heap)

        monkeypatch.setattr(messages.heapq, "heappop", counting_pop)
        guard.insert(b"late", 1085.0)  # horizon 1025.0
        assert len(pops) == 1000
        assert len(guard) == 1000 + 1
        assert min(ts for _, ts in guard.export_state()) == 1025.0
