"""Static SOK keys: ϖ is derived once per peer and kept in memory.

The physician's ``session_key_with`` and the A-server's ϖ for each
physician come from a bounded per-object map; each cached key must equal
a fresh ``shared_key_from_points`` and may never outlive the identity
key it was derived from.
"""

import pytest

from repro.core.aserver import StateAServer
from repro.core.entities import Physician
from repro.crypto import nike
from repro.crypto.hashes import h1_identity
from repro.crypto.nike import StaticKeyCache, shared_key_from_points
from repro.crypto.rng import HmacDrbg


@pytest.fixture()
def aserver(params):
    return StateAServer("static-keys", params, HmacDrbg(b"static-keys"))


def _physician(aserver, params, physician_id):
    return Physician(physician_id, "hospital", aserver.enroll(physician_id),
                     params, HmacDrbg(physician_id.encode()))


class TestStaticKeyCache:
    def test_equals_a_fresh_derivation_for_several_peers(self, aserver,
                                                         params):
        cache = StaticKeyCache()
        own = aserver.identity_key.private
        peers = [h1_identity(params, "dr-%d" % i) for i in range(5)]
        for _ in range(2):
            for peer in peers:
                assert cache.get(own, peer) == shared_key_from_points(own,
                                                                      peer)
        assert len(cache) == len(peers)

    def test_derives_once_per_peer(self, aserver, params, monkeypatch):
        calls = []
        derive = nike.shared_key_from_points

        def counting(private, peer):
            calls.append(peer)
            return derive(private, peer)

        monkeypatch.setattr(nike, "shared_key_from_points", counting)
        cache = StaticKeyCache()
        peer = h1_identity(params, "dr-once")
        for _ in range(4):
            cache.get(aserver.identity_key.private, peer)
        assert calls == [peer]

    def test_bounded(self, aserver, params, monkeypatch):
        monkeypatch.setattr(StaticKeyCache, "CAPACITY", 3)
        cache = StaticKeyCache()
        own = aserver.identity_key.private
        peers = [h1_identity(params, "dr-bound-%d" % i) for i in range(8)]
        for peer in peers + peers[:2]:
            assert cache.get(own, peer) == shared_key_from_points(own, peer)
            assert len(cache) <= 3


class TestEntities:
    def test_physician_and_aserver_agree(self, aserver, params):
        for i in range(3):
            physician = _physician(aserver, params, "dr-agree-%d" % i)
            from_physician = physician.session_key_with(
                aserver.identity_key.public)
            assert from_physician == shared_key_from_points(
                physician.identity_key.private, aserver.identity_key.public)
            assert aserver._omega(physician.physician_id) == from_physician

    def test_new_physician_key_is_not_served_stale(self, aserver, params):
        physician = _physician(aserver, params, "dr-rekey")
        peer = aserver.identity_key.public
        old = physician.session_key_with(peer)
        physician.identity_key = aserver.enroll("dr-rekeyed")
        fresh = physician.session_key_with(peer)
        assert fresh != old
        assert fresh == shared_key_from_points(
            physician.identity_key.private, peer)

    def test_new_aserver_key_is_not_served_stale(self, aserver, params):
        old = aserver._omega("dr-x")
        aserver.identity_key = aserver.enroll("aserver:replacement")
        fresh = aserver._omega("dr-x")
        assert fresh != old
        assert fresh == shared_key_from_points(
            aserver.identity_key.private, h1_identity(params, "dr-x"))

    def test_never_in_a_snapshot(self, aserver, params):
        before = aserver.export_state()
        aserver._omega("dr-snapshot")
        assert aserver.export_state() == before
