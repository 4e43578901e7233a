"""SOK keys derived once per peer point and kept in memory.

The physician's ``session_key_with``, the A-server's ϖ for each
physician and the S-server's ν (or ρ) for each client point come from a
bounded per-object map; each cached key must equal a fresh
``shared_key_from_points`` and may never outlive the identity key it was
derived from.
"""

import pytest

from repro.core import dispatch, wire
from repro.core.aserver import StateAServer
from repro.core.entities import Physician
from repro.core.protocols.emergency import family_based_retrieval
from repro.core.protocols.messages import seal
from repro.core.protocols.retrieval import common_case_retrieval
from repro.crypto import nike
from repro.crypto.hashes import h1_identity
from repro.crypto.nike import StaticKeyCache, shared_key_from_points
from repro.crypto.pairing import PreparedPairing
from repro.crypto.rng import HmacDrbg
from repro.exceptions import ReplayError
from repro.net.transport import as_transport


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


@pytest.fixture()
def server_pairings(monkeypatch):
    """The client points the S-server pairs Γ_S with, in call order."""
    calls = []
    pair = PreparedPairing.pair

    def spy(self, Q):
        calls.append((self.point, Q))
        return pair(self, Q)

    monkeypatch.setattr(PreparedPairing, "pair", spy)
    return calls


def _of(calls, server):
    gamma = server.identity_key.private
    return [q for prepared_point, q in calls if prepared_point == gamma]


class TestSServerSessionKeys:
    def test_repeated_package_pseudonym_skips_the_pairing(
            self, privileged_system, server_pairings):
        """OP_GET_BROADCAST then OP_SEARCH_WRAPPED, twice over: only the
        first request of the first exchange pairs."""
        system = privileged_system
        server, family = system.sserver, system.family
        transport = system.network
        for _ in range(2):
            result = family_based_retrieval(family, server, transport,
                                            ["cardiology"])
            assert result.files
        assert len(_of(server_pairings, server)) <= 1
        pseudonym = family.package.pseudonym.public
        assert server.session_key(pseudonym) == shared_key_from_points(
            server.identity_key.private, pseudonym)

    def test_replay_with_cached_key_still_refused(self, privileged_system):
        system = privileged_system
        server, family = system.sserver, system.family
        transport = as_transport(system.network)
        family_based_retrieval(family, server, transport, ["cardiology"])
        package = family.package
        frame = wire.make_frame(
            wire.OP_GET_BROADCAST, package.pseudonym.public.to_bytes(),
            package.collection_id,
            seal(package.nu, "emergency/get-d", b"m:request-broadcast",
                 transport.now).to_bytes())
        endpoint = dispatch.bind_sserver(transport, server)
        assert wire.parse_response(endpoint.handle_frame(frame))
        with pytest.raises(ReplayError):
            wire.parse_response(endpoint.handle_frame(frame))

    def test_replaced_identity_key_is_not_served_stale(self, system,
                                                       params):
        server = system.sserver
        client = params.generator * 4242
        old = server.session_key(client)
        server.identity_key = system.state.enroll("sserver:replacement")
        fresh = server.session_key(client)
        assert fresh != old
        assert fresh == shared_key_from_points(server.identity_key.private,
                                               client)

    def test_bounded_and_never_exported(self, stored_system, params):
        server = stored_system.sserver
        cids, roles = server.held_keys()
        state = server.export_state()
        partition = server.export_partition(cids, roles)
        for k in range(1, StaticKeyCache.CAPACITY + 6):
            server.session_key(params.generator * k)
        assert StaticKeyCache.CAPACITY == 64
        assert len(server._session_keys) == StaticKeyCache.CAPACITY
        assert server.export_state() == state
        assert server.export_partition(cids, roles) == partition

    def test_fresh_pseudonyms_never_hit(self, stored_system,
                                        server_pairings):
        system = stored_system
        server = system.sserver
        transport = system.network
        for searches in range(1, 4):
            common_case_retrieval(system.patient, server, transport,
                                  ["allergies"])
            assert len(_of(server_pairings, server)) == searches
