"""Batched and multi-collection S-server serving: byte-identical to the
serial handlers, with per-request outcomes for the batch."""

import pytest

from repro.core import dispatch, wire
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.core.sserver import SearchRequest
from repro.crypto.ec import Point
from repro.exceptions import ParameterError, ReplayError, StorageError
from repro.net.transport import LoopbackTransport
from repro.sse.index import clear_index_cache, index_cache_stats

KEYWORDS = ["allergies", "cardiology", "warfarin"]


def _request(system, keyword, now):
    """One sealed search request; returns (SearchRequest, session key)."""
    server = system.sserver
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(server.identity_key.public, pseudonym)
    payload = pack_fields(patient.trapdoor(keyword).to_bytes())
    envelope = seal(nu, "phi-retrieve", payload, now)
    return SearchRequest(
        pseudonym=pseudonym.public.to_bytes(),
        collection_id=patient.collection_ids[server.address],
        envelope=envelope.to_bytes()), nu


def _serial(server, req, now):
    """``handle_search`` on the decoded form of one batch request."""
    return server.handle_search(
        Point.from_bytes(req.pseudonym, server.params.curve),
        req.collection_id, Envelope.from_bytes(req.envelope), now)


def _replies(outcomes):
    """The replies of a batch that must have succeeded entry by entry."""
    assert all(exc is None for _, exc in outcomes), outcomes
    return [reply for reply, _ in outcomes]


class TestSearchBatch:
    def test_batch_matches_serial_byte_for_byte(self, stored_system):
        server = stored_system.sserver
        now = 500.0
        requests, keys = [], []
        for i, kw in enumerate(KEYWORDS * 2):
            req, nu = _request(stored_system, kw, now + i * 0.001)
            requests.append(req)
            keys.append(nu)

        serial = [_serial(server, r, now) for r in requests]

        # Re-seal identical envelopes for the batched pass (the serial
        # one consumed the replay tags); fresh pseudonyms, same plaintext.
        requests2, keys2 = [], []
        for i, kw in enumerate(KEYWORDS * 2):
            req, nu = _request(stored_system, kw, now + 1 + i * 0.001)
            requests2.append(req)
            keys2.append(nu)
        batched = _replies(server.handle_search_each(requests2, now + 1))

        assert len(serial) == len(batched)
        for nu1, env1, nu2, env2 in zip(keys, serial, keys2, batched):
            files1 = unpack_fields(open_envelope(nu1, env1, now))
            files2 = unpack_fields(open_envelope(nu2, env2, now + 1))
            assert files1 == files2

    def test_empty_and_singleton_batches(self, stored_system):
        assert stored_system.sserver.handle_search_each([], 600.0) == []
        req, nu = _request(stored_system, "allergies", 600.5)
        replies = _replies(
            stored_system.sserver.handle_search_each([req], 600.5))
        assert len(replies) == 1
        assert unpack_fields(open_envelope(nu, replies[0], 600.5))

    def test_replayed_envelope_fails_per_entry(self, stored_system):
        req, nu = _request(stored_system, "allergies", 700.0)
        outcomes = stored_system.sserver.handle_search_each(
            [req, req, req], 700.0)
        reply, exc = outcomes[0]
        assert exc is None
        assert unpack_fields(open_envelope(nu, reply, 700.0))
        for reply, exc in outcomes[1:]:
            assert reply is None
            assert isinstance(exc, ReplayError)

    def test_undecodable_entries_fail_only_themselves(self, stored_system):
        # b"\x00" decodes to the point at infinity (no SOK key exists);
        # a truncated encoding does not decode at all; a label that is
        # not UTF-8 does not decode either.  Each fails alone.
        server = stored_system.sserver
        good, nu = _request(stored_system, "allergies", 710.0)
        _, payload, ts, tag = unpack_fields(good.envelope, expected=4)
        bad = [SearchRequest(pseudonym=pseud, collection_id=good.collection_id,
                             envelope=env_b)
               for pseud, env_b in (
                   (b"\x00", good.envelope),
                   (b"\x04\x01\x02", good.envelope),
                   (good.pseudonym, pack_fields(b"\xff", payload, ts, tag)))]
        outcomes = server.handle_search_each([bad[0], good, bad[1], bad[2]],
                                             710.0)
        for i in (0, 2, 3):
            assert outcomes[i][0] is None
            assert isinstance(outcomes[i][1], ParameterError)
        reply, exc = outcomes[1]
        assert exc is None
        assert unpack_fields(open_envelope(nu, reply, 710.0))


class TestSearchMulti:
    def _second_collection(self, system):
        """Upload a second collection for the same patient."""
        from repro.core.protocols.storage import private_phi_storage
        from repro.ehr.records import Category
        patient = system.patient
        server = system.sserver
        first_id = patient.collection_ids[server.address]
        patient.add_record(Category.ALLERGIES, ["allergies", "latex"],
                           "Latex sensitivity noted during surgery.",
                           server.address)
        private_phi_storage(patient, server, system.network)
        second_id = patient.collection_ids[server.address]
        return first_id, second_id

    def test_multi_matches_serial_loop(self, stored_system):
        # The same trapdoor set against the same collection twice must
        # concatenate two identical result blocks, in id order.
        server = stored_system.sserver
        patient = stored_system.patient
        cid = patient.collection_ids[server.address]

        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)
        payload = pack_fields(patient.trapdoor("cardiology").to_bytes())
        reply = server.handle_search_merge(
            pseudonym.public, [cid, cid],
            seal(nu, "phi-retrieve", payload, 800.0), {}, 800.0)
        results = unpack_fields(open_envelope(nu, reply, 800.0))

        single = server.handle_search(
            pseudonym.public, cid,
            seal(nu, "phi-retrieve", payload, 801.0), 801.0)
        expected = unpack_fields(open_envelope(nu, single, 801.0))
        assert results == expected + expected

    def test_multi_single_id_equals_handle_search(self, stored_system):
        server = stored_system.sserver
        patient = stored_system.patient
        cid = patient.collection_ids[server.address]
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)
        payload = pack_fields(patient.trapdoor("warfarin").to_bytes())

        multi = server.handle_search_merge(
            pseudonym.public, [cid],
            seal(nu, "phi-retrieve", payload, 810.0), {}, 810.0)
        plain = server.handle_search(
            pseudonym.public, cid,
            seal(nu, "phi-retrieve", payload, 811.0), 811.0)
        assert (unpack_fields(open_envelope(nu, multi, 810.0))
                == unpack_fields(open_envelope(nu, plain, 811.0)))

    def test_multi_checks_envelope_once(self, stored_system):
        """One envelope, one replay tag: a second presentation fails even
        though the first fanned out across collections."""
        server = stored_system.sserver
        patient = stored_system.patient
        cid = patient.collection_ids[server.address]
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)
        envelope = seal(nu, "phi-retrieve",
                        pack_fields(patient.trapdoor("allergies").to_bytes()),
                        820.0)
        server.handle_search_merge(pseudonym.public, [cid, cid], envelope,
                                   {}, 820.0)
        with pytest.raises(ReplayError):
            server.handle_search_merge(pseudonym.public, [cid], envelope,
                                       {}, 820.0)

    def test_op_search_multi_looks_up_every_collection_first(self,
                                                             stored_system):
        """OP_SEARCH_MULTI naming an unknown collection fails before any
        collection is searched: nothing is observed, nothing returned."""
        server = stored_system.sserver
        patient = stored_system.patient
        first_id, second_id = self._second_collection(stored_system)
        net = LoopbackTransport()
        endpoint = dispatch.bind_sserver(net, server)
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)

        def frame(cids, now):
            envelope = seal(nu, "phi-retrieve", pack_fields(
                patient.trapdoor("allergies").to_bytes()), now)
            return wire.make_frame(wire.OP_SEARCH_MULTI,
                                   pseudonym.public.to_bytes(),
                                   pack_fields(*cids), envelope.to_bytes())

        before = len(server.observations)
        response = endpoint.handle_frame(
            frame([first_id, b"\x00" * 16, second_id], net.now))
        with pytest.raises(StorageError, match="unknown collection"):
            wire.parse_response(response)
        assert len(server.observations) == before

        reply = wire.parse_response(endpoint.handle_frame(
            frame([first_id, second_id], net.now + 1)))
        results = unpack_fields(open_envelope(
            nu, Envelope.from_bytes(reply), net.now + 1))
        assert len(results) >= 2  # "allergies" hits in both collections


class TestSerializedCollections:
    def _store_blob(self, stored_system):
        """Re-upload the patient's index as a serialized blob collection."""
        patient = stored_system.patient
        server = stored_system.sserver
        original_id = patient.collection_ids[server.address]
        original = server._collections[original_id]

        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)
        envelope = seal(nu, "phi-store", b"digest", 900.0)
        blob_id = server.handle_store_serialized(
            pseudonym.public, envelope, original.index.to_bytes(),
            original.files, original.group_secret_d, original.broadcast_d,
            900.0)
        return original_id, blob_id

    def test_blob_backed_search_matches_live_index(self, stored_system):
        clear_index_cache()
        original_id, blob_id = self._store_blob(stored_system)
        server = stored_system.sserver
        patient = stored_system.patient

        for i, kw in enumerate(KEYWORDS):
            pseudonym = patient.fresh_pseudonym()
            nu = patient.session_key_with(server.identity_key.public,
                                          pseudonym)
            payload = pack_fields(patient.trapdoor(kw).to_bytes())
            now = 901.0 + i
            live = server.handle_search(
                pseudonym.public, original_id,
                seal(nu, "phi-retrieve", payload, now), now)
            lazy = server.handle_search(
                pseudonym.public, blob_id,
                seal(nu, "phi-retrieve", payload, now + 0.5), now + 0.5)
            assert (unpack_fields(open_envelope(nu, live, now))
                    == unpack_fields(open_envelope(nu, lazy, now + 0.5)))

    def test_index_cache_hits_on_repeat_searches(self, stored_system):
        clear_index_cache()
        _, blob_id = self._store_blob(stored_system)
        server = stored_system.sserver
        patient = stored_system.patient
        for i in range(4):
            pseudonym = patient.fresh_pseudonym()
            nu = patient.session_key_with(server.identity_key.public,
                                          pseudonym)
            payload = pack_fields(patient.trapdoor("allergies").to_bytes())
            server.handle_search(pseudonym.public, blob_id,
                                 seal(nu, "phi-retrieve", payload,
                                      950.0 + i), 950.0 + i)
        assert index_cache_stats["misses"] == 1
        assert index_cache_stats["hits"] == 3
        clear_index_cache()

    def test_blob_collection_storage_accounting(self, stored_system):
        _, blob_id = self._store_blob(stored_system)
        collection = stored_system.sserver._collections[blob_id]
        assert collection.index is None
        assert collection.storage_bytes() >= len(collection.index_blob)
