"""Multi-collection S-server search: one trapdoor set over several
collections under a single envelope check, byte-identical to the
single-collection handler run once per collection."""

import pytest

from repro.core import dispatch, wire
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.exceptions import ReplayError, StorageError
from repro.net.transport import LoopbackTransport


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
