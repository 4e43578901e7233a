"""End-to-end protocol tests: storage, retrieval, ASSIGN/REVOKE,
family and P-device emergency paths, MHI — against the paper's §IV flows."""

import pytest

from repro.crypto.rng import HmacDrbg
from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.exceptions import (AccessDenied, AuthenticationError,
                              RevokedError, SearchError, StorageError)


class TestPrivatePhiStorage:
    def test_upload_registers_collection(self, stored_system):
        patient = stored_system.patient
        server = stored_system.sserver
        assert server.address in patient.collection_ids
        assert server.collection_count() == 1

    def test_single_message(self, system):
        system.patient.add_record(Category.XRAY, ["xray"], "note",
                                  system.sserver.address)
        result = private_phi_storage(system.patient, system.sserver,
                                     system.network)
        assert result.stats.messages == 1  # §V.B.2: one transmission

    def test_server_stores_only_ciphertext(self, stored_system):
        """Confidentiality: plaintext never reaches the server."""
        server = stored_system.sserver
        collection = next(iter(server._collections.values()))
        blob = b"".join(collection.files.values())
        assert b"penicillin" not in blob
        assert b"alice" not in blob
        index_array = b"".join(collection.index.array)
        assert b"allergies" not in index_array

    def test_reupload_after_update(self, stored_system):
        """The paper's update path: re-run the storage protocol."""
        patient = stored_system.patient
        server = stored_system.sserver
        patient.add_record(Category.LAB_RESULTS, ["lab-results", "glucose"],
                           "Fasting glucose elevated.", server.address)
        result = private_phi_storage(patient, server, stored_system.network)
        assert server.collection_count() == 2
        files = common_case_retrieval(patient, server,
                                      stored_system.network,
                                      ["glucose"]).files
        assert len(files) == 1


class TestCommonCaseRetrieval:
    def test_one_round(self, stored_system):
        result = common_case_retrieval(stored_system.patient,
                                       stored_system.sserver,
                                       stored_system.network,
                                       ["allergies"])
        assert result.stats.messages == 2  # request + response

    def test_returns_matching_files_only(self, stored_system):
        result = common_case_retrieval(stored_system.patient,
                                       stored_system.sserver,
                                       stored_system.network,
                                       ["cardiology"])
        assert len(result.files) == 1
        assert "ejection fraction" in result.files[0].medical_content

    def test_multiple_keywords_one_round(self, stored_system):
        result = common_case_retrieval(
            stored_system.patient, stored_system.sserver,
            stored_system.network, ["allergies", "cardiology"])
        assert len(result.files) == 2
        assert result.stats.messages == 2

    def test_unknown_keyword_rejected_by_dictionary(self, stored_system):
        with pytest.raises(SearchError):
            common_case_retrieval(stored_system.patient,
                                  stored_system.sserver,
                                  stored_system.network, ["made-up-term"])

    def test_handover_to_physician(self, stored_system):
        physician = stored_system.any_physician()
        common_case_retrieval(stored_system.patient, stored_system.sserver,
                              stored_system.network, ["allergies"],
                              physician=physician)
        assert len(physician.received_phi) == 1

    def test_fresh_pseudonym_per_retrieval(self, stored_system):
        """Unlinkability: successive retrievals present different TP_p."""
        server = stored_system.sserver
        for _ in range(2):
            common_case_retrieval(stored_system.patient, server,
                                  stored_system.network, ["allergies"])
        searches = [o for o in server.observations if o.kind == "search"]
        assert len(searches) == 2
        assert searches[0].pseudonym != searches[1].pseudonym

    def test_unknown_collection_rejected(self, stored_system):
        patient = stored_system.patient
        patient.collection_ids[stored_system.sserver.address] = b"\x00" * 16
        with pytest.raises(StorageError):
            common_case_retrieval(patient, stored_system.sserver,
                                  stored_system.network, ["allergies"])


class TestPrivilegeAssign:
    def test_family_can_search_after_assign(self, privileged_system):
        result = family_based_retrieval(privileged_system.family,
                                        privileged_system.sserver,
                                        privileged_system.network,
                                        ["allergies"])
        assert len(result.files) == 1

    def test_family_retrieval_is_two_rounds(self, privileged_system):
        result = family_based_retrieval(privileged_system.family,
                                        privileged_system.sserver,
                                        privileged_system.network,
                                        ["allergies"])
        assert result.stats.messages == 4  # the paper's 4-message exchange

    def test_unassigned_entity_blocked(self, stored_system):
        with pytest.raises(AccessDenied):
            family_based_retrieval(stored_system.family,
                                   stored_system.sserver,
                                   stored_system.network, ["allergies"])

    def test_family_judgment_gate(self, privileged_system):
        physician = privileged_system.any_physician()
        with pytest.raises(AccessDenied):
            family_based_retrieval(privileged_system.family,
                                   privileged_system.sserver,
                                   privileged_system.network,
                                   ["allergies"], physician=physician,
                                   physician_on_duty=False)

    def test_assign_package_contents(self, privileged_system):
        package = privileged_system.family.package
        assert package is not None
        assert package.nu != b""
        assert package.sse_keys == privileged_system.patient.sse_keys
        assert package.dictionary.words()


class TestRevoke:
    def test_revoked_pdevice_blocked(self, privileged_system):
        revoke_privilege(privileged_system.patient,
                         privileged_system.pdevice.name,
                         privileged_system.sserver,
                         privileged_system.network)
        from repro.core.protocols.emergency import _privileged_retrieval
        with pytest.raises(RevokedError):
            _privileged_retrieval(privileged_system.pdevice,
                                  privileged_system.pdevice.address,
                                  privileged_system.sserver,
                                  privileged_system.network, ["allergies"])

    def test_survivor_unaffected(self, privileged_system):
        revoke_privilege(privileged_system.patient,
                         privileged_system.pdevice.name,
                         privileged_system.sserver,
                         privileged_system.network)
        result = family_based_retrieval(privileged_system.family,
                                        privileged_system.sserver,
                                        privileged_system.network,
                                        ["cardiology"])
        assert len(result.files) == 1

    def test_revoke_is_one_message(self, privileged_system):
        result = revoke_privilege(privileged_system.patient,
                                  privileged_system.pdevice.name,
                                  privileged_system.sserver,
                                  privileged_system.network)
        assert result.stats.messages == 1  # §V.B.2


class TestPDeviceEmergency:
    def _on_duty_physician(self, system):
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        return physician

    def test_full_flow(self, privileged_system):
        physician = self._on_duty_physician(privileged_system)
        result = pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, privileged_system.state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        assert len(result.files) == 1
        assert physician.received_phi

    def test_off_duty_rejected(self, privileged_system):
        physician = privileged_system.any_physician()
        with pytest.raises(AccessDenied):
            pdevice_emergency_retrieval(
                physician, privileged_system.pdevice,
                privileged_system.state, privileged_system.sserver,
                privileged_system.network, ["cardiology"])
        assert privileged_system.state.traces == []

    def test_dictionary_gate(self, privileged_system):
        physician = self._on_duty_physician(privileged_system)
        with pytest.raises(SearchError):
            pdevice_emergency_retrieval(
                physician, privileged_system.pdevice,
                privileged_system.state, privileged_system.sserver,
                privileged_system.network, ["not-a-dictionary-word"])

    def test_records_created(self, privileged_system):
        physician = self._on_duty_physician(privileged_system)
        pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, privileged_system.state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        assert len(privileged_system.state.traces) == 1
        assert len(privileged_system.pdevice.records) == 1
        rd = privileged_system.pdevice.records[0]
        assert rd.keywords == ("cardiology",)
        assert rd.physician_id == physician.physician_id

    def test_alert_fired(self, privileged_system):
        """§VI.A countermeasure: the patient's phone gets an alert."""
        physician = self._on_duty_physician(privileged_system)
        pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, privileged_system.state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        assert privileged_system.pdevice.alerts

    def test_emergency_mode_cleared_after(self, privileged_system):
        physician = self._on_duty_physician(privileged_system)
        pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, privileged_system.state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        assert not privileged_system.pdevice.emergency_mode

    def test_wrong_passcode_rejected(self, privileged_system):
        assert not privileged_system.pdevice.check_passcode(b"wrong")


class TestMhi:
    def _setup(self, privileged_system):
        physician = privileged_system.any_physician()
        state = privileged_system.state
        state.sign_in(physician.hospital, physician.physician_id)
        pdevice = privileged_system.pdevice
        window = pdevice.vitals.generate_day(
            "2026-07-01", anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
        role = role_identity_for("2026-07-01")
        mhi_store(pdevice, privileged_system.sserver, state.public_key,
                  privileged_system.network, window, role)
        return physician, state, role

    def test_store_and_retrieve(self, privileged_system):
        physician, state, role = self._setup(privileged_system)
        # An authenticated emergency session is required for the role key.
        pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        result = mhi_retrieve(physician, state, privileged_system.sserver,
                              privileged_system.network, role, "2026-07-03")
        assert len(result.windows) == 1
        assert result.windows[0].day == "2026-07-01"

    def test_role_key_gated_by_auth(self, privileged_system):
        physician, state, role = self._setup(privileged_system)
        with pytest.raises(AccessDenied):
            mhi_retrieve(physician, state, privileged_system.sserver,
                         privileged_system.network, role, "2026-07-03")

    def test_keyword_outside_horizon_finds_nothing(self, privileged_system):
        physician, state, role = self._setup(privileged_system)
        pdevice_emergency_retrieval(
            physician, privileged_system.pdevice, state,
            privileged_system.sserver, privileged_system.network,
            ["cardiology"])
        result = mhi_retrieve(physician, state, privileged_system.sserver,
                              privileged_system.network, role, "2026-07-09")
        assert result.windows == []

    def test_mhi_store_without_assign_rejected(self, system):
        role = role_identity_for("2026-07-01")
        window = system.pdevice.vitals.generate_day("2026-07-01")
        with pytest.raises(AccessDenied):
            mhi_store(system.pdevice, system.sserver,
                      system.state.public_key, system.network, window, role)


class TestAssignWireFormat:
    def test_package_round_trips_through_wire(self, privileged_system):
        """ASSIGN parses the actual E′_μ plaintext: the received package
        equals the sent one field-for-field."""
        from repro.core.entities import AssignPackage
        package = privileged_system.family.package
        params = privileged_system.params
        restored = AssignPackage.from_bytes(package.to_bytes(params),
                                            params)
        assert restored.pseudonym.public == package.pseudonym.public
        assert restored.pseudonym.private == package.pseudonym.private
        assert restored.nu == package.nu
        assert restored.sse_keys == package.sse_keys
        assert restored.collection_id == package.collection_id
        assert restored.be_secret == package.be_secret
        assert restored.be_capacity == package.be_capacity
        assert restored.server_address == package.server_address
        assert (restored.dictionary.words()
                == package.dictionary.words())
        assert (restored.keyword_index.fid_to_server
                == package.keyword_index.fid_to_server)

    def test_received_package_is_parsed_not_shared(self, privileged_system):
        """The entity's package is a parsed copy, not the patient's
        in-memory object (no accidental shared mutable state)."""
        package = privileged_system.family.package
        assert package.keyword_index is not \
            privileged_system.patient.collection.index


class TestOnionRetrieval:
    def _with_overlay(self, stored_system):
        from repro.net.onion import OnionOverlay
        overlay = OnionOverlay(stored_system.network,
                               ["relay-%d" % i for i in range(4)])
        overlay.connect_full_mesh([stored_system.patient.address,
                                   stored_system.sserver.address])
        return overlay

    def test_onion_retrieval_works(self, stored_system):
        overlay = self._with_overlay(stored_system)
        result = common_case_retrieval(
            stored_system.patient, stored_system.sserver,
            stored_system.network, ["allergies"], onion=overlay)
        assert len(result.files) == 1
        assert result.anonymized

    def test_server_uplink_never_sees_patient(self, stored_system):
        overlay = self._with_overlay(stored_system)
        mark = stored_system.network.mark()
        common_case_retrieval(stored_system.patient, stored_system.sserver,
                              stored_system.network, ["allergies"],
                              onion=overlay)
        inbound = [r for r in stored_system.network.log[mark:]
                   if r.dst == stored_system.sserver.address]
        assert inbound
        assert all(r.src != stored_system.patient.address for r in inbound)

    def test_onion_costs_latency(self, stored_system):
        overlay = self._with_overlay(stored_system)
        direct = common_case_retrieval(
            stored_system.patient, stored_system.sserver,
            stored_system.network, ["allergies"])
        onioned = common_case_retrieval(
            stored_system.patient, stored_system.sserver,
            stored_system.network, ["allergies"], onion=overlay)
        assert onioned.stats.latency_s > direct.stats.latency_s
        assert not direct.anonymized
