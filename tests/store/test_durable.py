"""Durable endpoint semantics: crash/recover lifecycle, replay-guard
persistence, snapshots, the keystore record, and corruption refusal."""

from __future__ import annotations

import os

import pytest

from repro.ehr.records import Category
from repro.core import wire
from repro.core.protocols.base import with_policies
from repro.core.protocols.emergency import pdevice_emergency_retrieval
from repro.core.protocols.privilege import assign_privilege
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.protocols.messages import pack_fields, unpack_fields
from repro.core.system import build_system
from repro.net.transport import FaultPolicy, LoopbackTransport, RetryPolicy
from repro.exceptions import (JournalCorruptionError, ParameterError,
                              RecoveryError, ReplayError,
                              TransientTransportError)
from repro.store import (DurableStore, JournalWriter, bind_durable_aserver,
                         bind_durable_pdevice, bind_durable_sserver,
                         read_journal)
from repro.store.journal import K_FRAME, K_SNAP

ALLERGY = "Severe penicillin allergy; carries epinephrine."
CARDIO = "Prior MI (2024); ejection fraction 45%."


def _deployment(tmp_path, seed=b"durable-tests", transport=None,
                **store_kwargs):
    system = build_system(seed=seed)
    faults = FaultPolicy(seed=0)
    net = with_policies(transport or LoopbackTransport(),
                        retry=RetryPolicy(attempt_timeout_s=0.2,
                                          base_backoff_s=0.01),
                        faults=faults)
    data_dir = str(tmp_path)
    ds = bind_durable_sserver(
        net, system.sserver, DurableStore(data_dir, "sserver",
                                          **store_kwargs),
        fault_policy=faults)
    da = bind_durable_aserver(
        net, system.state, DurableStore(data_dir, "aserver", **store_kwargs),
        fault_policy=faults)
    dp = bind_durable_pdevice(
        net, system.pdevice, system.params,
        DurableStore(data_dir, "pdevice", **store_kwargs),
        fault_policy=faults)
    return system, net, faults, (ds, da, dp)


def _seed_and_store(system, net):
    patient, server = system.patient, system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       ALLERGY, server.address)
    patient.add_record(Category.CARDIOLOGY, ["cardiology", "heart-attack"],
                       CARDIO, server.address)
    private_phi_storage(patient, server, net)
    return patient, server


def _spy_frames(durable):
    """Capture every frame the endpoint handles (for replay probes)."""
    frames: list[bytes] = []
    original = durable.handle_frame

    def spy(frame):
        frames.append(frame)
        return original(frame)

    durable.handle_frame = spy
    return frames


def _first_with_opcode(frames, opcode):
    for frame in frames:
        if wire.parse_frame(frame)[0] == opcode:
            return frame
    raise AssertionError("no %r frame captured" % opcode)


class TestCrashRecover:
    def test_state_identical_after_crash_and_restart(self, tmp_path):
        system, net, faults, (ds, da, dp) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        before = ds.export_state()
        faults.crash(server.address)
        faults.restart(server.address)
        assert ds.export_state() == before
        result = common_case_retrieval(patient, server, net, ["allergies"])
        assert [f.medical_content for f in result.files] == [ALLERGY]

    def test_double_recovery_is_idempotent(self, tmp_path):
        system, net, faults, (ds, da, dp) = _deployment(tmp_path)
        _seed_and_store(system, net)
        faults.crash(system.sserver.address)
        faults.restart(system.sserver.address)
        first = ds.export_state()
        faults.crash(system.sserver.address)
        faults.restart(system.sserver.address)
        assert ds.export_state() == first

    def test_crashed_endpoint_refuses_with_typed_error(self, tmp_path):
        system, net, faults, _ = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        faults.crash(server.address)
        from repro.exceptions import TransientTransportError
        with pytest.raises(TransientTransportError):
            common_case_retrieval(patient, server, net, ["allergies"])
        faults.restart(server.address)
        result = common_case_retrieval(patient, server, net, ["allergies"])
        assert [f.medical_content for f in result.files] == [ALLERGY]

    def test_crash_during_write_loses_only_unacked_mutation(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        count_before = server.collection_count()
        faults.crash(server.address, during_write=True, restart_after=1)
        patient.add_record(Category.ALLERGIES, ["latex"],
                           "Latex sensitivity.", server.address)
        # The client-side retry re-presents the upload after the torn
        # write killed the server mid-append; recovery truncates the
        # fragment and the retried upload lands.
        private_phi_storage(patient, server, net)
        assert ds._store.torn_repairs == 1
        assert ds._store.last_torn_loss > 0
        assert server.collection_count() == count_before + 1
        result = common_case_retrieval(patient, server, net, ["latex"])
        assert [f.medical_content for f in result.files] == [
            "Latex sensitivity."]

    def test_during_write_without_durable_endpoint_rejected(self):
        faults = FaultPolicy(seed=0)
        with pytest.raises(ParameterError, match="durable endpoint"):
            faults.crash("nowhere://x", during_write=True)


class TestReplayGuardPersistence:
    """Regression: before the durable layer, a crash-restart emptied the
    replay guards, silently reopening the replay window."""

    def test_duplicate_store_rejected_after_restart(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        frames = _spy_frames(ds)
        patient, server = _seed_and_store(system, net)
        store_frame = _first_with_opcode(frames, wire.OP_STORE)
        faults.crash(server.address)
        faults.restart(server.address)
        reply = net.request(patient.address, server.address, store_frame,
                            "dup-after-restart")
        with pytest.raises(ReplayError):
            wire.parse_response(reply)

    def test_duplicate_search_rejected_after_restart(self, tmp_path):
        # Read ops are not journaled as frames; their guard commitments
        # ride K_GUARD records and must equally survive the crash.
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        frames = _spy_frames(ds)
        patient, server = _seed_and_store(system, net)
        common_case_retrieval(patient, server, net, ["allergies"])
        search_frame = _first_with_opcode(frames, wire.OP_SEARCH)
        faults.crash(server.address)
        faults.restart(server.address)
        reply = net.request(patient.address, server.address, search_frame,
                            "dup-search-after-restart")
        with pytest.raises(ReplayError):
            wire.parse_response(reply)

    def test_duplicate_emergency_auth_rejected_after_restart(self, tmp_path):
        system, net, faults, (_, da, _) = _deployment(tmp_path)
        frames = _spy_frames(da)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                    server, net, ["cardiology"])
        auth_frame = _first_with_opcode(frames, wire.OP_EMERGENCY_AUTH)
        faults.crash(system.state.address)
        faults.restart(system.state.address)
        reply = net.request(physician.address, system.state.address,
                            auth_frame, "dup-auth-after-restart")
        with pytest.raises(ReplayError):
            wire.parse_response(reply)


class TestSnapshots:
    def test_snapshot_every_writes_snapshots_and_recovers(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(
            tmp_path, snapshot_every=1)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        snaps = [f for f in os.listdir(str(tmp_path))
                 if f.startswith("sserver.snap.")]
        assert snaps, "snapshot_every=1 wrote no snapshots"
        before = ds.export_state()
        faults.crash(server.address)
        faults.restart(server.address)
        assert ds.export_state() == before

    def test_recovery_falls_back_over_damaged_snapshot(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(
            tmp_path, snapshot_every=1)
        patient, server = _seed_and_store(system, net)
        before = ds.export_state()
        # Damage the newest snapshot: recovery must fall back to an
        # older one (or genesis) and still replay to the same state.
        snaps = sorted(f for f in os.listdir(str(tmp_path))
                       if f.startswith("sserver.snap."))
        with open(os.path.join(str(tmp_path), snaps[-1]), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        faults.crash(server.address)
        faults.restart(server.address)
        assert ds.export_state() == before

    def test_manual_snapshot_returns_sequential_ids(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        _seed_and_store(system, net)
        assert ds.snapshot() == 0
        assert ds.snapshot() == 1

    def test_torn_snapshot_record_takes_the_endpoint_down(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        before = ds.export_state()
        faults.crash(server.address, during_write=True)
        with pytest.raises(TransientTransportError):
            ds.snapshot()
        assert faults.is_crashed(server.address)
        with pytest.raises(TransientTransportError):
            ds.handle_frame(b"")
        faults.restart(server.address)
        assert ds._store.torn_repairs == 1
        assert ds.export_state() == before
        # The next upload is journaled: it survives another restart.
        patient.add_record(Category.ALLERGIES, ["latex"],
                           "Latex sensitivity.", server.address)
        private_phi_storage(patient, server, net)
        faults.crash(server.address)
        faults.restart(server.address)
        result = common_case_retrieval(patient, server, net, ["latex"])
        assert [f.medical_content for f in result.files] == [
            "Latex sensitivity."]

    def test_snapshot_after_a_torn_record_replaces_its_file(
            self, tmp_path, monkeypatch):
        """The file of a snapshot whose K_SNAP record tore is named by no
        record; the next snapshot takes its id instead of leaving it."""
        from repro.store import durable
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        _, server = _seed_and_store(system, net)
        before = ds.export_state()
        faults.crash(server.address, during_write=True)
        with pytest.raises(TransientTransportError):
            ds.snapshot()
        faults.restart(server.address)
        assert ds.snapshot() == 0
        assert sorted(f for f in os.listdir(str(tmp_path))
                      if f.startswith("sserver.snap.")) == ["sserver.snap.0"]
        loaded = []
        original = durable.read_snapshot

        def reading(data_dir, name, snapshot_id):
            loaded.append(snapshot_id)
            return original(data_dir, name, snapshot_id)

        monkeypatch.setattr(durable, "read_snapshot", reading)
        faults.crash(server.address)
        faults.restart(server.address)
        assert loaded == [0]
        assert ds.export_state() == before


class TestCorruptionRefusal:
    """Committed journal damage is detected at recovery, never served."""

    def test_flipped_bit_in_committed_record_blocks_recovery(self, tmp_path):
        system, net, faults, (ds, _, _) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        faults.crash(server.address)
        path = os.path.join(str(tmp_path), "sserver.journal")
        with open(path, "r+b") as fh:
            data = fh.read()
            fh.seek(len(data) // 2)
            byte = fh.read(1)
            fh.seek(len(data) // 2)
            fh.write(bytes([byte[0] ^ 0x40]))
        with pytest.raises(JournalCorruptionError):
            faults.restart(server.address)

    def test_aserver_checkpoint_mismatch_blocks_recovery(self, tmp_path):
        system, net, faults, (_, da, _) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                    server, net, ["cardiology"])
        faults.crash(system.state.address)
        # Rewrite the journal with a forged checkpoint on the last
        # mutating frame (valid CRC, wrong commitment): the replayed
        # audit log can no longer match what was committed.
        path = os.path.join(str(tmp_path), "aserver.journal")
        records = read_journal(path)
        last_frame = max(i for i, r in enumerate(records)
                         if r.kind == K_FRAME)
        os.remove(path)
        with JournalWriter(path) as writer:
            for i, record in enumerate(records):
                payload = record.payload
                if i == last_frame:
                    frame, _extra = unpack_fields(payload, expected=2)
                    forged = pack_fields((1).to_bytes(8, "big"),
                                         b"\x00" * 32, b"\x00" * 32)
                    payload = pack_fields(frame, forged)
                writer.append(record.kind, payload, record.ts_ms)
        with pytest.raises(RecoveryError, match="checkpoint"):
            faults.restart(system.state.address)


class _AdvancingClock(LoopbackTransport):
    """A wall-clock stand-in: every read of ``now`` moves time 0.37 ms
    on, so a handler never reads the instant its frame arrived at."""

    @property
    def now(self) -> float:
        self._now += 0.00037
        return self._now


class TestAdvancingClockRecovery:
    def test_aserver_replays_break_glass_auths_byte_identically(
            self, tmp_path):
        # Replay runs each journaled frame under the journaled timestamp;
        # the live handler must have minted its TR (t_issue) and audit
        # leaf under that same value, or the recovered audit log would
        # not match the checkpoint committed before the crash.
        system, net, faults, _ = _deployment(tmp_path,
                                             transport=_AdvancingClock())
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        for keyword in ("cardiology", "allergies", "cardiology"):
            pdevice_emergency_retrieval(physician, system.pdevice,
                                        system.state, server, net,
                                        [keyword])
        log = system.state.audit_log
        assert len(log) >= 3
        entries = [log.entry(i) for i in range(len(log))]
        checkpoint = log.checkpoint()
        faults.crash(system.state.address)
        faults.restart(system.state.address)
        log = system.state.audit_log
        assert [log.entry(i) for i in range(len(log))] == entries
        assert log.checkpoint() == checkpoint


class TestKeystore:
    def test_assign_replays_from_journaled_key(self, tmp_path):
        # μ reaches the durable P-device via rekey() during ASSIGN and is
        # journaled as the device's keystore; recovery must decrypt the
        # replayed ASSIGN frame with it even when the wrapper was built
        # without a pre-shared key (the fresh-process case).
        system, net, faults, (_, _, dp) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        assert system.pdevice.package is not None
        dp._mu_value = None  # forget the in-memory copy
        faults.crash(system.pdevice.address)
        faults.restart(system.pdevice.address)
        assert system.pdevice.package is not None
        assert dp._mu_value == patient.preshared_key(system.pdevice.name)

    def test_torn_key_record_takes_the_device_down(self, tmp_path):
        system, net, faults, (_, _, dp) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        device = system.pdevice
        faults.crash(device.address, during_write=True)
        with pytest.raises(TransientTransportError):
            assign_privilege(patient, device, server, net)
        assert faults.is_crashed(device.address)
        assert dp._mu_value is None  # the torn μ never took effect
        faults.restart(device.address)
        assert dp._store.torn_repairs == 1
        # The retried ASSIGN journals μ and the package: both survive.
        assign_privilege(patient, device, server, net)
        faults.crash(device.address)
        faults.restart(device.address)
        assert device.package is not None
        assert dp._mu_value == patient.preshared_key(device.name)

    def test_rd_records_and_alerts_survive(self, tmp_path):
        system, net, faults, (_, _, dp) = _deployment(tmp_path)
        patient, server = _seed_and_store(system, net)
        assign_privilege(patient, system.pdevice, server, net)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                    server, net, ["cardiology"])
        rds = [rd.to_bytes() for rd in system.pdevice.records]
        alerts = system.pdevice.alerts
        assert rds and alerts
        faults.crash(system.pdevice.address)
        faults.restart(system.pdevice.address)
        assert [rd.to_bytes() for rd in system.pdevice.records] == rds
        assert system.pdevice.alerts == alerts
        for rd in system.pdevice.records:
            assert rd.verify(system.params, system.state.public_key)
