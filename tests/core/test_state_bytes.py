"""Snapshot and migration bytes of a fixed-seed S-server, pinned.

``StorageServer.export_state`` is what a durable shard writes into its
snapshots, and ``export_partition`` is what a rebalance ships between
shards.  Both must stay byte-identical across refactors of the server's
internals: an old snapshot must keep loading, and two shards running
different builds must agree on a migrated slice.  The deployment runs
over ``LoopbackTransport``, whose clock is simulated, so every seal
timestamp — and with it every replay-guard entry — is reproducible.
A collection entry whose index mode is anything but ``live`` fails to
load instead of being read some other way.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import dispatch
from repro.core.protocols.messages import pack_fields, unpack_fields
from repro.core.protocols.mhi import mhi_store, role_identity_for
from repro.core.protocols.privilege import assign_privilege
from repro.core.protocols.storage import private_phi_storage
from repro.core.sserver import StorageServer
from repro.core.system import build_system
from repro.crypto.rng import HmacDrbg
from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.exceptions import ReproError
from repro.net.transport import LoopbackTransport

#: Re-recorded when ``LoopbackTransport``'s clock went from 0.1 ms to
#: 1 ms per record.  The seal timestamps moved, and with them two parts
#: of the exports: the replay-guard window, and the id of the second
#: collection, which is minted from its store envelope's MAC tag (the
#: first upload is sealed at time 0 under either clock).  Indexes,
#: files, group secrets and the MHI window are unchanged.  With every
#: key named, a partition is the whole snapshot.
EXPORT_STATE_SHA256 = (
    "0f42ff857f47ad2e1bebb36be743ddabd9378cf61887aa044f7af9669ad78e2f")
EXPORT_PARTITION_SHA256 = {
    "all": EXPORT_STATE_SHA256,
    "first collection": (
        "c330226233aa2a7ff714e00e1a14e791fa9bed75605f6e655fe2640cc37b3973"),
    "second collection and the role": (
        "f30c0fe2526b4ccf098cc9ad60aa240577db5e67ae7a382feaed8d9ad8d64fa2"),
}


def pinned_server():
    """Two stored collections, one ASSIGN and one MHI window, all at
    simulated times; returns the S-server holding them."""
    system = build_system(seed=b"state-bytes-pin")
    net = LoopbackTransport()
    patient, server = system.patient, system.sserver
    dispatch.bind_sserver(net, server)
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       "Severe penicillin allergy; carries epinephrine.",
                       server.address)
    private_phi_storage(patient, server, net)
    patient.add_record(Category.CARDIOLOGY, ["cardiology", "heart-attack"],
                       "Prior MI (2024); ejection fraction 45%.",
                       server.address)
    private_phi_storage(patient, server, net)
    assign_privilege(patient, system.pdevice, server, net)
    window = system.pdevice.vitals.generate_day(
        "2026-07-01", anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
    mhi_store(system.pdevice, server, system.state.public_key, net, window,
              role_identity_for("2026-07-01"))
    return server


@pytest.fixture(scope="module")
def server():
    server = pinned_server()
    assert server.collection_count() == 2
    assert server.mhi_count() == 1
    return server


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_export_state_bytes_pinned(server):
    assert _sha256(server.export_state()) == EXPORT_STATE_SHA256


def test_export_partition_bytes_pinned(server):
    cids, roles = server.held_keys()
    slices = {"all": (cids, roles),
              "first collection": (cids[:1], []),
              "second collection and the role": (cids[1:], roles)}
    assert {name: _sha256(server.export_partition(*keys))
            for name, keys in slices.items()} == EXPORT_PARTITION_SHA256


def _fresh(server):
    """An empty server with the same parameters and identity key."""
    return StorageServer("fresh", server.params, server.identity_key,
                         HmacDrbg(b"state-bytes-fresh"))


def _with_mode(blob: bytes, mode: bytes) -> bytes:
    """``blob`` with the last collection entry's index-mode field (its
    sixth) rewritten to ``mode``."""
    collections_b, mhi_b, guard_b = unpack_fields(blob, expected=3)
    entries = unpack_fields(collections_b)
    fields = unpack_fields(entries[-1], expected=6)
    entries[-1] = pack_fields(*fields[:5], mode)
    return pack_fields(pack_fields(*entries), mhi_b, guard_b)


@pytest.mark.parametrize("mode", [b"blob", b"xyz"])
@pytest.mark.parametrize("load", ["load_state", "install_partition"])
def test_unknown_index_mode_is_refused(server, load, mode):
    blob = _with_mode(server.export_state(), mode)
    with pytest.raises(ReproError, match="index mode"):
        getattr(_fresh(server), load)(blob)
