"""Shared fixtures: small pairing parameters, a PKG, and system builders.

Session-scoped where the object is immutable (domain parameters, extracted
keys); function-scoped where tests mutate state (full systems).  The
transport helpers are plain functions (``from conftest import ...``) so
suites can run one seeded deployment per backend and compare them.
"""

from __future__ import annotations

import pytest

from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.params import test_params as _test_params
from repro.crypto.rng import HmacDrbg
from repro.net.transport import AsyncTransport, LoopbackTransport

#: Every transport backend; parity and chaos suites run on each.
BACKENDS = ["loopback", "sim", "async"]


def make_transport(backend: str, system):
    """A carrier for ``system``: in-process dispatch, the system's own
    simulated network, or the async TCP mux on ephemeral ports."""
    if backend == "loopback":
        return LoopbackTransport()
    if backend == "sim":
        return system.network
    if backend == "async":
        return AsyncTransport()
    raise ValueError("unknown transport backend %r" % backend)


def close_transport(net) -> None:
    """Release a real-socket carrier's ports and threads."""
    if isinstance(net, AsyncTransport):
        net.close()


@pytest.fixture(scope="session")
def params():
    """The fast 160-bit test parameters (insecure, test-only)."""
    return _test_params()


@pytest.fixture()
def rng():
    """A fresh deterministic DRBG per test."""
    return HmacDrbg(b"pytest-seed")


@pytest.fixture(scope="session")
def pkg(params):
    """A PKG with a fixed master secret (read-only across tests)."""
    return PrivateKeyGenerator(params, HmacDrbg(b"pkg-seed"))


@pytest.fixture()
def system():
    """A freshly built single-hospital HCPP system."""
    from repro.core.system import build_system
    return build_system(seed=b"pytest-system")


@pytest.fixture()
def stored_system(system):
    """A system with three PHI records already uploaded."""
    from repro.core.protocols.storage import private_phi_storage
    from repro.ehr.records import Category
    patient = system.patient
    server = system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       "Severe penicillin allergy; carries epinephrine.",
                       server.address)
    patient.add_record(Category.CARDIOLOGY, ["cardiology", "heart-attack"],
                       "Prior MI (2024); ejection fraction 45%.",
                       server.address)
    patient.add_record(Category.DRUG_HISTORY, ["drug-history", "warfarin"],
                       "Warfarin 5 mg daily; INR target 2-3.",
                       server.address)
    private_phi_storage(patient, server, system.network)
    return system


@pytest.fixture()
def privileged_system(stored_system):
    """stored_system plus ASSIGN run for both family and P-device."""
    from repro.core.protocols.privilege import assign_privilege
    assign_privilege(stored_system.patient, stored_system.family,
                     stored_system.sserver, stored_system.network)
    assign_privilege(stored_system.patient, stored_system.pdevice,
                     stored_system.sserver, stored_system.network)
    return stored_system
