"""layering fixtures: the contract table catches upward imports and
remote-party calls; in-contract code stays quiet."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source, get_rule
from repro.analysis.layering import CONTRACTS, contract_for


@pytest.fixture()
def rule():
    return get_rule("layering")


def test_crypto_may_not_import_upward(rule):
    findings = analyze_source(
        "from repro.core.wire import request\n", rule,
        path="src/repro/crypto/newmod.py")
    assert findings and "repro.crypto" in findings[0].message


def test_crypto_internal_imports_are_clean(rule):
    assert not analyze_source(
        "import hashlib\n"
        "from repro.crypto.ec import Point\n"
        "from repro.exceptions import ParameterError\n",
        rule, path="src/repro/crypto/newmod.py")


def test_sse_builds_only_on_crypto(rule):
    assert analyze_source(
        "from repro.ehr.records import PhiFile\n", rule,
        path="src/repro/sse/newmod.py")
    assert not analyze_source(
        "from repro.crypto.hmac_impl import hmac_sha256\n", rule,
        path="src/repro/sse/newmod.py")


def test_journal_sits_below_core(rule):
    findings = analyze_source(
        "from repro.core.wire import request\n", rule,
        path="src/repro/store/journal.py")
    assert findings


def test_store_may_not_rerun_protocol_flows(rule):
    assert analyze_source(
        "from repro.core.protocols.storage import phi_storage\n", rule,
        path="src/repro/store/durable.py")


def test_durable_may_import_dispatch(rule):
    # longest-prefix: durable.py gets the broad store contract, not the
    # strict journal/snapshot one.
    assert not analyze_source(
        "from repro.core.dispatch import SServerEndpoint\n", rule,
        path="src/repro/store/durable.py")


def test_net_knows_frames_not_entities(rule):
    assert analyze_source(
        "from repro.core.entities import Patient\n", rule,
        path="src/repro/net/transport/newmod.py")
    assert not analyze_source(
        "from repro.core import wire\n", rule,
        path="src/repro/net/transport/newmod.py")


def test_protocols_may_not_import_the_simulator(rule):
    assert analyze_source(
        "from repro.net.sim import Network\n", rule,
        path="src/repro/core/protocols/newflow.py")


def test_protocols_may_not_call_remote_surfaces(rule):
    findings = analyze_source("""
def flow(server, frame):
    return server.handle_store(frame)
""", rule, path="src/repro/core/protocols/newflow.py")
    assert findings and "transport" in findings[0].message


def test_protocols_frames_only_rule_spares_other_packages(rule):
    assert not analyze_source("""
def flow(server, frame):
    return server.handle_store(frame)
""", rule, path="src/repro/core/sserver.py")


def test_analysis_package_is_stdlib_only(rule):
    assert analyze_source(
        "from repro.crypto.rng import HmacDrbg\n", rule,
        path="src/repro/analysis/newrule.py")


def test_longest_prefix_contract_selection():
    assert contract_for("repro.store.journal").prefix == \
        "repro.store.journal"
    assert contract_for("repro.store.durable").prefix == "repro.store"
    assert contract_for("repro.core.wire") is None
    for contract in CONTRACTS:
        assert contract.why, "every contract must explain itself"


def test_shard_ring_is_pure_placement_math(rule):
    # The ring sits below dispatch: even wire is off-limits.
    assert analyze_source(
        "from repro.core.wire import make_frame\n", rule,
        path="src/repro/core/shard.py")
    assert analyze_source(
        "from repro.core.dispatch import bind_sserver\n", rule,
        path="src/repro/core/shard.py")
    assert not analyze_source(
        "import bisect\nimport hashlib\n"
        "from repro.exceptions import ParameterError\n",
        rule, path="src/repro/core/shard.py")


def test_router_forwards_frames_without_entity_knowledge(rule):
    # wire + shard + exceptions are the router's whole world.
    assert not analyze_source(
        "import repro.core.wire as wire\n"
        "from repro.core.shard import HashRing\n"
        "from repro.exceptions import TransportError\n",
        rule, path="src/repro/core/router.py")
    for banned in ("from repro.core.sserver import StorageServer\n",
                   "from repro.core.entities import Patient\n",
                   "from repro.core.protocols.messages import seal\n",
                   "from repro.crypto.rng import HmacDrbg\n"):
        findings = analyze_source(banned, rule,
                                  path="src/repro/core/router.py")
        assert findings and "repro.core.router" in findings[0].message


def test_router_is_not_frames_only():
    # The router legitimately dispatches co-located shards directly via
    # .handle_frame(); the frames-only call ban applies to protocol
    # flows, not to the frame-forwarding router itself.
    contract = contract_for("repro.core.router")
    assert contract is not None
    assert contract.prefix == "repro.core.router"
    assert not contract.frames_only
    shard = contract_for("repro.core.shard")
    assert shard is not None and shard.prefix == "repro.core.shard"
