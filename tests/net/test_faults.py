"""Chaos tests: fault injection, retry recovery, and failure semantics.

Every scenario here must end in one of exactly two ways: success after
retries, or a clean *typed* error — never a hang, never a silent wrong
answer.  The matrix drives the real protocol suite through all three
transport backends under seeded drop/duplicate schedules, then probes
each fault kind (partition, crash, corruption, truncation, duplication)
in isolation, including proof that duplicates injected *below* the
protocol layer are rejected by the receiver-side ``ReplayGuard``s.
"""

from __future__ import annotations

import pytest

from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.core import wire
from repro.core.federation import bind_federated_sserver
from repro.core.protocols.base import with_policies
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.messages import pack_fields, seal
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.system import build_system
from repro.net.transport import (FaultPolicy, LoopbackTransport,
                                 RetryPolicy, parse_fault_spec)
from repro.exceptions import (ParameterError, PartialResultError,
                              ReplayError, ReproError,
                              TransientTransportError, TransportError)

from conftest import BACKENDS, close_transport, make_transport

ALLERGY_TEXT = "Severe penicillin allergy; carries epinephrine."
CARDIO_TEXT = "Prior MI (2024); ejection fraction 45%."

# Seed chosen so the 5% drop + 2% duplication schedule actually fires
# at least once each over the ~30 frames of the full suite.
CHAOS_SEED = 15


class _Echo:
    """Minimal endpoint: echoes the frame payload back."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def attach(self, transport) -> None:
        self.transport = transport

    def handle_frame(self, frame: bytes) -> bytes:
        self.frames.append(frame)
        return wire.ok_response(frame)


def _seeded_patient(system):
    patient, server = system.patient, system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       ALLERGY_TEXT, server.address)
    patient.add_record(Category.CARDIOLOGY, ["cardiology", "heart-attack"],
                       CARDIO_TEXT, server.address)
    return patient, server


def _run_full_suite(net, system):
    """All six protocols end-to-end; returns per-protocol stats."""
    patient, server = _seeded_patient(system)
    stats = {}
    stats["storage"] = private_phi_storage(patient, server, net).stats
    stats["assign-family"] = assign_privilege(patient, system.family,
                                              server, net).stats
    stats["assign-pdevice"] = assign_privilege(patient, system.pdevice,
                                               server, net).stats
    rt = common_case_retrieval(patient, server, net, ["allergies"])
    assert [f.medical_content for f in rt.files] == [ALLERGY_TEXT]
    stats["retrieval"] = rt.stats
    fam = family_based_retrieval(system.family, server, net, ["cardiology"])
    assert [f.medical_content for f in fam.files] == [CARDIO_TEXT]
    stats["family-emergency"] = fam.stats
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    window = system.pdevice.vitals.generate_day(
        "2026-07-01", anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
    role = role_identity_for("2026-07-01")
    stats["mhi-store"] = mhi_store(system.pdevice, server,
                                   system.state.public_key, net, window,
                                   role).stats
    pd = pdevice_emergency_retrieval(physician, system.pdevice,
                                     system.state, server, net,
                                     ["cardiology"])
    assert [f.medical_content for f in pd.files] == [CARDIO_TEXT]
    stats["pdevice-emergency"] = pd.stats
    stats["mhi-retrieve"] = mhi_retrieve(physician, system.state, server,
                                         net, role, "2026-07-03").stats
    stats["revoke"] = revoke_privilege(patient, system.pdevice.name,
                                       server, net).stats
    return stats


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3)
        assert policy.backoff_s(1) == pytest.approx(0.05)
        assert policy.backoff_s(2) == pytest.approx(0.10)
        assert policy.backoff_s(3) == pytest.approx(0.20)
        assert policy.backoff_s(4) == pytest.approx(0.30)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.30)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)

    def test_negative_timings_rejected(self):
        for field in ("base_backoff_s", "max_backoff_s",
                      "attempt_timeout_s", "deadline_s"):
            with pytest.raises(ParameterError):
                RetryPolicy(**{field: -0.1})

    def test_backoff_index_is_one_based(self):
        with pytest.raises(ParameterError):
            RetryPolicy().backoff_s(0)

    def test_jitter_default_off_keeps_pinned_schedule(self):
        # jitter_seed=None must reproduce the exact undithered values
        # every deployment to date has been tuned against.
        plain = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3)
        assert plain.jitter_seed is None
        assert plain.backoff_s(1) == pytest.approx(0.05)
        assert plain.backoff_s(4) == pytest.approx(0.30)

    def test_jitter_is_seeded_and_deterministic(self):
        a = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3,
                        jitter_seed=7)
        b = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3,
                        jitter_seed=7)
        c = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3,
                        jitter_seed=8)
        schedule_a = [a.backoff_s(k) for k in range(1, 9)]
        assert schedule_a == [b.backoff_s(k) for k in range(1, 9)]
        # Different seeds decorrelate (no retry stampede in lockstep).
        assert schedule_a != [c.backoff_s(k) for k in range(1, 9)]

    def test_jitter_stays_within_the_nominal_envelope(self):
        plain = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3)
        jittered = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.3,
                               jitter_seed=3)
        for k in range(1, 20):
            wait = jittered.backoff_s(k)
            # Full jitter: uniform in (0, nominal] — never zero (a 0s
            # wait retries in the slot that just failed), never above
            # the capped exponential.
            assert 0.0 < wait <= plain.backoff_s(k)


class TestFaultPolicy:
    def test_rates_validated(self):
        with pytest.raises(ParameterError):
            FaultPolicy(drop_rate=1.5)
        with pytest.raises(ParameterError):
            FaultPolicy(duplicate_rate=-0.1)
        with pytest.raises(ParameterError):
            FaultPolicy(delay_s=-1.0)

    def test_same_seed_same_schedule(self):
        frames = [b"frame-%d" % i for i in range(200)]
        kwargs = dict(seed=42, drop_rate=0.2, duplicate_rate=0.2,
                      corrupt_rate=0.1, truncate_rate=0.1, delay_rate=0.1)
        a, b = FaultPolicy(**kwargs), FaultPolicy(**kwargs)
        plans_a = [a.plan("x", "y", "l", f) for f in frames]
        plans_b = [b.plan("x", "y", "l", f) for f in frames]
        assert plans_a == plans_b
        assert a.counts == b.counts
        assert a.counts["dropped"] > 0 and a.counts["duplicated"] > 0

    def test_zero_rates_do_not_shift_the_schedule(self):
        # The same seed must produce the same drop decisions whether or
        # not unrelated rates are armed (each consult burns a fixed
        # number of draws).
        only_drop = FaultPolicy(seed=9, drop_rate=0.3)
        drop_and_dup = FaultPolicy(seed=9, drop_rate=0.3,
                                   duplicate_rate=0.0)
        frames = [b"f%d" % i for i in range(100)]
        drops_a = [only_drop.plan("x", "y", "l", f).drop for f in frames]
        drops_b = [drop_and_dup.plan("x", "y", "l", f).drop
                   for f in frames]
        assert drops_a == drops_b

    def test_corruption_keeps_length_changes_one_byte(self):
        policy = FaultPolicy(seed=1, corrupt_rate=1.0)
        frame = bytes(range(64))
        plan = policy.plan("x", "y", "l", frame)
        assert plan.corrupted and len(plan.frame) == len(frame)
        assert sum(1 for a, b in zip(plan.frame, frame) if a != b) == 1

    def test_truncation_shortens(self):
        policy = FaultPolicy(seed=1, truncate_rate=1.0)
        plan = policy.plan("x", "y", "l", bytes(64))
        assert plan.truncated and len(plan.frame) < 64

    def test_parse_fault_spec(self):
        policy = parse_fault_spec("drop=0.05, dup=0.02, seed=7")
        assert policy.drop_rate == pytest.approx(0.05)
        assert policy.duplicate_rate == pytest.approx(0.02)

    def test_parse_fault_spec_rejects_unknown_key(self):
        with pytest.raises(ParameterError, match="bad fault spec"):
            parse_fault_spec("jitter=0.5")

    def test_parse_fault_spec_rejects_bad_value(self):
        with pytest.raises(ParameterError, match="bad fault value"):
            parse_fault_spec("drop=lots")


class TestChaosMatrix:
    """The acceptance scenario: 5% drop + 2% duplication, all six
    protocols, every backend — success via retries, accounting kept."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_protocols_complete_under_drop_and_dup(self, backend):
        system = build_system(seed=b"chaos-matrix")
        faults = FaultPolicy(seed=CHAOS_SEED, drop_rate=0.05,
                             duplicate_rate=0.02)
        net = with_policies(make_transport(backend, system),
                            retry=RetryPolicy(attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        try:
            stats = _run_full_suite(net, system)
        finally:
            close_transport(net)
        # The schedule must actually have hurt us, and every lost
        # attempt must be visible in the per-protocol accounting.
        assert faults.counts["dropped"] >= 1
        assert faults.counts["duplicated"] >= 1
        assert sum(s.retries for s in stats.values()) \
            == faults.counts["dropped"]
        # Lost attempts still bill their bytes.
        for s in stats.values():
            assert s.bytes_total > 0 and s.messages > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chaos_matrix_through_the_router(self, backend):
        # Same matrix, S-server federated behind the 2-shard router:
        # every drop/duplicate now crosses the scatter-gather path, and
        # the router's TransientTransportError propagation must keep
        # the client-side retry accounting exact.
        system = build_system(seed=b"chaos-router")
        faults = FaultPolicy(seed=CHAOS_SEED, drop_rate=0.05,
                             duplicate_rate=0.02)
        net = with_policies(make_transport(backend, system),
                            retry=RetryPolicy(attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        try:
            bind_federated_sserver(net, system.sserver, 2)
            stats = _run_full_suite(net, system)
        finally:
            close_transport(net)
        assert faults.counts["dropped"] >= 1
        assert faults.counts["duplicated"] >= 1
        assert sum(s.retries for s in stats.values()) \
            == faults.counts["dropped"]

    def test_fault_free_run_and_chaos_run_agree_on_plaintext(self):
        # Same deployment, clean wire: the chaos run above returned the
        # same plaintext a clean run does (no silent wrong answer).
        system = build_system(seed=b"chaos-matrix")
        stats = _run_full_suite(LoopbackTransport(), system)
        assert all(s.retries == 0 for s in stats.values())


class TestPartition:
    def _bound_echo(self):
        transport = LoopbackTransport()
        transport.set_retry_policy(RetryPolicy(
            max_attempts=3, base_backoff_s=0.1, attempt_timeout_s=1.0,
            deadline_s=10.0))
        transport.bind("echo://sv", _Echo())
        return transport

    def test_partitioned_endpoint_fails_typed_within_deadline(self):
        transport = self._bound_echo()
        faults = FaultPolicy(seed=0)
        transport.install_faults(faults)
        faults.partition("echo://sv")
        before = transport.now
        with pytest.raises(TransientTransportError, match="partition"):
            transport.request("cl", "echo://sv", b"ping", "ping")
        # Bounded: 3 attempts × 1.0s timeout + backoffs, well under the
        # 10s deadline — and strictly finite (no hang).
        assert transport.now - before <= 10.0
        assert faults.counts["partitioned"] == 3

    def test_heal_restores_delivery(self):
        transport = self._bound_echo()
        faults = FaultPolicy(seed=0)
        transport.install_faults(faults)
        faults.partition("echo://sv")
        with pytest.raises(TransientTransportError):
            transport.request("cl", "echo://sv", b"ping", "ping")
        faults.heal("echo://sv")
        reply = transport.request("cl", "echo://sv", b"ping", "ping")
        assert wire.parse_response(reply) == b"ping"

    def test_deadline_bounds_total_delivery_time(self):
        transport = LoopbackTransport()
        transport.set_retry_policy(RetryPolicy(
            max_attempts=50, base_backoff_s=0.5, max_backoff_s=0.5,
            attempt_timeout_s=1.0, deadline_s=4.0))
        transport.bind("echo://sv", _Echo())
        faults = FaultPolicy(seed=0)
        transport.install_faults(faults)
        faults.partition("echo://sv")
        before = transport.now
        with pytest.raises(TransientTransportError):
            transport.request("cl", "echo://sv", b"ping", "ping")
        # 50 attempts would take 75s; the deadline cut it off early.
        assert transport.now - before < 7.0


class TestCrashRestart:
    def test_crashed_endpoint_refuses_then_recovers(self):
        transport = LoopbackTransport()
        transport.set_retry_policy(RetryPolicy(max_attempts=2,
                                               base_backoff_s=0.01))
        transport.bind("echo://sv", _Echo())
        faults = FaultPolicy(seed=0)
        transport.install_faults(faults)
        faults.crash("echo://sv")
        with pytest.raises(TransientTransportError,
                           match="connection refused"):
            transport.request("cl", "echo://sv", b"ping", "ping")
        assert faults.counts["refused"] == 2
        faults.restart("echo://sv")
        reply = transport.request("cl", "echo://sv", b"ping", "ping")
        assert wire.parse_response(reply) == b"ping"


class TestCorruptionAndTruncation:
    """Mutated frames must surface as typed errors, never as silently
    wrong results — the MAC/codec layers are the tripwire."""

    def _stored_system(self):
        system = build_system(seed=b"chaos-corrupt")
        patient, server = _seeded_patient(system)
        net = LoopbackTransport()
        private_phi_storage(patient, server, net)
        return system, patient, server

    def test_corrupted_frames_yield_typed_errors(self):
        system, patient, server = self._stored_system()
        net = with_policies(LoopbackTransport(),
                            faults=FaultPolicy(seed=3, corrupt_rate=1.0))
        with pytest.raises(ReproError):
            private_phi_storage(patient, server, net)

    def test_truncated_frames_yield_typed_errors(self):
        system, patient, server = self._stored_system()
        net = with_policies(LoopbackTransport(),
                            faults=FaultPolicy(seed=3, truncate_rate=1.0))
        with pytest.raises(ReproError):
            private_phi_storage(patient, server, net)


class TestDuplicateAbsorption:
    """Duplicates injected below the protocol layer reach the server
    twice; the receiver-side ReplayGuards must reject the second copy
    while the protocol completes normally on the first."""

    def test_replay_guard_rejects_injected_duplicates(self):
        system = build_system(seed=b"chaos-dup")
        patient, server = _seeded_patient(system)
        faults = FaultPolicy(seed=1, duplicate_rate=1.0)
        net = with_policies(LoopbackTransport(), faults=faults)

        private_phi_storage(patient, server, net)
        result = common_case_retrieval(patient, server, net, ["allergies"])
        assert [f.medical_content for f in result.files] == [ALLERGY_TEXT]

        assert faults.duplicate_replies, "no duplicates were injected"
        for label, reply in faults.duplicate_replies:
            with pytest.raises(ReplayError, match="replayed"):
                wire.parse_response(reply)

    def test_duplicate_emergency_auth_is_rejected(self):
        system = build_system(seed=b"chaos-dup-auth")
        patient, server = _seeded_patient(system)
        clean = LoopbackTransport()
        private_phi_storage(patient, server, clean)
        assign_privilege(patient, system.pdevice, server, clean)

        faults = FaultPolicy(seed=1, duplicate_rate=1.0)
        net = with_policies(LoopbackTransport(), faults=faults)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        result = pdevice_emergency_retrieval(physician, system.pdevice,
                                             system.state, server, net,
                                             ["cardiology"])
        assert [f.medical_content for f in result.files] == [CARDIO_TEXT]
        auth_replies = [reply for label, reply
                        in faults.duplicate_replies
                        if "auth" in label]
        assert auth_replies, "emergency auth was never duplicated"
        for reply in auth_replies:
            with pytest.raises(ReplayError):
                wire.parse_response(reply)


def _multi_frame(system, cids, keywords, now):
    """A cross-shard OP_SEARCH_MULTI frame (test_federation idiom)."""
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
    request = seal(nu, "phi-retrieve", pack_fields(*trapdoors), now)
    return wire.make_frame(wire.OP_SEARCH_MULTI,
                           pseudonym.public.to_bytes(),
                           pack_fields(*cids), request.to_bytes())


def _single_frame(system, cid, keyword, now):
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    request = seal(nu, "phi-retrieve",
                   pack_fields(patient.trapdoor(keyword).to_bytes()), now)
    return wire.make_frame(wire.OP_SEARCH, pseudonym.public.to_bytes(),
                           cid, request.to_bytes())


class TestDegradedFederation:
    """One shard permanently down, every backend: scattered searches
    degrade to an *explicit* PARTIAL (never a hang, never a silent
    subset presented as complete), the victim's breaker walks
    closed → open, single-key traffic owned by the dead shard keeps
    failing typed, and a restart heals the ring back to full answers.
    """

    def _deployment(self, backend, tmp_path):
        system = build_system(seed=b"degraded-federation")
        faults = FaultPolicy(seed=CHAOS_SEED)
        net = with_policies(make_transport(backend, system),
                            retry=RetryPolicy(max_attempts=2,
                                              attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        federation = bind_federated_sserver(net, system.sserver, 4,
                                            data_dir=str(tmp_path),
                                            fault_policy=faults)
        patient, server = system.patient, system.sserver
        cids = []
        for i in range(6):
            patient.add_record(Category.ALLERGIES, ["allergies"],
                               "record %d" % i, server.address)
            private_phi_storage(patient, server, net)
            cids.append(patient.collection_ids[server.address])
        # The MHI write probe needs the ASSIGN package armed *before*
        # the victim goes down.
        assign_privilege(patient, system.pdevice, server, net)
        return system, net, faults, federation, sorted(set(cids))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shard_down_yields_partial_results(self, backend,
                                                   tmp_path):
        system, net, faults, federation, cids = self._deployment(
            backend, tmp_path)
        router = federation.router
        server = system.sserver
        try:
            owners = {cid: federation.ring.owner_str(cid) for cid in cids}
            assert len(set(owners.values())) >= 2, "seed must span shards"
            victim = owners[cids[0]]
            survivor_cid = next(c for c in cids if owners[c] != victim)
            # Two orderings of the same set: the first collection id's
            # owner takes the strict merge leg, so putting the victim
            # first vs. not exercises different degradation paths.
            victim_first = cids
            survivor_first = ([survivor_cid]
                              + [c for c in cids if c != survivor_cid])
            faults.crash(victim)

            # (a) Dead shard owns the *merge* leg, breaker still
            # closed: the merge is strict (its replay window must stay
            # unconsumed), so the refusal surfaces typed and the
            # client-side retry fires — two failed deliveries recorded,
            # not enough to trip the breaker.
            frame = _multi_frame(system, victim_first, ["allergies"],
                                 net.now)
            with pytest.raises(TransientTransportError):
                net.request(system.patient.address, server.address, frame,
                            "phi/search-multi")
            assert router.health.snapshot()[victim] == "closed"

            # (b) Dead shard is a *foreign* leg: the tolerant scatter
            # absorbs the failure in place and the response is an
            # explicit PARTIAL naming the victim — and that third
            # consecutive failure trips the breaker open.
            frame = _multi_frame(system, survivor_first, ["allergies"],
                                 net.now)
            response = net.request(system.patient.address, server.address,
                                   frame, "phi/search-multi")
            payload, unavailable = wire.parse_partial(response)
            assert unavailable == [victim.encode()]
            assert payload  # the surviving shards' merged results
            with pytest.raises(PartialResultError, match="unavailable"):
                wire.parse_response(response)
            assert router.health.snapshot()[victim] == "open"

            # (c) Breaker open, dead shard owns the first cid: the
            # router excludes it up front and re-picks the merge shard,
            # so a dead owners[0] no longer takes the request down.
            frame = _multi_frame(system, victim_first, ["allergies"],
                                 net.now)
            response = net.request(system.patient.address, server.address,
                                   frame, "phi/search-multi")
            payload, unavailable = wire.parse_partial(response)
            assert unavailable == [victim.encode()]
            assert payload

            # Writes routed to the dead owner are never silently
            # dropped nor rerouted: the breaker does not gate
            # single-key mutations, so the client sees the refusal.
            day = next(
                d for d in ("2026-07-%02d" % i for i in range(1, 32))
                if federation.ring.owner_str(
                    role_identity_for(d).encode()) == victim)
            window = system.pdevice.vitals.generate_day(day)
            with pytest.raises(TransientTransportError):
                mhi_store(system.pdevice, server, system.state.public_key,
                          net, window, role_identity_for(day))

            # Restart: one successful single-key forward through the
            # recovered shard closes its breaker, and the same scatter
            # that was PARTIAL above completes in full again.
            faults.restart(victim)
            frame = _single_frame(system, cids[0], "allergies", net.now)
            wire.parse_response(net.request(system.patient.address,
                                            server.address, frame,
                                            "phi/search"))
            assert router.health.snapshot()[victim] == "closed"
            frame = _multi_frame(system, cids, ["allergies"], net.now)
            response = net.request(system.patient.address, server.address,
                                   frame, "phi/search-multi")
            payload, unavailable = wire.parse_partial(response)
            assert unavailable == []
            assert payload
        finally:
            close_transport(net)

    def test_strict_router_surfaces_transient_error_instead(self,
                                                            tmp_path):
        # allow_partial=False restores the pre-degradation contract:
        # a dead shard fails the whole scatter typed (the client's
        # retry policy owns recovery, not the merge).
        system, net, faults, federation, cids = self._deployment(
            "loopback", tmp_path)
        federation.router.allow_partial = False
        owners = {cid: federation.ring.owner_str(cid) for cid in cids}
        victim = owners[cids[0]]
        faults.crash(victim)
        frame = _multi_frame(system, cids, ["allergies"], net.now)
        with pytest.raises(TransientTransportError):
            net.request(system.patient.address, system.sserver.address, frame,
                        "phi/search-multi")


class TestWireRegressions:
    def test_negative_timestamp_is_parameter_error(self):
        with pytest.raises(ParameterError, match="predates the epoch"):
            wire.ts_to_bytes(-1.0)

    def test_oversize_timestamp_is_parameter_error(self):
        with pytest.raises(ParameterError, match="8-byte wire range"):
            wire.ts_to_bytes(2.0 ** 70)

    def test_undecodable_exception_name_is_transport_error(self):
        bogus = bytes([1]) + pack_fields(b"\xff\xfe-not-utf8", b"boom")
        with pytest.raises(TransportError, match="undecodable"):
            wire.parse_response(bogus)
