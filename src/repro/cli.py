"""Command-line interface: drive an HCPP deployment from a terminal.

Subcommands (all run against a fresh seeded in-process deployment):

* ``demo``      — the full story: store → retrieve → assign → emergency →
                  MHI → audit, with per-step message/byte accounting.
* ``store``     — generate a synthetic workload and upload it, printing
                  the storage-cost breakdown.
* ``search``    — store a workload, then search for a keyword.
* ``emergency`` — run the P-device break-glass flow and print the RD/TR.
* ``attacks``   — the §VI attack summary table.

Example::

    python -m repro.cli demo --files 20 --seed demo-1
"""

from __future__ import annotations

import argparse
import sys

from repro.core.system import build_system
from repro.ehr.phi import generate_workload


def _net(args, system):
    """The carrier for protocol frames: the discrete-event simulator by
    default, or a plain in-process loopback with ``--transport loopback``
    (same frames, no simulated links).  ``--faults``/``--retries`` arm a
    fault-injection and retry policy on the carrier; the configured
    carrier is cached so every step of a run shares one policy state."""
    carrier = getattr(args, "_carrier", None)
    if carrier is not None:
        return carrier
    if getattr(args, "transport", "sim") != "loopback":
        carrier = system.network
    else:
        from repro.net.transport import LoopbackTransport
        carrier = LoopbackTransport()
    faults_spec = getattr(args, "faults", None)
    retries = getattr(args, "retries", None)
    if faults_spec or retries:
        from repro.core.protocols.base import with_policies
        from repro.net.transport import RetryPolicy, parse_fault_spec
        retry = (RetryPolicy(max_attempts=retries) if retries
                 else RetryPolicy())
        faults = parse_fault_spec(faults_spec) if faults_spec else None
        carrier = with_policies(carrier, retry=retry, faults=faults)
    args._carrier = carrier
    return carrier


def _bind_servers(args, system, net):
    """Bind the configured server surfaces onto the carrier.

    ``--shards N`` (N > 1) fronts the S-server with an N-shard
    federation: the router serves the logical address, so every
    protocol step runs unchanged.  ``--data-dir`` makes the surfaces
    durable — each shard journals under its own ``sserver-shard-<i>``
    series — and binding over an existing directory *is* recovery.
    Returns the bound endpoints (or None when nothing special is on)."""
    shards = getattr(args, "shards", 1) or 1
    data_dir = getattr(args, "data_dir", None)
    if shards <= 1 and not data_dir:
        return None
    from repro.net.transport import as_transport
    # The sim carrier is a plain Network; endpoints bind on its cached
    # SimTransport adapter — the same one every protocol call resolves
    # via as_transport(), so the bindings are visible to them.
    net = as_transport(net)
    snapshot_every = getattr(args, "snapshot_every", 0) or 0
    bound = {}
    if shards > 1:
        from repro.core.federation import bind_federated_sserver
        bound["federation"] = bind_federated_sserver(
            net, system.sserver, shards, data_dir=data_dir,
            snapshot_every=snapshot_every,
            allow_partial=getattr(args, "allow_partial", False))
    if not data_dir:
        return bound
    from repro.store import (DurableStore, bind_durable_aserver,
                             bind_durable_pdevice, bind_durable_sserver)
    if shards <= 1:
        bound["sserver"] = bind_durable_sserver(
            net, system.sserver,
            DurableStore(data_dir, "sserver",
                         snapshot_every=snapshot_every))
    bound["aserver"] = bind_durable_aserver(
        net, system.state,
        DurableStore(data_dir, "aserver",
                     snapshot_every=snapshot_every))
    bound["pdevice"] = bind_durable_pdevice(
        net, system.pdevice, system.params,
        DurableStore(data_dir, "pdevice",
                     snapshot_every=snapshot_every))
    return bound


def _prepared_system(args, with_privileges: bool = False):
    from repro.core.protocols.privilege import assign_privilege
    from repro.core.protocols.storage import private_phi_storage
    system = build_system(seed=args.seed.encode())
    workload = generate_workload(system.rng.fork("cli-workload"),
                                 args.files,
                                 server_address=system.sserver.address)
    system.patient.import_collection(workload)
    net = _net(args, system)
    args._bound = _bind_servers(args, system, net)
    result = private_phi_storage(system.patient, system.sserver, net)
    if with_privileges:
        assign_privilege(system.patient, system.family, system.sserver, net)
        assign_privilege(system.patient, system.pdevice, system.sserver, net)
    return system, result


def cmd_store(args) -> int:
    system, result = _prepared_system(args)
    federation = (getattr(args, "_bound", None) or {}).get("federation")
    servers = (list(federation.shards) if federation is not None
               else [system.sserver])
    print("Stored %d PHI files at %s" % (args.files, system.sserver.name))
    print("  index: %7d B   files: %7d B   wire: %7d B in %d message(s)"
          % (result.index_bytes, result.files_bytes,
             result.stats.bytes_total, result.stats.messages))
    print("  patient-side secret: %d B (constant)"
          % system.patient.sse_keys.size_bytes())
    print("  server-side total:   %d B (O(N))%s"
          % (sum(s.total_storage_bytes() for s in servers),
             " across %d shard(s)" % len(servers)
             if federation is not None else ""))
    return 0


def cmd_search(args) -> int:
    from repro.core.protocols.retrieval import common_case_retrieval
    system, _ = _prepared_system(args)
    keywords = system.patient.collection.index.keywords()
    keyword = args.keyword or keywords[0]
    if keyword not in keywords:
        print("keyword %r not indexed; try one of: %s"
              % (keyword, ", ".join(keywords[:10])))
        return 1
    result = common_case_retrieval(system.patient, system.sserver,
                                   _net(args, system), [keyword])
    print("Search %r: %d file(s), %d messages, %d B, %.3f s simulated"
          % (keyword, len(result.files), result.stats.messages,
             result.stats.bytes_total, result.stats.latency_s))
    for phi_file in result.files:
        print("  [%s] %s" % (phi_file.category.value,
                             phi_file.medical_content))
    return 0


def cmd_emergency(args) -> int:
    from repro.core.protocols.emergency import pdevice_emergency_retrieval
    system, _ = _prepared_system(args, with_privileges=True)
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    keyword = args.keyword or system.patient.collection.index.keywords()[0]
    system.patient.dictionary.add(keyword)
    result = pdevice_emergency_retrieval(
        physician, system.pdevice, system.state, system.sserver,
        _net(args, system), [keyword])
    print("Break-glass by %s: %d file(s), %d messages, %.1f s simulated"
          % (physician.physician_id, len(result.files),
             result.stats.messages, result.stats.latency_s))
    rd = system.pdevice.records[0]
    tr = system.state.traces[0]
    print("  RD: physician=%s keywords=%s verifies=%s"
          % (rd.physician_id, list(rd.keywords),
             rd.verify(system.params, system.state.public_key)))
    print("  TR: physician=%s t10=%.2f t11=%.2f verifies=%s"
          % (tr.physician_id, tr.t_request, tr.t_issue,
             tr.verify(system.params, system.state.public_key)))
    return 0


def cmd_demo(args) -> int:
    from repro.core.protocols.emergency import family_based_retrieval
    from repro.core.protocols.retrieval import common_case_retrieval
    system, store_result = _prepared_system(args, with_privileges=True)
    keyword = system.patient.collection.index.keywords()[0]
    print("== HCPP demo (seed=%r, %d files) ==" % (args.seed, args.files))
    print("[1] storage: %d B, %d msg" % (store_result.stats.bytes_total,
                                         store_result.stats.messages))
    retrieval = common_case_retrieval(system.patient, system.sserver,
                                      _net(args, system), [keyword])
    print("[2] common-case %r: %d file(s), %d msg"
          % (keyword, len(retrieval.files), retrieval.stats.messages))
    family = family_based_retrieval(system.family, system.sserver,
                                    _net(args, system), [keyword])
    print("[3] family emergency: %d file(s), %d msg"
          % (len(family.files), family.stats.messages))
    return cmd_emergency_tail(system, args)


def cmd_emergency_tail(system, args) -> int:
    from repro.core.accountability import AccountabilityAuditor
    from repro.core.protocols.emergency import pdevice_emergency_retrieval
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    keyword = system.patient.collection.index.keywords()[0]
    result = pdevice_emergency_retrieval(
        physician, system.pdevice, system.state, system.sserver,
        _net(args, system), [keyword])
    print("[4] P-device emergency: %d file(s), %d msg"
          % (len(result.files), result.stats.messages))
    auditor = AccountabilityAuditor(system.params, system.state.public_key)
    complaints = auditor.build_complaints(
        system.pdevice.records, system.state.traces,
        lambda pid, t: system.state.is_on_duty(pid))
    print("[5] audit: %d transaction(s), all signatures verified"
          % len(complaints))
    return 0


def cmd_attacks(args) -> int:
    from repro.attacks.collusion import AdversaryKnowledge, coalition_matrix
    from repro.core.protocols.privilege import revoke_privilege
    system, _ = _prepared_system(args, with_privileges=True)
    keyword = system.patient.collection.index.keywords()[0]
    knowledge = AdversaryKnowledge(sserver=system.sserver,
                                   compromised_pdevice=system.pdevice)
    net = _net(args, system)
    outcomes = coalition_matrix(knowledge, system.sserver, net, keyword)
    wins = sum(o.recovered_phi for o in outcomes)
    print("Collusion: %d/%d coalitions recover PHI (all via the stolen "
          "P-device)" % (wins, len(outcomes)))
    revoke_privilege(system.patient, system.pdevice.name, system.sserver,
                     net)
    after = coalition_matrix(knowledge, system.sserver, net, keyword)
    print("After REVOKE: %d/%d succeed"
          % (sum(o.recovered_phi for o in after), len(after)))
    return 0


def cmd_recover(args) -> int:
    """Rebuild the durable state from ``--data-dir`` and audit it.

    Builds the same seeded deployment, binds the durable endpoints over
    the existing journals (which replays them), then reports what came
    back and re-verifies the accountability evidence: the audit-log hash
    chain plus an inclusion proof for every recovered trace.
    """
    from repro.core.auditlog import AuditLog
    if not args.data_dir:
        print("recover requires --data-dir pointing at a durable data "
              "directory")
        return 1
    system = build_system(seed=args.seed.encode())
    net = _net(args, system)
    try:
        bound = _bind_servers(args, system, net)
    except Exception as exc:
        print("recovery FAILED: %s: %s" % (type(exc).__name__, exc))
        return 1
    state, pdevice = system.state, system.pdevice
    federation = (bound or {}).get("federation")
    storage_servers = (list(federation.shards) if federation is not None
                       else [system.sserver])
    print("Recovered from %s (seed=%r):" % (args.data_dir, args.seed))
    print("  S-server%s: %d collection(s), %d MHI window(s), %d B stored"
          % (" (%d shards)" % len(storage_servers)
             if federation is not None else "",
             sum(s.collection_count() for s in storage_servers),
             sum(s.mhi_count() for s in storage_servers),
             sum(s.total_storage_bytes() for s in storage_servers)))
    print("  A-server: %d trace(s), audit log size %d"
          % (len(state.traces), len(state.audit_log)))
    print("  P-device: %d RD record(s), ASSIGN package %s"
          % (len(pdevice.records),
             "present" if pdevice.package is not None else "absent"))
    failures = 0
    try:
        state.audit_log.verify_chain()
        print("  audit chain: OK")
    except Exception as exc:
        print("  audit chain: FAILED (%s)" % exc)
        failures += 1
    checkpoint = state.audit_log.checkpoint()
    for index, trace in enumerate(state.traces):
        proof = state.audit_log.prove_inclusion(index)
        ok = (AuditLog.verify_entry(trace.to_bytes(), proof, checkpoint)
              and trace.verify(system.params, state.public_key))
        if not ok:
            print("  trace %d: inclusion/signature FAILED" % index)
            failures += 1
    if state.traces and not failures:
        print("  %d inclusion proof(s) + TR signature(s): OK"
              % len(state.traces))
    for index, rd in enumerate(pdevice.records):
        if not rd.verify(system.params, state.public_key):
            print("  RD %d: signature FAILED" % index)
            failures += 1
    if pdevice.records and not failures:
        print("  %d RD signature(s): OK" % len(pdevice.records))
    return 1 if failures else 0


def cmd_rebalance(args) -> int:
    """Resize a durable federation via journaled key migration.

    Binds the same seeded deployment over ``--data-dir`` (recovering
    the current shard set from the federation manifest — an interrupted
    earlier rebalance is rolled forward first), then migrates to
    ``--to N`` shards through the copy → commit → release protocol and
    reports what moved.
    """
    if not args.data_dir:
        print("rebalance requires --data-dir (the manifest and shard "
              "journals are what a rebalance migrates)")
        return 1
    if (getattr(args, "shards", 1) or 1) <= 1:
        print("rebalance requires --shards > 1 (bind the federation "
              "whose ring is being resized)")
        return 1
    from repro.core.federation import rebalance
    system = build_system(seed=args.seed.encode())
    net = _net(args, system)
    try:
        bound = _bind_servers(args, system, net)
    except Exception as exc:
        print("rebalance FAILED at bind: %s: %s"
              % (type(exc).__name__, exc))
        return 1
    federation = (bound or {}).get("federation")
    before = len(federation.shards)
    held_before = {s.name: s.collection_count() for s in federation.shards}
    phases = []
    try:
        rebalance(federation, args.to, on_step=phases.append)
    except Exception as exc:
        print("rebalance FAILED mid-migration: %s: %s (re-run to "
              "roll the journaled migration forward)"
              % (type(exc).__name__, exc))
        return 1
    print("Rebalanced %s: %d -> %d shard(s), epoch %d (%s)"
          % (args.data_dir, before, len(federation.shards),
             federation.epoch,
             " -> ".join(phases) if phases else "no-op"))
    for shard in federation.shards:
        delta = shard.collection_count() - held_before.get(shard.name, 0)
        print("  %s: %d collection(s), %d MHI window(s) [%+d]"
              % (shard.name, shard.collection_count(),
                 shard.mhi_count(), delta))
    return 0


def cmd_selfcheck(args) -> int:
    """Installation self-test: known-answer checks across the substrate."""
    from repro.crypto.aes import AES
    from repro.crypto.hmac_impl import hmac_sha256
    from repro.crypto.params import default_params, test_params
    from repro.crypto.pairing import tate_pairing

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print("  [%s] %s" % ("ok" if ok else "FAIL", name))
        if not ok:
            failures += 1

    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    check("AES-128 FIPS-197 vector",
          AES(key).encrypt_block(pt).hex()
          == "69c4e0d86a7b0430d8cdb78070b4c55a")
    check("HMAC-SHA256 RFC-4231 vector",
          hmac_sha256(b"\x0b" * 20, b"Hi There").hex().startswith(
              "b0344c61d8db3853"))
    small = test_params()
    P = small.generator
    e = tate_pairing(P, P)
    check("pairing non-degenerate (SS160)", not e.is_one())
    check("pairing bilinear (SS160)",
          tate_pairing(P * 3, P * 5) == e ** 15)
    check("pairing output order r", (e ** small.r).is_one())
    big = default_params()
    Q = big.generator
    check("pairing bilinear (SS512)",
          tate_pairing(Q * 2, Q * 3) == tate_pairing(Q, Q) ** 6)
    print("selfcheck: %s" % ("all good" if failures == 0
                             else "%d failure(s)" % failures))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default="cli", help="deployment seed")
    common.add_argument("--files", type=int, default=12,
                        help="synthetic PHI files to generate")
    common.add_argument("--transport", choices=["sim", "loopback"],
                        default="sim",
                        help="frame carrier: discrete-event simulator "
                             "(default) or in-process loopback")
    common.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject transport faults, e.g. "
                             "'drop=0.05,dup=0.02,seed=7' (keys: drop, "
                             "dup, corrupt, trunc, delay, delay_s, seed)")
    common.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max delivery attempts per frame (default 4 "
                             "when --faults is given, else 1)")
    common.add_argument("--data-dir", default=None, metavar="PATH",
                        help="journal every acknowledged server-side "
                             "mutation under PATH (crash-consistent "
                             "durable mode); reuse the directory with "
                             "the 'recover' subcommand")
    common.add_argument("--snapshot-every", type=int, default=0,
                        metavar="N",
                        help="with --data-dir: write an atomic snapshot "
                             "every N mutations (default 0 = journal "
                             "only)")
    common.add_argument("--shards", type=int, default=1, metavar="N",
                        help="partition the S-server index across N "
                             "consistent-hash shards behind a federation "
                             "router (default 1 = single server); "
                             "composes with --data-dir (one journal per "
                             "shard)")
    common.add_argument("--allow-partial", action="store_true",
                        default=False,
                        help="with --shards: scattered searches degrade "
                             "to explicit PARTIAL results when a shard "
                             "is down (circuit-breaker routed) instead "
                             "of failing outright")
    parser = argparse.ArgumentParser(
        prog="repro-hcpp",
        description="Drive an in-process HCPP (ICDCS'11) deployment.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="full walk-through",
                   parents=[common]).set_defaults(func=cmd_demo)
    sub.add_parser("store", help="upload a workload",
                   parents=[common]).set_defaults(func=cmd_store)
    search = sub.add_parser("search", help="keyword retrieval",
                            parents=[common])
    search.add_argument("--keyword", default=None)
    search.set_defaults(func=cmd_search)
    emergency = sub.add_parser("emergency", help="P-device break-glass",
                               parents=[common])
    emergency.add_argument("--keyword", default=None)
    emergency.set_defaults(func=cmd_emergency)
    sub.add_parser("attacks", help="§VI attack summary",
                   parents=[common]).set_defaults(func=cmd_attacks)
    sub.add_parser("recover",
                   help="rebuild durable state from --data-dir and "
                        "verify the audit evidence",
                   parents=[common]).set_defaults(func=cmd_recover)
    rebalance = sub.add_parser(
        "rebalance",
        help="resize a durable federation (--shards N --to M) via "
             "journaled key migration",
        parents=[common])
    rebalance.add_argument("--to", type=int, required=True, metavar="M",
                           help="target shard count after the migration")
    rebalance.set_defaults(func=cmd_rebalance)
    sub.add_parser("selfcheck",
                   help="known-answer tests across the crypto substrate",
                   parents=[common]).set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
