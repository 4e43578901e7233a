#!/usr/bin/env python3
"""Two-process smoke test: PHI storage + retrieval over real TCP.

One OS process hosts the S-server's dispatch endpoint on a loopback
port; a second process — sharing nothing but the deployment seed and
the (host, port) route — uploads a PHI collection and searches it by
keyword.  Passing proves the frames on the wire are self-contained:
no in-process object sharing is needed for any byte of the exchange.
Both processes run the multiplexed TCP backend (``AsyncTransport``).

After the upload and the retrieval, the client pre-seals a batch of
keyword searches and fires them from concurrent threads down ONE
pipelined TCP connection — every caller must get its own keyword's
files back (correlation ids route the out-of-order replies) and the
measured peak in-flight depth must exceed one, proving genuine
cross-process pipelining.

``--chaos`` hardens the claim: the server child binds its port only
after a deliberate delay (so the client's first connects are refused
and must be retried), and the client injects seeded frame drops and
duplications recovered by the transport's retry policy — the exchange
must still round-trip correctly.  The pipelined batch is skipped there:
fault draws from concurrent callers would not replay from the seed.

``--durable DIR`` hardens it differently: the server child journals
every acknowledged mutation under DIR, the parent kills it with
SIGKILL *after* the upload (no atexit, no flush, no goodbye), starts a
fresh child over the same directory, and the retrieval must still
return the identical plaintext — recovered purely from the on-disk
write-ahead journal.

Usage::

    python tools/socket_smoke.py --auto            # spawns its own server
    python tools/socket_smoke.py --auto --chaos    # + connect failures/drops
    python tools/socket_smoke.py --auto --durable /tmp/smokedata  # + kill -9
    python tools/socket_smoke.py --serve           # prints "PORT <n>"
    python tools/socket_smoke.py --client --port <n>
"""

from __future__ import annotations

import argparse
import signal
import socket
import subprocess
import sys
import time

SEED = b"socket-smoke"
EXPECTED = "Severe penicillin allergy; carries epinephrine."
CARDIO = "Prior MI (2024); ejection fraction 45%."
CHAOS_SERVE_DELAY_S = 1.5
CHAOS_FAULT_SPEC = dict(seed=11, drop_rate=0.2, duplicate_rate=0.2)
CONCURRENT_SEARCHES = 8


def _build_system():
    from repro.core.system import build_system
    return build_system(seed=SEED)


def serve(port: int = 0, delay_s: float = 0.0,
          data_dir: str | None = None) -> int:
    from repro.core import dispatch
    from repro.net.transport import AsyncTransport
    system = _build_system()
    if delay_s:
        # Chaos mode: the port is agreed in advance and we bind late, so
        # the client's early connects are refused — its bounded connect
        # retry must bridge the gap.
        time.sleep(delay_s)
    transport = AsyncTransport()
    if data_dir:
        # Durable mode: binding over an existing data dir IS recovery —
        # a fresh OS process rebuilds the S-server from the journal.
        from repro.store import DurableStore, bind_durable_sserver
        bind_durable_sserver(transport, system.sserver,
                             DurableStore(data_dir, "sserver"), port=port)
        print("SERVING collections=%d bytes=%d"
              % (system.sserver.collection_count(),
                 system.sserver.total_storage_bytes()), flush=True)
    else:
        endpoint = dispatch.SServerEndpoint(system.sserver)
        transport.bind(system.sserver.address, endpoint, port=port)
    print("PORT %d" % transport.port_of(system.sserver.address), flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        return 0


def _client_transport(server_address: str, port: int):
    """A client that holds only a route to the server's (host, port);
    refused connects are retried while the server child starts up."""
    from repro.net.transport import AsyncTransport
    transport = AsyncTransport(connect_retries=30,
                               connect_retry_delay_s=0.2)
    transport.add_route(server_address, "127.0.0.1", port)
    assert transport.endpoint_at(server_address) is None, \
        "client must hold no server endpoint — that is the point"
    return transport


def run_client(port: int, chaos: bool = False) -> int:
    from repro.ehr.records import Category
    from repro.core.protocols.retrieval import common_case_retrieval
    from repro.core.protocols.storage import private_phi_storage
    from repro.net.transport import FaultPolicy, RetryPolicy

    system = _build_system()
    patient, server = system.patient, system.sserver
    transport = _client_transport(server.address, port)
    if chaos:
        transport.set_retry_policy(RetryPolicy())
        transport.install_faults(FaultPolicy(**CHAOS_FAULT_SPEC))
    try:
        patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                           EXPECTED, server.address)
        patient.add_record(Category.CARDIOLOGY, ["cardiology"], CARDIO,
                           server.address)
        store = private_phi_storage(patient, server, transport)
        print("stored: collection=%s %d B in %d frame(s), %d retried"
              % (store.collection_id.hex()[:16], store.stats.bytes_total,
                 store.stats.messages, store.stats.retries))

        result = common_case_retrieval(patient, server, transport,
                                       ["allergies"])
        print("retrieved: %d file(s) in %d frame(s), %d retried"
              % (len(result.files), result.stats.messages,
                 result.stats.retries))
        contents = [f.medical_content for f in result.files]
        if contents != [EXPECTED]:
            print("SMOKE FAIL: got %r" % contents)
            return 1
        if chaos:
            print("chaos: %s" % dict(transport.fault_policy.counts))
            print("SMOKE OK: PHI stored and retrieved across two OS "
                  "processes under injected faults")
            return 0
        return _pipelined_searches(patient, server, transport)
    finally:
        transport.close()


def _pipelined_searches(patient, server, transport) -> int:
    """N pre-sealed searches fired from N threads share one TCP
    connection, and correlation ids hand each caller its own keyword's
    files."""
    import threading

    from repro.core import wire
    from repro.core.protocols.messages import (Envelope, open_envelope,
                                               pack_fields, seal,
                                               unpack_fields)

    # The Patient's RNG draws are not thread-safe, so every request is
    # sealed serially up front; only the wire traffic is concurrent.
    expected_by_keyword = {"allergies": [EXPECTED], "penicillin": [EXPECTED],
                           "cardiology": [CARDIO]}
    keywords = sorted(expected_by_keyword)
    collection_id = patient.collection_ids[server.address]
    prepared = []
    for i in range(CONCURRENT_SEARCHES):
        keyword = keywords[i % len(keywords)]
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public, pseudonym)
        request = seal(nu, "phi-retrieve",
                       pack_fields(patient.trapdoor(keyword).to_bytes()),
                       transport.now)
        frame = wire.make_frame(wire.OP_SEARCH, pseudonym.public.to_bytes(),
                                collection_id, request.to_bytes())
        prepared.append((keyword, nu, frame))

    barrier = threading.Barrier(CONCURRENT_SEARCHES)
    responses: list[bytes | None] = [None] * CONCURRENT_SEARCHES
    errors: list[BaseException] = []

    def fire(slot: int, frame: bytes) -> None:
        try:
            barrier.wait()
            responses[slot] = transport.request(
                patient.address, server.address, frame,
                label="retrieval/request", reply_label="retrieval/response")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fire, args=(i, frame))
               for i, (_, _, frame) in enumerate(prepared)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    peak = transport.peak_in_flight()
    if errors:
        print("SMOKE FAIL: concurrent search raised %r" % errors[0])
        return 1

    for (keyword, nu, _), response in zip(prepared, responses):
        reply = Envelope.from_bytes(wire.parse_response(response))
        payload = open_envelope(nu, reply, transport.now,
                                patient.replay_guard,
                                expected_label="phi-results")
        contents = [f.medical_content
                    for f in patient.decrypt_results(unpack_fields(payload))]
        if sorted(contents) != sorted(expected_by_keyword[keyword]):
            print("SMOKE FAIL: %r returned %r" % (keyword, contents))
            return 1
    if peak < 2:
        print("SMOKE FAIL: peak in-flight was %d — the %d concurrent "
              "searches never overlapped on the wire"
              % (peak, CONCURRENT_SEARCHES))
        return 1
    print("SMOKE OK: PHI stored and retrieved across two OS processes; "
          "%d searches pipelined on one mux connection (peak in-flight %d)"
          % (CONCURRENT_SEARCHES, peak))
    return 0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_durable_server(port: int, data_dir: str) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, __file__, "--serve", "--port", str(port),
         "--durable", data_dir],
        stdout=subprocess.PIPE, text=True)
    for _ in range(2):  # SERVING line, then PORT line
        line = child.stdout.readline().strip()
        print("server: %s" % line)
        if line.startswith("PORT "):
            break
    return child


def run_durable(data_dir: str) -> int:
    """Upload, SIGKILL the server, restart it over the same data dir,
    retrieve — the journal alone carries the state across the murder."""
    from repro.ehr.records import Category
    from repro.core.protocols.retrieval import common_case_retrieval
    from repro.core.protocols.storage import private_phi_storage

    system = _build_system()
    patient, server = system.patient, system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       EXPECTED, server.address)
    port = _free_port()

    child = _spawn_durable_server(port, data_dir)
    transport = _client_transport(server.address, port)
    try:
        store = private_phi_storage(patient, server, transport)
        print("stored: collection=%s %d B"
              % (store.collection_id.hex()[:16], store.stats.bytes_total))
        # The kill is -9: no Python-level cleanup runs in the child, so
        # only bytes already journaled+fsynced can possibly survive.
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
        print("server killed with SIGKILL (exit %d)" % child.returncode)
    finally:
        transport.close()
        if child.poll() is None:
            child.terminate()
            child.wait(timeout=10)

    child = _spawn_durable_server(port, data_dir)
    transport = _client_transport(server.address, port)
    try:
        result = common_case_retrieval(patient, server, transport,
                                       ["allergies"])
        contents = [f.medical_content for f in result.files]
        if contents != [EXPECTED]:
            print("SMOKE FAIL: got %r after restart" % contents)
            return 1
        print("SMOKE OK: PHI survived kill -9 via the on-disk journal")
        return 0
    finally:
        transport.close()
        child.terminate()
        child.wait(timeout=10)


def run_auto(chaos: bool = False) -> int:
    command = [sys.executable, __file__, "--serve"]
    port = None
    if chaos:
        port = _free_port()
        command += ["--port", str(port),
                    "--serve-delay", str(CHAOS_SERVE_DELAY_S)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        if not chaos:
            line = child.stdout.readline().strip()
            if not line.startswith("PORT "):
                print("SMOKE FAIL: server said %r" % line)
                return 1
            port = int(line.split()[1])
        # In chaos mode the client starts BEFORE the server is up, on a
        # pre-agreed port — the first connects are refused on purpose.
        return run_client(port, chaos=chaos)
    finally:
        child.terminate()
        child.wait(timeout=10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--auto", action="store_true",
                      help="spawn a server child process and run the client")
    mode.add_argument("--serve", action="store_true",
                      help="host the S-server endpoint; prints PORT")
    mode.add_argument("--client", action="store_true",
                      help="run the client against --port")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--serve-delay", type=float, default=0.0,
                        help="(with --serve) bind the port only after this "
                             "many seconds")
    parser.add_argument("--chaos", action="store_true",
                        help="(with --auto/--client) injected connect "
                             "failures, frame drops, and duplications")
    parser.add_argument("--durable", metavar="DIR", default=None,
                        help="(with --auto) journal under DIR, SIGKILL the "
                             "server mid-run, restart it, and retrieve; "
                             "(with --serve) serve durably from DIR")
    args = parser.parse_args()
    if args.serve:
        return serve(port=args.port or 0, delay_s=args.serve_delay,
                     data_dir=args.durable)
    if args.client:
        if args.port is None:
            parser.error("--client requires --port")
        return run_client(args.port, chaos=args.chaos)
    if args.durable:
        return run_durable(args.durable)
    return run_auto(chaos=args.chaos)


if __name__ == "__main__":
    sys.exit(main())
