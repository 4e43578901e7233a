"""Standalone E4/E8 snapshot: per-protocol frames, bytes, and wall time.

Runs every HCPP protocol over the simulated-network transport, records
its message count, byte total, and median wall-clock serving time, and
compares one retrieval across the three transport backends (loopback /
simulator / async TCP) to price the dispatch boundary itself.  A
sustained-throughput section then drives the multiplexed TCP backend
(``AsyncTransport``) at 1/8/64/256 concurrent clients, one serial
client being the baseline — frames/sec and p50/p99 latency per leg —
and a paced leg sends one echo every 20 ms to a handler that burns
~3 ms of CPU, the shape of the paper's request/reply chains, and
reports the time each round spends outside the handler.  Every echo is
checked against its request.  Appends a run entry to a trajectory JSON
file (default ``BENCH_protocols.json`` at the repo root).

Usage::

    PYTHONPATH=src python benchmarks/run_bench_protocols.py \
        --iters 5 --out BENCH_protocols.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

from repro.core import wire
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.system import build_system
from repro.ehr.phi import generate_workload
from repro.core.protocols.base import with_policies
from repro.net.transport import (AsyncTransport, FaultPolicy,
                                 LoopbackTransport, RetryPolicy)

WORKLOAD_FILES = 10
CHAOS_DROP_RATE = 0.05
CHAOS_DUP_RATE = 0.02
ECHO_PAYLOAD_BYTES = 256
# The paced leg: one echo every PACED_INTERVAL_MS, its handler burning
# the CPU for about as long as a lookup's S-server pairing, for
# PACED_DURATION_FACTOR x --throughput-duration seconds (250 frames at
# the default 1 s) and never fewer than PACED_MIN_FRAMES.
PACED_INTERVAL_MS = 20
PACED_BURN_MS = 3
PACED_DURATION_FACTOR = 5
PACED_MIN_FRAMES = 50


def _fresh_system(seed: bytes, privileged: bool = False,
                  net=None):
    system = build_system(seed=seed)
    workload = generate_workload(system.rng.fork("workload"),
                                 WORKLOAD_FILES,
                                 server_address=system.sserver.address)
    system.patient.import_collection(workload)
    carrier = net if net is not None else system.network
    private_phi_storage(system.patient, system.sserver, carrier)
    if privileged:
        assign_privilege(system.patient, system.family, system.sserver,
                         carrier)
        assign_privilege(system.patient, system.pdevice, system.sserver,
                         carrier)
    return system


def _median_ms(fn, iters: int) -> tuple[float, object]:
    samples, result = [], None
    for _ in range(iters):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3, result


def _entry(stats, wall_ms: float) -> dict:
    return {"messages": stats.messages, "bytes": stats.bytes_total,
            "sim_latency_s": round(stats.latency_s, 6),
            "wall_ms": round(wall_ms, 3)}


def bench_protocols(iters: int) -> dict:
    results: dict[str, dict] = {}

    # storage: a fresh deployment per sample (uploads are one-shot).
    samples, last = [], None
    for i in range(iters):
        system = build_system(seed=b"bench-proto-store-%d" % i)
        workload = generate_workload(system.rng.fork("workload"),
                                     WORKLOAD_FILES,
                                     server_address=system.sserver.address)
        system.patient.import_collection(workload)
        t0 = time.perf_counter()
        last = private_phi_storage(system.patient, system.sserver,
                                   system.network)
        samples.append(time.perf_counter() - t0)
    results["storage"] = _entry(last.stats, statistics.median(samples) * 1e3)

    system = _fresh_system(b"bench-proto-retrieve")
    keyword = system.patient.collection.index.keywords()[0]
    wall, rt = _median_ms(lambda: common_case_retrieval(
        system.patient, system.sserver, system.network, [keyword]), iters)
    results["retrieval"] = _entry(rt.stats, wall)

    system = _fresh_system(b"bench-proto-family", privileged=True)
    keyword = system.patient.collection.index.keywords()[0]
    wall, fam = _median_ms(lambda: family_based_retrieval(
        system.family, system.sserver, system.network, [keyword]), iters)
    results["family_emergency"] = _entry(fam.stats, wall)

    system = _fresh_system(b"bench-proto-pdevice", privileged=True)
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    keyword = system.patient.collection.index.keywords()[0]
    system.patient.dictionary.add(keyword)
    wall, pd = _median_ms(lambda: pdevice_emergency_retrieval(
        physician, system.pdevice, system.state, system.sserver,
        system.network, [keyword]), iters)
    results["pdevice_emergency"] = _entry(pd.stats, wall)

    samples, last = [], None
    for i in range(iters):
        system = _fresh_system(b"bench-proto-revoke-%d" % i)
        assign_privilege(system.patient, system.pdevice, system.sserver,
                         system.network)
        t0 = time.perf_counter()
        last = revoke_privilege(system.patient, system.pdevice.name,
                                system.sserver, system.network)
        samples.append(time.perf_counter() - t0)
    results["revoke"] = _entry(last.stats, statistics.median(samples) * 1e3)

    system = _fresh_system(b"bench-proto-mhi", privileged=True)
    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    role = role_identity_for("2026-07-01")
    window = system.pdevice.vitals.generate_day("2026-07-01")
    wall, ms = _median_ms(lambda: mhi_store(
        system.pdevice, system.sserver, system.state.public_key,
        system.network, window, role), 1)
    results["mhi_store"] = _entry(ms.stats, wall)
    keyword = system.patient.collection.index.keywords()[0]
    system.patient.dictionary.add(keyword)
    pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                system.sserver, system.network, [keyword])
    wall, mr = _median_ms(lambda: mhi_retrieve(
        physician, system.state, system.sserver, system.network, role,
        "2026-07-03"), iters)
    results["mhi_retrieve"] = _entry(mr.stats, wall)
    return results


def bench_backends(iters: int) -> dict:
    """One retrieval, three carriers: what does each transport cost?"""
    out = {}
    for backend in ("loopback", "sim", "async"):
        system = build_system(seed=b"bench-proto-backends")
        workload = generate_workload(system.rng.fork("workload"),
                                     WORKLOAD_FILES,
                                     server_address=system.sserver.address)
        system.patient.import_collection(workload)
        if backend == "loopback":
            net = LoopbackTransport()
        elif backend == "async":
            net = AsyncTransport()
        else:
            net = system.network
        try:
            private_phi_storage(system.patient, system.sserver, net)
            keyword = system.patient.collection.index.keywords()[0]
            wall, rt = _median_ms(lambda: common_case_retrieval(
                system.patient, system.sserver, net, [keyword]), iters)
            out[backend] = {"wall_ms": round(wall, 3),
                            "messages": rt.stats.messages,
                            "bytes": rt.stats.bytes_total}
        finally:
            if isinstance(net, AsyncTransport):
                net.close()
    return out


_ECHO_SERVER_CHILD = r'''
import time

from repro.core import wire
from repro.net.transport import AsyncTransport


class Echo:
    """``echo`` answers its payload; ``burn`` spins the CPU for the
    given milliseconds first and appends its own time in ns."""

    def attach(self, transport):
        pass

    def handle_frame(self, frame):
        opcode, fields = wire.parse_frame(frame)
        if opcode == b"burn":
            started = time.perf_counter_ns()
            until = started + int(fields[1]) * 1_000_000
            while time.perf_counter_ns() < until:
                pass
            spent = time.perf_counter_ns() - started
            return wire.ok_response(fields[0] + spent.to_bytes(8, "big"))
        return wire.ok_response(fields[0])


transport = AsyncTransport()
transport.bind("svc://echo", Echo())
print("PORT %d" % transport.port_of("svc://echo"), flush=True)
while True:
    time.sleep(1.0)
'''


def bench_throughput(duration_s: float,
                     concurrency=(1, 8, 64, 256)) -> dict:
    """Sustained dispatch throughput of the multiplexed TCP transport,
    and the carry cost of paced request/reply rounds.

    A cheap echo endpoint (256 B payload — dispatch cost, not crypto
    cost) is served from a *separate OS process* and hammered for
    ``duration_s`` per leg, so client and server pay real IPC and can
    use separate cores.  1/8/64/256 concurrent client threads pipeline
    over one shared connection; the one-client leg — strictly serial
    traffic, one frame in flight — is the baseline.  Frames/sec plus
    p50/p99 caller-observed latency per leg; ``cpu_count`` is recorded
    because the gain over the serial baseline is largely parallelism —
    on a one-core box client and server fold onto the same CPU.

    Back-to-back echoes never let a thread sleep, so they miss what a
    paced caller pays to wake the threads on its path.  The paced leg
    (``bench_paced``) covers that regime on the same server process.
    Every reply is checked against its request's payload."""
    import contextlib
    import os
    import subprocess
    import sys
    import threading

    from repro.net.transport import AsyncTransport

    @contextlib.contextmanager
    def echo_server():
        child = subprocess.Popen([sys.executable, "-c", _ECHO_SERVER_CHILD],
                                 stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline().strip()
            if not line.startswith("PORT "):
                raise RuntimeError("echo server said %r" % line)
            yield int(line.split()[1])
        finally:
            child.terminate()
            child.wait(timeout=10)

    def drive(client, n_threads: int) -> dict:
        latencies: list[float] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads + 1)
        deadline = [0.0]

        def worker(slot: int) -> None:
            mine = []
            barrier.wait()
            try:
                while time.perf_counter() < deadline[0]:
                    payload = _payload(slot, len(mine))
                    t0 = time.perf_counter()
                    _echo(client, slot, payload)
                    mine.append(time.perf_counter() - t0)
            except BaseException as exc:
                failures.append(exc)
            with lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        deadline[0] = time.perf_counter() + duration_s
        started = time.perf_counter()
        barrier.wait()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise failures[0]
        ordered = sorted(latencies)
        return {
            "clients": n_threads,
            "frames": len(ordered),
            "frames_per_s": round(len(ordered) / elapsed, 1),
            "p50_ms": round(ordered[len(ordered) // 2] * 1e3, 3),
            "p99_ms": round(ordered[int(0.99 * (len(ordered) - 1))] * 1e3,
                            3),
        }

    def warm_up(client) -> None:
        for i in range(50):
            _echo(client, 0, _payload(0, i))

    async_mux = {}
    with echo_server() as port:
        for n_threads in concurrency:
            client = AsyncTransport()
            try:
                client.add_route("svc://echo", "127.0.0.1", port)
                warm_up(client)
                async_mux[str(n_threads)] = drive(client, n_threads)
            finally:
                client.close()
        paced = bench_paced(port, PACED_DURATION_FACTOR * duration_s)

    at_1, at_64 = async_mux.get("1"), async_mux.get("64")
    return {
        "payload_bytes": ECHO_PAYLOAD_BYTES,
        "duration_s": duration_s,
        "cpu_count": os.cpu_count(),
        "async_mux": async_mux,
        "speedup_64_vs_1_client": round(
            at_64["frames_per_s"] / at_1["frames_per_s"], 2)
        if at_1 and at_64 else None,
        "paced": paced,
    }


def _payload(slot: int, index: int) -> bytes:
    """A 256 B payload unique to one caller's one request."""
    return (b"%d:%d:" % (slot, index)).ljust(ECHO_PAYLOAD_BYTES, b"\x5a")


def _echo(client, slot: int, payload: bytes, burn_ms: int = 0) -> int:
    """One echo round; raises unless the reply is ``payload``.  With
    ``burn_ms`` the handler spins that long first; returns the
    handler's own time in ns (0 for a plain echo)."""
    if burn_ms:
        frame = wire.make_frame(b"burn", payload, b"%d" % burn_ms)
    else:
        frame = wire.make_frame(b"echo", payload)
    reply = wire.parse_response(client.request(
        "cli://%d" % slot, "svc://echo", frame, label="bench"))
    echo, spent = ((reply[:-8], int.from_bytes(reply[-8:], "big"))
                   if burn_ms else (reply, 0))
    if echo != payload:
        raise RuntimeError("echo for caller %d came back %r"
                           % (slot, echo[:32]))
    return spent


def bench_paced(port: int, seconds: float) -> dict:
    """One client, one echo every ``PACED_INTERVAL_MS`` to a handler
    that burns ``PACED_BURN_MS`` of CPU: the time each round spends
    outside the handler, i.e. what the transport adds to a paced
    request/reply chain (the threads it wakes included)."""
    from repro.net.transport import AsyncTransport

    frames = max(PACED_MIN_FRAMES, int(seconds * 1e3 / PACED_INTERVAL_MS))
    client = AsyncTransport()
    outside, handler = [], []
    try:
        client.add_route("svc://echo", "127.0.0.1", port)
        for i in range(10):
            _echo(client, 0, _payload(0, i), PACED_BURN_MS)
        next_at = time.perf_counter()
        for i in range(frames):
            next_at += PACED_INTERVAL_MS / 1e3
            time.sleep(max(0.0, next_at - time.perf_counter()))
            t0 = time.perf_counter_ns()
            spent = _echo(client, 0, _payload(0, i), PACED_BURN_MS)
            outside.append((time.perf_counter_ns() - t0 - spent) / 1e6)
            handler.append(spent / 1e6)
    finally:
        client.close()
    outside.sort()
    handler.sort()
    return {
        "interval_ms": PACED_INTERVAL_MS,
        "handler_burn_ms": PACED_BURN_MS,
        "frames": frames,
        "handler_ms_p50": round(handler[frames // 2], 3),
        "outside_handler_ms_p50": round(outside[frames // 2], 3),
        "outside_handler_ms_p90": round(outside[int(0.9 * (frames - 1))],
                                        3),
    }


def bench_durability(iters: int) -> dict:
    """What does the write-ahead journal cost?

    Two figures: raw 1 KiB journal appends per fsync policy (μs each),
    and the full storage protocol with all three surfaces served
    durably versus plain in-memory endpoints on the same carrier.
    """
    import tempfile
    from repro.store import (DurableStore, JournalWriter,
                             bind_durable_aserver, bind_durable_pdevice,
                             bind_durable_sserver)
    from repro.store.journal import K_FRAME

    payload, appends = b"x" * 1024, 256
    append_us = {}
    for policy in ("always", "batch", "os"):
        with tempfile.TemporaryDirectory() as tmp:
            writer = JournalWriter(Path(tmp) / "bench.journal",
                                   fsync_policy=policy)
            t0 = time.perf_counter()
            for _ in range(appends):
                writer.append(K_FRAME, payload)
            writer.sync()
            writer.close()
            append_us[policy] = round(
                (time.perf_counter() - t0) / appends * 1e6, 1)

    def storage_ms(data_dir=None):
        samples = []
        for i in range(iters):
            system = build_system(seed=b"bench-durable-%d" % i)
            workload = generate_workload(system.rng.fork("workload"),
                                         WORKLOAD_FILES,
                                         server_address=system.sserver
                                         .address)
            system.patient.import_collection(workload)
            net = LoopbackTransport()
            if data_dir is not None:
                with tempfile.TemporaryDirectory(dir=data_dir) as run_dir:
                    bind_durable_sserver(net, system.sserver,
                                         DurableStore(run_dir, "sserver"))
                    bind_durable_aserver(net, system.state,
                                         DurableStore(run_dir, "aserver"))
                    bind_durable_pdevice(net, system.pdevice, system.params,
                                         DurableStore(run_dir, "pdevice"))
                    t0 = time.perf_counter()
                    private_phi_storage(system.patient, system.sserver, net)
                    samples.append(time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                private_phi_storage(system.patient, system.sserver, net)
                samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e3

    with tempfile.TemporaryDirectory() as tmp:
        durable_ms = storage_ms(data_dir=tmp)
    memory_ms = storage_ms()
    return {
        "journal_append_us_1KiB": append_us,
        "storage_protocol_wall_ms": {
            "in_memory": round(memory_ms, 3),
            "durable_fsync_always": round(durable_ms, 3),
            "overhead_pct": round((durable_ms / memory_ms - 1) * 100, 1)
            if memory_ms else None,
        },
    }


def bench_chaos(runs: int) -> dict:
    """Robustness: rounds-to-success for one retrieval under a seeded
    5% frame-drop / 2% duplication schedule (loopback carrier).  One
    "round" is a delivery attempt; a clean wire always needs exactly
    one per frame, so rounds = 1 + transport-level retries."""
    system = build_system(seed=b"bench-proto-chaos")
    workload = generate_workload(system.rng.fork("workload"),
                                 WORKLOAD_FILES,
                                 server_address=system.sserver.address)
    system.patient.import_collection(workload)
    private_phi_storage(system.patient, system.sserver,
                        LoopbackTransport())
    keyword = system.patient.collection.index.keywords()[0]

    rounds, dropped, duplicated = [], 0, 0
    for seed in range(runs):
        faults = FaultPolicy(seed=seed, drop_rate=CHAOS_DROP_RATE,
                             duplicate_rate=CHAOS_DUP_RATE)
        net = with_policies(LoopbackTransport(),
                            retry=RetryPolicy(attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        rt = common_case_retrieval(system.patient, system.sserver, net,
                                   [keyword])
        rounds.append(1 + rt.stats.retries)
        dropped += faults.counts["dropped"]
        duplicated += faults.counts["duplicated"]
    return {
        "drop_rate": CHAOS_DROP_RATE,
        "dup_rate": CHAOS_DUP_RATE,
        "runs": runs,
        "rounds_to_success_mean": round(statistics.mean(rounds), 3),
        "rounds_to_success_max": max(rounds),
        "frames_dropped": dropped,
        "frames_duplicated": duplicated,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=5,
                        help="timing samples per protocol (median kept)")
    parser.add_argument("--chaos-runs", type=int, default=60,
                        help="seeded lossy-wire retrievals for the "
                             "rounds-to-success figure")
    parser.add_argument("--throughput-duration", type=float, default=1.0,
                        help="seconds of sustained echo traffic per "
                             "throughput leg")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_protocols.json")
    args = parser.parse_args()
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    if args.chaos_runs < 1:
        parser.error("--chaos-runs must be at least 1")
    if args.throughput_duration <= 0:
        parser.error("--throughput-duration must be positive")

    print("== protocol rounds over the simulated network ==")
    protocols = bench_protocols(args.iters)
    for name, row in protocols.items():
        print("   %-18s %2d msg  %7d B  %8.2f ms wall"
              % (name, row["messages"], row["bytes"], row["wall_ms"]))

    print("== one retrieval across transport backends ==")
    backends = bench_backends(args.iters)
    for name, row in backends.items():
        print("   %-9s %2d msg  %6d B  %8.2f ms wall"
              % (name, row["messages"], row["bytes"], row["wall_ms"]))

    print("== sustained dispatch throughput (echo, 256 B) ==")
    throughput = bench_throughput(args.throughput_duration)
    for clients, row in throughput["async_mux"].items():
        print("   async %3s client %8.0f frames/s  p50 %6.3f ms  "
              "p99 %6.3f ms" % (clients, row["frames_per_s"], row["p50_ms"],
                                row["p99_ms"]))
    print("   64-client/1-client speedup: %sx on %d core(s)"
          % (throughput["speedup_64_vs_1_client"], throughput["cpu_count"]))
    paced = throughput["paced"]
    print("   paced: 1 echo per %d ms, %.2f ms handler: %.3f ms p50, "
          "%.3f ms p90 outside the handler (%d frames)"
          % (paced["interval_ms"], paced["handler_ms_p50"],
             paced["outside_handler_ms_p50"],
             paced["outside_handler_ms_p90"], paced["frames"]))

    print("== durability: write-ahead journal overhead ==")
    durability = bench_durability(args.iters)
    for policy, us in durability["journal_append_us_1KiB"].items():
        print("   journal append (1 KiB, fsync=%-6s) %8.1f us"
              % (policy, us))
    row = durability["storage_protocol_wall_ms"]
    print("   storage protocol: %.2f ms in-memory vs %.2f ms durable "
          "(+%s%%)" % (row["in_memory"], row["durable_fsync_always"],
                       row["overhead_pct"]))

    print("== retrieval rounds-to-success on a lossy wire ==")
    chaos = bench_chaos(args.chaos_runs)
    print("   drop=%.0f%% dup=%.0f%%  %d run(s): mean %.3f rounds, "
          "max %d (dropped %d, duplicated %d frames)"
          % (chaos["drop_rate"] * 100, chaos["dup_rate"] * 100,
             chaos["runs"], chaos["rounds_to_success_mean"],
             chaos["rounds_to_success_max"], chaos["frames_dropped"],
             chaos["frames_duplicated"]))

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "iters": args.iters,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "protocols": protocols,
        "transport_backends": backends,
        "throughput": throughput,
        "durability": durability,
        "chaos_retrieval": chaos,
    }
    trajectory = {"runs": []}
    if args.out.exists():
        try:
            trajectory = json.loads(args.out.read_text())
        except (ValueError, OSError):
            pass
        if not isinstance(trajectory.get("runs"), list):
            trajectory = {"runs": []}
    trajectory["runs"].append(entry)
    args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
    print("appended run to %s (%d run(s) recorded)"
          % (args.out, len(trajectory["runs"])))


if __name__ == "__main__":
    main()
