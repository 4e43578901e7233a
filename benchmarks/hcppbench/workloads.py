"""The hcppbench deployment, its three workloads, and reply verification.

One :class:`Deployment` is a real two-process HCPP installation: a
server process (``server.py``: router + 2 durable shards and the durable
A-server on one :class:`~repro.net.transport.AsyncTransport`) and this
load process, which rebuilds the client side from the same seed and
binds the P-device endpoint the A-server pushes passcodes to.

Every workload verifies every reply it gets — decrypted PHI and MHI
against the records the generator produced — and counts raised errors,
refusals, PARTIAL replies and wrong bytes as failed ops.  After its
window ``ingest`` kill -9s the server, restarts it over the same data
directory (``recovery_s`` times that) and reads back every upload it
had acknowledged.  A wrong plaintext, or acknowledged data that cannot
be read back, is a wrong result: it fails the run's verdict, not just
one op.

The workload shapes (loops, callers, rates, sizes) are read from
``plan.json`` beside this file.

Each workload's mean and p75 latency are of its headline op — the
upload (``ingest``), the search at the lowest rate (``lookup``), the
caregiver's bedside waits, P-device and MHI retrieval (``emergency``) —
while ``ops_per_s`` counts its whole mix (``lookup``: searches served
at the highest rate).  All three pool the whole measured window.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import itertools
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core import dispatch, wire
from repro.core.entities import Family
from repro.core.protocols import (emergency, messages, mhi, privilege,
                                  retrieval, storage)
from repro.core.protocols.messages import Envelope, pack_fields, unpack_fields
from repro.core.system import build_system
from repro.crypto.nike import SHARED_KEY_SIZE, shared_key_from_points
from repro.crypto.pairing import prepared
from repro.crypto.params import default_params
from repro.crypto.precompute import fixed_base_mul
from repro.crypto.rng import HmacDrbg
from repro.ehr.phi import generate_workload
from repro.ehr.population import ZipfSampler
from repro.net.transport import AsyncTransport

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Workload shapes and the per-layer metric map; see README.md.
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOADS = tuple(PLAN["workloads"])

# -- the deployment (identical for every workload) ----------------------------
N_SHARDS = PLAN["deployment"]["shards"]
FSYNC_POLICY = PLAN["deployment"]["fsync_policy"]   # no snapshots
TRANSPORT = "AsyncTransport (one mux connection per destination)"
SETUPS = PLAN["deployment"]["setups"]   # setup_s: median of this many
HOME_FILES = PLAN["deployment"]["home_files"]
SERVER_TIMEOUT_S = 60.0

# -- workload shapes ----------------------------------------------------------
_INGEST = PLAN["workloads"]["ingest"]
_LOOKUP = PLAN["workloads"]["lookup"]
_EMERGENCY = PLAN["workloads"]["emergency"]
INGEST_FILES = _INGEST["files_per_upload"]
INGEST_POOL = _INGEST["upload_pool"]   # distinct collections, in turn
LOOKUP_COLLECTIONS = _LOOKUP["collections"]
LOOKUP_FILES = _LOOKUP["files_per_collection"]
LOOKUP_ZIPF = _LOOKUP["zipf_s"]
#: Open-loop rates: about 20% and 60% of the 150-250 searches/s this
#: deployment saturates at (2 load threads, SS512, 2-core box; see
#: README.md), and one above what it reaches in the host's fastest phases.
LOOKUP_RATES = tuple(_LOOKUP["rates_rps"])
LOOKUP_SHARES = tuple(_LOOKUP["rate_shares"])   # of each round
LOOKUP_ROUND_S = _LOOKUP["round_s"]
LOOKUP_WARMUP_S = _LOOKUP["warmup_s"]
LOOKUP_LIMIT_MS = _LOOKUP["p99_limit_ms"]      # behind max_rate_rps
VERIFY_BATCH = 32            # collections per verification multi-search

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "server_rss_mb": ("MB", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_ms_mean": ("ms", "lower"),
    "op_ms_p75": ("ms", "lower"),
    "wire_kb_per_op": ("KiB", "lower"),
    "disk_kb_per_op": ("KiB", "lower"),
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed HCPP op)."""


def system_seed(seed: int) -> bytes:
    return b"hcppbench/%d" % seed


def deployment_system(seed: int):
    """The whole HCPP system; both processes build it from one seed."""
    return build_system(seed=system_seed(seed), params=default_params())


def percentile(values, q: float) -> float:
    """The q-th percentile (inclusive method); inf entries are failures."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]) or math.isinf(ordered[low]):
        return ordered[high]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def environment() -> dict:
    """What every result records about where it ran."""
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = ""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git": revision or "unknown",
            "params": default_params().name,
            "fsync_policy": FSYNC_POLICY,
            "shards": N_SHARDS,
            "transport": TRANSPORT}


# -- the server process -------------------------------------------------------
class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, seed: int, data_dir: Path, pdevice_port: int,
                 trace: bool) -> None:
        command = [sys.executable, str(HERE / "server.py"),
                   "--seed", str(seed), "--data-dir", str(data_dir),
                   "--pdevice-port", str(pdevice_port)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)
        self._buffer = b""

    def _line(self) -> str:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise BenchError("server process silent for %.0f s"
                                 % SERVER_TIMEOUT_S)
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError("server process exited (code %s)"
                                 % self.proc.poll())
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def ready(self) -> dict:
        """Block until the server serves; returns its ports."""
        line = self._line()
        if not line.startswith("READY "):
            raise BenchError("server said %r" % line)
        return json.loads(line[len("READY "):])

    def command(self, text: str) -> str:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        return self._line()

    def cpu_seconds(self) -> float:
        with open("/proc/%d/stat" % self.proc.pid) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=SERVER_TIMEOUT_S)
        self._close_pipes()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.command("quit") != "BYE":
                    raise BenchError("server did not acknowledge quit")
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except (BenchError, OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir()
               if entry.is_file())


class Deployment:
    """One server process plus this process's client side."""

    def __init__(self, seed: int, data_dir: Path, trace: bool) -> None:
        self.seed = seed
        self.data_dir = data_dir
        self.trace = trace
        self.server: ServerProcess | None = None
        self.transport: AsyncTransport | None = None

    def start(self, home) -> float:
        """Rebuild the client, spawn the server, upload the home
        collection; returns seconds from start to that first ack."""
        started = time.perf_counter()
        self.system = deployment_system(self.seed)
        self.params = self.system.params
        self.patient = self.system.patient
        self.sserver = self.system.sserver
        self.aserver = self.system.state
        self.pdevice = self.system.pdevice
        self.physician = self.system.any_physician()
        # Nothing is in flight at close, and the server's connection to
        # the P-device endpoint stays open until it quits: a short drain.
        self.transport = AsyncTransport(handler_threads=2,
                                        drain_timeout_s=0.5)
        dispatch.bind_entity(self.transport, self.pdevice, self.params,
                             preshared_key=self.patient.preshared_key(
                                 self.pdevice.name))
        self._spawn()
        self.home = home
        self.patient.import_collection(home)
        self.home_cid = storage.private_phi_storage(
            self.patient, self.sserver, self.transport).collection_id
        return time.perf_counter() - started

    def _spawn(self) -> None:
        self.server = ServerProcess(
            self.seed, self.data_dir,
            self.transport.port_of(self.pdevice.address), self.trace)
        ports = self.server.ready()
        self.transport.add_route(self.sserver.address, "127.0.0.1",
                                 ports["sserver"])
        self.transport.add_route(self.aserver.address, "127.0.0.1",
                                 ports["aserver"])

    def crash_and_recover(self, ctx: "Context") -> float:
        """kill -9 the server and restart it over the same data dir; the
        seconds from the kill until a verified home-collection retrieval
        succeeds."""
        keyword = sorted(self.home.index.keywords())[0]
        expected = expected_files([self.home], keyword)
        started = time.perf_counter()
        self.server.kill9()
        self._spawn()
        self.patient.collection_ids[self.sserver.address] = self.home_cid
        ctx.run("recovery-probe", "patient",
                lambda: retrieval.common_case_retrieval(
                    self.patient, self.sserver, self.transport, [keyword]),
                lambda r: same_files(r.files, expected), must_hold=True)
        return time.perf_counter() - started

    def stop(self) -> None:
        # Client first: the server's graceful drain would otherwise wait
        # out its full timeout on this process's idle mux connections.
        try:
            if self.transport is not None:
                self.transport.close()
        finally:
            if self.server is not None:
                self.server.stop()
            shutil.rmtree(self.data_dir, ignore_errors=True)


# -- ops, failures, verification ----------------------------------------------
class Tally:
    """Attempted/failed counts and per-kind latencies, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: "dict[str, int]" = defaultdict(int)
        self.latency: "dict[str, list[float]]" = defaultdict(list)

    def ok(self, kind: str, seconds: "float | None") -> None:
        with self._lock:
            self.attempted += 1
            if seconds is not None:
                self.latency[kind].append(seconds)

    def fail(self, kind: str, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.errors["%s: %s" % (kind, what)] += 1

    def wrong_result(self, kind: str, what: str = "wrong plaintext") -> None:
        """A failed op that also fails the run: wrong bytes, or
        acknowledged data that could not be read back."""
        with self._lock:
            self.wrong += 1
        self.fail(kind, what)


@dataclass
class Context:
    """Per-pass state shared by a workload's ops."""

    tally: Tally
    tracer: object = None
    rng: random.Random = field(default_factory=random.Random)
    restart: bool = True          # ingest: kill -9 and recover after
    measuring: bool = False
    op_ids: "itertools.count" = field(default_factory=itertools.count)

    def op(self, kind: str, party: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(kind, next(self.op_ids), party)

    def run(self, kind: str, party: str, call, check=None,
            must_hold: bool = False):
        """Time one op; count a raise or a failed check as a failure.
        ``must_hold`` marks a read of acknowledged state: there a raise,
        a refusal or a PARTIAL reply is a wrong result as well.
        Returns the op's result, or None when it failed."""
        started = time.perf_counter()
        try:
            with self.op(kind, party):
                result = call()
        except Exception as exc:
            if must_hold:
                self.tally.wrong_result(kind, type(exc).__name__)
            else:
                self.tally.fail(kind, type(exc).__name__)
            return None
        elapsed = time.perf_counter() - started
        if check is not None and not check(result):
            self.tally.wrong_result(kind)
            return None
        self.tally.ok(kind, elapsed if self.measuring else None)
        return result


def expected_files(collections, keyword: str) -> "list[bytes]":
    return sorted(coll.files[fid].to_bytes() for coll in collections
                  for fid in coll.index.fids_for(keyword))


def same_files(files, expected: "list[bytes]") -> bool:
    return sorted(f.to_bytes() for f in files) == expected


def multi_search(dep: Deployment, patient, cids, keywords):
    """OP_SEARCH_MULTI with the full patient side: fresh pseudonym and ν,
    trapdoors, sealed request, opened and decrypted reply."""
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(dep.sserver.identity_key.public, pseudonym)
    trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
    request = messages.seal(nu, "phi-retrieve", pack_fields(*trapdoors),
                            dep.transport.now)
    frame = wire.make_frame(wire.OP_SEARCH_MULTI, pseudonym.public.to_bytes(),
                            pack_fields(*cids), request.to_bytes())
    response = dep.transport.request(patient.address, dep.sserver.address,
                                     frame, label="retrieval/multi",
                                     reply_label="retrieval/multi-results")
    reply = Envelope.from_bytes(wire.parse_response(response))
    payload = messages.open_envelope(nu, reply, dep.transport.now,
                                     patient.replay_guard,
                                     expected_label="phi-results")
    return patient.decrypt_results(unpack_fields(payload))


def verify_collections(dep: Deployment, ctx: Context, patient, stored,
                       keyword: str = "allergies") -> None:
    """Search every acknowledged ``(cid, collection)`` and require the
    right plaintext from each, batched into multi-collection searches;
    any failure is a wrong result.  Consecutive uploads come from
    distinct generated collections, so the file ids inside one batch
    are unambiguous."""
    for start in range(0, len(stored), VERIFY_BATCH):
        batch = stored[start:start + VERIFY_BATCH]
        expected = expected_files([coll for _, coll in batch], keyword)
        ctx.run("durability-check", "patient",
                lambda: multi_search(dep, patient,
                                     [cid for cid, _ in batch], [keyword]),
                lambda files: same_files(files, expected), must_hold=True)


def generated(seed: int, label: str, n_files: int):
    """A generated PHI collection, a pure function of seed and label."""
    return generate_workload(
        HmacDrbg(b"hcppbench-input/%d/%s" % (seed, label.encode())), n_files)


# -- measurement window -------------------------------------------------------
class Meter:
    """Resource deltas (and, when tracing, span capture) over a window."""

    def __init__(self, dep: Deployment, ctx: Context) -> None:
        self.dep = dep
        self.ctx = ctx

    def start(self) -> None:
        dep = self.dep
        if self.ctx.tracer is not None:
            dep.server.command("trace on")
            self.ctx.tracer.enabled = True
        self.ctx.measuring = True
        # Taken before the window: the uploads a run completes, and so
        # the collections the server holds, vary with the host's speed.
        self.server_rss_mb = dep.server.peak_rss_mb()
        self.mark = dep.transport.mark()
        self.disk0 = _dir_bytes(dep.data_dir)
        self.server_cpu0 = dep.server.cpu_seconds()
        self.client_cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        dep = self.dep
        self.wall_s = time.perf_counter() - self.t0
        self.client_cpu_s = time.process_time() - self.client_cpu0
        self.server_cpu_s = dep.server.cpu_seconds() - self.server_cpu0
        self.disk_bytes = _dir_bytes(dep.data_dir) - self.disk0
        self.ctx.measuring = False
        if self.ctx.tracer is not None:
            self.ctx.tracer.enabled = False
            dep.server.command("trace off")
        records = dep.transport.records_since(self.mark)
        servers = {dep.sserver.address, dep.aserver.address}
        self.frames = len(records)
        self.wire_bytes = sum(r.nbytes for r in records)
        self.user_bytes = sum(r.nbytes for r in records if r.dst in servers)


@dataclass
class Measured:
    """What one workload pass measured."""

    #: Headline-op latencies over the whole window (a failed op counts
    #: in ``failed`` instead).  Pooling the window, not taking medians of
    #: its stretches, averages out the host's second-to-second swings.
    latencies_s: "list[float]"
    ops_per_s: float
    ops: int                      # every measured op of the workload's mix
    meter: Meter
    late_s: "list[float]"
    backlog_max: int
    details: "list[str]"
    #: callable(dep, ctx) -> report lines: acknowledged-state checks
    final_check: object = None


def _closed_loop(meter: Meter, seconds: float, warmup_s: float,
                 step) -> "list[float]":
    """Run ``step()`` back to back: a warm-up of ``warmup_s``, then
    ``seconds`` measured.  Returns the generator gaps between one op and
    the next."""
    warm_end = time.perf_counter() + warmup_s
    while time.perf_counter() < warm_end:
        step()
    meter.start()
    end = time.perf_counter() + seconds
    gaps: "list[float]" = []
    last_done = None
    while True:
        begin = time.perf_counter()
        if begin >= end:
            break
        if last_done is not None:
            gaps.append(begin - last_done)
        step()
        last_done = time.perf_counter()
    meter.stop()
    return gaps


def _latency_line(name: str, values_s: "list[float]") -> str:
    ms = [v * 1e3 for v in values_s]
    return ("%s_ms_p50 = %.3f ms, %s_ms_p90 = %.3f ms, %s_ms_p95 = %.3f ms "
            "(base %d ops)" % (name, percentile(ms, 50), name,
                               percentile(ms, 90), name, percentile(ms, 95),
                               len(ms)))


# -- workloads ----------------------------------------------------------------
def ingest(dep: Deployment, ctx: Context, seconds: float) -> Measured:
    """Closed loop, 1 caller: a 20-file upload under a fresh pseudonym."""
    pool = [generated(dep.seed, "ingest-%d" % i, INGEST_FILES)
            for i in range(INGEST_POOL)]
    stored: list = []
    counter = itertools.count()

    def step() -> None:
        coll = pool[next(counter) % INGEST_POOL]
        dep.patient.import_collection(coll)
        result = ctx.run("store", "patient",
                         lambda: storage.private_phi_storage(
                             dep.patient, dep.sserver, dep.transport))
        if result is not None:
            stored.append((result.collection_id, coll))

    def final_check(d: Deployment, c: Context) -> "list[str]":
        lines = []
        if c.restart:
            lines.append("recovery_s = %.3f s (kill -9 to a verified "
                         "retrieval)" % d.crash_and_recover(c))
        verify_collections(d, c, d.patient, stored)
        return lines

    meter = Meter(dep, ctx)
    gaps = _closed_loop(meter, seconds, _INGEST["warmup_s"], step)
    latencies = ctx.tally.latency["store"]
    return Measured(
        latencies_s=latencies, ops_per_s=len(latencies) / meter.wall_s,
        ops=len(latencies), meter=meter, late_s=gaps, backlog_max=0,
        details=[_latency_line("store", latencies)],
        final_check=final_check)


@dataclass
class _Search:
    cid: bytes
    coll: int
    keyword: str
    pseudonym: bytes
    nu: bytes
    payload: bytes


def _session_keys(dep: Deployment, count: int) -> "list[tuple[bytes, bytes]]":
    """The client half of ``count`` searches: (pseudonym, ν) pairs.

    Every request gets its own pseudonym TP' = ρ·TP, for consecutive ρ,
    and its own ν, never reused.  ν is derived on the server's side of
    the SOK identity, ê(Γ_S, TP'), which is byte-identical to the
    patient's; bilinearity gives ê(Γ_S, (ρ+1)·TP) = ê(Γ_S, ρ·TP) ·
    ê(Γ_S, TP), so each further key costs one multiplication in the
    pairing group instead of a pairing.  The first and last keys are
    checked against ``shared_key_from_points``; the server checks every
    one when it opens the request.
    """
    base = dep.aserver.issue_temporary_pool(1)[0].public
    gamma = dep.sserver.identity_key.private
    point = fixed_base_mul(base, dep.params.random_scalar(dep.patient.rng))
    pairing = prepared(gamma)
    value, step = pairing.pair(point), pairing.pair(base)
    keys, ends = [], []
    for i in range(count):
        nu = hashlib.sha256(b"HCPP-NIKE:" + value.to_bytes()).digest()
        keys.append((point.to_bytes(), nu[:SHARED_KEY_SIZE]))
        if i in (0, count - 1):
            ends.append((keys[-1][1], shared_key_from_points(gamma, point)))
        point, value = point + base, value * step
    if any(fast != slow for fast, slow in ends):
        raise BenchError("session keys disagree with shared_key_from_points")
    return keys


def _draw_searches(dep: Deployment, ctx: Context, colls, cids,
                   keys) -> "list[_Search]":
    """Zipf(1.0) draws over collections and their keywords, one per key."""
    by_coll = ZipfSampler(len(colls), exponent=LOOKUP_ZIPF)
    keywords = [sorted(coll.index.keywords()) for coll in colls]
    by_kw = [ZipfSampler(len(kws), exponent=LOOKUP_ZIPF) for kws in keywords]
    trapdoors: "dict[str, bytes]" = {}
    searches = []
    for point, nu in keys:
        c = by_coll.sample(ctx.rng.random())
        kw = keywords[c][by_kw[c].sample(ctx.rng.random())]
        if kw not in trapdoors:
            trapdoors[kw] = pack_fields(dep.patient.trapdoor(kw).to_bytes())
        searches.append(_Search(cids[c], c, kw, point, nu, trapdoors[kw]))
    return searches


@dataclass
class _Sample:
    due: float
    sent: float
    done: float
    backlog: int
    response: "bytes | None"


def _open_loop(dep: Deployment, ctx: Context, requests, rate: float):
    """Send ``requests`` at fixed spacing from 2 threads.  A request that
    falls due while both threads are busy waits (the backlog), so its
    latency — timed from when it was due — includes that wait.  The
    phase ends when its last request falls due: what is still waiting
    then is never sent, so an overloaded phase ends on time.  Returns
    the phase's start, the (request, sample) pairs of what was sent,
    and how many were left unsent."""
    samples: "list[_Sample | None]" = [None] * len(requests)
    cursor = itertools.count()
    start = time.perf_counter() + 0.02
    end = start + len(requests) / rate
    patient, server, transport = dep.patient, dep.sserver, dep.transport

    def caller() -> None:
        while True:
            i = next(cursor)
            if i >= len(requests):
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if sent >= end:
                return
            backlog = max(0, int((sent - start) * rate) - i)
            req = requests[i]
            try:
                with ctx.op("search", "patient"):
                    envelope = messages.seal(req.nu, "phi-retrieve",
                                             req.payload, transport.now)
                    frame = wire.make_frame(wire.OP_SEARCH, req.pseudonym,
                                            req.cid, envelope.to_bytes())
                    response = transport.request(
                        patient.address, server.address, frame,
                        label="retrieval/request",
                        reply_label="retrieval/response")
            except Exception as exc:
                ctx.tally.fail("search", type(exc).__name__)
                response = None
            samples[i] = _Sample(due, sent, time.perf_counter(), backlog,
                                 response)

    helper = threading.Thread(target=caller)
    helper.start()
    caller()
    helper.join()
    sent = [(req, sample) for req, sample in zip(requests, samples)
            if sample is not None]
    return start, sent, len(requests) - len(sent)


def _check_search_replies(dep: Deployment, ctx: Context, colls,
                          sent) -> "list[bool]":
    """Open every reply and compare it with the generated records.

    File ids must match the keyword's list exactly; every copy of a file
    must carry the same ciphertext; each distinct file is decrypted once
    and must equal the generated plaintext.  Runs after the timed
    windows so verification never competes with the generator."""
    now = dep.transport.now
    tags: set = set()
    ciphertexts: "dict[bytes, bytes]" = {}
    good = []
    for req, sample in sent:
        if sample.response is None:
            good.append(False)
            continue
        try:
            reply = Envelope.from_bytes(wire.parse_response(sample.response))
            payload = messages.open_envelope(req.nu, reply, now, None,
                                             expected_label="phi-results")
        except Exception as exc:
            ctx.tally.fail("search", type(exc).__name__)
            good.append(False)
            continue
        coll = colls[req.coll]
        blobs = unpack_fields(payload)
        correct = (reply.tag not in tags and sorted(b[:16] for b in blobs)
                   == sorted(coll.index.fids_for(req.keyword)))
        tags.add(reply.tag)
        for blob in blobs:
            fid = blob[:16]
            first = ciphertexts.setdefault(fid, blob)
            if first is not blob:
                correct = correct and first == blob
                continue
            files = dep.patient.decrypt_results([blob])
            correct = correct and files[0].to_bytes() == \
                coll.files[fid].to_bytes()
        if correct:
            ctx.tally.ok("search", None)
        else:
            ctx.tally.wrong_result("search")
        good.append(correct)
    return good


def lookup(dep: Deployment, ctx: Context, seconds: float) -> Measured:
    """Open loop over OP_SEARCH, client half precomputed: rounds of the
    three fixed rates in turn, so that every rate sees every spell of
    the host's speed."""
    rounds = max(1, round(seconds / LOOKUP_ROUND_S))
    sizes = [int(LOOKUP_WARMUP_S * LOOKUP_RATES[1])] + [
        int(rate * seconds / rounds * share)
        for rate, share in zip(LOOKUP_RATES, LOOKUP_SHARES)] * rounds
    colls, cids = [], []
    for i in range(LOOKUP_COLLECTIONS):
        coll = generated(dep.seed, "lookup-%d" % i, LOOKUP_FILES)
        dep.patient.import_collection(coll)
        result = storage.private_phi_storage(dep.patient, dep.sserver,
                                             dep.transport)
        colls.append(coll)
        cids.append(result.collection_id)
    requests = _draw_searches(dep, ctx, colls, cids,
                              _session_keys(dep, sum(sizes)))
    batches, offset = [], 0
    for size in sizes:
        batches.append(requests[offset:offset + size])
        offset += size

    _, warm, _ = _open_loop(dep, ctx, batches[0], LOOKUP_RATES[1])
    meter = Meter(dep, ctx)
    meter.start()
    runs = []
    for k, batch in enumerate(batches[1:]):
        rate = LOOKUP_RATES[k % len(LOOKUP_RATES)]
        runs.append((rate,) + _open_loop(dep, ctx, batch, rate))
    meter.stop()

    _check_search_replies(dep, ctx, colls, warm)
    by_rate = {rate: {"latency": [], "late": [], "served": 0, "busy_s": 0.0,
                      "unsent": 0, "kept_up": True}
               for rate in LOOKUP_RATES}
    backlog_max, ops = 0, 0
    for rate, start, sent, unsent in runs:
        good = _check_search_replies(dep, ctx, colls, sent)
        entry = by_rate[rate]
        entry["latency"] += [s.done - s.due if ok else math.inf
                             for (_, s), ok in zip(sent, good)]
        entry["late"] += [s.sent - s.due for _, s in sent]
        if sent:
            entry["served"] += len(sent)
            entry["busy_s"] += max(s.done for _, s in sent) - start
        entry["unsent"] += unsent
        growing = unsent > max(2, len(sent) // 100)
        entry["kept_up"] = entry["kept_up"] and all(good) and not growing
        backlog_max = max([backlog_max, unsent]
                          + [s.backlog for _, s in sent])
        ops += sum(good)
    details, max_rate = [], 0
    for rate, entry in by_rate.items():
        latency = entry["latency"]
        entry["achieved"] = entry["served"] / max(entry["busy_s"], 1e-9)
        p99 = percentile(latency, 99) * 1e3
        if p99 <= LOOKUP_LIMIT_MS and entry["kept_up"]:
            max_rate = rate
        details.append(
            "rate %d rps: search_ms_p50 = %.3f ms, search_ms_p90 = %.3f ms, "
            "search_ms_p99 = %.3f ms, achieved %.1f ops/s (%d rounds), "
            "late_ms_p99 = %.3f ms, unsent at phase ends %d "
            "(base %d requests)"
            % (rate, percentile(latency, 50) * 1e3,
               percentile(latency, 90) * 1e3, p99, entry["achieved"], rounds,
               percentile(entry["late"], 99) * 1e3, entry["unsent"],
               len(latency)))
    details.append("max_rate_rps = %d rps (p99 <= %.0f ms, no growing "
                   "backlog)" % (max_rate, LOOKUP_LIMIT_MS))
    # Latency at the lowest rate, where queueing does not amplify the
    # host's speed swings; throughput at the rate no host phase keeps
    # up with (see README.md).
    low, top = by_rate[LOOKUP_RATES[0]], by_rate[LOOKUP_RATES[-1]]
    return Measured(latencies_s=[t for t in low["latency"]
                                 if math.isfinite(t)],
                    ops_per_s=top["achieved"], ops=ops, meter=meter,
                    late_s=[t for e in by_rate.values() for t in e["late"]],
                    backlog_max=backlog_max, details=details)


def _role_days(first: datetime.date, index: int) -> "tuple[str, list[str]]":
    day = first + datetime.timedelta(days=index)
    return day.isoformat(), [(day + datetime.timedelta(days=k)).isoformat()
                             for k in range(5)]


def emergency_cycle(dep: Deployment, ctx: Context, courier, windows,
                    keywords, cycle: int) -> None:
    """One break-glass cycle: family and P-device retrieval, MHI store and
    retrieve under a fresh day's role, a d-rotating REVOKE (of the
    courier, already cut off) and a re-ASSIGN of the P-device."""
    patient, server, transport = dep.patient, dep.sserver, dep.transport
    keyword = keywords[cycle % len(keywords)]
    expected = expected_files([dep.home], keyword)
    day, horizon = _role_days(datetime.date(2030, 1, 1), cycle)
    window = replace(windows[cycle % len(windows)], day=day,
                     searchable_days=horizon)
    role = mhi.role_identity_for(day)

    ctx.run("family", "family",
            lambda: emergency.family_based_retrieval(
                dep.system.family, server, transport, [keyword]),
            lambda r: same_files(r.files, expected))
    ctx.run("pdevice", "pdevice",
            lambda: emergency.pdevice_emergency_retrieval(
                dep.physician, dep.pdevice, dep.aserver, server, transport,
                [keyword]),
            lambda r: same_files(r.files, expected))
    ctx.run("mhi_store", "pdevice",
            lambda: mhi.mhi_store(dep.pdevice, server,
                                  dep.aserver.public_key, transport, window,
                                  role))
    ctx.run("mhi_retrieve", "physician",
            lambda: mhi.mhi_retrieve(dep.physician, dep.aserver, server,
                                     transport, role, day),
            lambda r: [w.to_bytes() for w in r.windows]
            == [window.to_bytes()])
    ctx.run("revoke", "patient",
            lambda: privilege.revoke_privilege(patient, courier.name, server,
                                               transport))
    ctx.run("assign", "patient",
            lambda: privilege.assign_privilege(patient, dep.pdevice, server,
                                               transport))


def emergency_workload(dep: Deployment, ctx: Context,
                       seconds: float) -> Measured:
    """Closed loop, 1 caller, whole break-glass cycles."""
    patient, server, transport = dep.patient, dep.sserver, dep.transport
    courier = Family("courier")
    for entity in (dep.system.family, dep.pdevice, courier):
        privilege.assign_privilege(patient, entity, server, transport)
    windows = [dep.pdevice.vitals.generate_day("2030-01-%02d" % (i + 1))
               for i in range(4)]
    keywords = sorted(dep.home.index.keywords())
    ctx.rng.shuffle(keywords)
    cycles = itertools.count()

    def step() -> None:
        emergency_cycle(dep, ctx, courier, windows, keywords, next(cycles))

    meter = Meter(dep, ctx)
    gaps = _closed_loop(meter, seconds, _EMERGENCY["warmup_s"], step)
    kinds = _EMERGENCY["cycle"]
    latency = ctx.tally.latency
    ops = sum(len(latency[kind]) for kind in kinds)
    return Measured(
        latencies_s=latency["pdevice"] + latency["mhi_retrieve"],
        ops_per_s=ops / meter.wall_s, ops=ops, meter=meter,
        late_s=gaps, backlog_max=0,
        details=[_latency_line(kind, latency[kind]) for kind in kinds])


WORKLOAD_FUNCTIONS = {"ingest": ingest, "lookup": lookup,
                      "emergency": emergency_workload}


# -- one run ------------------------------------------------------------------
@dataclass
class PassResult:
    measured: Measured
    setup_s: float
    spans: "tuple[list, list] | None" = None

    def end_to_end(self) -> "dict[str, float]":
        m = self.measured
        meter = m.meter
        ops = max(m.ops, 1)
        return {
            "setup_s": self.setup_s,
            "server_rss_mb": meter.server_rss_mb,
            "ops_per_s": m.ops_per_s,
            "op_ms_mean": statistics.fmean(m.latencies_s or [math.nan]) * 1e3,
            "op_ms_p75": percentile(m.latencies_s, 75) * 1e3,
            "wire_kb_per_op": meter.wire_bytes / 1024.0 / ops,
            "disk_kb_per_op": meter.disk_bytes / 1024.0 / ops,
        }


def run_pass(workload: str, seed: int, seconds: float, work_dir: Path,
             ctx: Context, setups: int,
             trace_dir: "Path | None" = None) -> PassResult:
    """Set up (``setups`` times, keeping the last), run one workload,
    then the workload's acknowledged-state checks."""
    setup_times = []
    dep = None
    begin = time.perf_counter()
    try:
        for attempt in range(setups):
            if dep is not None:
                dep.stop()
            dep = Deployment(seed, work_dir / ("data-%d" % attempt),
                             trace=trace_dir is not None)
            home = generated(seed, "home", HOME_FILES)
            setup_times.append(dep.start(home))
        driven = time.perf_counter()
        measured = WORKLOAD_FUNCTIONS[workload](dep, ctx, seconds)
        meter = measured.meter
        measured.details += [
            "journal_bytes_per_user_byte = %.3f (base %d request bytes)"
            % (meter.disk_bytes / max(meter.user_bytes, 1), meter.user_bytes),
            "wall: %.1f s set-up x%d, %.1f s workload incl. preparation "
            "and warm-up" % (driven - begin, setups,
                             time.perf_counter() - driven)]
        spans = None
        if trace_dir is not None:
            server_file = trace_dir / "server.jsonl"
            stats = dep.server.command("dump %s" % server_file)
            if not stats.startswith("DUMPED"):
                raise BenchError("server trace dump failed: %r" % stats)
            from trace import load_jsonl
            spans = (ctx.tracer.take(), load_jsonl(str(server_file)))
            measured.details.append("server index cache: %s"
                                    % stats[len("DUMPED "):])
        if measured.final_check is not None:
            measured.details += measured.final_check(dep, ctx)
        return PassResult(measured, statistics.median(setup_times),
                          spans)
    finally:
        if dep is not None:
            dep.stop()
