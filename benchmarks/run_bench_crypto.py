"""Standalone before/after benchmark for the hot-path accelerations.

Measures the naive and accelerated variants of the four optimisation
targets side by side and appends a run entry to a trajectory JSON file
(default ``BENCH_crypto.json`` at the repo root):

1. fixed-base scalar multiplication — generic NAF ``Point.__mul__`` vs the
   windowed :class:`~repro.crypto.precompute.PrecomputedPoint` tables,
2. fixed-first-argument pairing — full ``tate_pairing`` Miller loop vs
   :class:`~repro.crypto.pairing.PreparedPairing` replay,
3. Hess IBS verification — per-signature ``verify`` vs the randomized
   single-final-exponentiation ``batch_verify`` (n = 8),
4. S-server search serving — serial ``handle_search`` loop vs
   ``handle_search_batch``, plus index deserialization cold vs cached.

A fifth leg, ``symmetric``, times the patient's upload path primitive by
primitive (HMAC one-shot and keyed, AES block and key schedule, 1 KiB
CTR, ``DomainPrp.encrypt``) and end to end (a 20-file ``build_upload``
and the whole client half of an upload).

Usage::

    PYTHONPATH=src python benchmarks/run_bench_crypto.py \
        --params ss512 --iters 20 --out BENCH_crypto.json

The crypto sections honour ``--params`` (ss512 = production Type-A,
ss160 = fast test curve); the search sections always run on the fast test
parameters because their cost is symmetric-crypto-bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.crypto.aes import AES
from repro.crypto.engine import CryptoEngine
from repro.crypto.fpbackend import active_backend
from repro.crypto.hmac_impl import HmacKey, hmac_sha256
from repro.crypto.ibs import batch_verify, sign, verify
from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.modes import ctr_transform
from repro.crypto.pairing import (PreparedPairing, clear_pairing_cache,
                                  tate_pairing)
from repro.crypto.params import default_params, test_params
from repro.crypto.peks import MultiKeywordPeks
from repro.crypto.precompute import PrecomputedPoint
from repro.crypto.prp import DomainPrp
from repro.crypto.rng import HmacDrbg
from repro.sse.index import SecureIndex, clear_index_cache, load_index_cached
from repro.sse.scheme import Sse1Scheme, keygen

IBS_BATCH = 8
SEARCH_BATCH = 8
ENGINE_BATCH = 16
ENGINE_WORKER_STEPS = (1, 2, 4)


def _time(fn, iters: int) -> float:
    """Median seconds per call over ``iters`` calls."""
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _time_each(fn, args_list) -> float:
    """Median seconds per call, one distinct argument per call."""
    samples = []
    for arg in args_list:
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_scalar_mult(params, iters: int) -> dict:
    G = params.generator
    rng = HmacDrbg(b"bench-runner-mul")
    scalars = [params.random_scalar(rng) for _ in range(iters)]

    naive_s = _time_each(lambda k: G * k, scalars)
    t0 = time.perf_counter()
    table = PrecomputedPoint(G)
    build_s = time.perf_counter() - t0
    fast_s = _time_each(table.multiply, scalars)
    assert table.multiply(scalars[0]) == G * scalars[0]
    return {"naive_ms": naive_s * 1e3, "accelerated_ms": fast_s * 1e3,
            "table_build_ms": build_s * 1e3,
            "speedup": naive_s / fast_s}


def bench_prepared_pairing(params, iters: int) -> dict:
    P = params.generator * 7
    rng = HmacDrbg(b"bench-runner-pair")
    qs = [params.generator * params.random_scalar(rng) for _ in range(iters)]

    clear_pairing_cache()  # distinct Qs anyway; keep the LRU out of it
    naive_s = _time_each(lambda Q: tate_pairing(P, Q), qs)
    t0 = time.perf_counter()
    prep = PreparedPairing(P)
    build_s = time.perf_counter() - t0
    fast_s = _time_each(prep.pair, qs)
    assert prep.pair(qs[0]) == tate_pairing(P, qs[0])
    return {"naive_ms": naive_s * 1e3, "accelerated_ms": fast_s * 1e3,
            "prepare_ms": build_s * 1e3, "speedup": naive_s / fast_s}


def bench_ibs_batch(params, iters: int) -> dict:
    rng = HmacDrbg(b"bench-runner-ibs")
    pkg = PrivateKeyGenerator(params, rng)
    items = []
    for i in range(IBS_BATCH):
        identity = "dr-%d" % i
        key = pkg.extract(identity)
        message = b"msg-%d" % i
        items.append((identity, message, sign(params, key, message, rng)))

    iters = max(1, iters // 4)  # each call is 8 verifications
    naive_s = _time(lambda: all(verify(params, pkg.public_key, i, m, s)
                                for i, m, s in items), iters)
    fast_s = _time(lambda: batch_verify(params, pkg.public_key, items), iters)
    assert batch_verify(params, pkg.public_key, items)
    return {"batch_size": IBS_BATCH, "naive_ms": naive_s * 1e3,
            "accelerated_ms": fast_s * 1e3, "speedup": naive_s / fast_s}


def _build_search_system():
    from repro.core.protocols.storage import private_phi_storage
    from repro.core.system import build_system
    from repro.ehr.phi import generate_workload
    system = build_system(seed=b"bench-runner-search")
    workload = generate_workload(system.rng.fork("workload"), 10,
                                 server_address=system.sserver.address)
    system.patient.import_collection(workload)
    private_phi_storage(system.patient, system.sserver, system.network)
    return system


def _search_requests(system, count: int, now_base: float):
    from repro.core.protocols.messages import pack_fields, seal
    from repro.core.sserver import SearchRequest
    server = system.sserver
    collection_id = system.patient.collection_ids[server.address]
    keywords = sorted(system.patient.collection.index.keywords())
    requests = []
    for i in range(count):
        pseudonym = system.patient.fresh_pseudonym()
        nu = system.patient.session_key_with(server.identity_key.public,
                                             pseudonym)
        td = system.patient.trapdoor(keywords[i % len(keywords)]).to_bytes()
        requests.append(SearchRequest(
            pseudonym=pseudonym.public, collection_id=collection_id,
            envelope=seal(nu, "phi-retrieve", pack_fields(td),
                          now_base + i * 1e-3)))
    return server, requests


def bench_parallel_search(iters: int) -> dict:
    system = _build_search_system()
    iters = max(2, iters // 2)

    def serial(now_base):
        server, requests = _search_requests(system, SEARCH_BATCH, now_base)
        return [server.handle_search(r.pseudonym, r.collection_id,
                                     r.envelope, now_base)
                for r in requests]

    def batched(now_base):
        server, requests = _search_requests(system, SEARCH_BATCH, now_base)
        return server.handle_search_batch(requests, now_base)

    # Fresh timestamps per round keep the replay guard green.
    serial_s = _time_each(serial, [1e4 + 10.0 * i for i in range(iters)])
    batch_s = _time_each(batched, [1e6 + 10.0 * i for i in range(iters)])
    return {"batch_size": SEARCH_BATCH, "serial_ms": serial_s * 1e3,
            "parallel_ms": batch_s * 1e3, "speedup": serial_s / batch_s}


def bench_engine_scaling(params, iters: int) -> dict:
    """Per-core scaling of the process-parallel crypto engine.

    Runs IBS batch verification and multi-keyword PEKS search (the two
    pairing-heaviest served batches) serially and through
    :class:`~repro.crypto.engine.CryptoEngine` pools of 1/2/4 workers.
    ``cpu_count`` is recorded alongside the timings: process pools scale
    with *cores*, so a 4-worker speedup is only meaningful relative to
    the cores the box actually has (on a 1-core machine the pooled runs
    measure pure IPC overhead, and the 1-worker engine — which never
    forks — is the never-worse-than-serial guarantee).
    """
    rng = HmacDrbg(b"bench-runner-engine")
    pkg = PrivateKeyGenerator(params, rng)
    iters = max(2, iters // 4)

    sigs = []
    for i in range(ENGINE_BATCH):
        identity = "dr-%d" % i
        key = pkg.extract(identity)
        message = b"msg-%d" % i
        sigs.append((identity, message, sign(params, key, message, rng)))

    role = "2026|ER|bench"
    role_key = pkg.extract(role)
    peks = MultiKeywordPeks(params, pkg.public_key)
    tags = [peks.tag(role, ["kw-%d" % i, "common"], rng)
            for i in range(ENGINE_BATCH)]
    trapdoor = MultiKeywordPeks.trapdoor(role_key.private, params, "common")

    def measure(make_call):
        serial_s = _time(make_call(None), iters)
        per_worker = {}
        for workers in ENGINE_WORKER_STEPS:
            with CryptoEngine(workers, prepare_points=(params.generator,
                                                       pkg.public_key),
                              min_parallel=2) as engine:
                engine.start()  # pay fork + warm-up outside the timer
                pooled_s = _time(make_call(engine), iters)
            per_worker[str(workers)] = {"ms": pooled_s * 1e3,
                                        "speedup": serial_s / pooled_s}
        return {"batch_size": ENGINE_BATCH, "serial_ms": serial_s * 1e3,
                "workers": per_worker}

    out = {"cpu_count": os.cpu_count(),
           "fp_backend": active_backend().name}
    out["ibs_batch_verify"] = measure(
        lambda eng: lambda: batch_verify(params, pkg.public_key, sigs,
                                         engine=eng))
    out["multi_keyword_search"] = measure(
        lambda eng: lambda: MultiKeywordPeks.test_batch(tags, trapdoor,
                                                        engine=eng))
    return out


def bench_index_cache(iters: int) -> dict:
    rng = HmacDrbg(b"bench-runner-cache")
    scheme = Sse1Scheme(keygen(rng))
    keyword_map = {"kw-%04d" % i: [rng.random_bytes(16)] for i in range(200)}
    blob = scheme.build_index(keyword_map, rng).to_bytes()
    clear_index_cache()
    cold_s = _time(lambda: SecureIndex.from_bytes(blob), iters)
    load_index_cached(blob)
    hot_s = _time(lambda: load_index_cached(blob), iters)
    return {"blob_bytes": len(blob), "cold_ms": cold_s * 1e3,
            "cached_ms": hot_s * 1e3, "speedup": cold_s / hot_s}


def _time_us(fn, calls: int, iters: int) -> float:
    """Median microseconds per call; each sample runs ``calls`` calls."""
    def batch():
        for _ in range(calls):
            fn()
    return _time(batch, iters) / calls * 1e6


def bench_symmetric(params, iters: int) -> dict:
    """The patient's upload path: symmetric primitives and the upload.

    ``upload_client_ms`` is the in-process client half of one upload —
    a fresh pseudonym, ``build_upload`` of a 20-file collection, and ν
    with the S-server — warm (PK_S's prepared pairing built).
    """
    from repro.core.system import build_system
    from repro.ehr.phi import generate_workload

    key, message = bytes(range(32)), bytes(64)
    keyed = HmacKey(key)
    aes = AES(bytes(range(16)))
    nonce, kib = bytes(12), bytes(1024)
    alpha = 72       # α of a 58-node (20-file) secure index
    prp = DomainPrp(key, alpha)
    out = {"cpu_count": os.cpu_count(),
           "hmac_oneshot_us": _time_us(lambda: hmac_sha256(key, message),
                                       500, iters),
           "hmac_keyed_us": _time_us(lambda: keyed.mac(message), 500, iters),
           "aes_block_us": _time_us(lambda: aes.encrypt_block(nonce + b"ctr!"),
                                    200, iters),
           "aes_key_schedule_us": _time_us(lambda: AES(key[:16]), 200, iters),
           "ctr_1kib_us": _time_us(lambda: ctr_transform(aes, nonce, kib),
                                   5, iters),
           "domain_prp_us": _time(lambda: [prp.encrypt(x)
                                           for x in range(alpha)], iters)
           / alpha * 1e6}

    system = build_system(seed=b"bench-runner-symmetric", params=params)
    patient, server_public = system.patient, system.sserver.identity_key.public
    patient.import_collection(generate_workload(
        HmacDrbg(b"bench-runner-upload"), 20, system.sserver.address))

    def client_half():
        pseudonym = patient.fresh_pseudonym()
        patient.build_upload()
        patient.session_key_with(server_public, pseudonym)

    client_half()  # warm the prepared-pairing cache
    out["build_upload_ms"] = _time(patient.build_upload, iters) * 1e3
    out["upload_client_ms"] = _time(client_half, iters) * 1e3
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", choices=["ss512", "ss160"],
                        default="ss512")
    parser.add_argument("--iters", type=int, default=20,
                        help="timing samples per measurement (median kept)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_crypto.json")
    args = parser.parse_args()
    if args.iters < 1:
        parser.error("--iters must be at least 1")

    params = default_params() if args.params == "ss512" else test_params()
    results = {}
    print("== fixed-base scalar multiplication (%s) ==" % args.params)
    results["scalar_mult"] = bench_scalar_mult(params, args.iters)
    print("   naive %.3f ms  accelerated %.3f ms  speedup %.2fx"
          % (results["scalar_mult"]["naive_ms"],
             results["scalar_mult"]["accelerated_ms"],
             results["scalar_mult"]["speedup"]))
    print("== fixed-argument pairing (%s) ==" % args.params)
    results["prepared_pairing"] = bench_prepared_pairing(params, args.iters)
    print("   naive %.3f ms  accelerated %.3f ms  speedup %.2fx"
          % (results["prepared_pairing"]["naive_ms"],
             results["prepared_pairing"]["accelerated_ms"],
             results["prepared_pairing"]["speedup"]))
    print("== IBS batch verification (%s, n=%d) ==" % (args.params, IBS_BATCH))
    results["ibs_batch_verify"] = bench_ibs_batch(params, args.iters)
    print("   serial %.3f ms  batched %.3f ms  speedup %.2fx"
          % (results["ibs_batch_verify"]["naive_ms"],
             results["ibs_batch_verify"]["accelerated_ms"],
             results["ibs_batch_verify"]["speedup"]))
    print("== S-server batched search (test params, n=%d) ==" % SEARCH_BATCH)
    results["parallel_search"] = bench_parallel_search(args.iters)
    print("   serial %.3f ms  pooled %.3f ms  speedup %.2fx"
          % (results["parallel_search"]["serial_ms"],
             results["parallel_search"]["parallel_ms"],
             results["parallel_search"]["speedup"]))
    print("== engine per-core scaling (%s, n=%d, %s cores) =="
          % (args.params, ENGINE_BATCH, os.cpu_count()))
    results["engine_scaling"] = bench_engine_scaling(params, args.iters)
    for section in ("ibs_batch_verify", "multi_keyword_search"):
        line = "   %-20s serial %.3f ms" % (
            section, results["engine_scaling"][section]["serial_ms"])
        for workers in ENGINE_WORKER_STEPS:
            entry = results["engine_scaling"][section]["workers"][str(workers)]
            line += "  %dw %.2fx" % (workers, entry["speedup"])
        print(line)
    print("== index deserialization cache ==")
    results["index_cache"] = bench_index_cache(args.iters)
    print("   cold %.3f ms  cached %.4f ms  speedup %.0fx"
          % (results["index_cache"]["cold_ms"],
             results["index_cache"]["cached_ms"],
             results["index_cache"]["speedup"]))

    print("== symmetric upload path (%s, %s cores) =="
          % (args.params, os.cpu_count()))
    results["symmetric"] = sym = bench_symmetric(params, args.iters)
    print("   hmac one-shot %.2f us  keyed %.2f us  aes block %.1f us  "
          "key schedule %.1f us  ctr 1KiB %.0f us  DomainPrp %.1f us"
          % (sym["hmac_oneshot_us"], sym["hmac_keyed_us"],
             sym["aes_block_us"], sym["aes_key_schedule_us"],
             sym["ctr_1kib_us"], sym["domain_prp_us"]))
    print("   build_upload (20 files) %.2f ms  client half %.2f ms"
          % (sym["build_upload_ms"], sym["upload_client_ms"]))

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": args.params,
        "iters": args.iters,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
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
