"""Standalone before/after benchmark for the hot-path accelerations.

Measures the naive and accelerated variants of the optimisation targets
side by side and appends a run entry to a trajectory JSON file (default
``BENCH_crypto.json`` at the repo root):

1. fixed-base scalar multiplication — the ``Point.__mul__`` ladder vs
   the :class:`~repro.crypto.precompute.PrecomputedPoint` comb at every
   width from 4 to 8, build and multiply timed apart; it raises when a
   comb product differs from ``Point.__mul__`` on a G1 base or on a
   lifted point outside G1, so the ss160 smoke run fails on a comb bug,
2. fixed-first-argument pairing — full ``tate_pairing`` Miller loop vs
   :class:`~repro.crypto.pairing.PreparedPairing` replay,
3. S-server index deserialization — cold vs cached.

A fourth leg, ``symmetric``, times the patient's upload path primitive by
primitive (HMAC one-shot and keyed, AES block and key schedule, CTR at
1/3/11/64/256 blocks, the 60 nodes of a secure index in one
``semantic_encrypt_many`` pass and one cipher per node,
``DomainPrp.encrypt``) and end to end (a 20-file ``build_upload`` and
the whole client half of an upload).  It raises when the AES kernel
misses a FIPS 197 vector, or when a keystream block of any timed CTR or
index pass does not decrypt to its counter block under the byte-wise
inverse cipher, so the ss160 smoke run fails on a kernel bug.

A ``shortcuts`` leg times the two exact shortcuts of the patient's
upload against their direct forms: φ over a 60-node walk (a fresh
``DomainPrp`` per walk, as each upload builds one) with its round tables
and with every round MACed, and ν of a fresh pseudonym as the pairing
``shared_key_from_points(PK_S, Γ′)`` and as ``session_key_with``'s
ê(PK_S, Γ)^ρ.  It raises when either pair of results differs.

A fifth leg, ``pairing``, times the pairing group of the break-glass
path: a line-table build, ``miller_loop``, ``final_exponentiation``, a
160-bit G2 power, and hash-to-G1 cold and memoised.  It raises when
``miller_loop(P, Q)`` and ``prepared(P).miller(Q)`` disagree, so the
ss160 smoke run fails on a mismatch.

A sixth leg, ``ec``, times variable-base ``Point.__mul__`` with a
160-bit scalar and with the cofactor h, and Hess IBS sign and verify
cold (a signer not seen before) and warm (the same signer again).  It
raises when ``Point.__mul__`` disagrees with a Jacobian double-and-add
on any of its samples.

Usage::

    PYTHONPATH=src python benchmarks/run_bench_crypto.py \
        --params ss512 --iters 20 --out BENCH_crypto.json

The crypto sections honour ``--params`` (ss512 = production Type-A,
ss160 = fast test curve).
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
from repro.crypto.hashes import h1_identity
from repro.crypto.hmac_impl import HmacKey, hmac_sha256
from repro.crypto.modes import (NONCE_SIZE, SemanticCipher, ctr_transform,
                                ctr_transform_many, semantic_encrypt_many)
from repro.crypto.nike import shared_key_from_points
from repro.crypto.pairing import (PreparedPairing, clear_pairing_cache,
                                  final_exponentiation, miller_loop,
                                  prepared, tate_pairing)
from repro.crypto.params import default_params, test_params
from repro.crypto.precompute import (DEFAULT_WINDOW, PrecomputedPoint,
                                     clear_registry)
from repro.crypto.prp import DomainPrp
from repro.crypto.rng import HmacDrbg
from repro.sse.index import SecureIndex, clear_index_cache, load_index_cached
from repro.sse.scheme import Sse1Scheme, keygen


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
    """The ladder against the fixed-base comb at widths 4 to 8.

    ``ladder_ms`` multiplies G by 160-bit scalars through
    ``Point.__mul__``.  Per width, ``build_ms`` builds the comb of a
    fresh G1 base (its subgroup test included) and ``mul_ms`` multiplies
    G through its comb by the same scalars as the ladder.
    """
    from repro.crypto.ec import Point

    G, curve = params.generator, params.curve
    rng = HmacDrbg(b"bench-runner-mul")
    scalars = [params.random_scalar(rng) for _ in range(iters)]
    bases = [G * params.random_scalar(rng) for _ in range(iters)]
    outside = next(point for point in (Point.from_x(x, curve)
                                       for x in range(5, 1000))
                   if point is not None and not point.is_in_subgroup())
    n = curve.r * curve.h
    checks = scalars[:3] + [-scalars[0], 1, curve.r - 1, curve.r + 1,
                            curve.h + 1, n - 1]
    out = {"cpu_count": os.cpu_count(), "window": DEFAULT_WINDOW,
           "ladder_ms": _time_each(lambda k: G * k, scalars) * 1e3,
           "widths": {}}
    for window in range(4, 9):
        for base in (G, outside):
            comb = PrecomputedPoint(base, window=window)
            if any(comb.multiply(k) != base * k for k in checks):
                raise RuntimeError("the width-%d comb disagrees with "
                                   "Point.__mul__" % window)
        comb = PrecomputedPoint(G, window=window)
        out["widths"][str(window)] = {
            "build_ms": _time_each(
                lambda b: PrecomputedPoint(b, window=window), bases) * 1e3,
            "mul_ms": _time_each(comb.multiply, scalars) * 1e3}
    chosen = out["widths"][str(DEFAULT_WINDOW)]
    out.update(naive_ms=out["ladder_ms"], accelerated_ms=chosen["mul_ms"],
               table_build_ms=chosen["build_ms"],
               speedup=out["ladder_ms"] / chosen["mul_ms"])
    return out


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


# FIPS 197 Appendix C: (key, ciphertext of 00112233…eeff).
_FIPS197 = [(bytes(range(16)), "69c4e0d86a7b0430d8cdb78070b4c55a"),
            (bytes(range(24)), "dda97ca4864cdfe06eaf70a0ec0d7191"),
            (bytes(range(32)), "8ea2b7ca516745bfeafc49904b496089")]


def _check_ctr(cipher: AES, nonce: bytes, data: bytes, out: bytes) -> None:
    """Raise unless every keystream block of ``out`` decrypts to its
    counter block under the byte-wise inverse cipher."""
    stream = bytes(d ^ o for d, o in zip(data, out))
    for start in range(0, len(data), 16):
        counter = nonce + (start // 16).to_bytes(4, "big")
        block = stream[start:start + 16]
        if len(block) < 16:  # a partial last block: check its whole block
            if cipher.encrypt_block(counter)[:len(block)] != block:
                raise RuntimeError("the AES kernel's last CTR block differs")
            block = cipher.encrypt_block(counter)
        if cipher.decrypt_block(block) != counter:
            raise RuntimeError("the AES kernel disagrees with the "
                               "per-block inverse cipher")


def bench_symmetric(params, iters: int) -> dict:
    """The patient's upload path: symmetric primitives and the upload.

    ``ctr_us`` times ``ctr_transform`` per message of 1 to 256 blocks;
    ``index_nodes_one_pass_ms`` encrypts the 60 three-block nodes of a
    secure index in one ``semantic_encrypt_many`` call, and
    ``index_nodes_per_node_ms`` with one ``SemanticCipher`` per node.
    ``upload_client_ms`` is the in-process client half of one upload —
    a fresh pseudonym, ``build_upload`` of a 20-file collection, and ν
    with the S-server — warm (PK_S's prepared pairing built).
    """
    from repro.core.system import build_system
    from repro.ehr.phi import generate_workload
    from repro.sse.index import LAMBDA_BYTES, NODE_PLAINTEXT_BYTES

    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    for fips_key, expected in _FIPS197:
        if AES(fips_key).encrypt_block(plaintext).hex() != expected:
            raise RuntimeError("AES-%d misses its FIPS 197 vector"
                               % (8 * len(fips_key)))
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
           "ctr_us": {},
           "domain_prp_us": _time(lambda: [prp.encrypt(x)
                                           for x in range(alpha)], iters)
           / alpha * 1e6}
    rng = HmacDrbg(b"bench-runner-ctr")
    for blocks in (1, 3, 11, 64, 256):
        data = rng.random_bytes(16 * blocks - 7)  # a partial last block
        _check_ctr(aes, nonce, data, ctr_transform(aes, nonce, data))
        out["ctr_us"][str(blocks)] = _time_us(
            lambda: ctr_transform(aes, nonce, data),
            max(1, 200 // blocks), iters)

    # The index's shape: 60 three-block messages, each under its own key.
    aes_keys = [rng.random_bytes(16) for _ in range(60)]
    nonces = [rng.random_bytes(NONCE_SIZE) for _ in aes_keys]
    nodes = [rng.random_bytes(NODE_PLAINTEXT_BYTES) for _ in aes_keys]
    for aes_key, node_nonce, node, body in zip(
            aes_keys, nonces, nodes,
            ctr_transform_many(aes_keys, nonces, nodes)):
        _check_ctr(AES(aes_key), node_nonce, node, body)
    node_keys = [rng.random_bytes(LAMBDA_BYTES) for _ in aes_keys]
    draws = HmacDrbg(b"bench-runner-nodes")
    nonces = [draws.random_bytes(NONCE_SIZE) for _ in node_keys]
    replay = HmacDrbg(b"bench-runner-nodes")
    if semantic_encrypt_many(node_keys, nonces, nodes) != [
            SemanticCipher(node_key).encrypt(node, replay)
            for node_key, node in zip(node_keys, nodes)]:
        raise RuntimeError("the one-pass index nodes differ from one "
                           "SemanticCipher per node")
    out["index_nodes_one_pass_ms"] = _time(
        lambda: semantic_encrypt_many(node_keys, nonces, nodes), iters) * 1e3
    out["index_nodes_per_node_ms"] = _time(
        lambda: [SemanticCipher(node_key).encrypt(node, replay)
                 for node_key, node in zip(node_keys, nodes)], iters) * 1e3

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


def bench_shortcuts(params, iters: int) -> dict:
    """φ with and without its round tables; ν by pairing and by ρ.

    ``phi_*_ms`` walk the 60 node addresses of a 20-file index (α = 72)
    through a fresh ``DomainPrp``, round tables filled during the walk;
    the direct walk drops the tables, so every round MACs.  ``nu_*_ms``
    derive ν for fresh pseudonyms with the S-server's prepared pairing
    warm and the patient's ê(PK_S, Γ) made.
    """
    from repro.core.system import build_system

    key, alpha, nodes = bytes(range(32)), 72, 60

    def phi_walk(tabled: bool) -> list:
        prp = DomainPrp(key, alpha)
        if not tabled:
            prp._feistel._tables = [None] * prp._feistel.rounds
        return [prp.encrypt(x) for x in range(nodes)]

    if phi_walk(True) != phi_walk(False):
        raise RuntimeError("the tabled φ walk differs from the direct one")
    system = build_system(seed=b"bench-runner-shortcuts", params=params)
    patient, server_public = system.patient, system.sserver.identity_key.public
    pseudonyms = [patient.fresh_pseudonym() for _ in range(iters)]
    for pseudonym in pseudonyms:
        if patient.session_key_with(server_public, pseudonym) != \
                shared_key_from_points(server_public, pseudonym.private):
            raise RuntimeError("ν by ρ differs from ν by pairing")
    return {"cpu_count": os.cpu_count(),
            "phi_tabled_ms": _time(lambda: phi_walk(True), iters) * 1e3,
            "phi_direct_ms": _time(lambda: phi_walk(False), iters) * 1e3,
            "nu_pairing_ms": _time_each(
                lambda pair: shared_key_from_points(server_public,
                                                    pair.private),
                pseudonyms) * 1e3,
            "nu_rho_ms": _time_each(
                lambda pair: patient.session_key_with(server_public, pair),
                pseudonyms) * 1e3}


def bench_pairing(params, iters: int) -> dict:
    """The pairing group of the break-glass path, one call at a time.

    ``h1_cold_ms`` hashes a distinct identity per call after the caches
    are cleared; ``h1_memo_ms`` repeats one already-hashed identity.
    """
    G, curve = params.generator, params.curve
    rng = HmacDrbg(b"bench-runner-pairing")
    ps = [G * params.random_scalar(rng) for _ in range(iters)]
    qs = [G * params.random_scalar(rng) for _ in range(iters)]
    clear_pairing_cache()
    for P, Q in zip(ps, qs):
        if miller_loop(P, Q) != prepared(P).miller(Q):
            raise RuntimeError("miller_loop and the prepared replay differ")
    millers = [miller_loop(P, Q) for P, Q in zip(ps, qs)]
    g = final_exponentiation(millers[0], curve)
    exponents = [params.random_scalar(rng) for _ in range(iters)]
    out = {"cpu_count": os.cpu_count(),
           "line_table_ms": _time_each(PreparedPairing, ps) * 1e3,
           "miller_loop_ms": _time_each(lambda pq: miller_loop(*pq),
                                        list(zip(ps, qs))) * 1e3,
           "final_exp_ms": _time_each(
               lambda f: final_exponentiation(f, curve), millers) * 1e3,
           "g2_pow_160_ms": _time_each(lambda k: g ** k, exponents) * 1e3}
    clear_pairing_cache()
    out["h1_cold_ms"] = _time_each(
        lambda ident: h1_identity(params, ident),
        ["bench-physician-%d" % i for i in range(iters)]) * 1e3
    out["h1_memo_ms"] = _time(
        lambda: h1_identity(params, "bench-physician-0"), iters) * 1e3
    return out


def _double_and_add(point, k: int):
    """Reference ``k * point`` by Jacobian double-and-add (affine tuple)."""
    from repro.crypto.ec import jacobian_add, jacobian_double, jacobian_to_affine
    p = point.curve.p
    base = (point.x, point.y, 1)
    acc = (1, 1, 0)
    for bit in bin(k)[2:]:
        acc = jacobian_double(acc, p)
        if bit == "1":
            acc = jacobian_add(acc, base, p)
    return jacobian_to_affine(acc, p)


def bench_ec(params, iters: int) -> dict:
    """Variable-base scalar multiplication and Hess IBS, cold and warm.

    ``mul_160_ms`` multiplies distinct G1 points by distinct 160-bit
    scalars and ``mul_h_ms`` lifted curve points by the cofactor h (the
    hash-to-G1 step).  ``ibs_*_cold_ms`` signs or verifies once per
    fresh identity after the caches are cleared, so a cold signature
    includes building the signer's two combs; ``ibs_*_warm_ms``
    repeats one identity with a fresh message each call.
    """
    from repro.crypto.ec import Point
    from repro.crypto.ibe import PrivateKeyGenerator
    from repro.crypto.ibs import sign, verify

    G, curve = params.generator, params.curve
    rng = HmacDrbg(b"bench-runner-ec")
    bases = [G * params.random_scalar(rng) for _ in range(iters)]
    scalars = [params.random_scalar(rng) | 1 << 159 for _ in range(iters)]
    lifted = []
    x = 5
    while len(lifted) < iters:
        point = Point.from_x(x, curve)
        if point is not None:
            lifted.append(point)
        x += 1
    for point, k in list(zip(bases, scalars)) + [(pt, curve.h)
                                                 for pt in lifted]:
        product = point * k
        if _double_and_add(point, k) != (product.x, product.y):
            raise RuntimeError("Point.__mul__ disagrees with double-and-add")
    out = {"cpu_count": os.cpu_count(),
           "mul_160_ms": _time_each(lambda bk: bk[0] * bk[1],
                                    list(zip(bases, scalars))) * 1e3,
           "mul_h_ms": _time_each(lambda pt: pt * curve.h, lifted) * 1e3}

    pkg = PrivateKeyGenerator(params, rng)
    keys = [pkg.extract("bench-signer-%d" % i) for i in range(iters)]
    messages = [b"passcode request %d" % i for i in range(iters)]
    clear_pairing_cache()
    prepared(G)
    prepared(pkg.public_key)  # line tables warm: "cold" is the identity
    cold = [sign(params, key, m, rng) for key, m in zip(keys, messages)]
    clear_pairing_cache()
    clear_registry()
    prepared(G)
    prepared(pkg.public_key)
    out["ibs_sign_cold_ms"] = _time_each(
        lambda km: sign(params, km[0], km[1], rng),
        list(zip(keys, messages))) * 1e3
    out["ibs_verify_cold_ms"] = _time_each(
        lambda i: verify(params, pkg.public_key, keys[i].identity,
                         messages[i], cold[i]), range(iters)) * 1e3
    warm = [sign(params, keys[0], m, rng) for m in messages]
    out["ibs_sign_warm_ms"] = _time_each(
        lambda m: sign(params, keys[0], m, rng), messages) * 1e3
    out["ibs_verify_warm_ms"] = _time_each(
        lambda i: verify(params, pkg.public_key, keys[0].identity,
                         messages[i], warm[i]), range(iters)) * 1e3
    if not all(verify(params, pkg.public_key, keys[0].identity, m, sig)
               for m, sig in zip(messages, warm)):
        raise RuntimeError("IBS signature failed to verify")
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
    print("== fixed-base scalar multiplication (%s, %s cores) =="
          % (args.params, os.cpu_count()))
    results["scalar_mult"] = sm = bench_scalar_mult(params, args.iters)
    print("   ladder %.3f ms" % sm["ladder_ms"])
    for window, timing in sm["widths"].items():
        print("   comb w=%s: build %.2f ms  multiply %.3f ms%s"
              % (window, timing["build_ms"], timing["mul_ms"],
                 "  (chosen)" if int(window) == sm["window"] else ""))
    print("== fixed-argument pairing (%s) ==" % args.params)
    results["prepared_pairing"] = bench_prepared_pairing(params, args.iters)
    print("   naive %.3f ms  accelerated %.3f ms  speedup %.2fx"
          % (results["prepared_pairing"]["naive_ms"],
             results["prepared_pairing"]["accelerated_ms"],
             results["prepared_pairing"]["speedup"]))
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
    print("   ctr by blocks: %s us  60 index nodes: one pass %.2f ms, "
          "one cipher per node %.2f ms"
          % ("  ".join("%s: %.0f" % item for item in sym["ctr_us"].items()),
             sym["index_nodes_one_pass_ms"], sym["index_nodes_per_node_ms"]))
    print("   build_upload (20 files) %.2f ms  client half %.2f ms"
          % (sym["build_upload_ms"], sym["upload_client_ms"]))

    print("== upload shortcuts (%s, %s cores) =="
          % (args.params, os.cpu_count()))
    results["shortcuts"] = sc = bench_shortcuts(params, args.iters)
    print("   φ 60-node walk: tabled %.3f ms  direct %.3f ms  "
          "ν: pairing %.3f ms  ρ power %.3f ms"
          % (sc["phi_tabled_ms"], sc["phi_direct_ms"], sc["nu_pairing_ms"],
             sc["nu_rho_ms"]))

    print("== pairing group (%s, %s cores) ==" % (args.params, os.cpu_count()))
    results["pairing"] = pg = bench_pairing(params, args.iters)
    print("   line table %.2f ms  miller_loop %.2f ms  final exp %.2f ms  "
          "G2 power (160-bit) %.2f ms  H1 cold %.2f ms  memoised %.4f ms"
          % (pg["line_table_ms"], pg["miller_loop_ms"], pg["final_exp_ms"],
             pg["g2_pow_160_ms"], pg["h1_cold_ms"], pg["h1_memo_ms"]))

    print("== variable-base EC and IBS (%s, %s cores) =="
          % (args.params, os.cpu_count()))
    results["ec"] = ec = bench_ec(params, args.iters)
    print("   mul 160-bit %.2f ms  mul h %.2f ms  IBS sign cold %.2f / warm "
          "%.2f ms  verify cold %.2f / warm %.2f ms"
          % (ec["mul_160_ms"], ec["mul_h_ms"], ec["ibs_sign_cold_ms"],
             ec["ibs_sign_warm_ms"], ec["ibs_verify_cold_ms"],
             ec["ibs_verify_warm_ms"]))

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
