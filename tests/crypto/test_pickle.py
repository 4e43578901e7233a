"""Pickle round-trips for the crypto substrate's value objects.

Params, points, pairing values, prepared pairings, fixed-base tables,
keys, signatures, PEKS tags and SSE trapdoors must all survive
``pickle.dumps``/``loads`` with *behavior* intact — equal results from
the reconstructed object, not merely equal field values — so they can
cross a process boundary (a worker process, a cache on disk) unharmed.
"""

from __future__ import annotations

import pickle

from repro.crypto import ibs
from repro.crypto.fields import Fp2Element
from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.pairing import PreparedPairing, tate_pairing
from repro.crypto.params import test_params as _test_params
from repro.crypto.peks import MultiKeywordPeks, RolePeks
from repro.crypto.precompute import PrecomputedPoint
from repro.crypto.rng import HmacDrbg
from repro.sse.index import MASK_BYTES, Trapdoor

PARAMS = _test_params()
PKG = PrivateKeyGenerator(PARAMS, HmacDrbg(b"pickle-pkg"))


def _rt(obj):
    return pickle.loads(pickle.dumps(obj))


def test_params_round_trip():
    clone = _rt(PARAMS)
    assert clone == PARAMS
    assert clone.curve.p == PARAMS.curve.p
    # The clone must be usable, not just equal: derive a point with it.
    rng = HmacDrbg(b"params-clone")
    k = clone.random_scalar(rng)
    assert clone.point_mul_generator(k) == PARAMS.point_mul_generator(k)


def test_point_round_trip():
    point = PKG.public_key
    clone = _rt(point)
    assert clone == point
    assert clone * 7 == point * 7
    assert _rt(PARAMS.generator).to_bytes() == PARAMS.generator.to_bytes()


def test_fp2_round_trip():
    value = tate_pairing(PARAMS.generator, PKG.public_key)
    clone = _rt(value)
    assert clone == value
    assert clone * clone == value * value
    assert clone.to_bytes() == value.to_bytes()


def test_prepared_pairing_round_trip():
    prep = PreparedPairing(PARAMS.generator)
    clone = _rt(prep)
    q = PKG.public_key
    assert clone.miller(q) == prep.miller(q)
    assert clone.pair(q) == prep.pair(q)
    assert clone.pair(q) == tate_pairing(PARAMS.generator, q)


def test_precomputed_point_round_trip():
    table = PrecomputedPoint(PARAMS.generator, window=4)
    clone = _rt(table)
    for k in (1, 2, 12345, PARAMS.r - 1):
        assert clone.multiply(k) == table.multiply(k)
    assert clone.table_entries() == table.table_entries()


def test_identity_key_pair_round_trip():
    key = PKG.extract("physician-pickle")
    clone = _rt(key)
    assert clone == key
    assert clone.private == key.private


def test_ibs_signature_round_trip():
    rng = HmacDrbg(b"pickle-sig")
    key = PKG.extract("signer")
    sig = ibs.sign(PARAMS, key, b"record", rng)
    clone = _rt(sig)
    assert clone == sig
    assert clone.to_bytes() == sig.to_bytes()
    assert ibs.verify(PARAMS, PKG.public_key, "signer", b"record", clone)


def test_peks_objects_round_trip():
    rng = HmacDrbg(b"pickle-peks")
    role = "2026-08-07|ER|boston"
    role_key = PKG.extract(role)
    peks = RolePeks(PARAMS, PKG.public_key)
    tag = peks.tag(role, "diabetes", rng)
    trapdoor = RolePeks.trapdoor(role_key.private, PARAMS, "diabetes")
    assert peks.test(_rt(tag), _rt(trapdoor)) is True

    multi = MultiKeywordPeks(PARAMS, PKG.public_key)
    mtag = multi.tag(role, ["er", "cardiac"], rng)
    mtd = MultiKeywordPeks.trapdoor(role_key.private, PARAMS, "cardiac")
    assert multi.test(_rt(mtag), _rt(mtd)) is True
    assert _rt(mtag) == mtag


def test_sse_trapdoor_round_trip():
    trapdoor = Trapdoor(address=1234, mask=b"\x07" * MASK_BYTES)
    clone = _rt(trapdoor)
    assert clone.to_bytes() == trapdoor.to_bytes()
