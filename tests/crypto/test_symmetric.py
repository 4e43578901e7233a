"""HMAC, DRBG, PRF, AES, and mode tests (incl. published test vectors)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE, encrypt_blocks, expand_keys
from repro.crypto.hmac_impl import (constant_time_equal, hmac_sha256,
                                    verify_hmac)
from repro.crypto.modes import (NONCE_SIZE, AuthenticatedCipher,
                                SemanticCipher, cbc_decrypt, cbc_encrypt,
                                ctr_transform, ctr_transform_many,
                                semantic_encrypt_many)
from repro.crypto.prf import Prf, prf_int
from repro.crypto.rng import HmacDrbg
from repro.exceptions import DecryptionError, IntegrityError, ParameterError


class TestHmac:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        tag = hmac_sha256(key, b"Hi There")
        assert tag.hex() == ("b0344c61d8db38535ca8afceaf0bf12b"
                             "881dc200c9833da726e9376c2e32cff7")

    def test_rfc4231_case_2(self):
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == ("5bdcc146bf60754e6a042426089575c7"
                             "5a003f089d2739839dec58b964ec3843")

    def test_rfc4231_long_key(self):
        key = b"\xaa" * 131
        msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
        tag = hmac_sha256(key, msg)
        assert tag.hex() == ("60e431591ee0b67f0d8a26aacbf5b77f"
                             "8e0bc6213728c5140546040f0ee37f54")

    def test_verify_roundtrip(self):
        tag = hmac_sha256(b"k", b"m")
        verify_hmac(b"k", b"m", tag)  # must not raise

    def test_verify_rejects_tamper(self):
        tag = hmac_sha256(b"k", b"m")
        with pytest.raises(IntegrityError):
            verify_hmac(b"k", b"m2", tag)
        with pytest.raises(IntegrityError):
            verify_hmac(b"k2", b"m", tag)

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")


class TestDrbg:
    def test_deterministic(self):
        assert (HmacDrbg(b"s").random_bytes(64)
                == HmacDrbg(b"s").random_bytes(64))

    def test_different_seeds_differ(self):
        assert (HmacDrbg(b"s1").random_bytes(32)
                != HmacDrbg(b"s2").random_bytes(32))

    def test_seed_types(self):
        for seed in (b"x", "x", 12345):
            assert len(HmacDrbg(seed).random_bytes(16)) == 16

    def test_randint_bounds(self):
        rng = HmacDrbg(b"ri")
        values = [rng.randint(3, 9) for _ in range(300)]
        assert min(values) == 3 and max(values) == 9

    def test_randint_bad_range(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"x").randint(5, 4)

    def test_getrandbits(self):
        rng = HmacDrbg(b"b")
        assert all(0 <= rng.getrandbits(7) < 128 for _ in range(100))
        assert rng.getrandbits(0) == 0

    def test_shuffle_is_permutation(self):
        rng = HmacDrbg(b"sh")
        data = list(range(50))
        rng.shuffle(data)
        assert sorted(data) == list(range(50))
        assert data != list(range(50))

    def test_sample_distinct(self):
        rng = HmacDrbg(b"sa")
        picked = rng.sample(list(range(100)), 10)
        assert len(set(picked)) == 10

    def test_sample_too_many_raises(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"x").sample([1, 2], 3)

    def test_gauss_moments(self):
        rng = HmacDrbg(b"g")
        values = [rng.gauss(10.0, 2.0) for _ in range(2000)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean - 10.0) < 0.2
        assert abs(var - 4.0) < 0.6

    def test_expovariate_positive(self):
        rng = HmacDrbg(b"e")
        assert all(rng.expovariate(2.0) >= 0 for _ in range(100))
        with pytest.raises(ParameterError):
            rng.expovariate(0)

    def test_fork_independent(self):
        rng = HmacDrbg(b"f")
        a, b = rng.fork("a"), rng.fork("b")
        assert a.random_bytes(16) != b.random_bytes(16)

    def test_reseed_changes_stream(self):
        a, b = HmacDrbg(b"x"), HmacDrbg(b"x")
        b.reseed(b"extra")
        assert a.random_bytes(16) != b.random_bytes(16)

    def test_choice_empty_raises(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"x").choice([])


class TestPrf:
    def test_output_length_bits(self):
        for bits in (1, 7, 8, 9, 128, 191, 192):
            f = Prf(b"seed", bits)
            out = f(b"x")
            assert len(out) == (bits + 7) // 8
            assert f.as_int(b"x") < (1 << bits)

    def test_deterministic(self):
        f = Prf(b"seed", 128)
        assert f(b"x") == f(b"x")
        assert f(b"x") != f(b"y")

    def test_seed_separation(self):
        assert Prf(b"s1", 64)(b"x") != Prf(b"s2", 64)(b"x")

    def test_prf_int_range(self):
        for modulus in (2, 17, 1000, 1 << 40):
            assert 0 <= prf_int(b"seed", b"input", modulus) < modulus

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            Prf(b"s", 0)
        with pytest.raises(ParameterError):
            prf_int(b"s", b"x", 0)


class TestAes:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = AES(key).encrypt_block(pt)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert AES(key).encrypt_block(pt).hex() == \
            "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_fips197_aes256(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f"
                            "101112131415161718191a1b1c1d1e1f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert AES(key).encrypt_block(pt).hex() == \
            "8ea2b7ca516745bfeafc49904b496089"

    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_bad_key_size(self):
        with pytest.raises(ParameterError):
            AES(b"short")

    def test_bad_block_size(self):
        with pytest.raises(ParameterError):
            AES(bytes(16)).encrypt_block(b"tiny")
        with pytest.raises(ParameterError):
            AES(bytes(16)).decrypt_block(b"tiny")


class TestModes:
    def test_ctr_involution(self):
        cipher = AES(bytes(16))
        nonce = bytes(12)
        data = b"hello world, this spans multiple blocks for sure!"
        ct = ctr_transform(cipher, nonce, data)
        assert ctr_transform(cipher, nonce, ct) == data
        assert ct != data

    def test_ctr_bad_nonce(self):
        with pytest.raises(ParameterError):
            ctr_transform(AES(bytes(16)), b"short", b"data")

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_semantic_round_trip(self, data):
        cipher = SemanticCipher(b"key material")
        rng = HmacDrbg(b"nonce-source")
        assert cipher.decrypt(cipher.encrypt(data, rng)) == data

    def test_semantic_randomized(self):
        cipher = SemanticCipher(b"key")
        rng = HmacDrbg(b"r")
        assert cipher.encrypt(b"same", rng) != cipher.encrypt(b"same", rng)

    def test_semantic_short_ciphertext(self):
        with pytest.raises(DecryptionError):
            SemanticCipher(b"key").decrypt(b"short")

    @given(st.binary(max_size=200), st.binary(max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_authenticated_round_trip(self, data, ad):
        cipher = AuthenticatedCipher(b"key material")
        rng = HmacDrbg(b"n")
        ct = cipher.encrypt(data, rng, ad)
        assert cipher.decrypt(ct, ad) == data

    def test_authenticated_rejects_tamper(self):
        cipher = AuthenticatedCipher(b"key")
        ct = bytearray(cipher.encrypt(b"secret", HmacDrbg(b"n")))
        ct[14] ^= 1
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(ct))

    def test_authenticated_rejects_wrong_ad(self):
        cipher = AuthenticatedCipher(b"key")
        ct = cipher.encrypt(b"secret", HmacDrbg(b"n"), b"ad1")
        with pytest.raises(DecryptionError):
            cipher.decrypt(ct, b"ad2")

    def test_empty_key_raises(self):
        with pytest.raises(ParameterError):
            SemanticCipher(b"")
        with pytest.raises(ParameterError):
            AuthenticatedCipher(b"")

    @given(st.binary(max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_cbc_round_trip(self, data):
        cipher = AES(bytes(range(16)))
        iv = bytes(range(16))
        assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data

    def test_cbc_bad_padding(self):
        cipher = AES(bytes(16))
        with pytest.raises(DecryptionError):
            cbc_decrypt(cipher, bytes(16), bytes(32))

    def test_cbc_bad_lengths(self):
        cipher = AES(bytes(16))
        with pytest.raises(DecryptionError):
            cbc_decrypt(cipher, bytes(16), b"odd-length!")


class TestKernel:
    """One kernel pass over many messages and keys, held to the per-message
    path and to the byte-wise FIPS 197 inverse cipher."""

    @given(st.sampled_from([16, 24, 32]),
           st.lists(st.tuples(st.binary(min_size=32, max_size=32),
                              st.binary(min_size=NONCE_SIZE,
                                        max_size=NONCE_SIZE),
                              st.integers(0, 40 * BLOCK_SIZE)),
                    min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_one_pass_matches_each_message(self, key_size, specs):
        keys = [key[:key_size] for key, _, _ in specs]
        nonces = [nonce for _, nonce, _ in specs]
        messages = [HmacDrbg(nonce).random_bytes(length)
                    for _, nonce, length in specs]
        outputs = ctr_transform_many(keys, nonces, messages)
        assert len(outputs) == len(messages)
        for key, nonce, message, output in zip(keys, nonces, messages,
                                               outputs):
            cipher = AES(key)
            assert output == ctr_transform(cipher, nonce, message)
            stream = bytes(m ^ o for m, o in zip(message, output))
            for start in range(0, len(message), BLOCK_SIZE):
                counter = nonce + (start // BLOCK_SIZE).to_bytes(4, "big")
                block = cipher.encrypt_block(counter)
                assert cipher.decrypt_block(block) == counter
                assert stream[start:start + BLOCK_SIZE] == block[
                    :len(stream) - start]

    def test_semantic_batch_matches_one_cipher_each(self):
        keys = [b"k", bytes(16), b"x" * 70]
        plaintexts = [b"", b"node" * 11, bytes(100)]
        rng = HmacDrbg(b"batch")
        singles = [SemanticCipher(key).encrypt(plaintext, rng)
                   for key, plaintext in zip(keys, plaintexts)]
        rng = HmacDrbg(b"batch")
        nonces = [rng.random_bytes(NONCE_SIZE) for _ in keys]
        assert semantic_encrypt_many(keys, nonces, plaintexts) == singles
        assert semantic_encrypt_many([], [], []) == []

    def test_bad_batches_raise(self):
        nonce = bytes(NONCE_SIZE)
        with pytest.raises(ParameterError):
            ctr_transform_many([bytes(16), bytes(24)], [nonce] * 2, [b"a"] * 2)
        with pytest.raises(ParameterError):
            ctr_transform_many([bytes(16)], [nonce] * 2, [b"a"] * 2)
        with pytest.raises(ParameterError):
            ctr_transform_many([bytes(16)], [b"short"], [b"a"])
        with pytest.raises(ParameterError):
            semantic_encrypt_many([b""], [nonce], [b"a"])
        with pytest.raises(ParameterError):
            encrypt_blocks(expand_keys([bytes(16)]), bytes(32))
