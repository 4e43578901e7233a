"""Block-cipher modes and authenticated encryption.

Provides the semantically secure symmetric encryption the paper calls
E / E′, in three layers:

* :func:`ctr_transform` — raw AES-CTR keystream XOR (enc == dec);
  :func:`ctr_transform_many` runs many messages, one key each, through
  the same single kernel pass.
* :class:`SemanticCipher` — randomized CTR encryption with a fresh nonce
  per message (IND-CPA); this is the paper's "semantically secure symmetric
  key encryption E" used for secure-index nodes, which
  :func:`semantic_encrypt_many` encrypts in one pass per index.
* :class:`AuthenticatedCipher` — encrypt-then-MAC (AES-CTR + HMAC-SHA256)
  for protocol payloads where integrity matters (E′ in privilege
  assignment / REVOKE messages); :meth:`~AuthenticatedCipher.encrypt_many`
  encrypts a whole PHI file collection in one pass, one MAC per file.

Nonces are drawn from a DRBG passed by the caller so experiments stay
reproducible.  Key separation between the encryption and MAC keys is
derived via HMAC with distinct labels.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aes import AES, BLOCK_SIZE, encrypt_blocks, expand_keys
from repro.crypto.hmac_impl import HmacKey, hmac_sha256
from repro.crypto.rng import HmacDrbg
from repro.exceptions import DecryptionError, ParameterError

NONCE_SIZE = 12
TAG_SIZE = 32


def _ctr_pass(round_keys: Sequence[bytes], nonces: Sequence[bytes],
              messages: Sequence[bytes]) -> list[bytes]:
    """CTR over every message in one kernel pass; message j runs under
    lane j of ``round_keys`` (from :func:`~repro.crypto.aes.expand_keys`).

    The counter block is ``nonce (12 bytes) ‖ counter (4 bytes)``, so one
    nonce safely covers 2³² blocks (64 GiB), far beyond any PHI file.
    Lanes are block-major — lane b·count + j is counter b of message j —
    so widening the round keys to every lane is one bytes repetition;
    messages shorter than the longest are padded with unused lanes.
    """
    count = len(messages)
    if len(nonces) != count or len(round_keys[0]) != BLOCK_SIZE * count:
        raise ParameterError("one key and one nonce per CTR message")
    if any(len(nonce) != NONCE_SIZE for nonce in nonces):
        raise ParameterError("CTR nonce must be %d bytes" % NONCE_SIZE)
    depth = max((-(-len(message) // BLOCK_SIZE) for message in messages),
                default=0)
    counters = b"".join(nonce + index.to_bytes(4, "big")
                        for index in range(depth) for nonce in nonces)
    stream = encrypt_blocks([key * depth for key in round_keys], counters)
    stride = BLOCK_SIZE * count
    results = []
    for j, message in enumerate(messages):
        size = len(message)
        keystream = b"".join(
            stream[i:i + BLOCK_SIZE]
            for i in range(BLOCK_SIZE * j, stride * -(-size // BLOCK_SIZE),
                           stride))
        # One big-integer XOR per message (keystream cut to length).
        results.append((int.from_bytes(message, "big")
                        ^ int.from_bytes(keystream[:size], "big")
                        ).to_bytes(size, "big"))
    return results


def ctr_transform(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """CTR-mode keystream XOR: encrypt and decrypt are the same operation."""
    return _ctr_pass(cipher.round_keys, [nonce], [data])[0]


def ctr_transform_many(keys: Sequence[bytes], nonces: Sequence[bytes],
                       messages: Sequence[bytes]) -> list[bytes]:
    """``ctr_transform(AES(keys[j]), nonces[j], messages[j])`` for every j,
    in one key-schedule pass and one kernel pass (keys of one size)."""
    return _ctr_pass(expand_keys(keys), nonces, messages)


def _derive_key(master: bytes, label: bytes, length: int = 16) -> bytes:
    """Derive a sub-key from a master secret with domain separation."""
    return hmac_sha256(master, b"hcpp-kdf:" + label)[:length]


class SemanticCipher:
    """Randomized symmetric encryption (IND-CPA) — the paper's E.

    Accepts keys of any length (they are mapped through a KDF to an AES-128
    key), because the SSE construction generates γ-bit node keys λ that are
    not necessarily 16 bytes.
    """

    #: ciphertext expansion in bytes (the prepended nonce)
    OVERHEAD = NONCE_SIZE

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ParameterError("empty key")
        self._aes = AES(_derive_key(key, b"enc"))

    def encrypt(self, plaintext: bytes, rng: HmacDrbg) -> bytes:
        """Encrypt with a fresh random nonce: returns ``nonce ‖ ciphertext``."""
        nonce = rng.random_bytes(NONCE_SIZE)
        return nonce + ctr_transform(self._aes, nonce, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < NONCE_SIZE:
            raise DecryptionError("ciphertext shorter than the nonce")
        nonce, body = ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
        return ctr_transform(self._aes, nonce, body)


def semantic_encrypt_many(keys: Sequence[bytes], nonces: Sequence[bytes],
                          plaintexts: Sequence[bytes]) -> list[bytes]:
    """:meth:`SemanticCipher.encrypt` of ``plaintexts[j]`` under
    ``keys[j]`` with nonce ``nonces[j]``, for every j in one pass.

    The same bytes as one cipher per message; the caller draws the
    nonces (the secure index interleaves them with its node keys).
    """
    if not all(keys):
        raise ParameterError("empty key")
    bodies = ctr_transform_many([_derive_key(key, b"enc") for key in keys],
                                nonces, plaintexts)
    return [nonce + body for nonce, body in zip(nonces, bodies)]


class AuthenticatedCipher:
    """Encrypt-then-MAC authenticated encryption — the paper's E′.

    Layout: ``nonce ‖ ciphertext ‖ HMAC(nonce ‖ ciphertext ‖ ad)``.
    ``associated_data`` is authenticated but not encrypted (used for the
    timestamps t₂, t₃ in privilege-assignment messages).
    """

    OVERHEAD = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ParameterError("empty key")
        self._aes = AES(_derive_key(key, b"enc"))
        self._mac = HmacKey(_derive_key(key, b"mac", 32))

    def encrypt(self, plaintext: bytes, rng: HmacDrbg,
                associated_data: bytes = b"") -> bytes:
        nonce = rng.random_bytes(NONCE_SIZE)
        body = ctr_transform(self._aes, nonce, plaintext)
        tag = self._mac.mac(nonce + body + associated_data)
        return nonce + body + tag

    def encrypt_many(self, plaintexts: Sequence[bytes],
                     rng: HmacDrbg) -> list[bytes]:
        """:meth:`encrypt` of each plaintext in turn, in one kernel pass.

        The nonces are drawn in order before the pass, as the calls one
        by one would draw them, so the bytes are the same.
        """
        nonces = [rng.random_bytes(NONCE_SIZE) for _ in plaintexts]
        lanes = len(plaintexts)
        bodies = _ctr_pass([key * lanes for key in self._aes.round_keys],
                           nonces, plaintexts)
        return [nonce + body + self._mac.mac(nonce + body)
                for nonce, body in zip(nonces, bodies)]

    def decrypt(self, ciphertext: bytes, associated_data: bytes = b"") -> bytes:
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
            raise DecryptionError("authenticated ciphertext too short")
        tag = ciphertext[-TAG_SIZE:]
        nonce_body = ciphertext[:-TAG_SIZE]
        try:
            self._mac.verify(nonce_body + associated_data, tag)
        except Exception as exc:
            raise DecryptionError("authentication tag mismatch") from exc
        nonce, body = nonce_body[:NONCE_SIZE], nonce_body[NONCE_SIZE:]
        return ctr_transform(self._aes, nonce, body)


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC mode with PKCS#7 padding (provided for completeness / tests)."""
    if len(iv) != BLOCK_SIZE:
        raise ParameterError("CBC IV must be one block")
    pad = BLOCK_SIZE - len(plaintext) % BLOCK_SIZE
    padded = plaintext + bytes([pad] * pad)
    output = bytearray()
    previous = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = bytes(a ^ b for a, b in zip(padded[i:i + BLOCK_SIZE], previous))
        encrypted = cipher.encrypt_block(block)
        output.extend(encrypted)
        previous = encrypted
    return bytes(output)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC decryption; raises :class:`DecryptionError` on bad padding."""
    if len(iv) != BLOCK_SIZE or len(ciphertext) % BLOCK_SIZE:
        raise DecryptionError("malformed CBC ciphertext")
    output = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i:i + BLOCK_SIZE]
        decrypted = cipher.decrypt_block(block)
        output.extend(a ^ b for a, b in zip(decrypted, previous))
        previous = block
    if not output:
        raise DecryptionError("empty CBC ciphertext")
    pad = output[-1]
    if pad < 1 or pad > BLOCK_SIZE or output[-pad:] != bytearray([pad] * pad):
        raise DecryptionError("bad PKCS#7 padding")
    return bytes(output[:-pad])
