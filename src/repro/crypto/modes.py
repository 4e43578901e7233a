"""Block-cipher modes and authenticated encryption.

Provides the semantically secure symmetric encryption the paper calls
E / E′, in three layers:

* :func:`ctr_transform` — raw AES-CTR keystream XOR (enc == dec).
* :class:`SemanticCipher` — randomized CTR encryption with a fresh nonce
  per message (IND-CPA); this is the paper's "semantically secure symmetric
  key encryption E" used for secure-index nodes.
* :class:`AuthenticatedCipher` — encrypt-then-MAC (AES-CTR + HMAC-SHA256)
  for protocol payloads where integrity matters (E′ in privilege
  assignment / REVOKE messages).

Nonces are drawn from a DRBG passed by the caller so experiments stay
reproducible.  Key separation between the encryption and MAC keys is
derived via HMAC with distinct labels.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.hmac_impl import HmacKey, hmac_sha256
from repro.crypto.rng import HmacDrbg
from repro.exceptions import DecryptionError, ParameterError

NONCE_SIZE = 12
TAG_SIZE = 32


def ctr_transform(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """CTR-mode keystream XOR: encrypt and decrypt are the same operation.

    The 16-byte counter block is ``nonce (12 bytes) ‖ counter (4 bytes)``,
    so one nonce safely covers 2³² blocks (64 GiB), far beyond any PHI file.
    """
    if len(nonce) != NONCE_SIZE:
        raise ParameterError("CTR nonce must be %d bytes" % NONCE_SIZE)
    encrypt = cipher.encrypt_block
    keystream = b"".join(
        encrypt(nonce + block_index.to_bytes(4, "big"))
        for block_index in range(-(-len(data) // BLOCK_SIZE)))
    # One big-integer XOR over the whole buffer (keystream cut to length).
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream[:len(data)], "big")
            ).to_bytes(len(data), "big")


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
