"""HMAC (RFC 2104) implemented from scratch over :mod:`hashlib` SHA-256.

HCPP attaches ``HMAC_ν(message ‖ timestamp)`` to every protocol message for
integrity (paper §IV.B–E).  We implement the inner/outer padding
construction directly rather than using :mod:`hmac` so the whole MAC path
is part of the reproduction, and expose a constant-time comparison to avoid
timing side channels in verification.

:class:`HmacKey` pads a key once and keeps the keyed inner and outer
SHA-256 states; each MAC then costs two ``copy()`` calls and two
compressions over the message.  Callers that reuse a key (the PRF seed,
the Feistel round keys, a cipher's MAC key) hold one; :func:`hmac_sha256`
is the one-shot form over it.  The object holds live hashlib state, so it
cannot be pickled — keep it out of anything shipped to a worker process.
"""

from __future__ import annotations

import hashlib

from repro.exceptions import IntegrityError

_BLOCK_SIZE = 64  # SHA-256 block size in bytes
# bytes.translate tables: byte b -> b ^ 0x36 (ipad) and b ^ 0x5c (opad).
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

HMAC_OUTPUT_SIZE = 32


class HmacKey:
    """HMAC-SHA256 under one fixed key.

    >>> HmacKey(b"k").mac(b"m") == hmac_sha256(b"k", b"m")
    True
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK_SIZE:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def mac(self, message: bytes) -> bytes:
        """HMAC-SHA256(key, message)."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, message: bytes, tag: bytes) -> None:
        """Raise :class:`IntegrityError` unless ``tag`` authenticates
        ``message``."""
        if not constant_time_equal(self.mac(message), tag):
            raise IntegrityError("HMAC verification failed: message was "
                                 "tampered with or the key is wrong")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256(key, message) per RFC 2104."""
    return HmacKey(key).mac(message)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> None:
    """Raise :class:`IntegrityError` unless ``tag`` authenticates ``message``."""
    HmacKey(key).verify(message, tag)
