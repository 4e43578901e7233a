"""AES (FIPS 197) block cipher implemented from scratch.

This is the instantiation of the paper's semantically secure symmetric
encryptions E (node encryption inside the secure index) and E′ (the PHI
file-collection cipher), via the CTR / encrypt-then-MAC modes in
:mod:`repro.crypto.modes`.

The S-box is generated at import time from the GF(2⁸) inverse + affine
map (rather than pasted as a magic table), and so are the four 256-entry
encryption T-tables built from it.  Key expansion follows FIPS 197 §5.2
over 32-bit words; an encryption round is SubBytes + ShiftRows +
MixColumns + AddRoundKey as sixteen table lookups on four column words.
Decryption is the byte-oriented FIPS 197 §5.3 inverse cipher, kept
deliberately plain: it is the independent reference the round-trip
tests check the table-driven encryption against.  Supports
128/192/256-bit keys.

Performance note: pure-Python AES-128 encrypts a block in about 20 µs
and expands a key in about 18 µs, so CTR runs at about 0.75 MB/s
(CPython 3.11, 2-core x86-64 box; EXPERIMENTS.md E5).  That is ample for
the protocol experiments (PHI files are small) and keeps the entire
cipher inside the reproduction as the scope rules require.
"""

from __future__ import annotations

import struct

from repro.exceptions import ParameterError

BLOCK_SIZE = 16


def _generate_sbox() -> tuple[bytes, bytes]:
    """Build the AES S-box from first principles (GF(2⁸) inverse + affine)."""

    def gf_mul(a: int, b: int) -> int:
        result = 0
        for _ in range(8):
            if b & 1:
                result ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B  # x^8 + x^4 + x^3 + x + 1
            b >>= 1
        return result

    # Multiplicative inverses via exponentiation: a^254 = a^-1 in GF(2^8).
    def gf_inv(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        exponent = 254
        base = a
        while exponent:
            if exponent & 1:
                result = gf_mul(result, base)
            base = gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        inv = gf_inv(value)
        transformed = 0
        for bit in range(8):
            transformed |= (
                ((inv >> bit) ^ (inv >> ((bit + 4) % 8)) ^ (inv >> ((bit + 5) % 8))
                 ^ (inv >> ((bit + 6) % 8)) ^ (inv >> ((bit + 7) % 8))
                 ^ (0x63 >> bit)) & 1
            ) << bit
        sbox[value] = transformed
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _generate_sbox()


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul_small(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed GF(2^8) multiply tables for the InvMixColumns coefficients.
_MUL9 = bytes(_gf_mul_small(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul_small(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul_small(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul_small(i, 14) for i in range(256))


def _ror8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


# Encryption T-tables: _TE0[x] is the MixColumns column (2, 1, 1, 3)·S[x]
# as a big-endian 32-bit word; _TE1.._TE3 are its byte rotations.  One
# round of SubBytes + ShiftRows + MixColumns is then four lookups and
# three XORs per output column.
_TE0 = tuple((_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s)
             for s in _SBOX)
_TE1 = tuple(_ror8(w) for w in _TE0)
_TE2 = tuple(_ror8(w) for w in _TE1)
_TE3 = tuple(_ror8(w) for w in _TE2)
# S-box values pre-shifted into each byte lane, for the final round.
_S24 = tuple(s << 24 for s in _SBOX)
_S16 = tuple(s << 16 for s in _SBOX)
_S8 = tuple(s << 8 for s in _SBOX)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)

_WORDS = struct.Struct(">4I")


def _sub_word(w: int) -> int:
    return (_S24[w >> 24] | _S16[(w >> 16) & 0xFF] | _S8[(w >> 8) & 0xFF]
            | _SBOX[w & 0xFF])


class AES:
    """The AES block cipher with a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ParameterError("AES key must be 16, 24 or 32 bytes")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        # FIPS 197 §5.2 key schedule over 32-bit words: word 4r + c is
        # column c of round key r.
        nk = len(key) // 4
        words = list(struct.unpack(">%dI" % nk, key))
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = (_sub_word(((temp << 8) & 0xFFFFFFFF) | (temp >> 24))
                        ^ (_RCON[i // nk - 1] << 24))    # SubWord(RotWord)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        self._words = words

    def _round_key(self, round_index: int) -> bytes:
        """Round key ``round_index`` as 16 bytes (for the inverse cipher)."""
        return _WORDS.pack(*self._words[4 * round_index: 4 * round_index + 4])

    # -- block operations ---------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        w = self._words
        s0, s1, s2, s3 = _WORDS.unpack(block)
        s0 ^= w[0]
        s1 ^= w[1]
        s2 ^= w[2]
        s3 ^= w[3]
        for k in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ w[k],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ w[k + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ w[k + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ w[k + 3])
        # Final round: SubBytes + ShiftRows, no MixColumns.
        k = 4 * self.rounds
        s24, s16, s8, sbox = _S24, _S16, _S8, _SBOX
        return _WORDS.pack(
            s24[s0 >> 24] ^ s16[(s1 >> 16) & 0xFF]
            ^ s8[(s2 >> 8) & 0xFF] ^ sbox[s3 & 0xFF] ^ w[k],
            s24[s1 >> 24] ^ s16[(s2 >> 16) & 0xFF]
            ^ s8[(s3 >> 8) & 0xFF] ^ sbox[s0 & 0xFF] ^ w[k + 1],
            s24[s2 >> 24] ^ s16[(s3 >> 16) & 0xFF]
            ^ s8[(s0 >> 8) & 0xFF] ^ sbox[s1 & 0xFF] ^ w[k + 2],
            s24[s3 >> 24] ^ s16[(s0 >> 16) & 0xFF]
            ^ s8[(s1 >> 8) & 0xFF] ^ sbox[s2 & 0xFF] ^ w[k + 3])

    def decrypt_block(self, block: bytes) -> bytes:
        """The FIPS 197 §5.3 inverse cipher, byte by byte — the reference
        the round-trip tests hold :meth:`encrypt_block` to."""
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        rk = self._round_key(self.rounds)
        state = [block[i] ^ rk[i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for round_index in range(self.rounds - 1, 0, -1):
            rk = self._round_key(round_index)
            state = [state[i] ^ rk[i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        rk = self._round_key(0)
        return bytes(state[i] ^ rk[i] for i in range(16))

    # -- round building blocks (state is a flat 16-list, column-major) ------
    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
