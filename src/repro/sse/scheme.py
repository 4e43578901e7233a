"""SSE-1 — the non-adaptive searchable symmetric encryption of Curtmola
et al. (CCS'06), as instantiated by HCPP's private PHI storage (§IV.A–B).

The patient's SSE secret is S = {a, b, c, d, 1^γ}:

* ``a`` keys the PRP φ that scrambles node addresses in the array A,
* ``b`` keys the PRF f whose outputs mask the lookup-table entries,
* ``c`` keys the PRP ℓ that produces virtual addresses into T,
* ``d`` keys the PRP θ for multi-user trapdoor wrapping
  (:mod:`repro.sse.multiuser`),
* γ is the node-key length (λ values), fixed at 128 bits here.

The file-collection cipher E′ (key ``s``) lives alongside because the
paper's storage protocol always uploads Λ = E′_s(F) together with SI.

Client-side API: :func:`keygen`, :meth:`Sse1Scheme.build_index`,
:meth:`Sse1Scheme.trapdoor`, :meth:`Sse1Scheme.encrypt_file` /
:meth:`Sse1Scheme.decrypt_file`.  Server-side API:
:meth:`repro.sse.index.SecureIndex.search` — the server never sees any of
the keys above.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.prf import Prf
from repro.crypto.prp import FeistelPrp
from repro.crypto.rng import HmacDrbg
from repro.sse.index import (MASK_BYTES, SecureIndex, Trapdoor,
                             build_secure_index)
from repro.exceptions import ParameterError

KEY_BYTES = 32        # k = 256-bit seeds
BETA_BITS = 128       # β: virtual-address width — collisions negligible


@dataclass(frozen=True)
class SseKeys:
    """S = {a, b, c, d} plus the file-collection key s.

    These are exactly the secrets the privilege-assignment protocol ships
    to family / P-device (paper §IV.C): with them, an entity can compute
    trapdoors and decrypt returned PHI files; without ``d`` being current,
    the S-server rejects its wrapped trapdoors (see multiuser module).
    """

    a: bytes
    b: bytes
    c: bytes
    d: bytes
    s: bytes

    def size_bytes(self) -> int:
        return sum(len(x) for x in (self.a, self.b, self.c, self.d, self.s))

    def to_bytes(self) -> bytes:
        """Serialization used inside ASSIGN messages."""
        return b"".join((self.a, self.b, self.c, self.d, self.s))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SseKeys":
        if len(data) != 5 * KEY_BYTES:
            raise ParameterError("bad SseKeys encoding")
        parts = [data[i * KEY_BYTES:(i + 1) * KEY_BYTES] for i in range(5)]
        return cls(*parts)


def keygen(rng: HmacDrbg) -> SseKeys:
    """The paper's SSE key generation: a, b, c, d ∈_R {0,1}^k plus s."""
    return SseKeys(a=rng.random_bytes(KEY_BYTES), b=rng.random_bytes(KEY_BYTES),
                   c=rng.random_bytes(KEY_BYTES), d=rng.random_bytes(KEY_BYTES),
                   s=rng.random_bytes(KEY_BYTES))


class Sse1Scheme:
    """Client-side SSE-1 operations bound to one key set."""

    def __init__(self, keys: SseKeys) -> None:
        self.keys = keys
        self._ell = FeistelPrp(keys.c, BETA_BITS)        # ℓ_c
        self._f = Prf(keys.b, MASK_BYTES * 8)            # f_b
        self._file_cipher = AuthenticatedCipher(keys.s)  # E′_s

    # -- index construction ---------------------------------------------------
    def virtual_address(self, keyword: str) -> int:
        """ℓ_c(kw): hash the keyword into {0,1}^β, then permute with ℓ."""
        digest = hashlib.sha256(b"sse-kw:" + keyword.encode()).digest()
        return self._ell.encrypt(int.from_bytes(digest[:BETA_BITS // 8], "big"))

    def build_index(self, keyword_to_fids: dict[str, list[bytes]],
                    rng: HmacDrbg, array_size: int | None = None) -> SecureIndex:
        """BuildIndex: SI = (A, T) per Fig. 2 (see :mod:`repro.sse.index`)."""
        return build_secure_index(
            keyword_to_fids=keyword_to_fids,
            key_a=self.keys.a,
            prf_b=self._f,
            address_for=self.virtual_address,
            array_size=array_size,
            rng=rng,
        )

    # -- search ----------------------------------------------------------------
    def trapdoor(self, keyword: str) -> Trapdoor:
        """TD(kw) = (ℓ_c(kw), f_b(kw)) — the paper's §IV.D trapdoor."""
        return Trapdoor(address=self.virtual_address(keyword),
                        mask=self._f(keyword.encode()))

    def search(self, index: SecureIndex, keyword: str) -> list[bytes]:
        """Client convenience: trapdoor + server-side search in one call."""
        return index.search(self.trapdoor(keyword))

    # -- the file collection Λ = E′_s(F) ---------------------------------------
    def encrypt_file(self, content: bytes, rng: HmacDrbg) -> bytes:
        """E′_s: authenticated encryption of one PHI file."""
        return self._file_cipher.encrypt(content, rng)

    def decrypt_file(self, ciphertext: bytes) -> bytes:
        """E′⁻¹_s on a returned file (raises on tampering)."""
        return self._file_cipher.decrypt(ciphertext)

    def encrypt_collection(self, files: dict[bytes, bytes],
                           rng: HmacDrbg) -> dict[bytes, bytes]:
        """Encrypt a whole fid → content collection: :meth:`encrypt_file`
        of each file in order, all in one kernel pass."""
        return dict(zip(files, self._file_cipher.encrypt_many(
            list(files.values()), rng)))

    def decrypt_collection(self, files: dict[bytes, bytes]) -> dict[bytes, bytes]:
        return {fid: self.decrypt_file(ct) for fid, ct in files.items()}
