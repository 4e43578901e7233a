"""Pseudonym self-generation (paper §IV.B, technique of ref [25]).

The hospital hands the patient a *temporary* IBC key pair (TP, Γ) with
Γ = s0·TP from the A-server's pool.  The patient then derives fresh valid
pairs locally, with no further PKG involvement:

    choose ρ ←$ Z*_q,   TP′ = ρ·TP,   Γ′ = ρ·Γ

Validity is preserved because Γ′ = ρ·s0·TP = s0·(ρ·TP) = s0·TP′ — the new
pair still verifies against the domain public key P_pub, yet is unlinkable
to the original pair (and to other derived pairs) under the DDH assumption
in G1... with one pairing-specific caveat honest about below.

**Linkage caveat**: in a *symmetric* pairing group DDH is easy
(ê(TP, Γ′) == ê(TP′, Γ) detects common ρ-ratio *if both private keys are
known*), but an observer only ever sees the public halves TP, TP′, for
which the pairs (TP, TP′) across sessions are uniformly random multiples —
linkage would require solving a DDH-like problem on public data
ê(TP, X)=ê(TP′, Y), which reveals nothing without a second reference
point.  Validity of a pair can nevertheless be *proved* by its holder by
signing with Γ′ (Hess IBS verifies against H1-free public key TP′
directly), which is how the S-server checks pseudonymous clients.

**ρ stays with its holder.**  A derived pair keeps ρ and the Γ it
scaled, so the patient can derive ν = ê(PK_S, Γ′) = ê(PK_S, Γ)^ρ as one
G2 power of a value fixed per S-server, instead of a pairing
(:meth:`repro.core.entities.Patient.session_key_with`).  ρ is as secret as
Γ itself — anyone holding ρ and Γ′ recovers Γ = ρ⁻¹Γ′ — so it lives in
process memory only: it is left out of ``==``, ``repr`` and every
encoding (pickles and copies included), and a pair parsed from bytes
has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.ec import Point
from repro.crypto.params import DomainParams
from repro.crypto.precompute import fixed_base_mul
from repro.crypto.rng import HmacDrbg
from repro.exceptions import ParameterError

__all__ = ["TemporaryKeyPair", "self_generate"]


@dataclass(frozen=True)
class TemporaryKeyPair:
    """A pseudonymous key pair (TP_p, Γ_p) with Γ_p = s0·TP_p."""

    public: Point   # TP_p
    private: Point  # Γ_p
    # For a pair made by self_generate: ρ and the Γ it scaled (Γ′ = ρ·Γ).
    rho: int | None = field(default=None, compare=False, repr=False)
    origin: Point | None = field(default=None, compare=False, repr=False)

    def __reduce__(self):
        # Pickles and copies hold the pair only, never ρ.
        return TemporaryKeyPair, (self.public, self.private)

    def verify_consistency(self, params: DomainParams, pkg_public: Point) -> bool:
        """Check ê(Γ, P) == ê(TP, P_pub), i.e. Γ = s0·TP without knowing s0."""
        return params.pairing_ratio_check(
            (self.private, params.generator), (self.public, pkg_public))


def issue_temporary_pair(params: DomainParams, master_secret: int,
                         rng: HmacDrbg) -> TemporaryKeyPair:
    """A-server-side issuance of one pool pair: TP = t·P, Γ = s0·TP."""
    t = params.random_scalar(rng)
    public = params.point_mul_generator(t)
    private = public * master_secret
    return TemporaryKeyPair(public=public, private=private)


def self_generate(pair: TemporaryKeyPair, params: DomainParams,
                  rng: HmacDrbg) -> TemporaryKeyPair:
    """Patient-side derivation of a fresh unlinkable pair TP′=ρTP, Γ′=ρΓ.

    The pool pair is long-lived, so both products go through its
    fixed-base combs.  The new pair keeps ρ and Γ (see the module
    docstring).
    """
    if pair.public.is_infinity:
        raise ParameterError("cannot derive from the infinity pair")
    rho = params.random_scalar(rng)
    return TemporaryKeyPair(public=fixed_base_mul(pair.public, rho),
                            private=fixed_base_mul(pair.private, rho),
                            rho=rho, origin=pair.private)
