"""Tate pairing on the supersingular curve E: y² = x³ + x.

Implements the reduced Tate pairing with Miller's algorithm and the
distortion map ψ(x, y) = (−x, i·y), giving the *symmetric* pairing

    ê : G1 × G1 → G2 ⊂ F_p²,   ê(P, Q) = f_{r,P}(ψ(Q))^((p²−1)/r)

with the three properties the paper requires (Section II.A):

1. Bilinear:       ê(aP, bQ) = ê(P, Q)^{ab}
2. Non-degenerate: ê(P, P) ≠ 1 for a generator P of G1
3. Computable:     Miller's algorithm runs in O(log r) curve operations

Because the embedding degree is 2 and ψ sends the x-coordinate into the
base field's image (−x ∈ F_p) while the y-coordinate picks up the i
component, all *vertical* line evaluations land in F_p^* and are erased by
the final exponentiation (p² − 1)/r = (p − 1)·h — the classic denominator
elimination.  The Miller loop below therefore only evaluates the tangent /
chord numerators, in F_p² directly.

There is one Miller walk.  It depends only on the first argument P: it
runs in Jacobian coordinates and records each step's line as an affine
``(kind, m·x − y, m)`` entry, all made affine by a single batched
base-field inversion.  Replaying that table at ψ(Q) is pure F_p² work, so
:func:`miller_loop` is build-then-replay and :class:`PreparedPairing`
keeps the table for a fixed P.

The final exponentiation is split as f ↦ (f̄ · f^{-1})^h: the (p−1) part is
a conjugation and one inversion, and f̄/f is *unitary* (norm 1), so the
(p+1)/r = h part is the Lucas ladder of :meth:`Fp2Element.__pow__` — two
base-field products per exponent bit.

Two bounded memos (:class:`~repro.crypto.memo.LruMemo`) sit on top:
:func:`prepared` keeps line tables of long-lived first arguments, and
:func:`identity_pairing` keeps the values ê(A, PK) of a system point A
and a public identity's PK.  No other pairing value is retained;
:func:`tate_pairing` computes afresh.
"""

from __future__ import annotations

from repro.crypto import mathutil
from repro.crypto.ec import CurveParams, Point
from repro.crypto.fields import Fp2Element
from repro.crypto.memo import LruMemo
from repro.exceptions import ParameterError

__all__ = ["tate_pairing", "miller_loop", "final_exponentiation",
           "pairing_product", "PreparedPairing", "prepared",
           "identity_pairing", "clear_pairing_cache"]


# Line-table opcodes: _SQ_LINE: f ← f²·l (doubling step); _LINE: f ← f·l
# (addition step); _SQ_BREAK: f ← f², then stop (T reached infinity —
# only when the base point's order divides the processed prefix).
_SQ_LINE, _LINE, _SQ_BREAK = 0, 1, 2


def _tangent(X: int, Y: int, Z: int, p: int) -> tuple[int, int, int,
                                                      int, int, int]:
    """The tangent at the Jacobian point T = (X, Y, Z), Y ≠ 0, and 2T.

    With x = X/Z², y = Y/Z³ the slope is m = (3X² + Z⁴)/(2YZ) and the
    line's intercept term m·x − y = (M·X − 2Y²)/(2YZ³); both are returned
    as numerators over the one denominator 2YZ³.
    """
    ZZ = Z * Z % p
    YY = Y * Y % p
    M = (3 * X * X + ZZ * ZZ) % p
    Z2 = 2 * Y * Z % p
    S = 4 * X * YY % p
    X2 = (M * M - 2 * S) % p
    Y2 = (M * (S - X2) - 8 * YY * YY) % p
    return (M * X - 2 * YY) % p, M * ZZ % p, Z2 * ZZ % p, X2, Y2, Z2


def _line_table(P: Point) -> tuple[tuple[tuple[int, int, int], ...], bool]:
    """Miller's walk from P over the bits of r, as an affine line table.

    Each entry is ``(kind, m·x − y, m)`` for the tangent or chord of slope
    m through the accumulator T = (x, y).  The walk keeps T in Jacobian
    coordinates and each line as numerators over one denominator, then a
    single Montgomery batch inversion makes every entry affine — the
    same field elements an affine walk with one inversion per step gets.

    Also returns whether rP = O.  The walk decides that for free: a point
    of prime order r first meets O at the last bit, as T + P with
    T = (r − 1)P, and any other point does not.
    """
    p = P.curve.p
    px, py = P.x, P.y
    X, Y, Z = px, py, 1
    lines: list[tuple[int, int, int]] = []  # (kind, num(m·x − y), num(m))
    denominators: list[int] = []
    bits = bin(P.curve.r)[3:]  # skip the leading 1: left-to-right
    torsion = False
    for i, bit in enumerate(bits):
        if Y == 0:
            # 2T = O: the tangent is vertical, erased by denominator
            # elimination; remaining steps would multiply by 1.
            lines.append((_SQ_BREAK, 0, 0))
            break
        a_num, m_num, den, X, Y, Z = _tangent(X, Y, Z, p)
        lines.append((_SQ_LINE, a_num, m_num))
        denominators.append(den)
        if bit == "1":
            ZZ = Z * Z % p
            ZZZ = ZZ * Z % p
            H = (px * ZZ - X) % p
            if H == 0:
                if (Y + py * ZZZ) % p == 0:
                    # T + P = O: vertical chord, eliminated.
                    torsion = i == len(bits) - 1
                    break
                # T = P: the chord is the tangent, and T + P = 2T.
                a_num, m_num, den, X, Y, Z = _tangent(X, Y, Z, p)
            else:
                # Chord through T and P: m = R/(Z·H) and, since the line
                # passes through P, m·x_T − y_T = m·px − py.
                R = (py * ZZZ - Y) % p
                den = Z * H % p
                a_num, m_num = (R * px - py * den) % p, R
                HH = H * H % p
                HHH = HH * H % p
                V = X * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - Y * HHH) % p
                Z = den
            lines.append((_LINE, a_num, m_num))
            denominators.append(den)
    inverses = iter(mathutil.batch_inv_mod(denominators, p))
    table = []
    for kind, a_num, m_num in lines:
        if kind == _SQ_BREAK:
            table.append((kind, 0, 0))
        else:
            inv = next(inverses)
            table.append((kind, a_num * inv % p, m_num * inv % p))
    return tuple(table), torsion


def _replay(table: tuple[tuple[int, int, int], ...], Q: Point,
            p: int) -> Fp2Element:
    """Evaluate a line table at ψ(Q) = (−x_Q, i·y_Q).

    The line through (x, y) with slope m evaluates there to
    ``(m·x − y + m·x_Q) + y_Q·i``, so an entry (kind, A, m) contributes
    ``l = (A + m·x_Q) + y_Q·i``: pure F_p² work, no inversions.
    """
    xq, yq = Q.x, Q.y
    fa, fb = 1, 0  # f = fa + fb·i
    for kind, a_coef, b_coef in table:
        if kind == _SQ_LINE:
            sq_a = (fa + fb) * (fa - fb) % p
            sq_b = 2 * fa * fb % p
            la = (a_coef + b_coef * xq) % p
            fa = (sq_a * la - sq_b * yq) % p
            fb = (sq_a * yq + sq_b * la) % p
        elif kind == _LINE:
            la = (a_coef + b_coef * xq) % p
            fa, fb = (fa * la - fb * yq) % p, (fa * yq + fb * la) % p
        else:  # _SQ_BREAK
            fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
            break
    return Fp2Element(fa, fb, p)


def miller_loop(P: Point, Q: Point) -> Fp2Element:
    """Evaluate Miller's function f_{r,P} at ψ(Q) (numerators only).

    ``P`` and ``Q`` must be non-infinity points of the order-r subgroup of
    E(F_p).  The result still needs :func:`final_exponentiation`.  Builds
    P's line table and replays it, exactly as :class:`PreparedPairing`.
    """
    return _replay(_line_table(P)[0], Q, P.curve.p)


def final_exponentiation(f: Fp2Element, curve: CurveParams) -> Fp2Element:
    """Raise the Miller value to (p² − 1)/r = (p − 1) · h.

    The (p − 1) part maps f to the unitary element f̄ / f; the cofactor h
    then takes the norm-1 Lucas ladder of :meth:`Fp2Element.__pow__`.
    """
    if f.is_zero():
        raise ParameterError("Miller value is zero (degenerate input)")
    return (f.conjugate() * f.inverse()) ** curve.h


def clear_pairing_cache() -> None:
    """Drop memoised identity pairings, prepared-pairing tables and
    memoised H1 points (tests)."""
    # Imported here: hashes imports params, which imports this module.
    from repro.crypto.hashes import _h1_memo
    for memo in (_h1_memo, _identity_pairings, _prepared_registry):
        memo.clear()


def tate_pairing(P: Point, Q: Point) -> Fp2Element:
    """The reduced symmetric Tate pairing ê(P, Q) ∈ G2 ⊂ F_p².

    Returns the identity of F_p² when either input is infinity, matching
    the bilinearity convention ê(O, Q) = ê(P, O) = 1.

    The reduced Tate pairing evaluates the Miller function of an r-torsion
    point.  On G1 × G1 either order gives the same value (ê is symmetric);
    when only Q is r-torsion, Q's walk is the one evaluated, at ψ(P), so
    the value does not depend on argument order there either.
    """
    if P.curve != Q.curve:
        raise ParameterError("pairing inputs on different curves")
    if P.is_infinity or Q.is_infinity:
        return Fp2Element.one(P.curve.p)
    table, torsion = _line_table(P)
    if not torsion:
        q_table, q_torsion = _line_table(Q)
        if q_torsion:
            table, Q = q_table, P
    return final_exponentiation(_replay(table, Q, P.curve.p), P.curve)


class PreparedPairing:
    """A pairing with its first argument fixed and its Miller loop unrolled.

    The Miller loop's point arithmetic — tangent/chord slopes plus the
    accumulator walk — depends only on the *first* argument P.  For a
    fixed P this class keeps P's line table; evaluating against any Q
    then reduces to pure F_p² square-and-multiply work with **no
    inversions and no curve operations**.

    ``miller(Q)`` is bit-identical to ``miller_loop(P, Q)``; ``pair(Q)``
    to ``tate_pairing(P, Q)`` whenever rP = O (every point the protocols
    prepare is in G1).  Fixed first arguments are the common case:
    IBE encryption and IBS verification pair system parameters (P, P_pub),
    the S-server pairs its own Γ_S against every client, and a PEKS
    trapdoor is tested against many tags.  (The pairing is symmetric, so a
    fixed *second* argument can be moved to the first slot.)
    """

    __slots__ = ("point", "curve", "_ops")

    def __init__(self, P: Point) -> None:
        if P.is_infinity:
            raise ParameterError("cannot prepare the infinity point")
        self.point = P
        self.curve = P.curve
        self._ops = _line_table(P)[0]

    def miller(self, Q: Point) -> Fp2Element:
        """Replay the loop against ψ(Q) — equals ``miller_loop(P, Q)``."""
        return _replay(self._ops, Q, self.curve.p)

    def pair(self, Q: Point) -> Fp2Element:
        """ê(P, Q) — for P in G1, identical to ``tate_pairing(P, Q)``."""
        if Q.curve != self.curve:
            raise ParameterError("pairing inputs on different curves")
        if Q.is_infinity:
            return Fp2Element.one(self.curve.p)
        return final_exponentiation(self.miller(Q), self.curve)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PreparedPairing(%d line ops)" % len(self._ops)


_prepared_registry = LruMemo(64)


def prepared(P: Point) -> PreparedPairing:
    """The memoised :class:`PreparedPairing` for ``P`` (LRU-bounded)."""
    if P.is_infinity:  # its key would be that of the point (0, 0)
        raise ParameterError("cannot prepare the infinity point")
    return _prepared_registry.get((P.x, P.y, P.curve.p), PreparedPairing, P)


# ---------------------------------------------------------------------------
# Memo of public identity pairings ê(A, PK): A is a system point (P or
# P_pub) and PK = H1 of a public identity.  IBS signing pairs P with the
# signer's PK, IBS verification and IBE/role-PEKS encryption pair P_pub
# with the peer's PK, and the same few identities recur on every
# break-glass request.  Only public points may be passed: pseudonyms,
# keyword points and private points keep the unmemoised prepared path.
# ---------------------------------------------------------------------------

_identity_pairings = LruMemo(256)


def _pair_prepared(A: Point, pk: Point) -> Fp2Element:
    return prepared(A).pair(pk)


def identity_pairing(A: Point, pk: Point) -> Fp2Element:
    """ê(A, PK) for a system point A and a public identity's PK = H1(ID).

    Served from a bounded LRU keyed by (curve, A, PK); a miss is
    ``prepared(A).pair(PK)``, so the value is that pairing byte for byte.
    """
    if A.is_infinity or pk.is_infinity:
        return Fp2Element.one(A.curve.p)
    return _identity_pairings.get((A.curve, A, pk), _pair_prepared, A, pk)


def pairing_product(pairs: list[tuple[Point, Point]],
                    curve: CurveParams) -> Fp2Element:
    """Compute ∏ ê(P_i, Q_i) sharing one final exponentiation.

    Used by signature verification (which needs a ratio of two pairings):
    batching the Miller loops under a single final exponentiation roughly
    halves the cost of a two-pairing check.
    """
    acc = Fp2Element.one(curve.p)
    nontrivial = False
    for P, Q in pairs:
        if P.is_infinity or Q.is_infinity:
            continue
        acc = acc * miller_loop(P, Q)
        nontrivial = True
    if not nontrivial:
        return Fp2Element.one(curve.p)
    return final_exponentiation(acc, curve)
