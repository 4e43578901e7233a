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
chord numerators, in F_p² directly, with affine arithmetic (one base-field
inversion per step, which CPython's ``pow(x, -1, p)`` makes cheap).

The final exponentiation is split as f ↦ (f̄ · f^{-1})^h: the (p−1) part is
a conjugation and one inversion, the (p+1)/r = h part a square-and-multiply
in F_p² — and elements of the form f̄/f are *unitary* (norm 1), so inverses
during that exponentiation are free conjugations (exploited by
:func:`_pow_unitary`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.crypto import mathutil
from repro.crypto.ec import CurveParams, Point
from repro.crypto.fields import Fp2Element
from repro.exceptions import ParameterError

__all__ = ["tate_pairing", "miller_loop", "final_exponentiation",
           "pairing_product", "PreparedPairing", "prepared",
           "clear_pairing_cache"]


def miller_loop(P: Point, Q: Point) -> Fp2Element:
    """Evaluate Miller's function f_{r,P} at ψ(Q) (numerators only).

    ``P`` and ``Q`` must be non-infinity points of the order-r subgroup of
    E(F_p).  The result still needs :func:`final_exponentiation`.
    """
    curve = P.curve
    p = curve.p
    r = curve.r
    xq, yq = Q.x, Q.y
    # ψ(Q) = (−xq, i·yq): line numerators below are specialised to this form.
    xpsi = -xq % p

    # Accumulator point T in affine coords over F_p; Miller value f in F_p².
    tx, ty = P.x, P.y
    fa, fb = 1, 0  # f = fa + fb·i

    def line_eval(lx: int, ly: int, slope: int) -> tuple[int, int]:
        """Numerator of the line through (lx, ly) with given slope, at ψ(Q).

        l(X, Y) = Y − ly − slope·(X − lx) evaluated at (−xq, i·yq) gives
        (slope·(lx − xpsi) − ly) + yq·i  ∈ F_p².
        """
        return ((slope * (lx - xpsi) - ly) % p, yq)

    bits = bin(r)[3:]  # skip the leading 1: standard left-to-right Miller loop
    px, py = P.x, P.y
    for bit in bits:
        # f <- f² · l_{T,T}(ψQ)
        # F_p² squaring of (fa + fb·i):
        sq_a = (fa + fb) * (fa - fb) % p
        sq_b = 2 * fa * fb % p
        if ty == 0:
            # 2T = O: the tangent is vertical, erased by denominator
            # elimination; T becomes infinity and remaining steps multiply
            # by 1.  This happens only when r·P = O is reached exactly.
            fa, fb = sq_a, sq_b
            tx, ty = None, None  # type: ignore[assignment]
            break
        slope = (3 * tx * tx + 1) * mathutil.inv_mod(2 * ty, p) % p
        la, lb = line_eval(tx, ty, slope)
        fa = (sq_a * la - sq_b * lb) % p
        fb = (sq_a * lb + sq_b * la) % p
        # T <- 2T
        nx = (slope * slope - 2 * tx) % p
        ny = (slope * (tx - nx) - ty) % p
        tx, ty = nx, ny
        if bit == "1":
            # f <- f · l_{T,P}(ψQ);  T <- T + P
            if tx == px:
                if (ty + py) % p == 0:
                    # T + P = O: chord is vertical — eliminated.
                    tx, ty = None, None  # type: ignore[assignment]
                    break
                slope = (3 * tx * tx + 1) * mathutil.inv_mod(2 * ty, p) % p
            else:
                slope = (py - ty) * mathutil.inv_mod(px - tx, p) % p
            la, lb = line_eval(tx, ty, slope)
            fa, fb = (fa * la - fb * lb) % p, (fa * lb + fb * la) % p
            nx = (slope * slope - tx - px) % p
            ny = (slope * (tx - nx) - ty) % p
            tx, ty = nx, ny
    return Fp2Element(fa, fb, p)


def _pow_unitary(base: Fp2Element, exponent: int) -> Fp2Element:
    """Exponentiation of a norm-1 (unitary) F_p² element using NAF.

    For unitary elements the inverse is the conjugate, so a signed-digit
    exponentiation costs no inversions; NAF reduces multiplies ~11%.
    """
    p = base.p
    result = Fp2Element.one(p)
    conj = base.conjugate()
    for digit in reversed(mathutil.naf(exponent)):
        result = result.square()
        if digit == 1:
            result = result * base
        elif digit == -1:
            result = result * conj
    return result


def final_exponentiation(f: Fp2Element, curve: CurveParams) -> Fp2Element:
    """Raise the Miller value to (p² − 1)/r = (p − 1) · h.

    The (p − 1) part maps f to the unitary element f̄ / f; the remaining
    cofactor h uses the inversion-free unitary exponentiation.
    """
    if f.is_zero():
        raise ParameterError("Miller value is zero (degenerate input)")
    unitary = f.conjugate() * f.inverse()
    return _pow_unitary(unitary, curve.h)


# ---------------------------------------------------------------------------
# Bounded LRU over full pairing results.  Protocol hot paths recompute the
# same pairing constantly — ê(H1(ID), P_pub) per IBE encryption to one
# identity, ê(Γ_S, TP_p) per request of one session, the RolePeks tag base
# per keyword of one role — so a small cache absorbs most of them.  The
# distortion-map pairing is symmetric (ê(P, Q) = ê(Q, P); asserted by the
# test suite), so keys are canonicalised order-free to double the hit rate.
# ---------------------------------------------------------------------------

_TATE_CACHE_CAPACITY = 256
_tate_cache: "OrderedDict[tuple, Fp2Element]" = OrderedDict()
_tate_lock = threading.Lock()


def clear_pairing_cache() -> None:
    """Drop cached pairing results and prepared-pairing tables (tests)."""
    with _tate_lock:
        _tate_cache.clear()
    with _prepared_lock:
        _prepared_registry.clear()


def tate_pairing(P: Point, Q: Point) -> Fp2Element:
    """The reduced symmetric Tate pairing ê(P, Q) ∈ G2 ⊂ F_p².

    Returns the identity of F_p² when either input is infinity, matching
    the bilinearity convention ê(O, Q) = ê(P, O) = 1.  Results are served
    from a bounded LRU cache when the same (unordered) pair repeats.
    """
    if P.curve != Q.curve:
        raise ParameterError("pairing inputs on different curves")
    if P.is_infinity or Q.is_infinity:
        return Fp2Element.one(P.curve.p)
    a, b = (P.x, P.y), (Q.x, Q.y)
    key = (a, b, P.curve.p) if a <= b else (b, a, P.curve.p)
    with _tate_lock:
        hit = _tate_cache.get(key)
        if hit is not None:
            _tate_cache.move_to_end(key)
            return hit
    value = final_exponentiation(miller_loop(P, Q), P.curve)
    with _tate_lock:
        _tate_cache[key] = value
        _tate_cache.move_to_end(key)
        while len(_tate_cache) > _TATE_CACHE_CAPACITY:
            _tate_cache.popitem(last=False)
    return value


class PreparedPairing:
    """A pairing with its first argument fixed and its Miller loop unrolled.

    The Miller loop's point arithmetic — tangent/chord slopes, each costing
    a field inversion, plus the accumulator walk — depends only on the
    *first* argument P.  For a fixed P this class records the line
    coefficients once; evaluating against any Q then reduces to pure F_p²
    squar-and-multiply work with **no inversions and no curve operations**.

    The recorded line through (lx, ly) with slope m evaluates at
    ψ(Q) = (−x_Q, i·y_Q) to ``(m·lx − ly + m·x_Q) + y_Q·i``, so each step
    stores the pair ``(A, B) = (m·lx − ly, m)`` and replays
    ``l = (A + B·x_Q) + y_Q·i``.

    ``miller(Q)`` is bit-identical to ``miller_loop(P, Q)``; ``pair(Q)``
    to ``tate_pairing(P, Q)``.  Fixed first arguments are the common case:
    IBE encryption and IBS verification pair system parameters (P, P_pub),
    the S-server pairs its own Γ_S against every client, and a PEKS
    trapdoor is tested against many tags.  (The pairing is symmetric, so a
    fixed *second* argument can be moved to the first slot.)
    """

    # Replay opcodes: _SQ_LINE: f ← f²·l (doubling step); _LINE: f ← f·l
    # (addition step); _SQ_BREAK: f ← f², then stop (T reached infinity —
    # only when the base point's order divides the processed prefix).
    _SQ_LINE, _LINE, _SQ_BREAK = 0, 1, 2

    __slots__ = ("point", "curve", "_ops")

    def __init__(self, P: Point) -> None:
        if P.is_infinity:
            raise ParameterError("cannot prepare the infinity point")
        self.point = P
        self.curve = P.curve
        p = self.curve.p
        ops: list[tuple[int, int, int]] = []
        tx, ty = P.x, P.y
        px, py = P.x, P.y
        bits = bin(self.curve.r)[3:]
        for bit in bits:
            if ty == 0:
                ops.append((self._SQ_BREAK, 0, 0))
                break
            slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
            ops.append((self._SQ_LINE, (slope * tx - ty) % p, slope))
            nx = (slope * slope - 2 * tx) % p
            ny = (slope * (tx - nx) - ty) % p
            tx, ty = nx, ny
            if bit == "1":
                if tx == px:
                    if (ty + py) % p == 0:
                        break  # vertical chord: eliminated, loop ends
                    slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
                else:
                    slope = (py - ty) * pow(px - tx, -1, p) % p
                ops.append((self._LINE, (slope * tx - ty) % p, slope))
                nx = (slope * slope - tx - px) % p
                ny = (slope * (tx - nx) - ty) % p
                tx, ty = nx, ny
        self._ops = tuple(ops)

    def miller(self, Q: Point) -> Fp2Element:
        """Replay the loop against ψ(Q) — equals ``miller_loop(P, Q)``."""
        p = self.curve.p
        xq, yq = Q.x, Q.y
        fa, fb = 1, 0
        sq_line, line = self._SQ_LINE, self._LINE
        for kind, a_coef, b_coef in self._ops:
            if kind == sq_line:
                sq_a = (fa + fb) * (fa - fb) % p
                sq_b = 2 * fa * fb % p
                la = (a_coef + b_coef * xq) % p
                fa = (sq_a * la - sq_b * yq) % p
                fb = (sq_a * yq + sq_b * la) % p
            elif kind == line:
                la = (a_coef + b_coef * xq) % p
                fa, fb = (fa * la - fb * yq) % p, (fa * yq + fb * la) % p
            else:  # _SQ_BREAK
                fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
                break
        return Fp2Element(fa, fb, p)

    def pair(self, Q: Point) -> Fp2Element:
        """ê(P, Q) — identical value to ``tate_pairing(P, Q)``."""
        if Q.curve != self.curve:
            raise ParameterError("pairing inputs on different curves")
        if Q.is_infinity:
            return Fp2Element.one(self.curve.p)
        return final_exponentiation(self.miller(Q), self.curve)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PreparedPairing(%d line ops)" % len(self._ops)


_PREPARED_CAPACITY = 64
_prepared_registry: "OrderedDict[tuple[int, int, int], PreparedPairing]" = OrderedDict()
_prepared_lock = threading.Lock()


def prepared(P: Point) -> PreparedPairing:
    """The memoised :class:`PreparedPairing` for ``P`` (LRU-bounded)."""
    if P.is_infinity:
        raise ParameterError("cannot prepare the infinity point")
    key = (P.x, P.y, P.curve.p)
    with _prepared_lock:
        hit = _prepared_registry.get(key)
        if hit is not None:
            _prepared_registry.move_to_end(key)
            return hit
    built = PreparedPairing(P)
    with _prepared_lock:
        _prepared_registry[key] = built
        _prepared_registry.move_to_end(key)
        while len(_prepared_registry) > _PREPARED_CAPACITY:
            _prepared_registry.popitem(last=False)
    return built


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
