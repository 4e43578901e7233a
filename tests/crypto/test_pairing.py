"""Tate-pairing tests: the three properties of paper §II.A, plus edges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ec import Point
from repro.crypto.fields import Fp2Element
from repro.crypto.pairing import (PreparedPairing, clear_pairing_cache,
                                  final_exponentiation, identity_pairing,
                                  miller_loop, pairing_product, prepared,
                                  tate_pairing)
from repro.crypto.params import generate_type_a
from repro.crypto.params import test_params as _test_params
from repro.exceptions import ParameterError

PARAMS = _test_params()
G = PARAMS.generator
R = PARAMS.r

scalars = st.integers(min_value=1, max_value=R - 1)


def _affine_miller(P, Q):
    """Reference Miller walk: affine, one inversion per step, numerators
    evaluated at ψ(Q) — the values every line table must reproduce."""
    p = P.curve.p
    px, py, xq, yq = P.x, P.y, Q.x, Q.y
    tx, ty = px, py
    fa, fb = 1, 0

    def times_line(fa, fb, slope, lx, ly):
        la = (slope * (lx + xq) - ly) % p
        return (fa * la - fb * yq) % p, (fa * yq + fb * la) % p

    for bit in bin(P.curve.r)[3:]:
        fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
        if ty == 0:
            break  # vertical tangent: T reached infinity
        slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
        fa, fb = times_line(fa, fb, slope, tx, ty)
        nx = (slope * slope - 2 * tx) % p
        tx, ty = nx, (slope * (tx - nx) - ty) % p
        if bit == "1":
            if tx == px and (ty + py) % p == 0:
                break  # vertical chord: T + P = O
            if tx == px:
                slope = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
            else:
                slope = (py - ty) * pow(px - tx, -1, p) % p
            fa, fb = times_line(fa, fb, slope, tx, ty)
            nx = (slope * slope - tx - px) % p
            tx, ty = nx, (slope * (tx - nx) - ty) % p
    return Fp2Element(fa, fb, p)


def _order_point(params, order, start=2):
    """A point of order dividing ``order`` (≠ O): a lifted point times
    (p + 1)/order."""
    curve = params.curve
    x = start
    while True:
        lifted = Point.from_x(x, curve)
        if lifted is not None:
            candidate = lifted * ((curve.p + 1) // order)
            if not candidate.is_infinity:
                return candidate
        x += 1


def _square_and_multiply(x, exponent):
    """Reference G2 power: plain left-to-right binary exponentiation."""
    if exponent < 0:
        x, exponent = x.inverse(), -exponent
    acc = Fp2Element.one(x.p)
    for bit in bin(exponent)[2:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * x
    return acc


# Points that end the walk early or never reach O: 2-torsion (vertical
# tangent at once), 4- and 100-torsion, orders 5/25/125 (vertical chord
# mid-walk), and a lifted point outside G1 (full walk, last chord kept).
EDGE_POINTS = [
    Point(0, 0, PARAMS.curve),
    Point.from_x(1 if pow(2, (PARAMS.p - 1) // 2, PARAMS.p) == 1
                 else PARAMS.p - 1, PARAMS.curve),
    _order_point(PARAMS, 100, 2),
    _order_point(PARAMS, 5, 2),
    _order_point(PARAMS, 25, 50),
    _order_point(PARAMS, 125, 2),
    next(pt for pt in (Point.from_x(x, PARAMS.curve) for x in range(5, 99))
         if pt is not None),
]


class TestPairingProperties:
    def test_non_degenerate(self):
        """Property 2: ∃ P, Q with e(P, Q) ≠ 1 — true for the generator."""
        assert not tate_pairing(G, G).is_one()

    def test_output_has_order_r(self):
        e = tate_pairing(G, G)
        assert (e ** R).is_one()
        assert not (e ** 1).is_one()

    @given(scalars, scalars)
    @settings(max_examples=10, deadline=None)
    def test_bilinear(self, a, b):
        """Property 1: e(aP, bQ) = e(P, Q)^{ab}."""
        assert tate_pairing(G * a, G * b) == tate_pairing(G, G) ** (a * b % R)

    def test_bilinear_left_additivity(self):
        P1, P2, Q = G * 3, G * 5, G * 7
        assert (tate_pairing(P1 + P2, Q)
                == tate_pairing(P1, Q) * tate_pairing(P2, Q))

    def test_bilinear_right_additivity(self):
        P, Q1, Q2 = G * 3, G * 5, G * 7
        assert (tate_pairing(P, Q1 + Q2)
                == tate_pairing(P, Q1) * tate_pairing(P, Q2))

    def test_symmetry(self):
        """The distortion-map pairing is symmetric: ê(P, Q) = ê(Q, P)."""
        P, Q = G * 11, G * 13
        assert tate_pairing(P, Q) == tate_pairing(Q, P)

    def test_negation(self):
        P, Q = G * 4, G * 9
        assert tate_pairing(-P, Q) == tate_pairing(P, Q).inverse()

    def test_infinity_inputs_give_one(self):
        from repro.crypto.ec import Point
        inf = Point.infinity_point(PARAMS.curve)
        assert tate_pairing(inf, G).is_one()
        assert tate_pairing(G, inf).is_one()

    def test_sok_key_agreement(self):
        """The NIKE identity: ê(aP, bP) = ê(bP, aP) = ê(P,P)^{ab}."""
        a, b, s = 111, 222, 333
        pk_a, pk_b = G * a, G * b
        gamma_a, gamma_b = pk_a * s, pk_b * s
        assert tate_pairing(gamma_a, pk_b) == tate_pairing(pk_a, gamma_b)


class TestPairingInternals:
    def test_final_exponentiation_unitary(self):
        """Post-exponentiation values have norm 1 (lie in the order-r
        cyclotomic subgroup)."""
        e = tate_pairing(G * 2, G * 3)
        assert e.norm() == 1

    def test_final_exponentiation_zero_raises(self):
        with pytest.raises(ParameterError):
            final_exponentiation(Fp2Element.zero(PARAMS.p), PARAMS.curve)

    def test_miller_plus_final_matches(self):
        raw = miller_loop(G, G)
        assert final_exponentiation(raw, PARAMS.curve) == tate_pairing(G, G)

    def test_mixed_curve_raises(self):
        other = generate_type_a(32, 80, b"other-curve")
        with pytest.raises(ParameterError):
            tate_pairing(G, other.generator)


class TestPairingProduct:
    def test_single_matches(self):
        assert (pairing_product([(G * 2, G * 3)], PARAMS.curve)
                == tate_pairing(G * 2, G * 3))

    def test_two_products(self):
        pairs = [(G * 2, G * 3), (G * 5, G * 7)]
        expected = tate_pairing(G * 2, G * 3) * tate_pairing(G * 5, G * 7)
        assert pairing_product(pairs, PARAMS.curve) == expected

    def test_ratio_check_true(self):
        # e(aP, bP) == e(abP, P)
        assert pairing_product([(G * 6, G * 5), (-(G * 30), G)],
                               PARAMS.curve).is_one()

    def test_ratio_check_false(self):
        assert not pairing_product([(G * 6, G * 5), (-(G * 31), G)],
                                   PARAMS.curve).is_one()

    def test_empty_product_is_one(self):
        assert pairing_product([], PARAMS.curve).is_one()

    def test_infinity_pairs_skipped(self):
        from repro.crypto.ec import Point
        inf = Point.infinity_point(PARAMS.curve)
        assert (pairing_product([(inf, G), (G * 2, G * 3)], PARAMS.curve)
                == tate_pairing(G * 2, G * 3))

    def test_infinity_on_either_side_skipped(self):
        from repro.crypto.ec import Point
        inf = Point.infinity_point(PARAMS.curve)
        assert pairing_product([(G * 2, inf)], PARAMS.curve).is_one()
        assert pairing_product([(inf, inf)], PARAMS.curve).is_one()

    @given(st.lists(st.tuples(scalars, scalars), min_size=1, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_bilinearity_of_product(self, coeffs):
        """∏ ê(a_iP, b_iP) == ê(P, P)^Σ a_i·b_i."""
        pairs = [(G * a, G * b) for a, b in coeffs]
        exponent = sum(a * b for a, b in coeffs) % R
        assert (pairing_product(pairs, PARAMS.curve)
                == tate_pairing(G, G) ** exponent)

    def test_matches_product_of_individual_pairings(self):
        pairs = [(G * 2, G * 3), (G * 5, G * 7), (G * 11, G * 13),
                 (G * 17, G * 19)]
        expected = Fp2Element.one(PARAMS.p)
        for P, Q in pairs:
            expected = expected * tate_pairing(P, Q)
        assert pairing_product(pairs, PARAMS.curve) == expected


class TestPreparedPairing:
    def test_miller_matches_miller_loop(self):
        P = G * 9
        prep = PreparedPairing(P)
        for k in (1, 2, 17, R - 1):
            assert prep.miller(G * k) == miller_loop(P, G * k)

    def test_pair_matches_tate_both_orders(self):
        P, Q = G * 21, G * 34
        prep = PreparedPairing(P)
        clear_pairing_cache()
        assert prep.pair(Q) == tate_pairing(P, Q)
        clear_pairing_cache()
        assert prep.pair(Q) == tate_pairing(Q, P)

    def test_pair_infinity_is_one(self):
        from repro.crypto.ec import Point
        prep = PreparedPairing(G)
        assert prep.pair(Point.infinity_point(PARAMS.curve)).is_one()

    def test_infinity_base_rejected(self):
        from repro.crypto.ec import Point
        with pytest.raises(ParameterError):
            PreparedPairing(Point.infinity_point(PARAMS.curve))

    def test_curve_mismatch_rejected(self):
        other = generate_type_a(32, 80, b"other-prepared")
        prep = PreparedPairing(G)
        with pytest.raises(ParameterError):
            prep.pair(other.generator)

    def test_registry_identity(self):
        clear_pairing_cache()
        assert prepared(G * 3) is prepared(G * 3)
        assert prepared(G * 3) is not prepared(G * 4)

    def test_bilinearity_through_prepared(self):
        prep = PreparedPairing(G * 6)
        clear_pairing_cache()
        assert prep.pair(G * 7) == tate_pairing(G, G) ** 42


class TestMillerWalk:
    """``miller_loop`` and the line-table replay against the affine
    reference walk, over every branch of the walk."""

    @given(scalars, scalars)
    @settings(max_examples=20, deadline=None)
    def test_g1_points_match_reference(self, a, b):
        P, Q = G * a, G * b
        expected = _affine_miller(P, Q)
        assert miller_loop(P, Q) == expected
        assert PreparedPairing(P).miller(Q) == expected

    def test_edge_points_match_reference(self):
        infinity = Point.infinity_point(PARAMS.curve)
        for P in EDGE_POINTS:
            for Q in (G, G * 7, EDGE_POINTS[-1], infinity):
                expected = _affine_miller(P, Q)
                assert miller_loop(P, Q) == expected
                assert PreparedPairing(P).miller(Q) == expected
        # miller_loop(O, Q) walks O's stored (0, 0): the value is 1.
        assert miller_loop(infinity, G) == _affine_miller(infinity, G)
        assert miller_loop(infinity, G).is_one()

    def test_tangent_at_an_addition_step(self):
        """T = P at an addition step takes the tangent: an order-3 point
        on a curve whose r has a set bit where 2^k ≡ 1 (mod 3)."""
        small = generate_type_a(26, 66, b"tangent-2")
        P3 = _order_point(small, 3)
        for Q in (small.generator, small.generator * 5):
            expected = _affine_miller(P3, Q)
            assert miller_loop(P3, Q) == expected
            assert PreparedPairing(P3).miller(Q) == expected


exponents = st.one_of(
    st.sampled_from([0, 1, -1, 2, R, -R, R - 1, PARAMS.curve.h,
                     -PARAMS.curve.h, PARAMS.p + 1]),
    st.integers(min_value=-(1 << 200), max_value=1 << 200))


class TestUnitaryPow:
    """G2 powers of norm-1 bases equal plain square-and-multiply."""

    @given(scalars, exponents)
    @settings(max_examples=30, deadline=None)
    def test_pairing_values(self, a, exponent):
        g = tate_pairing(G, G * a)
        assert g.norm() == 1
        assert g ** exponent == _square_and_multiply(g, exponent)

    @given(st.integers(min_value=1, max_value=PARAMS.p - 1),
           st.integers(min_value=0, max_value=PARAMS.p - 1), exponents)
    @settings(max_examples=30, deadline=None)
    def test_conjugate_quotients(self, a, b, exponent):
        f = Fp2Element(a, b, PARAMS.p)
        unitary = f.conjugate() / f
        assert unitary ** exponent == _square_and_multiply(unitary,
                                                           exponent)

    def test_real_and_imaginary_units(self):
        p = PARAMS.p
        for base in (Fp2Element(1, 0, p), Fp2Element(p - 1, 0, p),
                     Fp2Element(0, 1, p), Fp2Element(0, p - 1, p)):
            for exponent in (0, 1, 2, 3, 5, -1, -6, R, PARAMS.curve.h):
                assert base ** exponent == _square_and_multiply(base,
                                                                exponent)

    @given(st.integers(min_value=0, max_value=PARAMS.p - 1),
           st.integers(min_value=1, max_value=PARAMS.p - 1), exponents)
    @settings(max_examples=30, deadline=None)
    def test_non_unitary_bases(self, a, b, exponent):
        x = Fp2Element(a, b, PARAMS.p)
        if x.norm() == 1:
            return
        assert x ** exponent == _square_and_multiply(x, exponent)

    def test_only_norm_one_bases_take_the_ladder(self, monkeypatch):
        from repro.crypto import fields
        g = tate_pairing(G, G * 3)
        calls = []
        ladder = fields._pow_norm1

        def spy(*args):
            calls.append(args)
            return ladder(*args)

        monkeypatch.setattr(fields, "_pow_norm1", spy)
        plain = Fp2Element(3, 5, PARAMS.p)
        assert plain ** -12345 == _square_and_multiply(plain, -12345)
        assert calls == []
        assert g ** -12345 == _square_and_multiply(g, -12345)
        assert len(calls) == 1


class TestTateOrder:
    """tate_pairing walks an r-torsion argument, so it is a function of
    its unordered inputs even off G1 and keeps no state between calls."""

    def test_g1_argument_is_walked_in_either_order(self):
        A = G * 7
        for N in EDGE_POINTS:
            walked = final_exponentiation(miller_loop(A, N), PARAMS.curve)
            assert tate_pairing(A, N) == walked
            assert tate_pairing(N, A) == walked

    def test_order_kept_when_neither_is_r_torsion(self):
        N, T = EDGE_POINTS[-1], EDGE_POINTS[3]
        assert (tate_pairing(N, T)
                == final_exponentiation(miller_loop(N, T), PARAMS.curve))

    def test_value_independent_of_call_history(self):
        A, N = G * 11, EDGE_POINTS[-1]
        clear_pairing_cache()
        cold = tate_pairing(N, A)
        tate_pairing(A, N)
        assert tate_pairing(N, A) == cold


class TestIdentityPairingMemo:
    def test_memo_returns_identical_object(self):
        clear_pairing_cache()
        first = identity_pairing(G * 5, G * 8)
        assert identity_pairing(G * 5, G * 8) is first
        assert first == prepared(G * 5).pair(G * 8) == tate_pairing(G * 5,
                                                                    G * 8)

    def test_memoised_value_is_correct(self):
        clear_pairing_cache()
        warm = identity_pairing(G * 4, G * 6)
        clear_pairing_cache()
        assert identity_pairing(G * 4, G * 6) == warm

    def test_memo_capacity_bounded(self, monkeypatch):
        from repro.crypto import pairing as pairing_mod
        clear_pairing_cache()
        monkeypatch.setattr(pairing_mod._identity_pairings, "capacity", 8)
        for i in range(1, 30):
            identity_pairing(G, G * i)
            assert len(pairing_mod._identity_pairings) <= 8
        clear_pairing_cache()
        assert not pairing_mod._identity_pairings

    def test_infinity_gives_one_and_is_not_held(self):
        from repro.crypto import pairing as pairing_mod
        clear_pairing_cache()
        infinity = Point.infinity_point(PARAMS.curve)
        assert identity_pairing(infinity, G).is_one()
        assert identity_pairing(G, infinity).is_one()
        assert not pairing_mod._identity_pairings

    def test_keyed_by_curve(self):
        from repro.crypto import pairing as pairing_mod
        other = generate_type_a(40, 96, b"memo-curve")
        clear_pairing_cache()
        Q = other.generator * 3
        assert identity_pairing(other.generator, Q) == other.pairing(
            other.generator, Q)
        assert identity_pairing(G, G * 3) == tate_pairing(G, G * 3)
        assert {key[0] for key in pairing_mod._identity_pairings} == {
            other.curve, PARAMS.curve}


class TestGeneratedParams:
    def test_fresh_parameters_pair_correctly(self):
        fresh = generate_type_a(40, 96, b"fresh-test-params")
        P = fresh.generator
        e = fresh.pairing(P, P)
        assert not e.is_one()
        assert (e ** fresh.r).is_one()
        assert fresh.pairing(P * 3, P * 4) == e ** 12

    def test_generated_params_deterministic(self):
        a = generate_type_a(32, 80, b"seed-x")
        b = generate_type_a(32, 80, b"seed-x")
        assert a.p == b.p and a.r == b.r
        assert a.generator == b.generator

    def test_bad_sizes_raise(self):
        with pytest.raises(ParameterError):
            generate_type_a(8, 80, b"x")
        with pytest.raises(ParameterError):
            generate_type_a(80, 81, b"x")
