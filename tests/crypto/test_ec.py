"""Elliptic-curve group-law tests on E: y² = x³ + x."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ec import (CurveParams, Point, jacobian_add,
                             jacobian_double, jacobian_to_affine,
                             scalar_mult_ladder)
from repro.crypto.params import test_params as _test_params
from repro.exceptions import NotOnCurveError, ParameterError

PARAMS = _test_params()
CURVE = PARAMS.curve
G = PARAMS.generator

scalars = st.integers(min_value=1, max_value=CURVE.r - 1)


class TestCurveParams:
    def test_cofactor_consistency(self):
        assert CURVE.p + 1 == CURVE.h * CURVE.r

    def test_p_3_mod_4_required(self):
        with pytest.raises(ParameterError):
            CurveParams(p=13, r=7, h=2)

    def test_cofactor_mismatch_raises(self):
        with pytest.raises(ParameterError):
            CurveParams(p=CURVE.p, r=CURVE.r, h=CURVE.h + 1)


class TestPointBasics:
    def test_generator_on_curve(self):
        lhs = G.y * G.y % CURVE.p
        rhs = (pow(G.x, 3, CURVE.p) + G.x) % CURVE.p
        assert lhs == rhs

    def test_generator_in_subgroup(self):
        assert G.is_in_subgroup()
        assert (G * CURVE.r).is_infinity

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurveError):
            Point(1, 1, CURVE)

    def test_infinity_identity(self):
        inf = Point.infinity_point(CURVE)
        assert (G + inf) == G
        assert (inf + G) == G
        assert (inf + inf).is_infinity

    def test_negation_sums_to_infinity(self):
        assert (G + (-G)).is_infinity

    def test_double_equals_add(self):
        assert G.double() == G + G

    def test_double_many_points(self):
        for k in (2, 3, 7, 1234, CURVE.r - 1):
            P = G * k
            assert P.double() == P + P == G * (2 * k)

    def test_double_infinity(self):
        assert Point.infinity_point(CURVE).double().is_infinity

    def test_double_two_torsion_gives_infinity(self):
        # On y² = x³ + x, the point (0, 0) has order 2: vertical tangent.
        two_torsion = Point(0, 0, CURVE)
        assert two_torsion.double().is_infinity
        assert (two_torsion + two_torsion).is_infinity

    def test_from_x_lifts(self):
        lifted = Point.from_x(G.x, CURVE, parity=G.y % 2)
        assert lifted == G

    def test_from_x_non_residue_none(self):
        # Find an x with no point; exists for ~half of all x.
        x = 0
        found_none = False
        for x in range(2, 200):
            if Point.from_x(x, CURVE) is None:
                found_none = True
                break
        assert found_none

    def test_bytes_round_trip(self):
        assert Point.from_bytes(G.to_bytes(), CURVE) == G
        inf = Point.infinity_point(CURVE)
        assert Point.from_bytes(inf.to_bytes(), CURVE).is_infinity

    def test_bad_encoding(self):
        with pytest.raises(ParameterError):
            Point.from_bytes(b"\x05" + b"\x00" * 40, CURVE)

    def test_distort_moves_x(self):
        dx, dy = G.distort()
        assert dx.a == -G.x % CURVE.p and dx.b == 0
        assert dy.a == 0 and dy.b == G.y

    def test_distort_infinity_raises(self):
        with pytest.raises(ParameterError):
            Point.infinity_point(CURVE).distort()

    def test_hashable(self):
        assert len({G, G * 2, G, Point.infinity_point(CURVE)}) == 3


class TestGroupLaw:
    @given(scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_mult_distributes(self, a, b):
        assert G * a + G * b == G * ((a + b) % CURVE.r)

    @given(scalars, scalars)
    @settings(max_examples=15, deadline=None)
    def test_scalar_mult_associative(self, a, b):
        assert (G * a) * b == G * (a * b % CURVE.r)

    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, a):
        P = G * a
        assert P + G == G + P

    def test_small_multiples(self):
        acc = Point.infinity_point(CURVE)
        for k in range(1, 12):
            acc = acc + G
            assert acc == G * k

    def test_mul_zero_is_infinity(self):
        assert (G * 0).is_infinity

    def test_mul_order_is_infinity(self):
        assert (G * CURVE.r).is_infinity

    def test_mul_reduces_mod_group_order(self):
        assert G * (CURVE.r + 5) == G * 5

    def test_mixed_curves_raise(self):
        other = CurveParams(p=CURVE.p, r=CURVE.r, h=CURVE.h)
        # same values -> equal curves, so construct a different small curve
        with pytest.raises(ParameterError):
            small = CurveParams(p=19, r=5, h=4)
            pt = Point.from_x(1, small)
            if pt is None:
                for x in range(2, 19):
                    pt = Point.from_x(x, small)
                    if pt is not None:
                        break
            G + pt  # noqa: B018 - the addition itself is the assertion


class TestJacobianKernels:
    def test_double_matches_affine(self):
        jac = jacobian_double((G.x, G.y, 1), CURVE.p)
        affine = jacobian_to_affine(jac, CURVE.p)
        expected = G + G
        assert affine == (expected.x, expected.y)

    def test_add_matches_affine(self):
        P2 = G * 2
        jac = jacobian_add((G.x, G.y, 1), (P2.x, P2.y, 1), CURVE.p)
        affine = jacobian_to_affine(jac, CURVE.p)
        expected = G * 3
        assert affine == (expected.x, expected.y)

    def test_add_inverse_gives_infinity(self):
        neg = -G
        jac = jacobian_add((G.x, G.y, 1), (neg.x, neg.y, 1), CURVE.p)
        assert jacobian_to_affine(jac, CURVE.p) is None

    def test_add_with_infinity(self):
        inf = (1, 1, 0)
        assert jacobian_add(inf, (G.x, G.y, 1), CURVE.p) == (G.x, G.y, 1)
        assert jacobian_add((G.x, G.y, 1), inf, CURVE.p) == (G.x, G.y, 1)

    def test_scalar_mult_negative(self):
        result = scalar_mult_ladder(G.x, G.y, -3, CURVE.p)
        expected = -(G * 3)
        assert result == (expected.x, expected.y)

    def test_scalar_mult_zero(self):
        assert scalar_mult_ladder(G.x, G.y, 0, CURVE.p) is None

    @given(scalars)
    @settings(max_examples=20, deadline=None)
    def test_doubling_consistency(self, a):
        P = G * a
        assert P.double() == P * 2


N_ORDER = CURVE.r * CURVE.h  # #E(F_p) = p + 1


def _affine_mul(P, k):
    """Reference: affine double-and-add over Point's own group law (one
    inversion per step), independent of the ladder."""
    if k < 0:
        return -_affine_mul(P, -k)
    acc = Point.infinity_point(CURVE)
    for bit in bin(k)[2:]:
        acc = acc.double()
        if bit == "1":
            acc = acc + P
    return acc


def _lift(x):
    """The first curve point with x-coordinate ≥ x (mod p)."""
    while True:
        point = Point.from_x(x % CURVE.p, CURVE)
        if point is not None:
            return point
        x += 1


def _torsion(order, start):
    """A point whose order divides ``order`` (≠ O)."""
    x = start
    while True:
        candidate = _lift(x) * (N_ORDER // order)
        if not candidate.is_infinity:
            return candidate
        x += 1


g1_points = scalars.map(lambda a: G * a)
curve_points = st.integers(min_value=0, max_value=CURVE.p - 1).map(_lift)
ladder_scalars = st.integers(min_value=-2 * N_ORDER, max_value=2 * N_ORDER)
FIXED_SCALARS = {"0": 0, "1": 1, "2": 2, "r-1": CURVE.r - 1, "r": CURVE.r,
                 "r+1": CURVE.r + 1, "h": CURVE.h, "n-1": N_ORDER - 1,
                 "n": N_ORDER}
TWO_TORSION = Point(0, 0, CURVE)


class TestMontgomeryLadder:
    """Point.__mul__ and scalar_mult_ladder against affine double-and-add,
    on G1 and on the rest of E(F_p) (h has many small factors, so lifted
    points carry torsion of many orders)."""

    @given(g1_points, ladder_scalars)
    @settings(max_examples=40, deadline=None)
    def test_g1_points(self, P, k):
        assert P * k == _affine_mul(P, k)

    @given(curve_points, ladder_scalars)
    @settings(max_examples=60, deadline=None)
    def test_points_outside_g1(self, P, k):
        expected = _affine_mul(P, k)
        assert P * k == expected
        raw = scalar_mult_ladder(P.x, P.y, k, CURVE.p)
        assert raw == (None if expected.is_infinity
                       else (expected.x, expected.y))

    @pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
    @pytest.mark.parametrize("name", list(FIXED_SCALARS))
    def test_fixed_scalars(self, name, sign):
        k = sign * FIXED_SCALARS[name]
        points = [G, G * 0xC0FFEE, _lift(5), _lift(123456789),
                  _torsion(4, 2), _torsion(5, 2), _torsion(100, 2),
                  _torsion(CURVE.h, 11)]
        for P in points:
            assert P * k == _affine_mul(P, k), (P, k)

    @given(ladder_scalars)
    @settings(max_examples=30, deadline=None)
    def test_two_torsion_point(self, k):
        expected = TWO_TORSION if k % 2 else Point.infinity_point(CURVE)
        assert TWO_TORSION * k == expected == _affine_mul(TWO_TORSION, k)

    def test_minus_p_and_infinity_branches(self):
        # (k + 1)P = O takes the Z1 = 0 branch; kP = O the Z0 = 0 one.
        for P, order in ((G, CURVE.r), (_torsion(4, 2), 4),
                         (_torsion(5, 2), 5), (_torsion(25, 50), 25)):
            assert _affine_mul(P, order).is_infinity
            assert P * (order - 1) == -P
            assert (P * order).is_infinity
            assert P * (order + 1) == P
