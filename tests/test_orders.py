import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec.errors import BudgetExceeded, DatumInvalid
from minvec.orders import (HereditaryOrder, InductionDatum,
                           approximation_report, is_minimal, k0,
                           v_A)
from minvec.padic import mat_mul_int

from conftest import build_datum
from oracles import (approximation_strictness_oracle, datum_oracle,
                     frac_matrix, frac_vp, k0_flat)

PI = [[0, 1], [3, 0]]   # a prime element of the period-2 order at p = 3


def literal_membership(x, i, o):
    """Independent oracle for the rational matrix x in B^i from the
    displayed block shapes.

    B^0 and B^1 are read off entrywise from the block pictures; a general i
    is reduced to those by B^(i+e) = p B^i.
    """
    q, r = divmod(i, o.e)
    # membership in B^(r + q e) <=> p^{-q} x in B^r
    x = frac_matrix(x, 3, -q)
    for row in range(o.n):
        for col in range(o.n):
            a, b = row // o.m + 1, col // o.m + 1
            if r == 0:
                need = 1 if a > b else 0
            else:
                need = 1 if a >= b else 0
            if x[row][col] and frac_vp(x[row][col], 3) < need:
                return False
    return True


def grade(rows, o, scale=0):
    """v_A of 3^scale * rows."""
    return v_A(rows, o, 3) + o.e * scale


def identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def elementary(n, r, c):
    ent = [[0] * n for _ in range(n)]
    ent[r][c] = 1
    return ent


class TestRadicalMembership:
    def test_identity_in_order(self):
        for n, e in [(2, 1), (2, 2), (3, 3), (4, 2)]:
            assert grade(identity(n), HereditaryOrder(n, e)) >= 0

    def test_prime_element_levels(self):
        assert grade(PI, HereditaryOrder(2, 2)) == 1

    def test_p_times_identity(self):
        for n, e in [(2, 1), (2, 2), (4, 2), (4, 4)]:
            assert grade(identity(n), HereditaryOrder(n, e), 1) == e

    def test_against_literal_oracle(self):
        rnd = random.Random(5)
        for n, e in [(2, 1), (2, 2), (4, 2)]:
            o = HereditaryOrder(n, e)
            for _ in range(100):
                rows = [[rnd.randrange(-27, 27) for _ in range(n)]
                        for _ in range(n)]
                scale = rnd.randrange(-1, 2)
                x = frac_matrix(rows, 3, scale)
                for i in range(-2 * e, 2 * e + 1):
                    assert (grade(rows, o, scale) >= i) == \
                        literal_membership(x, i, o), (rows, scale, i, n, e)


class TestSemiValuation:
    def test_identity(self):
        assert grade(identity(2), HereditaryOrder(2, 2)) == 0

    def test_prime_power_scan(self):
        o = HereditaryOrder(2, 2)
        for j in (1, 3, 5):
            rows = identity(2)
            for _ in range(j):
                rows = mat_mul_int(rows, PI)
            # Pi^j / p^(j+1): v_A = j - 2(j+1)
            beta = frac_matrix(rows, 3, -(j + 1))
            scan = max(i for i in range(-30, 10)
                       if literal_membership(beta, i, o))
            assert grade(rows, o, -(j + 1)) == scan == -j - 2

    def test_negative_powers(self):
        o = HereditaryOrder(2, 2)
        for j in (1, 3):
            assert grade(PI, o, -(j + 1) // 2) == -j

    def test_zero_rejected(self):
        o = HereditaryOrder(2, 2)
        zero = [[0, 0], [0, 0]]
        assert v_A(zero, o, 3) is None
        with pytest.raises(DatumInvalid):
            InductionDatum.build(o, 3, zero, -1)

    def test_submultiplicative(self):
        rnd = random.Random(13)
        for n, e in [(2, 2), (4, 2)]:
            o = HereditaryOrder(n, e)
            for _ in range(60):
                a, b = ([[rnd.randrange(-9, 9) for _ in range(n)]
                         for _ in range(n)] for _ in range(2))
                prod = mat_mul_int(a, b)
                if v_A(prod, o, 3) is None:
                    continue
                assert grade(prod, o) >= grade(a, o) + grade(b, o)

    def test_L_additivity(self, datum_a):
        # v_A(l x) = v_L(l) + v_A(x) for l = Pi^k in L^*, Pi^2 = p
        o = datum_a.order
        rnd = random.Random(3)
        for k in range(-2, 3):
            l_rows = PI if k % 2 else identity(2)
            for _ in range(20):
                x = [[rnd.randrange(-9, 9) for _ in range(2)]
                     for _ in range(2)]
                if v_A(x, o, 3) is None:
                    continue
                assert grade(mat_mul_int(l_rows, x), o, k // 2) == \
                    k + grade(x, o)


class TestFiltrationLaws:
    def test_step_and_period(self):
        # B^(i+1) strictly inside B^i and B^(i+e) = p B^i on spanning sets
        for n in (2, 3, 4):
            for e in [d for d in range(1, n + 1) if n % d == 0]:
                o = HereditaryOrder(n, e)
                for i in range(-2 * e, 2 * e + 1):
                    strict = False
                    for r in range(n):
                        for c in range(n):
                            t = o.entry_threshold(i, r, c)
                            span = elementary(n, r, c)
                            assert grade(span, o, t) >= i
                            if grade(span, o, t) < i + 1:
                                strict = True
                            # period law on the spanning element
                            assert grade(span, o, t + 1) >= i + e
                            assert grade(span, o, t - 1) < i
                    assert strict

    def test_approximation_corollary(self):
        for n in (2, 3, 4):
            for e in [d for d in range(1, n + 1) if n % d == 0]:
                o = HereditaryOrder(n, e)
                for i in range(-2 * e, 2 * e + 1):
                    assert approximation_report(o, i).holds

    def test_strictness_example(self):
        # the radical approximation of B^1 is strict below and above
        o = HereditaryOrder(2, 2)
        assert approximation_report(o, 1).holds
        assert approximation_strictness_oracle(o, 1) == (True, True)

    def test_wide_interval_n4(self):
        assert approximation_report(HereditaryOrder(4, 2), -3).holds


class TestDatumConstruction:
    def test_invalid_period(self):
        with pytest.raises(DatumInvalid):
            HereditaryOrder(2, 3)

    def test_nonnegative_valuation_rejected(self):
        with pytest.raises(DatumInvalid):
            InductionDatum.build(HereditaryOrder(2, 2), 3, identity(2))

    def test_split_algebra_rejected(self):
        # p^{-1} diag(1, 2) generates a split algebra, not a field
        with pytest.raises(DatumInvalid):
            build_datum(3, 2, 1, [[1, 0], [0, 2]], -1)

    def test_depth_invariants(self, datum_a, datum_b, datum_c):
        assert (datum_a.j, datum_a.normalised_depth) == (1, Fraction(1, 2))
        assert (datum_b.j, datum_b.normalised_depth) == (3, Fraction(3, 2))
        assert (datum_c.j, datum_c.normalised_depth) == (2, Fraction(2))

    def test_normalizer_instance(self, datum_a, datum_c):
        assert datum_a.normalizes and datum_c.normalizes


def exact_invariants(p, n, e, rows, scale):
    """What InductionDatum.build derives, in datum_oracle's form."""
    o = HereditaryOrder(n, e)
    g = v_A(rows, o, p)
    out = {"v_A": None if g is None else g + e * scale}
    if out["v_A"] is None or out["v_A"] >= 0:
        with pytest.raises(DatumInvalid):
            InductionDatum.build(o, p, rows, scale, strict=False)
        return out
    d = InductionDatum.build(o, p, rows, scale, strict=False)
    cert = d.field_cert
    out.update(j=d.j, s0=d.s0, beta_integral=d.beta_integral,
               normalizes=d.normalizes,
               cert=None if cert is None else (
                   cert.slope_denominator, cert.residue_minpoly,
                   cert.residue_degree, cert.residue_irreducible))
    return out


@st.composite
def exact_data(draw):
    """(p, n, e, rows, scale): beta = p^scale * rows, either a random
    integer matrix or, with e = n, an integer polynomial in the companion
    matrix Pi of x^n - p, so that F[Pi] is a totally ramified field."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3, 4]))
    scale = draw(st.integers(-3, 0))
    entries = st.integers(-p * p, p * p)
    if draw(st.booleans()):
        pi = [[int(c == r + 1) + p * ((r, c) == (n - 1, 0))
               for c in range(n)] for r in range(n)]
        rows, power = [[0] * n for _ in range(n)], identity(n)
        for coef in draw(st.lists(entries, min_size=n, max_size=n)):
            rows = [[a + coef * b for a, b in zip(ra, rb)]
                    for ra, rb in zip(rows, power)]
            power = mat_mul_int(power, pi)
        return p, n, n, rows, scale
    e = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return p, n, e, rows, scale


class TestExactDatumSide:
    @settings(max_examples=150, deadline=None)
    @given(exact_data())
    def test_matches_fraction_oracle(self, data):
        assert exact_invariants(*data) == datum_oracle(*data)

    @pytest.mark.parametrize("data, normalizes, cert", [
        # data a and c: certified fields that normalize the order
        ((3, 2, 2, [[0, 1], [3, 0]], -1), True, (2, [2, 1], 1, True)),
        ((3, 2, 1, [[0, 1], [1, 1]], -2), True, (1, [2, 2, 1], 2, True)),
        # split: the residue polynomial x^2 - 1 is reducible
        ((3, 2, 1, [[1, 0], [0, 2]], -1), True, (1, [2, 0, 1], 2, False)),
        # Pi^-2 = p^-1: the polygon has slope denominator 1, not e = 2
        ((3, 2, 2, [[1, 0], [0, 1]], -1), True, None),
        # conjugation by these does not map M_2(Z_3) onto itself
        ((3, 2, 1, [[3, 0], [-4, 2]], -1), False, None),
        ((3, 2, 1, [[3, 0], [-1, 3]], -1), False, (1, [0, 0, 1], 2, False)),
    ])
    def test_both_verdicts(self, data, normalizes, cert):
        got = exact_invariants(*data)
        assert got == datum_oracle(*data)
        assert (got["normalizes"], got["cert"]) == (normalizes, cert)


class TestMinimality:
    def test_shipped_data_minimal(self, datum_a, datum_b, datum_c):
        assert is_minimal(datum_a)
        assert is_minimal(datum_b)
        assert is_minimal(datum_c)

    def test_pi_squared_fails_coprimality(self, datum_nonminimal):
        assert math.gcd(datum_nonminimal.j, 2) == 2
        assert not is_minimal(datum_nonminimal)

    def test_residue_generation_unramified(self, datum_c):
        cert = datum_c.field_cert
        assert cert.residue_degree == 2 and cert.residue_irreducible


class TestK0:
    def test_minimal_data_reach_valuation(self, datum_a, datum_b, datum_c):
        for d in (datum_a, datum_b, datum_c):
            res = k0(d)
            assert res.value == -d.j
            assert not res.capped

    def test_flat_oracle_agreement(self, datum_a, datum_nonminimal):
        assert k0(datum_a).value == k0_flat(datum_a)
        assert k0(datum_nonminimal).value == k0_flat(datum_nonminimal)

    def test_nonminimal_exceeds_valuation(self, datum_nonminimal):
        res = k0(datum_nonminimal)
        assert res.value > -datum_nonminimal.j
        assert res.capped

    def test_budget(self, datum_nonminimal):
        with pytest.raises(BudgetExceeded):
            k0(datum_nonminimal, budget=1)
