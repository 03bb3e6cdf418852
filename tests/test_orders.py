import math
import random
from fractions import Fraction

import pytest

from minvec.errors import BudgetExceeded, DatumInvalid, PrecisionLoss
from minvec.orders import (HereditaryOrder, InductionDatum,
                           approximation_report, is_minimal, k0,
                           v_A)
from minvec.padic import MatrixApprox, PrecisionCtx

from conftest import build_datum
from oracles import k0_flat


def literal_membership(x, i, o):
    """Independent oracle for x in B^i from the displayed block shapes.

    B^0 and B^1 are read off entrywise from the block pictures; a general i
    is reduced to those by B^(i+e) = p B^i.
    """
    q, r = divmod(i, o.e)
    # membership in B^(r + q e) <=> p^{-q} x in B^r
    x = x.scaled(-q)
    xn = x.normalize()
    if xn.zero:
        return True
    for row in range(o.n):
        for col in range(o.n):
            a, b = row // o.m + 1, col // o.m + 1
            if r == 0:
                need = 1 if a > b else 0
            else:
                need = 1 if a >= b else 0
            val, known = xn.entry_val_floor(row, col)
            if val is None:
                continue
            assert known
            if val < need:
                return False
    return True


def elementary(ctx, n, r, c, power):
    ent = [[0] * n for _ in range(n)]
    ent[r][c] = ctx.p ** max(power, 0)
    m = MatrixApprox.from_exact(ctx, ent)
    return m.scaled(power - max(power, 0))


class TestRadicalMembership:
    def test_identity_in_order(self):
        ctx = PrecisionCtx(3, 4)
        for n, e in [(2, 1), (2, 2), (3, 3), (4, 2)]:
            o = HereditaryOrder(n, e)
            assert v_A(MatrixApprox.identity(ctx, n), o) >= 0

    def test_prime_element_levels(self):
        ctx = PrecisionCtx(3, 4)
        o = HereditaryOrder(2, 2)
        Pi = MatrixApprox.from_exact(ctx, [[0, 1], [3, 0]])
        assert v_A(Pi, o) == 1

    def test_p_times_identity(self):
        ctx = PrecisionCtx(3, 5)
        for n, e in [(2, 1), (2, 2), (4, 2), (4, 4)]:
            o = HereditaryOrder(n, e)
            pI = MatrixApprox.identity(ctx, n) * 3
            assert v_A(pI, o) == e

    def test_against_literal_oracle(self):
        rnd = random.Random(5)
        ctx = PrecisionCtx(3, 6)
        for n, e in [(2, 1), (2, 2), (4, 2)]:
            o = HereditaryOrder(n, e)
            for _ in range(100):
                rows = [[rnd.randrange(-27, 27) for _ in range(n)]
                        for _ in range(n)]
                x = MatrixApprox.from_exact(ctx, rows,
                                            scale=rnd.randrange(-1, 2))
                for i in range(-2 * e, 2 * e + 1):
                    assert (v_A(x, o) >= i) == \
                        literal_membership(x, i, o), (rows, x.scale, i, n, e)

    def test_precision_loss(self):
        ctx = PrecisionCtx(3, 2)
        o = HereditaryOrder(2, 2)
        truncated = MatrixApprox(ctx, [[9, 9], [9, 9]], prec=2)
        with pytest.raises(PrecisionLoss):
            v_A(truncated, o)


class TestSemiValuation:
    def test_identity(self):
        ctx = PrecisionCtx(3, 4)
        assert v_A(MatrixApprox.identity(ctx, 2), HereditaryOrder(2, 2)) == 0

    def test_prime_power_scan(self):
        ctx = PrecisionCtx(3, 6)
        o = HereditaryOrder(2, 2)
        Pi = MatrixApprox.from_exact(ctx, [[0, 1], [3, 0]])
        assert v_A(Pi, o) == 1
        for j in (1, 3, 5):
            beta = Pi.pow(j).scaled(-(j + 1))  # Pi^j / p^(j+1): v_A = j-2(j+1)
            scan = max(i for i in range(-30, 10) if literal_membership(beta, i, o))
            assert v_A(beta, o) == scan == -j - 2

    def test_negative_powers(self):
        ctx = PrecisionCtx(3, 6)
        o = HereditaryOrder(2, 2)
        for j in (1, 3):
            beta = MatrixApprox.from_exact(ctx, [[0, 1], [3, 0]],
                                           scale=-(j + 1) // 2)
            assert v_A(beta, o) == -j

    def test_zero_rejected(self):
        ctx = PrecisionCtx(3, 4)
        with pytest.raises(ValueError):
            v_A(MatrixApprox.zero_of(ctx, 2), HereditaryOrder(2, 2))

    def test_submultiplicative(self):
        rnd = random.Random(13)
        ctx = PrecisionCtx(3, 8)
        for n, e in [(2, 2), (4, 2)]:
            o = HereditaryOrder(n, e)
            for _ in range(60):
                a = MatrixApprox.from_exact(
                    ctx, [[rnd.randrange(-9, 9) for _ in range(n)]
                          for _ in range(n)])
                b = MatrixApprox.from_exact(
                    ctx, [[rnd.randrange(-9, 9) for _ in range(n)]
                          for _ in range(n)])
                prod = a * b
                if prod.normalize().zero:
                    continue
                assert v_A(prod, o) >= v_A(a, o) + v_A(b, o)

    def test_L_additivity(self, datum_a):
        # v_A(l x) = v_L(l) + v_A(x) for l in L^*
        d = datum_a
        o, ctx = d.order, d.ctx
        Pi = MatrixApprox.from_exact(ctx, [[0, 1], [3, 0]])
        rnd = random.Random(3)
        for k in range(-2, 3):
            l = Pi.pow(k)
            for _ in range(20):
                x = MatrixApprox.from_exact(
                    ctx, [[rnd.randrange(-9, 9) for _ in range(2)]
                          for _ in range(2)])
                if x.zero:
                    continue
                assert v_A((l * x).normalize(), o) == k + v_A(x, o)


class TestFiltrationLaws:
    def test_step_and_period(self):
        # B^(i+1) strictly inside B^i and B^(i+e) = p B^i on spanning sets
        ctx = PrecisionCtx(3, 8)
        for n in (2, 3, 4):
            for e in [d for d in range(1, n + 1) if n % d == 0]:
                o = HereditaryOrder(n, e)
                for i in range(-2 * e, 2 * e + 1):
                    strict = False
                    for r in range(n):
                        for c in range(n):
                            t = o.entry_threshold(i, r, c)
                            span = elementary(ctx, n, r, c, t)
                            assert v_A(span, o) >= i
                            if v_A(span, o) < i + 1:
                                strict = True
                            # period law on the spanning element
                            assert v_A(span * 3, o) >= i + e
                            assert v_A(elementary(ctx, n, r, c, t - 1),
                                       o) < i
                    assert strict

    def test_approximation_corollary(self):
        ctx = PrecisionCtx(3, 8)
        for n in (2, 3, 4):
            for e in [d for d in range(1, n + 1) if n % d == 0]:
                o = HereditaryOrder(n, e)
                for i in range(-2 * e, 2 * e + 1):
                    assert approximation_report(o, i, ctx).holds

    def test_strictness_example(self):
        ctx = PrecisionCtx(3, 8)
        rep = approximation_report(HereditaryOrder(2, 2), 1, ctx)
        assert rep.holds and rep.lower_strict and rep.upper_strict

    def test_wide_interval_n4(self):
        ctx = PrecisionCtx(3, 8)
        assert approximation_report(HereditaryOrder(4, 2), -3, ctx).holds


class TestDatumConstruction:
    def test_invalid_period(self):
        with pytest.raises(DatumInvalid):
            HereditaryOrder(2, 3)

    def test_nonnegative_valuation_rejected(self):
        ctx = PrecisionCtx(3, 4)
        with pytest.raises(DatumInvalid):
            InductionDatum.build(HereditaryOrder(2, 2),
                                 MatrixApprox.identity(ctx, 2), ctx)

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

    def test_precision_guard(self):
        d = build_datum(3, 2, 2, [[0, 1], [3, 0]], -2, N=4)  # j = 3 needs N >= 5
        with pytest.raises(PrecisionLoss):
            k0(d)
