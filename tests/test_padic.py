import random
from fractions import Fraction

import pytest

from minvec.errors import PrecisionLoss
from minvec.padic import MatrixApprox, PrecisionCtx, _int_det

from oracles import approx_equal, psi_exponent


def mat(ctx, entries, scale=0):
    return MatrixApprox.from_exact(ctx, entries, scale)


class TestNormalize:
    def test_identity_fixed(self):
        ctx = PrecisionCtx(3, 4)
        m = mat(ctx, [[1, 0], [0, 1]]).normalize()
        assert m.scale == 0
        assert m.entries == ((1, 0), (0, 1))

    def test_common_factor_extraction(self):
        ctx = PrecisionCtx(3, 4)
        m = mat(ctx, [[3, 0], [0, 3]]).normalize()
        assert m.scale == 1
        assert m.entries == ((1, 0), (0, 1))

    def test_unit_entry_blocks_extraction(self):
        ctx = PrecisionCtx(3, 4)
        m = mat(ctx, [[0, 1], [3, 0]], -1).normalize()
        assert m.scale == -1
        assert m.entries == ((0, 1), (3, 0))

    def test_zero_matrix_is_flagged(self):
        ctx = PrecisionCtx(3, 4)
        m = mat(ctx, [[0, 0], [0, 0]]).normalize()
        assert m.zero

    def test_truncated_vanishing_raises(self):
        ctx = PrecisionCtx(3, 3)
        m = MatrixApprox(ctx, [[27, 0], [0, 27]], prec=3)
        with pytest.raises(PrecisionLoss):
            m.normalize()


class TestInverse:
    def test_identity(self):
        ctx = PrecisionCtx(3, 4)
        ident = MatrixApprox.identity(ctx, 2)
        assert approx_equal(ident.inverse(), ident)

    def test_diagonal_with_p(self):
        # diag(1, p) at p=2, N=5 inverts to diag(1, p^{-1})
        ctx = PrecisionCtx(2, 5)
        m = mat(ctx, [[1, 0], [0, 2]])
        inv = m.inverse()
        prod = (m * inv).normalize()
        assert approx_equal(prod, MatrixApprox.identity(ctx, 2), level=4)
        assert inv.normalize().scale == -1

    def test_antidiagonal_prime(self):
        # [[0,1],[p,0]] inverts to [[0,p^{-1}],[1,0]]
        ctx = PrecisionCtx(3, 5)
        m = mat(ctx, [[0, 1], [3, 0]])
        inv = m.inverse().normalize()
        assert inv.scale == -1
        assert inv.entries[0][1] % 3 == 1
        prod = (m * inv).normalize()
        assert approx_equal(prod, MatrixApprox.identity(ctx, 2), level=4)

    def test_involution_randomized(self):
        rnd = random.Random(20240)
        for _ in range(1000):
            p = rnd.choice([2, 3, 5])
            n = rnd.randint(1, 4)
            ctx = PrecisionCtx(p, 5)
            while True:
                rows = [[rnd.randrange(p ** 3) for _ in range(n)]
                        for _ in range(n)]
                if _int_det(rows) % p != 0:
                    break
            m = mat(ctx, rows)
            inv = m.inverse()
            back = inv.inverse()
            assert approx_equal(back, m, level=inv.prec - inv.scale - m.scale)


class TestRingLaws:
    def test_randomized_ring_laws(self):
        rnd = random.Random(7)
        ctx = PrecisionCtx(3, 4)
        for _ in range(200):
            ms = [mat(ctx, [[rnd.randrange(-40, 40) for _ in range(2)]
                            for _ in range(2)]) for _ in range(3)]
            a, b, c = ms
            # the product of exact matrices is associative entry for entry
            assert ((a * b) * c).entries == (a * (b * c)).entries


class TestPsi:
    def test_level_one(self):
        # trivial on p O, nontrivial on O
        assert psi_exponent(3, 3) == 0
        assert psi_exponent(1, 3) == Fraction(1, 3)
        assert psi_exponent(Fraction(1, 3), 3) == Fraction(1, 9)

    def test_exact_zero(self):
        assert psi_exponent(0, 3) == 0
