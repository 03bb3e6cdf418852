import random
from fractions import Fraction

from minvec.padic import _adjugate, _int_det

from oracles import frac_inv, frac_matrix, leibniz_det, psi_exponent


def inverse(rows):
    """The exact inverse adj(B) / det(B) of an integer matrix."""
    det = _int_det(rows)
    return [[Fraction(v, det) for v in row]
            for row in _adjugate(rows, len(rows))]


class TestInverse:
    def test_identity(self):
        ident = [[1, 0], [0, 1]]
        assert inverse(ident) == frac_matrix(ident)

    def test_diagonal_with_p(self):
        # diag(1, p) at p = 2 inverts to diag(1, p^-1)
        assert inverse([[1, 0], [0, 2]]) == \
            [[1, 0], [0, Fraction(1, 2)]]

    def test_antidiagonal_prime(self):
        # [[0, 1], [p, 0]] inverts to [[0, p^-1], [1, 0]]
        assert inverse([[0, 1], [3, 0]]) == [[0, Fraction(1, 3)], [1, 0]]

    def test_involution_randomized(self):
        # adj(B) / det(B) is the Gauss-Jordan inverse, and inverting twice
        # gives B back; det agrees with the permutation expansion
        rnd = random.Random(20240)
        for _ in range(300):
            p = rnd.choice([2, 3, 5])
            n = rnd.randint(1, 4)
            rows = [[rnd.randrange(-p ** 3, p ** 3) for _ in range(n)]
                    for _ in range(n)]
            det = _int_det(rows)
            assert det == leibniz_det(rows)
            if det == 0:
                continue
            inv = inverse(rows)
            assert inv == frac_inv(frac_matrix(rows))
            assert frac_inv(inv) == frac_matrix(rows)


class TestPsi:
    def test_level_one(self):
        # trivial on p O, nontrivial on O
        assert psi_exponent(3, 3) == 0
        assert psi_exponent(1, 3) == Fraction(1, 3)
        assert psi_exponent(Fraction(1, 3), 3) == Fraction(1, 9)

    def test_exact_zero(self):
        assert psi_exponent(0, 3) == 0
