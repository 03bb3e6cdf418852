from fractions import Fraction

from minvec.cyclotomic import CyclotomicSum


def test_full_orbit_sums_to_zero():
    for p, k in [(3, 1), (3, 2), (5, 1), (2, 3)]:
        order = p ** k
        total = CyclotomicSum(p, {Fraction(a, order): 1 for a in range(order)})
        assert total.is_zero()


def test_primitive_orbit_relation():
    # 1 + zeta_p + ... + zeta_p^(p-1) = 0 inside Z[zeta_{p^2}]
    p = 3
    s = CyclotomicSum(p, {Fraction(a, p): 1 for a in range(p)})
    # zeta_9 (1 + zeta_3 + zeta_3^2)
    t = CyclotomicSum(p, {Fraction(1, 9) + Fraction(a, p): 1
                          for a in range(p)})
    assert s.is_zero() and t.is_zero()


def test_rational_detection():
    # e(1/3) + e(2/3) = 2 cos(2 pi / 3) = -1
    w = CyclotomicSum(3, {Fraction(1, 3): 1, Fraction(2, 3): 1})
    assert w.rational_value() == -1
    assert CyclotomicSum(3, {0: Fraction(5, 7)}).rational_value() == \
        Fraction(5, 7)
    assert CyclotomicSum(3, {Fraction(1, 3): 1}).rational_value() is None


def test_equality_across_denominators():
    # e(1/3) written with denominator 9 reduces to the same class
    a = CyclotomicSum(3, {Fraction(1, 3): 1})
    b = CyclotomicSum(3, {Fraction(3, 9): 1})
    assert a == b
    assert a != CyclotomicSum(3, {Fraction(2, 3): 1})
