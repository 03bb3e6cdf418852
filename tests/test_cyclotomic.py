"""Sums of p-power roots of unity read on the power basis by
groups.root_sum_coords, against the Fraction-keyed CyclotomicSum oracle."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec.groups import root_sum_coords
from oracles import CyclotomicSum


def sum_of(D, terms):
    """The count vector of sum_t c_t e^{2 pi i t} over exponents t in
    (1/D) Z."""
    counts = np.zeros(D, dtype=np.int64)
    for t, c in terms.items():
        counts[int(Fraction(t) * D) % D] += c
    return counts


def rational_value(counts, p):
    coords = root_sum_coords(counts, p)
    return None if coords[1:].any() else int(coords[0])


def test_full_orbit_sums_to_zero():
    for p, k in [(3, 1), (3, 2), (5, 1), (2, 3)]:
        order = p ** k
        total = sum_of(order, {Fraction(a, order): 1 for a in range(order)})
        assert not root_sum_coords(total, p).any()


def test_primitive_orbit_relation():
    # 1 + zeta_p + ... + zeta_p^(p-1) = 0 inside Z[zeta_{p^2}]
    p = 3
    s = sum_of(9, {Fraction(a, p): 1 for a in range(p)})
    # zeta_9 (1 + zeta_3 + zeta_3^2)
    t = sum_of(9, {Fraction(1, 9) + Fraction(a, p): 1 for a in range(p)})
    assert not root_sum_coords(s, p).any()
    assert not root_sum_coords(t, p).any()


def test_rational_detection():
    # e(1/3) + e(2/3) = 2 cos(2 pi / 3) = -1, also over denominator 9
    for D in (3, 9):
        w = sum_of(D, {Fraction(1, 3): 1, Fraction(2, 3): 1})
        assert rational_value(w, 3) == -1
        assert rational_value(sum_of(D, {0: 5}), 3) == 5
        assert rational_value(sum_of(D, {Fraction(1, 3): 1}), 3) is None


def test_equality_across_denominators():
    # e(1/3) written with denominator 9 reduces to the same class
    a = root_sum_coords(sum_of(9, {Fraction(1, 3): 1}), 3)
    b = root_sum_coords(sum_of(9, {Fraction(3, 9): 1}), 3)
    # and e(6/9) = -1 - e(3/9)
    c = root_sum_coords(sum_of(9, {0: -1, Fraction(2, 3): -1}), 3)
    assert np.array_equal(a, b) and np.array_equal(a, c)
    assert not np.array_equal(
        a, root_sum_coords(sum_of(9, {Fraction(2, 3): 1}), 3))


@st.composite
def count_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    D = p ** draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=D, max_size=D)
    a = np.array(draw(vec), dtype=np.int64)
    # b often differs from a by a multiple of a full p-th-root orbit
    b = a.copy()
    shift, times = draw(st.integers(0, D - 1)), draw(st.integers(-2, 2))
    b[(shift + np.arange(p) * (D // p)) % D] += times
    if draw(st.booleans()):
        b[draw(st.integers(0, D - 1))] += draw(st.integers(-1, 1))
    return p, D, a, b


@settings(max_examples=300, deadline=None)
@given(count_pairs())
def test_matches_cyclotomic_sum(case):
    p, D, a, b = case

    def oracle(counts):
        return CyclotomicSum(p, {Fraction(i, D): int(c)
                                 for i, c in enumerate(counts)})

    ca, cb = root_sum_coords(a, p), root_sum_coords(b, p)
    assert np.array_equal(ca, cb) == (oracle(a) == oracle(b))
    assert rational_value(a, p) == oracle(a).rational_value()
    # a batch of rows reads each row as a single sum does
    assert np.array_equal(root_sum_coords(np.stack([a, b]), p),
                          np.stack([ca, cb]))
