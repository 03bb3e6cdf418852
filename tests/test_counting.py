import itertools
from fractions import Fraction

import pytest

from minvec.counting import (LatticeQuery, abelian_check, amplifier_exponent,
                             enumerate_S, factorize, in_regime,
                             partition_count, partition_count_oracle,
                             tau_bound)
from minvec.errors import BudgetExceeded, DatumInvalid


def brute_force_S(q):
    """Flat scan over the entire candidate box, no pruning at all."""
    span = range(-q.entry_bound, q.entry_bound + 1)
    torus = q.torus_set()
    mod = q.p ** q.cf
    out = []
    for flat in itertools.product(span, repeat=q.n * q.n):
        mat = tuple(tuple(flat[i * q.n + j] for j in range(q.n))
                    for i in range(q.n))
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] if q.n == 2 else None
        if det != q.m:
            continue
        if mod > 1:
            red = tuple(tuple(v % mod for v in row) for row in mat)
            if red not in torus:
                continue
        out.append(mat)
    return sorted(out)


IDENT = (((1, 0), (0, 1)),)


class TestEnumerate:
    def test_oracle_det1_no_congruence(self):
        q = LatticeQuery(2, 1, 1, 3, 0, ())
        rep = enumerate_S(q)
        assert rep.matches == brute_force_S(q)
        assert rep.count == 20

    def test_empty_by_range(self):
        q = LatticeQuery(2, 2, 0, 3, 0, ())
        assert enumerate_S(q).count == 0

    def test_illustrative_shallow_det4(self):
        # entries bounded by 8 but congruent to 1 mod 9: diagonal is forced
        # to {1, -8} and det 4 is unreachable
        q = LatticeQuery(2, 4, 8, 3, 2, IDENT)
        rep = enumerate_S(q)
        assert rep.count == 0
        assert rep.matches == brute_force_S(q)

    def test_deep_congruence_m4(self):
        gens = (((1, 0), (0, 4)), ((4, 0), (0, 1)))
        q = LatticeQuery(2, 4, 4, 3, 7, gens)
        rep = enumerate_S(q)
        assert rep.count == 3
        assert rep.matches == brute_force_S(q)
        assert rep.abelian and rep.regime_ok
        assert rep.tau_image_size == 3 and rep.fiber_measured == 1
        assert rep.partition_bound == 3 and rep.bound_ok

    def test_permutation_stability(self):
        q = LatticeQuery(2, 4, 4, 3, 7, (((1, 0), (0, 4)), ((4, 0), (0, 1))))
        base = enumerate_S(q).matches
        for order in itertools.permutations(range(2)):
            assert enumerate_S(q, row_order=order).matches == base

    @pytest.mark.parametrize("q, orthogonal", [
        # rows of norm sqrt(13) meet the bound exactly, e.g. [[3,2],[-2,3]]
        (LatticeQuery(2, 13, 3, 5, 0, ()), ((3, 2), (-2, 3))),
        (LatticeQuery(2, -2, 1, 3, 0, ()), ((1, 1), (1, -1))),
    ])
    def test_hadamard_bound_attained(self, q, orthogonal):
        rep = enumerate_S(q)
        assert rep.matches == enumerate_S(q, pruned=False).matches
        assert rep.matches == brute_force_S(q)
        assert orthogonal in rep.matches

    def test_budget(self):
        q = LatticeQuery(2, 1, 3, 3, 0, ())
        with pytest.raises(BudgetExceeded):
            enumerate_S(q, budget=10)

    def test_gcd_guard(self):
        with pytest.raises(DatumInvalid):
            LatticeQuery(2, 3, 1, 3, 0, ())

    def test_torus_closure_under_products(self):
        q = LatticeQuery(2, 4, 4, 3, 2, (((1, 0), (0, 4)),))
        torus = q.torus_set()
        mod = 9
        for a in list(torus)[:10]:
            for b in list(torus)[:10]:
                prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % mod
                                   for j in range(2)) for i in range(2))
                assert prod in torus


class TestAbelian:
    def test_singleton(self):
        q = LatticeQuery(2, 1, 1, 3, 3, IDENT)
        rep = enumerate_S(q)
        assert rep.count == 1 and rep.abelian and rep.regime_ok

    def test_out_of_regime_witness(self):
        rep = enumerate_S(LatticeQuery(2, 1, 1, 3, 0, ()))
        assert not rep.regime_ok
        assert not rep.abelian
        a, b = rep.commute_witness
        ab = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                         for j in range(2)) for i in range(2))
        ba = tuple(tuple(sum(b[i][k] * a[k][j] for k in range(2))
                         for j in range(2)) for i in range(2))
        assert ab != ba

    def test_in_regime_always_abelian(self):
        gens = (((1, 0), (0, 4)), ((4, 0), (0, 1)))
        for q in (LatticeQuery(2, 1, 1, 3, 3, IDENT),
                  LatticeQuery(2, 4, 4, 3, 7, gens)):
            rep = enumerate_S(q)
            assert rep.regime_ok
            assert rep.abelian and rep.commute_witness is None

    def test_abelian_check_report(self):
        rep = enumerate_S(LatticeQuery(2, 1, 1, 3, 0, ()))
        verdict = abelian_check(rep)
        assert verdict["abelian"] is False
        assert verdict["witness"] is not None
        assert verdict["regime_ok"] is False
        assert verdict["congruence_depth"] == 1
        deep = enumerate_S(LatticeQuery(2, 1, 1, 3, 3, IDENT))
        verdict = abelian_check(deep)
        assert verdict["abelian"] and verdict["regime_ok"]
        assert verdict["witness"] is None

    def test_regime_threshold_formula(self):
        q = LatticeQuery(2, 4, 4, 3, 7, IDENT)
        assert q.p ** q.cf == 2187
        assert in_regime(q)  # 2187 > 8 * 256 + 16 = 2064
        q2 = LatticeQuery(2, 4, 4, 3, 6, IDENT)
        assert not in_regime(q2)


class TestPartitions:
    def test_small_values(self):
        assert partition_count(1, 2) == 2
        assert partition_count(2, 2) == 3
        assert partition_count(2, 3) == 6

    def test_oracle_range(self):
        for a in range(9):
            for n in range(1, 7):
                assert partition_count(a, n) == partition_count_oracle(a, n)

    def test_tau_bound(self):
        assert tau_bound(factorize(5), 2) == 2          # single prime
        assert tau_bound(factorize(4), 2) == 3          # q^2, n = 2
        assert tau_bound(factorize(6), 3) == 9          # q q', n = 3

    def test_factorize(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(1) == []


class TestExponent:
    def test_closed_form_values(self):
        assert amplifier_exponent(2).bound_exponent == Fraction(15, 64)
        assert amplifier_exponent(3).bound_exponent == Fraction(107, 216)

    def test_sign_audit(self):
        rep = amplifier_exponent(2)
        assert rep.assembled_matches
        assert rep.penultimate_matches
        assert not rep.flipped_matches
        assert rep.flipped_variant == Fraction(17, 64)

    def test_amplifier_length_coefficient(self):
        assert amplifier_exponent(2).amplifier_exponent_coeff == Fraction(1, 8)
        assert amplifier_exponent(3).amplifier_exponent_coeff == Fraction(1, 18)

    def test_small_n_rejected(self):
        with pytest.raises(DatumInvalid):
            amplifier_exponent(1)
