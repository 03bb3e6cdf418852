import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec.counting import (LatticeQuery, amplifier_exponent,
                             enumerate_S, factorize, in_regime,
                             partition_count, tau_bound)
from minvec.datafiles import load_query
from minvec.errors import BudgetExceeded, DatumInvalid
from minvec.residues import fits_packing, sorted_index, unpack
from conftest import DATA_DIR
from oracles import (brute_force_S, enumerate_S_oracle, leibniz_det,
                     partition_count_oracle, torus_closure_oracle)


def torus_elements(q, budget=1_000_000):
    """The torus_set codes decoded to row-major flat residue tuples: packed
    int64 codes by residues.unpack, byte keys past packing by their bytes."""
    keys = q.torus_set(budget)
    if keys.dtype == np.int64:
        flat = unpack(keys, q.p, q.cf, q.n).reshape(len(keys), -1)
    else:
        flat = np.frombuffer(keys.tobytes(), dtype=">i8").reshape(len(keys),
                                                                   -1)
    return [tuple(row) for row in flat.tolist()]


IDENT = (((1, 0), (0, 1)),)
# in regime with B = 9, and 3^10 is past int64 packing of 2x2 residues
PAST_PACKING = LatticeQuery(2, 4, 9, 3, 10,
                            (((4, 0), (0, 1)), ((-1, 0), (0, -1))))


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
        # the search fixes rows 0..n-1 in order; the unpruned oracle, in
        # either order, finds the same set
        q = LatticeQuery(2, 4, 4, 3, 7, (((1, 0), (0, 4)), ((4, 0), (0, 1))))
        base = enumerate_S(q).matches
        for order in itertools.permutations(range(2)):
            assert enumerate_S_oracle(q, row_order=order,
                                      pruned=False)[0] == base

    @pytest.mark.parametrize("q, orthogonal", [
        # rows of norm sqrt(13) meet the bound exactly, e.g. [[3,2],[-2,3]]
        (LatticeQuery(2, 13, 3, 5, 0, ()), ((3, 2), (-2, 3))),
        (LatticeQuery(2, -2, 1, 3, 0, ()), ((1, 1), (1, -1))),
    ])
    def test_hadamard_bound_attained(self, q, orthogonal):
        rep = enumerate_S(q)
        assert rep.matches == enumerate_S_oracle(q, pruned=False)[0]
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
        elems = torus_elements(q)
        assert set(elems) == torus_closure_oracle(q.torus_generators, 9, 2)
        assert len(set(elems)) == len(elems) == 3
        for a in elems:
            for b in elems:
                prod = tuple(sum(a[i * 2 + k] * b[k * 2 + j] for k in range(2))
                             % 9 for i in range(2) for j in range(2))
                assert prod in elems


class TestTorus:
    @pytest.mark.parametrize("q, size", [
        # diagonal primitive roots mod 3^4: (Z/81)^x squared
        (LatticeQuery(2, 1, 1, 3, 4, (((2, 0), (0, 1)), ((1, 0), (0, 2)))),
         54 * 54),
        # non-commuting generators of SL_2(Z/9)
        (LatticeQuery(2, 1, 1, 3, 2, (((1, 1), (0, 1)), ((1, 0), (1, 1)))),
         648),
        # one cyclic unit mod 25
        (LatticeQuery(2, 1, 1, 5, 2, (((1, 1), (1, 2)),)), 50),
        (PAST_PACKING, 3 ** 9 * 2),
        # commuting, with <diag(16, 1)> inside <diag(4, 1)> (order 27)
        (LatticeQuery(2, 1, 1, 3, 4, (((4, 0), (0, 1)), ((16, 0), (0, 1)))),
         27),
        (LatticeQuery(2, 1, 1, 3, 4, (((16, 0), (0, 1)), ((4, 0), (0, 1)),
                                      ((1, 0), (0, 2)))),
         27 * 54),
        # the generator I alongside a real one
        (LatticeQuery(2, 1, 1, 5, 2, (IDENT[0], ((1, 1), (1, 2)))), 50),
        # I + e12 and I + e23 mod 9 do not commute: the upper unitriangular
        # group grows past the seed <I + e12><I + e23> of 81 elements
        (LatticeQuery(3, 1, 1, 3, 2, (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                                      ((1, 0, 0), (0, 1, 1), (0, 0, 1)))),
         9 ** 3),
    ], ids=["diagonal-mod-81", "sl2-mod-9", "cyclic-mod-25", "past-packing",
            "overlap-mod-81", "overlap-three-mod-81", "identity-generator",
            "n3-unitriangular-mod-9"])
    def test_matches_oracle(self, q, size):
        mod = q.p ** q.cf
        want = torus_closure_oracle(q.torus_generators, mod, q.n)
        elems = torus_elements(q)
        assert elems == sorted(want) and len(elems) == size
        mats = np.array(sorted(want)).reshape(-1, q.n, q.n)
        assert q.in_torus(mats, size).all()
        assert q.in_torus(mats + mod, size).all()
        assert not q.in_torus(mats * 0, size).any()

    def test_past_packing_enumeration(self):
        q = PAST_PACKING
        assert not fits_packing(3, 10, 2) and in_regime(q)
        rep = enumerate_S(q)
        assert rep.matches == brute_force_S(q) == [((-4, 0), (0, -1)),
                                                   ((4, 0), (0, 1))]
        assert rep.abelian and rep.bound_ok

    def test_no_generators_is_identity(self):
        q = LatticeQuery(2, 1, 1, 3, 2, ())
        assert torus_elements(q) == [(1, 0, 0, 1)]
        rep = enumerate_S(q)
        assert rep.matches == brute_force_S(q) == [((1, 0), (0, 1))]

    def test_budget(self):
        q = LatticeQuery(2, 4, 4, 3, 7, (((1, 0), (0, 4)), ((4, 0), (0, 1))))
        with pytest.raises(BudgetExceeded):
            q.torus_set(budget=100)

    def test_budget_boundary_deep(self):
        # each cyclic subgroup (729 elements) fits 1000; the closure does not
        q = load_query(DATA_DIR / "query_m4_deep.json").query()
        with pytest.raises(BudgetExceeded):
            q.torus_set(budget=1000)
        assert len(q.torus_set(budget=531441)) == 531441

    def test_budget_exact_non_commuting(self):
        u, low = ((1, 1), (0, 1)), ((1, 0), (1, 1))
        q = LatticeQuery(2, 1, 1, 3, 2, (u, low))
        with pytest.raises(BudgetExceeded):
            q.torus_set(budget=647)
        assert len(q.torus_set(budget=648)) == 648

    def test_budget_counts_distinct_products(self):
        # ten copies of one generator of order 27: the certifying round
        # makes 270 products, all duplicates of the 27 elements
        q = LatticeQuery(2, 1, 1, 3, 4, (((4, 0), (0, 1)),) * 10)
        assert len(q.torus_set(budget=27)) == 27
        with pytest.raises(BudgetExceeded):
            q.torus_set(budget=26)

    def test_overflow_names_modulus(self):
        q = LatticeQuery(2, 1, 1, 3, 20, IDENT)
        with pytest.raises(BudgetExceeded, match=str(3 ** 20)):
            q.torus_set()

    def test_result_is_read_only(self):
        keys = LatticeQuery(2, 1, 1, 3, 3, IDENT).torus_set()
        with pytest.raises(ValueError):
            keys[0] = keys[0]

    def test_sorted_index_empty(self):
        assert sorted_index(np.empty(0, np.int64), np.array([1, 2])).tolist() \
            == [-1, -1]


def traced_peak(fn):
    """fn() and the peak of memory allocated while it ran, by tracemalloc,
    which sees numpy's buffers, from a cold torus_set cache."""
    LatticeQuery.torus_set.cache_clear()
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTorusMemory:
    # Not ru_maxrss: it is the high-water mark of the whole process, which
    # the suite has raised long before, and a child started by posix_spawn
    # (CLONE_VM) inherits its parent's mark at exec, so a spawned run
    # cannot read below the memory of the process that started it.

    def test_cold_closure_within_three_results(self):
        # the second query's torus is the cyclic subgroup of diag(2, 1) mod
        # 3^12, whose powers are far more than one chunk of product rows
        deep = load_query(DATA_DIR / "query_m4_deep.json").query()
        long_cycle = LatticeQuery(2, 1, 1, 3, 12, (((2, 0), (0, 1)),))
        for q, size in ((deep, 531441), (long_cycle, 354294)):
            keys, peak = traced_peak(q.torus_set)
            assert len(keys) == size
            assert peak <= 3 * keys.nbytes

    def test_budget_raise_within_one_mib(self):
        q = load_query(DATA_DIR / "query_m4_deep.json").query()

        def over():
            with pytest.raises(BudgetExceeded):
                q.torus_set(budget=1000)
        assert traced_peak(over)[1] <= 1 << 20


SIGNED_PERMUTATIONS = (((1, 0), (0, 1)), ((-1, 0), (0, -1)),
                       ((0, 1), (1, 0)), ((0, -1), (1, 0)))


@st.composite
def torus_queries(draw):
    """1-3 random unit generators with a small closure: any units for
    n = 2 mod 2, 4, 8, 3, 9 or 5 and for n = 3 mod 2 or 3; past int64
    packing (n = 2 mod 2^16, 3^10 or 5^7), a signed permutation times an
    element of I + p^(cf-1) M, a closure of at most 8 p^4."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3] if n == 3 else [2, 3, 5]))
    past = n == 2 and draw(st.booleans())
    if past:
        cf = {2: 16, 3: 10, 5: 7}[p]
    else:
        cf = draw(st.integers(1, {2: {2: 3, 3: 2, 5: 1}[p], 3: 1}[n]))
    mod = p ** cf
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if past:
            s = np.array(draw(st.sampled_from(SIGNED_PERMUTATIONS)))
            x = np.array(draw(st.lists(st.integers(0, p - 1), min_size=4,
                                       max_size=4))).reshape(2, 2)
            g = s @ (np.eye(2, dtype=np.int64) + p ** (cf - 1) * x) % mod
        else:
            g = np.array(draw(st.lists(st.integers(0, mod - 1),
                                       min_size=n * n, max_size=n * n)
                              .filter(lambda v: leibniz_det(np.reshape(
                                  v, (n, n)).tolist()) % p != 0)))
        gens.append(tuple(tuple(int(v) for v in row)
                          for row in np.reshape(g, (n, n))))
    return LatticeQuery(n, 1, 1, p, cf, tuple(gens))


class TestTorusDifferential:
    @settings(max_examples=60, deadline=None)
    @given(torus_queries(), st.data())
    def test_matches_closure_oracle(self, q, data):
        want = torus_closure_oracle(q.torus_generators, q.p ** q.cf, q.n)
        budget = data.draw(st.sampled_from([len(want) - 1, len(want)])
                           | st.integers(1, 2 * len(want)))
        if len(want) > budget:
            with pytest.raises(BudgetExceeded):
                q.torus_set(budget)
            return
        assert torus_elements(q, budget) == sorted(want)


class TestEnumerateDifferential:
    @pytest.mark.parametrize("m, gens", [
        # the split diagonal torus mod 3
        (-1, tuple(tuple(tuple(2 if r == c == k else int(r == c)
                               for c in range(3)) for r in range(3))
                   for k in range(3))),
        # one cyclic unit mod 3
        (2, (((1, 1, 0), (0, 1, 1), (1, 0, 1)),)),
    ])
    def test_n3_all_row_orders(self, m, gens):
        q = LatticeQuery(3, m, 1, 3, 1, gens)
        want = brute_force_S(q)
        assert want
        rep = enumerate_S(q)
        assert rep.matches == want
        for order in itertools.permutations(range(3)):
            # pruning and the order of the fixed rows change no match, and
            # the pruned count does not depend on the order
            assert enumerate_S_oracle(q, row_order=order) == \
                (want, rep.candidates_scanned)
            assert enumerate_S_oracle(q, row_order=order,
                                      pruned=False)[0] == want

    @pytest.mark.parametrize("name, scanned", [
        ("query_m1_deep", 145),
        ("query_m1_shallow", 145),
        ("query_m4_deep", 12513),
        ("query_m4_shallow", 166017),
    ])
    def test_candidates_scanned_pinned(self, name, scanned):
        q = load_query(DATA_DIR / f"{name}.json").query()
        assert enumerate_S(q).candidates_scanned == scanned

    @pytest.mark.parametrize("q, scanned", [
        (LatticeQuery(1, 4, 5, 3, 1, (((1,),),)), 15),
        (LatticeQuery(1, -2, 5, 3, 0, ()), 19),
    ])
    def test_one_by_one(self, q, scanned):
        # n = 1 has no row before the last: the one-row leaf decides it
        rep = enumerate_S(q)
        assert rep.matches == brute_force_S(q) == [((q.m,),)]
        assert rep.candidates_scanned == scanned


@st.composite
def lattice_queries(draw):
    """Small queries for n = 1, 2, 3 with unit torus generators D + p X."""
    n = draw(st.sampled_from([1, 2, 3]))
    p = draw(st.sampled_from([2, 3, 5]))
    cf = draw(st.integers(0, 2))
    bound = draw(st.integers(0, {1: 6, 2: 3, 3: 1}[n]))
    m = draw(st.sampled_from([v for v in range(-6, 7) if v and v % p]))
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        diag = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        x = draw(st.lists(st.integers(0, 8), min_size=n * n, max_size=n * n))
        gens.append(tuple(tuple((diag[i] if i == j else 0) + p * x[i * n + j]
                                for j in range(n)) for i in range(n)))
    return LatticeQuery(n, m, bound, p, cf, tuple(gens))


class TestBudgetPath:
    """The two-row kernel against the row-by-row search over all n rows, in
    any order of the rows: the same matches and candidates_scanned, and a
    raise under the same budgets."""

    @settings(max_examples=150, deadline=None)
    @given(lattice_queries(), st.data())
    def test_matches_row_by_row_search(self, q, data):
        n, rows = q.n, (2 * q.entry_bound + 1) ** q.n
        order = data.draw(st.permutations(range(n)))
        flat = rows ** n
        budget = data.draw(st.integers(rows, 2 * flat + rows * rows + 2))
        try:
            want = enumerate_S_oracle(q, budget, order)
        except BudgetExceeded as oracle_err:
            # the same raise: the search's budget, or the torus closure's
            with pytest.raises(BudgetExceeded) as err:
                enumerate_S(q, budget)
            assert str(err.value) == str(oracle_err)
            return
        rep = enumerate_S(q, budget)
        assert (rep.matches, rep.candidates_scanned) == want

    @pytest.mark.parametrize("q, budget", [
        (LatticeQuery(2, 1, 10, 3, 1, (((2, 0), (0, 1)), ((1, 0), (0, 2)))),
         20_000),
        (LatticeQuery(2, 1, 10, 3, 1, (((2, 0), (0, 1)), ((1, 0), (0, 2)))),
         3_000),
        (None, 3_000),
    ], ids=["m1-b10-20000", "m1-b10-3000", "m4-deep-3000"])
    def test_raises_before_any_torus_lookup(self, q, budget, monkeypatch):
        q = q or load_query(DATA_DIR / "query_m4_deep.json").query()
        calls = []
        monkeypatch.setattr(LatticeQuery, "torus_set",
                            lambda self, *args: calls.append(args))
        with pytest.raises(BudgetExceeded) as err:
            enumerate_S(q, budget=budget)
        assert err.value.estimate == (2 * q.entry_bound + 1) ** (q.n * q.n)
        assert calls == []


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
