import math
from fractions import Fraction

import numpy as np
import pytest

from minvec.errors import BudgetExceeded, ConstructionFailure, DatumInvalid
from minvec.groups import (FiniteSubgroup, build_Kpi, build_subgroups,
                           extend_character, formula_exponent_nums, gl_order,
                           intertwines, intertwining_dichotomy, prepare_block,
                           verify_character)
from minvec.padic import MatrixApprox, PrecisionCtx
from minvec.residues import pack

from conftest import build_datum
from oracles import (character_certificate_oracle, product_set_oracle,
                     product_table_oracle, psi_exponent, row_disagrees)


def assert_closed(sub):
    """The generator tree's closure certificate, checked from outside: every
    right-multiplication map is a permutation, every entry is an actual
    product with its generator, and the generators reach the whole set
    from the identity."""
    root, perms = sub._generator_tree()
    assert np.array_equal(sub.mats[root], np.eye(sub.n, dtype=np.int64))
    for perm in perms:
        assert np.array_equal(np.sort(perm), np.arange(sub.size))
        prods = sub.mats @ sub.mats[perm[root]] % sub.modulus
        assert np.array_equal(prods, sub.mats[perm])
    reached = frontier = {int(root)}
    while frontier:
        frontier = {int(perm[i]) for i in frontier for perm in perms} - reached
        reached = reached | frontier
    assert reached == set(range(sub.size))


class TestSubgroups:
    def test_identity_everywhere(self, block_a):
        b = block_a.bundle
        n = b.datum.order.n
        ident = np.eye(n, dtype=np.int64)
        for sub in [b.ua[1], b.ua[2], b.ul1, b.ol_units, b.h1, b.j1, b.jcapk]:
            assert sub.contains_residues(ident)

    def test_expected_sizes_datum_a(self, block_a):
        b = block_a.bundle
        assert b.level == 2
        assert b.ua[1].size == 243
        assert b.h1.size == 243
        assert b.j1.size == 243          # odd depth: J1 = H1
        assert b.jcapk.size == 486

    def test_odd_depth_collapse(self, block_a, block_b):
        for blk in (block_a, block_b):
            b = blk.bundle
            assert b.h1.size == b.j1.size
            assert np.array_equal(b.h1.codes, b.j1.codes)

    def test_even_depth_index(self, block_c):
        b = block_c.bundle
        # [J1 : H1] = p^(n^2 - n) = 9
        assert b.j1.size // b.h1.size == 9

    def test_closure(self, block_a, block_c):
        for blk in (block_a, block_c):
            b = blk.bundle
            for sub in [b.ua[1], b.ul1, b.ol_units, b.h1, b.j1, b.jcapk]:
                assert_closed(sub)

    def test_closure_large_groups(self, block_b):
        # |H1| = 6561 and |JcapK| = 13122 are certified exhaustively too
        b = block_b.bundle
        assert b.h1.size > 3000
        assert_closed(b.h1)
        assert_closed(b.jcapk)

    def test_missing_identity_is_a_construction_failure(self, block_a):
        h1 = block_a.bundle.h1
        ident = h1.identity_index()
        rest = np.delete(h1.mats, ident, axis=0)
        broken = FiniteSubgroup("H1-minus-I", h1.p, h1.level, h1.n, rest)
        with pytest.raises(ConstructionFailure, match="identity"):
            broken.identity_index()
        with pytest.raises(ConstructionFailure, match="identity"):
            verify_character(broken, np.zeros(broken.size, np.int64), 3)

    def test_requires_minimal(self, datum_nonminimal):
        with pytest.raises(DatumInvalid):
            build_subgroups(datum_nonminimal)

    def test_dump_format(self, block_a):
        lines = block_a.bundle.h1.dump_lines()
        assert lines[0].startswith("# subgroup H1 p=3 N=2 n=2 size=243")
        assert lines[1:] == sorted(lines[1:])
        assert all(len(line.split()) == 4 for line in lines[1:])


def enumerated_groups(blk):
    b = blk.bundle
    subs = list(b.ua.values()) + [b.ul1, b.ol_units, b.h1, b.j1, b.jcapk,
                                  blk.pol.b1]
    return list({id(sub): sub for sub in subs}.values())


# groups past this size are compared on a few rows of the product table
FULL_TABLE_MAX = 2187


def oracle_rows(sub, extra=()):
    """Every row of a small group; the first 8 rows plus `extra` otherwise."""
    if sub.size <= FULL_TABLE_MAX:
        return np.arange(sub.size)
    return np.unique(np.r_[np.arange(8), np.asarray(extra, dtype=np.int64)])


def character_tables(blk):
    """(group, nums, denom, coords, orders) on every enumerated group of a
    block.  Groups that carry a certified extension get it with its coset
    coordinates (theta on H1, and theta~ on B1 at even depth), the others
    the trivial character; every group also gets the trace formula, which
    is a character on U_A(floor(j/2)+1) and fails elsewhere."""
    d, theta = blk.datum, blk.simple.theta
    denom0 = d.p ** (d.s0 + 1)
    base = blk.simple.base
    exts = {id(blk.bundle.h1): extend_character(
        blk.bundle.h1, {int(c): Fraction(int(v), theta.denom) for c, v in
                        zip(base.codes, theta.restricted_nums(base.codes))},
        denom_hint=denom0)}
    if not blk.pol.trivial:
        exts[id(blk.pol.b1)] = extend_character(
            blk.pol.b1, {int(c): theta.exponent_at(i)
                         for i, c in enumerate(blk.bundle.h1.codes)})
    for sub in enumerated_groups(blk):
        ext = exts.get(id(sub))
        if ext is None:
            yield sub, np.zeros(sub.size, np.int64), denom0, None, None
        else:
            yield sub, ext.nums, ext.denom, ext.coords, ext.orders
        yield sub, formula_exponent_nums(d, sub.mats, denom0), denom0, None, None


class TestProductTable:
    def test_tree_table_matches_product_oracle(self, block_a, block_c):
        # each generator's permutation is a column of the product table
        for blk in (block_a, block_c):
            for sub in enumerated_groups(blk):
                root, perms = sub._generator_tree()
                rows = oracle_rows(sub)
                for lo in range(0, len(rows), 256):
                    table = product_table_oracle(sub, rows[lo:lo + 256])
                    for perm in perms:
                        assert np.array_equal(perm[rows[lo:lo + 256]],
                                              table[:, perm[root]])

    @pytest.mark.parametrize("flip", [False, True])
    def test_generator_certificate_matches_full_table(self, block_a, block_c,
                                                      flip):
        # verdict and coordinate additivity against the full-table scan,
        # plain and with one entry and one coordinate flipped; every
        # witness (i, s) really fails, and g_i's convolution row disagrees
        for blk in (block_a, block_c):
            for sub, nums, denom, coords, orders in character_tables(blk):
                k = (sub.identity_index() + 1) % sub.size
                flip_coord = flip and bool(orders)
                if flip:
                    nums = nums.copy()
                    nums[k] = (nums[k] + 1) % denom
                if flip_coord:
                    coords = coords.copy()
                    coords[k, 0] = (coords[k, 0] + 1) % orders[0]
                cert = verify_character(sub, nums, denom, coords=coords,
                                        coord_orders=orders)
                extra = [k] + ([] if cert.witness is None else [cert.witness[0]])
                ok, _, coords_ok = character_certificate_oracle(
                    sub, nums, denom, coords, orders, oracle_rows(sub, extra))
                assert cert.multiplicative == ok
                assert cert.coords_additive == coords_ok
                assert not (flip and ok)
                assert coords_ok is None or coords_ok != flip_coord
                if cert.witness is not None:
                    i, s = cert.witness
                    prod = sub.mats[i] @ sub.mats[s] % sub.modulus
                    ij = sub.index_of_codes(pack(prod[None], sub.p, sub.level))
                    assert (nums[ij[0]] - nums[i] - nums[s]) % denom != 0
                    assert row_disagrees(sub, nums, denom, i)


class TestSumsets:
    def test_match_product_set_oracle(self, block_a, block_b, block_c):
        for blk in (block_a, block_b, block_c):
            b, j = blk.bundle, blk.datum.j
            for got, units, k in [(b.h1, b.ul1, j // 2 + 1),
                                  (b.j1, b.ul1, (j + 1) // 2),
                                  (b.jcapk, b.ol_units, (j + 1) // 2)]:
                want = product_set_oracle(units.mats, b.ua[k].mats,
                                          b.datum.p, b.level)
                assert np.array_equal(got.codes, want)

    def test_budget_is_the_exact_size(self, datum_c):
        # |J cap K| = 52488 is the only group of datum c past 52487
        with pytest.raises(BudgetExceeded) as err:
            build_subgroups(datum_c, budget=52487)
        assert err.value.estimate == 52488
        assert build_subgroups(datum_c, budget=52488).jcapk.size == 52488


class TestSimpleCharacter:
    def test_trivial_at_identity(self, block_a):
        theta = block_a.simple.theta
        ident = np.eye(2, dtype=np.int64)
        assert theta.exponent_of_residues(ident) == 0

    def test_trivial_on_top_level(self, block_a, block_b, block_c):
        for blk in (block_a, block_b, block_c):
            d = blk.datum
            top = blk.bundle.ua[d.j + 1]
            nums = blk.simple.theta.restricted_nums(top.codes)
            assert not np.any(nums % blk.simple.theta.denom)

    def test_formula_value(self, block_a):
        # theta(1 + p E_11) = psi(Tr(beta p E_11)), evaluated independently
        d = block_a.datum
        theta = block_a.simple.theta
        x = MatrixApprox.from_exact(d.ctx, [[1 + 3, 0], [0, 1]])
        diff = x - MatrixApprox.identity(d.ctx, 2)
        prod = d.beta * diff
        tr = Fraction(sum(prod.entries[i][i] for i in range(2))) \
            * Fraction(d.p) ** prod.scale
        expected = psi_exponent(tr, d.p)
        assert theta.exponent(x) == expected

    def test_multiplicativity_exhaustive(self, block_a, block_c):
        for blk in (block_a, block_c):
            ok, _, _ = verify_character(
                blk.bundle.h1, blk.simple.theta.nums, blk.simple.theta.denom)
            assert ok

    def test_extension_counts(self, block_a, block_b, block_c):
        # the count equals [H1 : U_A(floor(j/2)+1)]
        for blk in (block_a, block_b, block_c):
            base = blk.bundle.ua[blk.datum.j // 2 + 1]
            assert blk.simple.extension_count == blk.bundle.h1.size // base.size


class TestHeisenberg:
    def test_odd_depth_convention(self, block_a):
        pol = block_a.pol
        assert pol.trivial
        assert pol.b1 is block_a.bundle.h1
        assert "B1 = H1" in pol.reason

    def test_even_depth_polarization(self, block_c):
        pol = block_c.pol
        assert not pol.trivial
        assert pol.dim == 2
        assert len(pol.isotropic) == 1
        b = block_c.bundle
        assert b.j1.size // pol.b1.size == 3
        assert pol.b1.size // b.h1.size == 3

    def test_pairing_alternating_nondegenerate(self, block_c):
        p = 3
        m = block_c.pol.pairing
        assert all(m[i][i] % p == 0 for i in range(len(m)))
        assert all((m[i][j] + m[j][i]) % p == 0
                   for i in range(len(m)) for j in range(len(m)))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det % p != 0

    def test_isotropic_by_exhaustion(self, block_c):
        # in dim 2 a maximal isotropic subspace is any line; check the chosen
        # one is a genuine nonzero vector on which the form vanishes and that
        # no 2-dimensional isotropic subspace exists (nondegeneracy)
        p = 3
        m = block_c.pol.pairing

        def form(u, v):
            return sum(u[a] * m[a][b] * v[b] for a in range(2)
                       for b in range(2)) % p

        iso = block_c.pol.isotropic[0]
        assert any(v % p for v in iso)
        assert form(iso, iso) == 0
        partner_values = {form(iso, w) for w in [(1, 0), (0, 1)]}
        assert partner_values != {0}

    def test_raw_pairing_reported(self, block_c):
        assert block_c.pol.raw_pairing_well_defined is False
        assert block_c.pol.raw_pairing_alternating is False

    def test_b1_is_group(self, block_c):
        assert_closed(block_c.pol.b1)


class TestInducedCharacter:
    def test_dimension_law(self, block_a, block_b, block_c):
        for blk in (block_a, block_b, block_c):
            b = blk.bundle
            expected = math.isqrt(b.j1.size // b.h1.size)
            assert blk.induced.dim == expected
        assert block_c.induced.dim == 3

    def test_irreducibility(self, block_a, block_c):
        assert block_a.induced.inner_product == 1
        assert block_c.induced.inner_product == 1

    def test_restriction_multiple(self, block_c):
        ind = block_c.induced
        assert ind.restriction_is_multiple
        assert ind.restriction_inner == ind.dim

    def test_class_constancy(self, block_c):
        assert block_c.induced.class_constancy_sampled


class TestIntertwining:
    def test_identity(self, block_a):
        d = block_a.datum
        ok, _ = intertwines(MatrixApprox.identity(d.ctx, 2),
                            block_a.simple.theta, d, block_a.bundle)
        assert ok

    def test_field_unit(self, block_a):
        d = block_a.datum
        g = MatrixApprox.from_exact(d.ctx, [[1, 1], [3, 1]])  # 1 + Pi
        ok, _ = intertwines(g, block_a.simple.theta, d, block_a.bundle)
        assert ok

    def test_prime_element(self, block_a):
        d = block_a.datum
        ok, _ = intertwines(block_a.bundle.prime_element,
                            block_a.simple.theta, d, block_a.bundle)
        assert ok

    def test_split_torus_fails(self, block_a):
        d = block_a.datum
        g = MatrixApprox.from_exact(d.ctx, [[1, 0], [0, 3]])
        ok, witness = intertwines(g, block_a.simple.theta, d, block_a.bundle)
        assert not ok and witness is not None

    def test_dichotomy_exhaustive(self, block_a):
        rep = intertwining_dichotomy(block_a.datum, block_a.bundle,
                                     block_a.simple.theta)
        assert rep.agree
        assert rep.intertwining == rep.jcapk_size == 486
        assert rep.total == 3888


class TestKpi:
    def test_single_block_convention(self, block_a, kr_a):
        assert kr_a.kpi is block_a.pol.b1
        assert kr_a.theta is block_a.induced.theta_tilde
        assert kr_a.c == Fraction(1, 2)
        assert kr_a.cfrak == 0

    def test_parabolic_shape(self, parabolic_kr):
        kr = parabolic_kr
        assert kr.n == 4
        assert kr.c == 1
        assert kr.cfrak == 0
        assert kr.level == 3
        assert kr.kpi.size == 3 ** 34
        ch = kr.checks
        assert ch.closure_sampled and ch.theta_multiplicative_sampled
        assert ch.block_congruence and ch.containment

    def test_parabolic_membership(self, parabolic_kr):
        kr = parabolic_kr
        rng = np.random.default_rng(42)
        g = kr.sampler(rng)
        assert kr.kpi.contains_residues(g)
        bad = g.copy()
        bad[0, 2] = 1   # breaks the off-diagonal congruence
        assert not kr.kpi.contains_residues(bad)

    def test_theta_blockwise(self, parabolic_kr):
        kr = parabolic_kr
        rng = np.random.default_rng(7)
        g = kr.sampler(rng)
        t = kr.theta.exponent_of_residues(g)
        parts = Fraction(0)
        for blk, off in zip(kr.blocks, (0, 2)):
            sub = g[off:off + 2, off:off + 2] % blk.b1.modulus
            parts += blk.theta_tilde.exponent_of_residues(sub)
        parts -= math.floor(parts)
        assert t == parts

    def test_gl1_blocks_rejected(self):
        d = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1, N=4)
        blk = prepare_block(d)

        class Fake:
            pass

        fake = Fake()
        fake.datum = type("D", (), {"order": type("O", (), {"n": 1})(),
                                    "p": 3,
                                    "normalised_depth": Fraction(1, 2),
                                    "j": 1})()
        with pytest.raises(DatumInvalid):
            build_Kpi([blk, fake], inequivalent_assertion=True)

    def test_same_shape_needs_assertion(self):
        d1 = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1, N=4)
        d2 = build_datum(3, 2, 2, [[0, 1], [-3, 0]], -1, N=4)
        b1, b2 = prepare_block(d1), prepare_block(d2)
        with pytest.raises(DatumInvalid):
            build_Kpi([b1, b2], inequivalent_assertion=False)
        kr = build_Kpi([b1, b2], inequivalent_assertion=True)
        assert kr.checks.inequivalence_source == "user assertion"

    def test_depth_band(self):
        d1 = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1, N=4)   # c = 1/2
        d2 = build_datum(3, 2, 1, [[0, 1], [1, 1]], -2, N=6)   # c = 2
        b1, b2 = prepare_block(d1), prepare_block(d2)
        with pytest.raises(DatumInvalid):
            build_Kpi([b1, b2], inequivalent_assertion=True)
        # widening the band accepts the same pair
        kr = build_Kpi([b1, b2], inequivalent_assertion=True,
                       band=Fraction(2))
        assert kr.c == 2


class TestGlOrder:
    def test_small_counts(self):
        assert gl_order(1, 3, 1) == 2
        assert gl_order(2, 3, 1) == 48
        assert gl_order(2, 3, 2) == 48 * 81

    def test_enumerated_agreement(self):
        # brute count of GL_2(Z/9) against the closed formula
        from minvec.residues import box_enumerate
        mats = box_enumerate([0] * 4, [1] * 4, [9] * 4, 9).reshape(-1, 2, 2)
        det = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % 9
        assert int(np.sum(det % 3 != 0)) == gl_order(2, 3, 2)


class TestSymbolicJ:
    def test_prime_graded_membership(self, block_a):
        b = block_a.bundle
        d = block_a.datum
        Pi = b.prime_element
        unit = MatrixApprox.from_exact(d.ctx, [[1, 1], [3, 1]])
        assert b.j_contains((Pi * unit).normalize())
        assert b.j_contains((Pi.pow(-2) * unit).normalize())
        assert b.j_contains(MatrixApprox.identity(d.ctx, 2))
        assert not b.j_contains(MatrixApprox.from_exact(d.ctx, [[1, 0], [0, 3]]))

    def test_grading_matches_valuation(self, block_a):
        b = block_a.bundle
        Pi = b.prime_element
        for k in (-2, -1, 0, 1, 3):
            grade, part = b.j_grade_and_part(Pi.pow(k))
            assert grade == k
            assert b.jcapk.contains(part)
