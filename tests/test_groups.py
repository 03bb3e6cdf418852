import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minvec import groups
from minvec.errors import BudgetExceeded, ConstructionFailure, DatumInvalid
from minvec.groups import (FiniteSubgroup, GroupCharacter, build_Kpi,
                           build_subgroups, extend_character,
                           formula_exponent_nums, gl_order,
                           intertwining_dichotomy, intertwining_spot,
                           prepare_block, unit_sumset, verify_character)
from minvec.residues import (Draws, box_enumerate, contains_codes,
                             det_inv_mod, pack, sorted_unique, unpack)

from conftest import DATA_DIR, build_datum
from oracles import (character_certificate_oracle, concentration_oracle,
                     contains, coset_decomposition_oracle, contains_value,
                     dichotomy_oracle, exponent_at, extend_character_oracle,
                     first_outside_h1, frac_matrix, frac_mul, frac_pow,
                     induced_laws_oracle,
                     intertwines_oracle, j1_oracle, j_contains,
                     j_grade_and_part, jcapk_oracle, kpi_exponent_oracle,
                     kpi_member_oracle,
                     pairing_forms_oracle, polarization_oracle,
                     prime_element_of_L,
                     product_set_oracle, product_table_oracle, psi_exponent,
                     row_disagrees, spot_oracle, subgroup_dump_lines,
                     sumset_draws_oracle, theta_tilde_oracle,
                     trace_pairing_oracle, without_coset)


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
            assert contains(sub, ident)

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
            assert b.j1 is b.h1

    def test_even_depth_index(self, block_c):
        b = block_c.bundle
        # [J1 : H1] = p^(n^2 - n) = 9
        assert b.j1.size // b.h1.size == 9

    def test_only_the_read_filtrations_are_built(self, block_a, block_b,
                                                 block_c):
        # simple_character reads U_A(floor(j/2)+1) and U_A(j+1), no other
        for blk, keys in ((block_a, [1, 2]), (block_b, [2, 4]),
                          (block_c, [2, 3])):
            assert sorted(blk.bundle.ua) == keys

    def test_closure(self, block_a, block_c):
        for blk in (block_a, block_c):
            b = blk.bundle
            for sub in list(b.ua.values()) + [b.ul1, b.ol_units, b.h1,
                                              j1_oracle(b), jcapk_oracle(b)]:
                assert_closed(sub)

    def test_closure_large_groups(self, block_b):
        # |H1| = 6561 and the enumerated |JcapK| = 13122 are certified
        # exhaustively too
        b = block_b.bundle
        assert b.h1.size > 3000
        assert_closed(b.h1)
        assert_closed(jcapk_oracle(b))

    def test_missing_identity_is_a_construction_failure(self, block_a):
        h1 = block_a.bundle.h1
        ident = h1.identity_index()
        rest = np.delete(h1.codes, ident)
        broken = FiniteSubgroup("H1-minus-I", h1.p, h1.level, h1.n, rest)
        with pytest.raises(ConstructionFailure, match="identity"):
            broken.identity_index()
        with pytest.raises(ConstructionFailure, match="identity"):
            verify_character(broken, np.zeros(broken.size, np.int64), 3)

    def test_requires_minimal(self, datum_nonminimal):
        with pytest.raises(DatumInvalid):
            build_subgroups(datum_nonminimal)

    def test_unfree_power_basis_fails_before_any_sumset(self, monkeypatch):
        # p = 2, e = n = 4, j = 1: the powers of beta are not free mod 2^L.
        # O_L is built first, so neither U_A(1) (4,194,304 elements) nor
        # U_A(2) is listed before the failure
        d = build_datum(2, 4, 4, [[0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0],
                                  [0, 0, 2, 0]], -1)

        def never(*args, **kwargs):
            raise AssertionError("unit_sumset was called")

        monkeypatch.setattr(groups, "unit_sumset", never)
        with pytest.raises(ConstructionFailure, match="not free"):
            build_subgroups(d)

    def test_dump_format(self, block_a):
        lines = subgroup_dump_lines(block_a.bundle.h1)
        assert lines[0].startswith("# subgroup H1 p=3 N=2 n=2 size=243")
        assert lines[1:] == sorted(lines[1:])
        assert all(len(line.split()) == 4 for line in lines[1:])


def enumerated_groups(blk):
    b = blk.bundle
    subs = list(b.ua.values()) + [b.ul1, b.ol_units, b.h1, j1_oracle(b),
                                  theta_tilde_oracle(blk).domain]
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
    base = blk.bundle.ua[d.j // 2 + 1]
    exts = {id(blk.bundle.h1): extend_character(
        blk.bundle.h1, base.codes, theta.restricted_nums(base.codes),
        theta.denom, denom_hint=denom0)}
    if not blk.pol.trivial:
        b1 = theta_tilde_oracle(blk).domain
        exts[id(b1)] = extend_character(b1, blk.bundle.h1.codes, theta.nums,
                                        theta.denom)
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
            b, d = blk.bundle, blk.datum
            ident = np.eye(d.order.n, dtype=np.int64)[None]
            for got, units, k in [(b.h1, b.ul1, d.j // 2 + 1),
                                  (j1_oracle(b), b.ul1, (d.j + 1) // 2),
                                  (jcapk_oracle(b), b.ol_units,
                                   (d.j + 1) // 2)]:
                ua = unpack(unit_sumset(d.order, k, ident, d.p, b.level),
                            d.p, b.level, d.order.n)
                want = product_set_oracle(units.mats, ua, d.p, b.level)
                assert np.array_equal(got.codes, want)

    def test_budget_is_the_exact_size(self, datum_c):
        # H1 (729) is the largest group of datum c that a single block
        # enumerates; J1 (6561), J cap K (52488) and B1 (2187) are sumsets,
        # sized without allocation.  B1 is listed only where a parabolic
        # Theta reads theta~, and is held to the same budget there
        with pytest.raises(BudgetExceeded) as err:
            build_subgroups(datum_c, budget=728)
        assert err.value.estimate == 729
        b = build_subgroups(datum_c, budget=729)
        assert b.j1.size == 6561 and b.j1.mats is None
        assert b.jcapk.size == 52488 and b.jcapk.mats is None
        blk = prepare_block(datum_c, budget=729)
        assert blk.b1.size == 2187 and blk.b1.codes is None
        other = prepare_block(build_datum(3, 2, 1, [[0, 1], [1, 1]], -1))
        with pytest.raises(BudgetExceeded) as err:
            build_Kpi([blk, other], budget=2186)
        assert err.value.estimate == 2187

    def test_membership_only_jcapk_at_p5(self):
        # beta = 5^-2 [[0, 1], [3, 4]]: 24 classes mod B^1 times 5^8, past
        # the default budget, which only enumerated groups are held to
        d = build_datum(5, 2, 1, [[0, 1], [3, 4]], -2)
        jk = build_subgroups(d).jcapk
        assert jk.size == 9_375_000 and len(jk.classes) == 24
        assert jk.mats is None and jk.codes is None


class TestMembershipOnlyJcapK:
    """The class lookup of bundle.jcapk against the enumerated oracle."""

    def test_size_and_members(self, block_a, block_b, block_c, parabolic_kr):
        for blk in all_blocks(block_a, block_b, block_c, parabolic_kr):
            jk, want = blk.bundle.jcapk, jcapk_oracle(blk.bundle)
            assert jk.mats is None
            assert jk.size == want.size
            assert jk.member_mask(want.mats).all()

    def test_nonmembers(self, block_a, block_b, block_c, parabolic_kr):
        # every matrix mod p^2 where K is small, seeded draws otherwise
        for blk in all_blocks(block_a, block_b, block_c, parabolic_kr):
            jk, want = blk.bundle.jcapk, jcapk_oracle(blk.bundle)
            p, L, n = jk.p, jk.level, jk.n
            if L == 2:
                mats = box_enumerate([0] * (n * n), [1] * (n * n),
                                     [p ** L] * (n * n),
                                     p ** L).reshape(-1, n, n)
            else:
                mats = Draws(0).integers(0, p ** L, size=(20000, n, n))
            mats = mats[det_inv_mod(mats, p, L)[2]]
            member = contains_codes(want.codes, pack(mats, p, L))
            assert 0 < member.sum() < len(mats)
            assert jk.member_mask(mats).tolist() == member.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_draws_land_in_the_oracle(self, block_a, block_b, block_c,
                                      parabolic_kr, seed):
        for blk in all_blocks(block_a, block_b, block_c, parabolic_kr):
            jk, want = blk.bundle.jcapk, jcapk_oracle(blk.bundle)
            gs = jk.draw(Draws(seed), 500)
            assert gs.shape == (500, jk.n, jk.n)
            codes = pack(gs, jk.p, jk.level)
            assert contains_codes(want.codes, codes).all()
            assert np.array_equal(gs, sumset_draws_oracle(
                want, jk.steps, Draws(seed), 500))
            # every class is reached on the small sumsets
            hit = sorted_unique(pack(gs % jk.steps, jk.p, jk.level))
            assert len(jk.classes) > 100 or np.array_equal(hit, jk.classes)


class TestSimpleCharacter:
    def test_trivial_at_identity(self, block_a):
        theta = block_a.simple.theta
        ident = np.eye(2, dtype=np.int64)
        assert exponent_at(theta, ident) == 0

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
        prod = frac_mul(frac_matrix(d.beta_rows, d.p, d.beta_scale),
                        frac_matrix([[3, 0], [0, 0]]))
        expected = psi_exponent(prod[0][0] + prod[1][1], d.p)
        assert exponent_at(theta, [[1 + 3, 0], [0, 1]]) == expected

    def test_multiplicativity_exhaustive(self, block_a, block_c):
        for blk in (block_a, block_c):
            assert verify_character(
                blk.bundle.h1, blk.simple.theta.nums,
                blk.simple.theta.denom).multiplicative

    def test_extension_counts(self, block_a, block_b, block_c):
        # the count equals [H1 : U_A(floor(j/2)+1)]
        for blk in (block_a, block_b, block_c):
            base = blk.bundle.ua[blk.datum.j // 2 + 1]
            assert blk.simple.extension_count == blk.bundle.h1.size // base.size


# the even-depth blocks, whose J1 is never listed, and prepare_block's
# default budget
EVEN_DEPTH = ["block_c", "block_p2", "block_p5", "block_n3"]
BUDGET = 2_000_000


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

    @pytest.mark.parametrize("probe", EVEN_DEPTH, ids=[
        "datum_c", "block_p2", "p5_n2e1j2", "p3_n3e3j2"])
    def test_matches_coset_table_oracle(self, probe, request):
        # the graded basis is a basis of the listed J1's coset table, the
        # trace form on each basis coset's first element is the pairing,
        # and B1 is the union of the cosets of the same W
        blk = request.getfixturevalue(probe)
        pol = blk.pol
        pairing, isotropic, b1_codes = polarization_oracle(
            blk.datum, blk.bundle, pol.coset_reps)
        assert pol.pairing == pairing
        assert pol.isotropic == isotropic
        # the sumset holds every coset of the union, and no more
        b1 = pol.b1
        assert b1.codes is None and b1.size == len(b1_codes)
        assert b1.member_mask(unpack(b1_codes, b1.p, b1.level, b1.n)).all()
        assert np.array_equal(theta_tilde_oracle(blk).domain.codes, b1_codes)

    def test_nonabelian_quotient_is_a_construction_failure(self, block_c):
        # U_A(3) is trivial mod p^3, so J1/U_A(3) is J1, which is not
        # abelian; the two graded basis vectors cannot generate it, and the
        # dimension count must say so
        bundle = dataclasses.replace(block_c.bundle,
                                     h1=block_c.bundle.ua[3])
        with pytest.raises(ConstructionFailure, match="does not generate"):
            groups.heisenberg(block_c.datum, bundle, block_c.simple.theta)

    @pytest.mark.parametrize("probe", EVEN_DEPTH)
    def test_dropped_basis_vector_fails_the_dimension_count(self, probe,
                                                           request,
                                                           monkeypatch):
        # the F_p reduction never lets the span fill B^m/B^(m+1): the image
        # of U_L(1) has rank at most N - 2, so only the last x_a, the one
        # that would complete the span, leaves the basis
        blk = request.getfixturevalue(probe)
        d = blk.datum
        full = len(d.order.graded_positions(d.j // 2))
        reduce = groups.fp_reduce

        def drop_last(vec, span, p):
            residual, coeffs = reduce(vec, span, p)
            if len(span) == full - 1:
                residual = [0] * len(vec)
            return residual, coeffs

        monkeypatch.setattr(groups, "fp_reduce", drop_last)
        with pytest.raises(ConstructionFailure, match="does not generate"):
            groups.heisenberg(d, blk.bundle, blk.simple.theta)

    @pytest.mark.parametrize("probe", EVEN_DEPTH)
    def test_pairing_is_the_trace_form(self, probe, request):
        # theta([x, y]) p / D against Tr(beta' [x - 1, y - 1]) / p^s0 mod p
        blk = request.getfixturevalue(probe)
        pol = blk.pol
        assert not pol.trivial
        assert pol.pairing == trace_pairing_oracle(blk.datum, pol.coset_reps)

    def test_zero_character_is_degenerate(self, block_c):
        # the zero character of H1 is J1-stable, so only nondegeneracy
        # can reject it: every commutator pairs to 0
        h1 = block_c.bundle.h1
        zero = GroupCharacter(h1, np.zeros(h1.size, np.int64), 1)
        with pytest.raises(ConstructionFailure, match="degenerate pairing"):
            groups.heisenberg(block_c.datum, block_c.bundle, zero)

    def test_unstable_theta_is_a_construction_failure(self, block_c,
                                                      monkeypatch):
        fixed = groups._fixed_on_generators

        def one_row_false(G, Gi, theta):
            rows = fixed(G, Gi, theta)
            assert rows.all()
            rows[len(rows) // 2] = False
            return rows

        monkeypatch.setattr(groups, "_fixed_on_generators", one_row_false)
        with pytest.raises(ConstructionFailure, match="J1-stable"):
            groups.heisenberg(block_c.datum, block_c.bundle,
                              block_c.simple.theta)

    def test_b1_is_group(self, block_c):
        assert_closed(theta_tilde_oracle(block_c).domain)

    def test_b1_is_a_sumset_on_a_single_block(self, block_c, kr_c):
        # never listed: K_pi = B1 is the sumset, |H1| p^(dim_V / 2)
        assert block_c.b1.codes is None and block_c.b1.mats is None
        assert kr_c.kpi is block_c.b1
        assert kr_c.kpi.size == 2187 == block_c.bundle.h1.size * 3

    def test_non_isotropic_w_is_a_construction_failure(self, block_c,
                                                       monkeypatch):
        # both basis vectors of J1/H1 span a W on which the pairing is
        # nonzero; heisenberg decides isotropy before B1 is formed
        monkeypatch.setattr(groups, "_symplectic_isotropic_basis",
                            lambda pairing, p: [[1, 0], [0, 1]])
        with pytest.raises(ConstructionFailure, match="not isotropic"):
            groups.heisenberg(block_c.datum, block_c.bundle,
                              block_c.simple.theta)


class TestInducedCharacter:
    def test_dimension_law(self, block_a, block_b, block_c):
        for blk in (block_a, block_b, block_c):
            b = blk.bundle
            expected = math.isqrt(b.j1.size // b.h1.size)
            assert blk.induced.dim == expected
        assert block_c.induced.dim == 3

    def test_irreducibility(self, block_a, block_c):
        # <eta, eta> = 1 by the oracle's per-element character sums
        for blk in (block_a, block_c):
            assert oracle_laws(blk)[1] == 1

    def test_restriction_multiple(self, block_c):
        want = oracle_laws(block_c)
        assert want[2]
        assert want[3] == block_c.induced.dim

    def test_class_constancy(self, block_c):
        # an induced character is a class function; the oracle conjugates
        # every element of J1 by every element
        assert oracle_laws(block_c)[4]


# the class-constancy oracle conjugates each of its rows by all of J1; past
# this size it gets a seeded sample of rows
ORACLE_ROWS_MAX = 729


def laws_tuple(ind):
    """(dim, <eta, eta>, eta|H1 == dim theta, <eta|H1, theta>) as
    extend_and_induce proves them: the last three follow by Mackey from
    premises that raise, so only dim is read."""
    return (ind.dim, 1, True, ind.dim)


def oracle_laws(blk):
    """induced_laws_oracle on a block's listed J1, every row of a small
    J1, else 32 seeded ones."""
    b = blk.bundle
    rows = None
    if b.j1.size > ORACLE_ROWS_MAX:
        rows = np.unique(np.random.default_rng(0).integers(0, b.j1.size,
                                                           size=32))
    return induced_laws_oracle(j1_oracle(b), b.h1, blk.simple.theta,
                               theta_tilde_oracle(blk), rows)


def all_blocks(block_a, block_b, block_c, parabolic_kr):
    return [block_a, block_b, block_c] + list(parabolic_kr.blocks)


@pytest.fixture(scope="module")
def block_p2():
    """beta = 2^-2 [[0, 1], [1, 1]]: even depth at p = 2, |J1| = 256."""
    return prepare_block(build_datum(2, 2, 1, [[0, 1], [1, 1]], -2))


@pytest.fixture(scope="module")
def block_p5():
    """beta = 5^-2 [[0, 1], [3, 4]]: the p = 5 n2e1j2 probe, even depth."""
    return prepare_block(build_datum(5, 2, 1, [[0, 1], [3, 4]], -2))


@pytest.fixture(scope="module")
def block_n3():
    """beta = 3^-1 Pi, Pi the companion of x^3 - 3 in the period-3 order of
    M_3: the p = 3 n3e3j2 probe, even depth, |J1| = 531,441."""
    return prepare_block(build_datum(3, 3, 3, [[0, 1, 0], [0, 0, 1],
                                               [3, 0, 0]], -1))


class TestInducedLaws:
    """The laws that extend_and_induce derives by Mackey's formula, against
    the Fraction exponent lists and per-element CyclotomicSums of
    induced_laws_oracle, and the premises they rest on."""

    def test_laws_match_oracle(self, block_a, block_b, block_c, block_p2,
                               parabolic_kr):
        assert block_p2.bundle.j1.size == 256 and not block_p2.pol.trivial
        for blk in all_blocks(block_a, block_b, block_c, parabolic_kr) + [
                block_p2]:
            want = oracle_laws(blk)
            assert laws_tuple(blk.induced) == want[:4]
            assert want[4]

    def induce(self, blk, pol=None):
        return groups.extend_and_induce(blk.bundle, pol or blk.pol)

    def test_b1_equal_to_h1_is_not_lagrangian(self, block_c, block_p2):
        for blk in (block_c, block_p2):
            pol = dataclasses.replace(blk.pol, b1=blk.bundle.h1)
            with pytest.raises(ConstructionFailure, match="not Lagrangian"):
                self.induce(blk, pol)


class TestInducedMemory:
    # tracemalloc sees numpy's buffers; see TestTorusMemory for why not
    # ru_maxrss

    @pytest.mark.parametrize("name", ["block_b", "block_c"])
    def test_peak_within_twice_j1(self, name, request):
        # theta~'s table, listed afresh as a parabolic CLI run lists it;
        # H1's generator tree is built by simple_character before this
        # stage.  The bound is twice a listed J1, [J1:B1] copies of B1's
        # codes and matrices, though J1 itself is never listed at even
        # depth.  The table is theta_tilde_oracle's
        blk = request.getfixturevalue(name)
        want = theta_tilde_oracle(blk)
        b1, j1 = want.domain, blk.bundle.j1
        tracemalloc.start()
        try:
            tilde = groups.listed_theta_tilde(blk, BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tilde.domain.codes, b1.codes)
        assert np.array_equal(tilde.nums, want.nums)
        assert tilde.denom == want.denom
        index = j1.size // b1.size
        assert peak <= 2 * index * (b1.codes.nbytes + b1.mats.nbytes)


def cfrak1_blocks():
    """The blocks and K_pi of the shipped cfrak-1 parabolic datum: datum c
    and an e1 j1 block."""
    from minvec import cli
    from minvec.datafiles import load_datum
    return cli._prepare(load_datum(DATA_DIR / "datum_parabolic_n4p3_cfrak1"
                                   ".json"), BUDGET, 0)


class TestListedThetaTilde:
    """theta~ is a table only where a parabolic Theta reads it."""

    def test_helper_matches_oracle_on_the_cfrak1_datum(self):
        blocks, kr = cfrak1_blocks()
        assert [blk.pol.trivial for blk in blocks] == [False, True]
        got, want = kr.theta.tildes[0], theta_tilde_oracle(blocks[0])
        assert got.domain.codes is not None and blocks[0].b1.codes is None
        assert np.array_equal(got.domain.codes, want.domain.codes)
        assert np.array_equal(got.nums, want.nums)
        assert got.denom == want.denom
        assert kr.theta.tildes[1] is blocks[1].simple.theta

    @pytest.mark.parametrize("probe", EVEN_DEPTH)
    def test_oracle_extends_theta(self, probe, request):
        # theta~ agrees with theta on H1 and is multiplicative on 4,096
        # seeded pairs of B1, products looked up in its listing
        blk = request.getfixturevalue(probe)
        tilde, theta, h1 = theta_tilde_oracle(blk), blk.simple.theta, \
            blk.bundle.h1
        b1 = tilde.domain
        assert b1.size == blk.b1.size
        assert np.array_equal(tilde.restricted_nums(h1.codes) * theta.denom,
                              theta.nums * tilde.denom)
        i, k = np.random.default_rng(0).integers(0, b1.size, (2, 4096))
        idx = b1.index_of_codes(pack(b1.mats[i] @ b1.mats[k] % b1.modulus,
                                     b1.p, b1.level))
        assert np.all(idx >= 0)
        assert not np.any((tilde.nums[i] + tilde.nums[k] - tilde.nums[idx])
                          % tilde.denom)


class TestArrayKernels:
    def test_coset_decomposition_matches_loop(self, block_c):
        b = block_c.bundle
        j1 = j1_oracle(b)
        for small in (b.h1, theta_tilde_oracle(block_c).domain):
            got = groups._coset_decomposition(j1, small.mats)
            want = coset_decomposition_oracle(j1, small.codes)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_extend_character_matches_fraction_walk(self, block_a, block_b,
                                                     block_c):
        for blk in (block_a, block_b, block_c):
            d, h1 = blk.datum, blk.bundle.h1
            base = blk.bundle.ua[d.j // 2 + 1]
            denom0 = d.p ** (d.s0 + 1)
            base_nums = formula_exponent_nums(d, base.mats, denom0)
            cases = [(h1, base.codes, base_nums, denom0, denom0)]
            if not blk.pol.trivial:
                theta = blk.simple.theta
                cases.append((theta_tilde_oracle(blk).domain, h1.codes,
                              theta.nums, theta.denom, None))
            for group, codes, nums, denom, hint in cases:
                ext = extend_character(group, codes, nums, denom, hint)
                want = extend_character_oracle(
                    group, {int(c): Fraction(int(v), denom)
                            for c, v in zip(codes, nums)}, hint)
                assert np.array_equal(ext.nums, want[0])
                assert ext.denom == want[1]
                assert np.array_equal(ext.coords, want[2])
                assert ext.orders == want[3]

    def test_overlapping_cosets_are_a_construction_failure(self, block_c):
        # U_A(3) is trivial mod p^3, and the listed J1 is not abelian.
        # Extending the trivial character of U_A(3) to J1 once returned
        # orders [9, 9, 9, 2, 2, 3, 4], overwriting earlier cosets; it must
        # stop at the first coset that meets the assigned elements
        b = block_c.bundle
        with pytest.raises(ConstructionFailure, match="overlap"):
            extend_character(j1_oracle(b), b.ua[3].codes,
                             np.zeros(b.ua[3].size, np.int64), 1)

    def test_extend_character_grows_the_denominator(self):
        # <g> of order 9 mod 9 over <g^3> with theta(g^3) = 1/3: the
        # relative order 3 does not divide the numerator, so D goes 3 -> 9
        g = np.array([[1, 1], [0, 1]])
        cyclic = FiniteSubgroup("C9", 3, 2, 2, sorted_unique(pack(np.array(
            [np.linalg.matrix_power(g, k) % 9 for k in range(9)]), 3, 2)))
        sub = np.array([np.linalg.matrix_power(g, k) % 9 for k in (0, 3, 6)])
        ext = extend_character(cyclic, pack(sub, 3, 2), [0, 1, 2], 3)
        assert ext.denom == 9 and ext.count == 3
        assert sorted(ext.nums.tolist()) == list(range(9))
        # theta~(g^k) = k/9, read off at each power
        for k in range(9):
            at = cyclic.index_of_codes(pack(
                np.linalg.matrix_power(g, k)[None] % 9, 3, 2))[0]
            assert ext.nums[at] == k
        want = extend_character_oracle(
            cyclic, {int(c): Fraction(v, 3)
                     for c, v in zip(pack(sub, 3, 2), (0, 1, 2))})
        assert np.array_equal(ext.nums, want[0]) and ext.denom == want[1]

    def test_pairing_forms_over_every_h(self, block_c):
        assert pairing_forms_oracle(block_c.datum, block_c.bundle,
                                    block_c.pol)


class TestIntertwining:
    def test_identity(self, block_a):
        d = block_a.datum
        ok, _ = intertwines_oracle([[1, 0], [0, 1]], block_a.simple.theta, d)
        assert ok

    def test_field_unit(self, block_a):
        d = block_a.datum
        ok, _ = intertwines_oracle([[1, 1], [3, 1]],   # 1 + Pi
                                   block_a.simple.theta, d)
        assert ok

    def test_prime_element(self, block_a):
        ok, _ = intertwines_oracle(prime_element_of_L(block_a.datum),
                                   block_a.simple.theta, block_a.datum)
        assert ok

    def test_split_torus_fails(self, block_a):
        d = block_a.datum
        ok, witness = intertwines_oracle([[1, 0], [0, 3]],
                                         block_a.simple.theta, d)
        assert not ok and witness is not None

    def test_dichotomy_exhaustive(self, block_a):
        rep = intertwining_dichotomy(block_a.datum, block_a.bundle,
                                     block_a.simple.theta)
        assert rep.agree
        assert rep.intertwining == rep.jcapk_size == 486
        assert rep.total == 3888


def dichotomy_tuple(rep):
    return (rep.total, rep.intertwining, rep.jcapk_size, rep.agree,
            None if rep.witness is None else rep.witness.tolist())


def oracle_tuple(res):
    *head, witness = res
    return (*head, None if witness is None else witness.tolist())


def flipped_theta(theta):
    """theta with its exponent changed at one non-identity element."""
    nums = theta.nums.copy()
    k = (theta.domain.identity_index() + 1) % theta.domain.size
    nums[k] = (nums[k] + 1) % theta.denom
    return GroupCharacter(theta.domain, nums, theta.denom)


# (fixture, parabolic block or None, the oracle per coset, the sweep's
# counts: |K|, intertwining = |J cap K|, and the representatives decided),
# keyed 0 for datum a, 1 and 2 for the parabolic blocks, then b and c
SWEEP_CASES = {
    0: ("block_a", None, False, 3888, 486, 16),
    1: ("parabolic_kr", 0, False, 3888, 486, 16),
    2: ("parabolic_kr", 1, False, 3888, 486, 16),
    "b": ("block_b", None, True, 314928, 13122, 48),
    "c": ("block_c", None, True, 314928, 52488, 432),
}


def sweep_block(case, request):
    name, which, *_ = SWEEP_CASES[case]
    fixture = request.getfixturevalue(name)
    return fixture if which is None else fixture.blocks[which]


class TestCosetSweep:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_matches_unit_oracle(self, case, request):
        # the sweep on GL_n(Z/p^s) against every unit mod p^L; on b and c
        # the oracle scans H1 once per coset g H1 of its own, at level L
        _, _, per_coset, total, inter, _ = SWEEP_CASES[case]
        blk = sweep_block(case, request)
        args = (blk.datum, blk.bundle, blk.simple.theta)
        assert dichotomy_tuple(intertwining_dichotomy(*args)) == \
            oracle_tuple(dichotomy_oracle(*args, per_coset=per_coset)) == \
            (total, inter, inter, True, None)

    def test_one_conjugator_per_coset(self, request, monkeypatch):
        rows = []
        kernel = groups._first_not_intertwined

        def counting(G, *args):
            rows.append(len(G))
            return kernel(G, *args)

        monkeypatch.setattr(groups, "_first_not_intertwined", counting)
        for case in (0, "b", "c"):
            *_, total, _, reps = SWEEP_CASES[case]
            blk = sweep_block(case, request)
            rows.clear()
            rep = intertwining_dichotomy(blk.datum, blk.bundle,
                                         blk.simple.theta)
            assert rep.total == total and rows == [reps], case

    def test_missing_coset_gives_the_oracle_witness(self, block_a):
        b = block_a.bundle
        broken, want, coset = without_coset(b, first_outside_h1(b))
        args = (block_a.datum, broken, block_a.simple.theta)
        rep = intertwining_dichotomy(*args)
        assert not rep.agree and rep.jcapk_size == 486 - 243
        assert dichotomy_tuple(rep) == \
            oracle_tuple(dichotomy_oracle(*args, jcapk=want))
        # the first unit of the removed coset in code order
        assert pack(rep.witness[None], 3, 2)[0] == coset[0]


class TestSpotBatch:
    @pytest.mark.parametrize("case", ["plain", "missing coset", "flipped"])
    def test_matches_sequential_loop(self, block_a, case):
        bundle, theta = block_a.bundle, block_a.simple.theta
        jcapk = jcapk_oracle(bundle)
        if case == "missing coset":
            bundle, jcapk, _ = without_coset(bundle, first_outside_h1(bundle))
        elif case == "flipped":
            theta = flipped_theta(theta)
        # 200 non-members: a draw outside the broken J cap K lands in the
        # removed coset with probability 243/3645, so 40 draws miss it at
        # about one seed in sixteen, and 200 at about one in a million
        for seed in (0, 3):
            rep = intertwining_spot(block_a.datum, bundle, theta,
                                    nonmembers=200, seed=seed)
            want = spot_oracle(block_a.datum, bundle, theta, jcapk,
                               nonmembers=200, seed=seed)
            got = (rep.members_checked, rep.nonmembers_checked, rep.agree,
                   None if rep.witness is None else rep.witness.tolist())
            assert got == oracle_tuple(want)
            assert rep.agree == (case == "plain")


class TestKpi:
    def test_single_block_convention(self, block_a, kr_a):
        assert kr_a.kpi is block_a.pol.b1
        assert kr_a.theta is None and kr_a.sampler is None
        assert kr_a.c == Fraction(1, 2)
        assert kr_a.cfrak == 0

    def test_parabolic_shape(self, parabolic_kr):
        kr = parabolic_kr
        assert kr.n == 4
        assert kr.c == 1
        assert kr.cfrak == 0
        assert kr.level == 3
        assert kr.kpi.size == 3 ** 34

    def test_parabolic_laws_on_samples(self, parabolic_kr):
        # what build_Kpi decides on its samples, by the per-matrix oracles
        # on fresh ones: closure under products and inverses, Theta
        # multiplicative and the block congruence mod p^(c+1); and the
        # support inside U_L(1) mod p^cfrak, vacuous at cfrak 0
        kr = parabolic_kr
        xs, ys = kr.sampler(Draws(13), 100), kr.sampler(Draws(14), 100)
        xy = xs @ ys % kr.kpi.modulus
        _, xinv, unit = det_inv_mod(xs, 3, kr.level)
        assert unit.all()
        cmod = 3 ** (kr.c + 1)
        for x, y, prod, xi in zip(xs, ys, xy, xinv):
            assert kpi_member_oracle(kr, prod) and kpi_member_oracle(kr, xi)
            law = (kpi_exponent_oracle(kr, x) + kpi_exponent_oracle(kr, y)
                   - kpi_exponent_oracle(kr, prod))
            assert law.denominator == 1
            for sl in (slice(0, 2), slice(2, 4)):
                assert np.array_equal(prod[sl, sl] % cmod,
                                      x[sl, sl] @ y[sl, sl] % cmod)
        assert all(concentration_oracle(kr, kr.cfrak, xs))

    def test_parabolic_membership(self, parabolic_kr):
        kr = parabolic_kr
        g = kr.sampler(Draws(42), 1)[0]
        assert contains(kr.kpi, g)
        bad = g.copy()
        bad[0, 2] = 1   # breaks the off-diagonal congruence
        assert not contains(kr.kpi, bad)

    def test_theta_blockwise(self, parabolic_kr):
        kr = parabolic_kr
        g = kr.sampler(Draws(7), 1)[0]
        t = exponent_at(kr.theta, g)
        parts = Fraction(0)
        for theta, off in zip(kr.theta.tildes, (0, 2)):
            sub = g[off:off + 2, off:off + 2] % theta.domain.modulus
            parts += exponent_at(theta, sub)
        parts -= math.floor(parts)
        assert t == parts

    def test_stacks_match_per_matrix(self, parabolic_kr):
        kr = parabolic_kr
        mats = kr.sampler(Draws(11), 500)
        # a unit entry in an off-diagonal block, at every corner in turn
        off_diag = mats.copy()
        for i, (r, c) in enumerate([(0, 2), (2, 0), (1, 3), (3, 1)] * 125):
            off_diag[i, r, c] = 1
        # block 0 outside its B^1: a diagonal unit that is not 1 mod p
        outside_b1 = mats.copy()
        outside_b1[:, 0:2, 0:2] = np.diag([2, 1])
        assert not contains(kr.blocks[0].b1, np.diag([2, 1]))
        for stack, member in ((mats, True), (off_diag, False),
                              (outside_b1, False)):
            mask = kr.kpi.member_mask(stack)
            assert mask.tolist() == [kpi_member_oracle(kr, m) for m in stack]
            assert mask.all() == member and mask.any() == member
        for stack in (mats, off_diag):
            nums = kr.theta.nums_of_residues(stack)
            assert [Fraction(int(t), kr.theta.denom) for t in nums] == \
                [kpi_exponent_oracle(kr, m) for m in stack]
        with pytest.raises(KeyError):
            kr.theta.nums_of_residues(outside_b1)

    def test_gl1_blocks_rejected(self):
        d = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)
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
        d1 = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)
        d2 = build_datum(3, 2, 2, [[0, 1], [-3, 0]], -1)
        b1, b2 = prepare_block(d1), prepare_block(d2)
        with pytest.raises(DatumInvalid):
            build_Kpi([b1, b2], inequivalent_assertion=False)
        kr = build_Kpi([b1, b2], inequivalent_assertion=True)
        assert kr.n == 4

    def test_depth_band(self):
        d1 = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)   # c = 1/2
        d2 = build_datum(3, 2, 1, [[0, 1], [1, 1]], -2)   # c = 2
        b1, b2 = prepare_block(d1), prepare_block(d2)
        # c = ceil(2) = 2 and |1/2 - 2| exceeds the band of 1
        with pytest.raises(DatumInvalid, match="band"):
            build_Kpi([b1, b2], inequivalent_assertion=True)


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
        Pi = prime_element_of_L(block_a.datum)
        unit = frac_matrix([[1, 1], [3, 1]])
        assert j_contains(b, frac_mul(Pi, unit))
        assert j_contains(b, frac_mul(frac_pow(Pi, -2), unit))
        assert j_contains(b, frac_matrix([[1, 0], [0, 1]]))
        assert not j_contains(b, frac_matrix([[1, 0], [0, 3]]))

    def test_grading_matches_valuation(self, block_a):
        b = block_a.bundle
        Pi = prime_element_of_L(block_a.datum)
        for k in (-2, -1, 0, 1, 3):
            grade, part = j_grade_and_part(b, frac_pow(Pi, k))
            assert grade == k
            assert contains_value(b.jcapk, part)
