import dataclasses
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from minvec.errors import ConstructionFailure
from minvec.groups import (FiniteSubgroup, GroupCharacter, build_Kpi,
                           depth_bound_cfrak, gl_order, prepare_block,
                           verify_character)
from minvec.residues import Draws, det_inv_mod, sample_units_outside
from minvec.testfunc import (compare_with_p_power, concentration_check,
                             convolve_check, depth_report, make_omega, volume)

from conftest import build_datum
from oracles import (concentration_oracle, contains, convolution_rows_oracle,
                     exponent_at, kpi_exponent_oracle, listed_kr, mat_inv_mod,
                     offsupport_lands_oracle, omega_exponent,
                     omega_star_exponent, with_flipped_block)


class TestVolume:
    def test_datum_a_exact(self, kr_a):
        vol = volume(kr_a)
        # |B^1 mod p^2| = 243 inside |GL_2(Z/9)| = 3888
        assert vol.d_pi == Fraction(243, 3888) == Fraction(1, 16)
        assert vol.bounded

    def test_exhaustive_count_oracle(self, kr_a):
        # independent count of B^1 mod p^2 by scanning all of GL_2(Z/9)
        from minvec.residues import box_enumerate
        mats = box_enumerate([0] * 4, [1] * 4, [9] * 4, 9).reshape(-1, 2, 2)
        members = sum(1 for m in mats if contains(kr_a.kpi, m))
        assert members == kr_a.kpi.size == 243

    def test_degenerate_full_support(self):
        assert compare_with_p_power(Fraction(1), 3, Fraction(0)) == 0

    def test_all_data_bounded(self, kr_a, kr_b, kr_c, parabolic_kr):
        for kr in (kr_a, kr_b, kr_c, parabolic_kr):
            assert volume(kr).bounded

    def test_parabolic_count_formula(self, parabolic_kr):
        vol = volume(parabolic_kr)
        assert parabolic_kr.kpi.size == 3 ** 34
        assert vol.d_pi == Fraction(3 ** 34, gl_order(4, 3, 3))
        assert vol.valuation_of_inverse == 4

    def test_power_comparison(self):
        assert compare_with_p_power(Fraction(16), 3, Fraction(5, 2)) == 1
        assert compare_with_p_power(Fraction(16), 3, Fraction(9, 2)) == -1
        assert compare_with_p_power(Fraction(27), 3, Fraction(3)) == 0


class TestConvolution:
    def test_full_identity_all_data(self, kr_a, kr_b, kr_c):
        for kr in (kr_a, kr_b, kr_c):
            tf = make_omega(kr)
            rep = convolve_check(tf)
            assert rep.mode == "full"
            assert rep.offsupport_points_checked == 0
            assert rep.support_ok
            assert rep.offsupport_ok
            assert rep.support_points_checked == kr.kpi.size

    def test_sampled_parabolic(self, parabolic_kr):
        tf = make_omega(parabolic_kr)
        rep = convolve_check(tf)
        assert rep.mode == "sampled"
        assert rep.support_ok and rep.offsupport_ok

    def test_omega_values(self, kr_a):
        tf = make_omega(listed_kr(kr_a))
        ident = np.eye(2, dtype=np.int64)
        assert omega_exponent(tf, ident) == 0
        assert omega_star_exponent(tf, ident) == 0
        # an integral non-member: the permutation matrix off the support
        perm = np.array([[0, 1], [1, 0]], dtype=np.int64)
        assert omega_exponent(tf, perm) is None

    def test_translation_covariance(self, kr_a):
        # omega(b x) = Theta(b) omega(x) over the whole support
        kr = listed_kr(kr_a)
        tf, kpi, theta = make_omega(kr), kr.kpi, kr.theta
        rng = np.random.default_rng(5)
        mod = kpi.modulus
        for _ in range(50):
            b = kpi.mats[int(rng.integers(0, kpi.size))]
            x = kpi.mats[int(rng.integers(0, kpi.size))]
            lhs = omega_exponent(tf, b @ x % mod)
            rhs = exponent_at(theta, b) + exponent_at(theta, x)
            assert lhs == rhs - math.floor(rhs)

    def test_star_matches_character(self, kr_a):
        # omega^*(g) = conj(omega(g^{-1})) = Theta(g) on the support
        tf = make_omega(listed_kr(kr_a))
        kpi = tf.kpi_result.kpi
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = kpi.mats[int(rng.integers(0, kpi.size))]
            assert omega_star_exponent(tf, x) == omega_exponent(tf, x)


def with_flipped_entry(kr):
    """A fresh copy of the support whose character is wrong at one element."""
    kpi, theta = kr.kpi, kr.theta
    copy = FiniteSubgroup(kpi.name, kpi.p, kpi.level, kpi.n, kpi.codes)
    nums = theta.nums.copy()
    k = (copy.identity_index() + 1) % copy.size
    nums[k] = (nums[k] + 1) % theta.denom
    return dataclasses.replace(kr, kpi=copy,
                               theta=GroupCharacter(copy, nums, theta.denom))


class TestSingleScanConvolution:
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_einsum_reference(self, kr_a, kr_c, flip):
        # the termwise law of every pair is multiplicativity itself, which is
        # why convolve_check decides it from theta~ being a character of
        # B1; here the generator certificate decides it on theta~'s table
        for kr in map(listed_kr, (kr_a, kr_c)):
            if flip:
                kr = with_flipped_entry(kr)
            kpi, nums, denom = kr.kpi, kr.theta.nums, kr.theta.denom
            want = convolution_rows_oracle(kpi, nums, denom, range(kpi.size))
            bad = {g for g in range(kpi.size) if np.any(want[g] != nums[g])}
            assert bool(bad) == flip
            assert verify_character(kpi, nums, denom).multiplicative != flip

    def test_offsupport_membership_matches_product_scan(self, kr_a, kr_c):
        # g^-1 K_pi meets the group K_pi exactly when g^-1 lies in it
        rng = Draws(3)
        for kr in (kr_a, kr_c):
            kpi, listed = kr.kpi, listed_kr(kr).kpi
            p, L, n = kpi.p, kpi.level, kpi.n
            outside = sample_units_outside(kpi.member_mask, p, L, n, rng, 500)
            gs = np.concatenate([np.array(list(itertools.islice(outside, 16))),
                                 listed.mats[rng.integers(0, kpi.size, 8)]])
            want = offsupport_lands_oracle(listed, gs)
            assert want == [False] * 16 + [True] * 8
            assert kpi.member_mask(det_inv_mod(gs, p, L)[1]).tolist() == want


class TestStackedParabolic:
    def test_flipped_block_character_fails_convolution(self, parabolic_kr):
        kr = with_flipped_block(parabolic_kr)
        rep = convolve_check(make_omega(kr), seed=0)
        assert rep.mode == "sampled" and not rep.support_ok
        assert rep.offsupport_ok
        i = rep.support_points_checked
        assert i < 2000
        # redraw the pairs: every pair before the witness's satisfies the
        # termwise law and the witness g fails it at its x
        rng = Draws(0)
        gs, xs = kr.sampler(rng, 2000), kr.sampler(rng, 2000)
        assert np.array_equal(rep.witness, gs[i])
        assert all(termwise_law(kr, g, x)
                   for g, x in zip(gs[:i][-20:], xs[:i][-20:]))
        assert not termwise_law(kr, gs[i], xs[i])

    def test_counts_unchanged_by_stacking(self, parabolic_kr):
        rep = convolve_check(make_omega(parabolic_kr))
        assert (rep.support_points_checked, rep.offsupport_points_checked) \
            == (2000, 2000)
        assert rep.support_ok and rep.offsupport_ok

    def test_sampled_concentration_matches_blockwise_search(self,
                                                            parabolic_kr):
        # the certificate proves the datum's cfrak = 0 and refuses 1: in
        # period 2, B^1 holds the unit entry E_12
        rep = concentration_check(make_omega(parabolic_kr))
        assert (rep.cfrak, rep.threshold) == (0, 0)
        kr = dataclasses.replace(parabolic_kr, cfrak=1)
        with pytest.raises(ConstructionFailure, match=r"only mod p\^0,"):
            concentration_check(make_omega(kr))
        # the blockwise search on samples finds each on the torus mod p
        # all the same: the certificate proves cfrak, not the sharpest
        # modulus.  A unit off-diagonal entry puts a sample off it.
        xs = kr.sampler(Draws(4), 500)
        assert all(concentration_oracle(kr, 1, xs))
        bad = xs.copy()
        bad[::2, 0, 3] = 1
        assert not any(concentration_oracle(kr, 1, bad)[::2])


def termwise_law(kr, g, x):
    """Theta(x) - Theta(g^-1 x) = Theta(g), by the per-matrix references."""
    gx = np.array(mat_inv_mod(g.tolist(), kr.kpi.p, kr.level)) @ x \
        % kr.kpi.modulus
    t = kpi_exponent_oracle
    return (t(kr, x) - t(kr, gx) - t(kr, g)).denominator == 1


@pytest.fixture(scope="module")
def kr_e1j3():
    """Unramified quadratic at depth 3, beta = p^-3 [[0,1],[1,1]] at p = 3:
    K_pi has 59,049 elements and cfrak 2."""
    return build_Kpi([prepare_block(build_datum(3, 2, 1, [[0, 1], [1, 1]],
                                                -3))])


class TestConcentration:
    def test_trivial_at_depth_one(self, kr_a):
        rep = concentration_check(make_omega(kr_a))
        assert (rep.cfrak, rep.threshold, rep.mode) == (0, 0, "certified")

    def test_exhaustive_depth_three(self, kr_b):
        rep = concentration_check(make_omega(kr_b))
        assert (rep.cfrak, rep.threshold, rep.mode) == (1, 1, "certified")
        assert all(concentration_oracle(kr_b, 1))

    def test_exhaustive_unramified(self, kr_c):
        rep = concentration_check(make_omega(kr_c))
        assert (rep.cfrak, rep.threshold) == (1, 1)
        assert all(concentration_oracle(listed_kr(kr_c), 1))

    def test_parabolic_trivial(self, parabolic_kr):
        rep = concentration_check(make_omega(parabolic_kr))
        assert (rep.cfrak, rep.threshold, rep.mode) == (0, 0, "certified")

    @pytest.mark.parametrize("name", ["kr_a", "block 0", "block 1",
                                      "kr_e1j3"])
    def test_certificate_matches_oracle(self, name, request, parabolic_kr):
        # every element the certificate speaks for is found by the scan, as
        # on data b and c above; each parabolic block is its own K_pi here
        if name.startswith("block"):
            kr = build_Kpi([parabolic_kr.blocks[int(name[-1])]])
        else:
            kr = request.getfixturevalue(name)
        rep = concentration_check(make_omega(kr))
        assert rep.threshold >= rep.cfrak == kr.cfrak
        found = concentration_oracle(kr, kr.cfrak)
        assert len(found) == kr.kpi.size and all(found)

    @pytest.mark.parametrize("name", ["kr_b", "kr_c", "kr_e1j3"])
    def test_one_past_cfrak_is_refused(self, name, request):
        # one step past cfrak the certificate raises, and the scan finds
        # elements with no approximation
        kr = request.getfixturevalue(name)
        kr = dataclasses.replace(kr, cfrak=kr.cfrak + 1)
        with pytest.raises(ConstructionFailure, match="cfrak"):
            concentration_check(make_omega(kr))
        assert not all(concentration_oracle(listed_kr(kr), kr.cfrak))

    def test_reads_no_element(self, kr_b):
        # a support that cannot be listed gives the same report
        kpi = kr_b.kpi
        blind = FiniteSubgroup(kpi.name, kpi.p, kpi.level, kpi.n,
                               membership=kpi.member_mask, size=kpi.size)
        kr = dataclasses.replace(kr_b, kpi=blind)
        assert concentration_check(make_omega(kr)) == \
            concentration_check(make_omega(kr_b))

    def test_members_of_torus_work(self, kr_b):
        # x in U_L(1): l = x is itself the witness; cross-check one by hand
        blk = kr_b.blocks[0]
        ul1 = blk.bundle.ul1
        assert all(concentration_oracle(kr_b, kr_b.cfrak, ul1.mats))
        x = ul1.mats[5]
        cmod = 3 ** kr_b.cfrak
        li = np.array(mat_inv_mod([list(r) for r in x], 3, blk.bundle.level))
        assert np.array_equal((x @ li) % cmod, np.eye(2, dtype=np.int64) % cmod)


def depth_only(j, e):
    """A stand-in datum carrying only what depth_bound_cfrak reads."""
    return SimpleNamespace(j=j, order=SimpleNamespace(e=e))


class TestDepthReport:
    def test_supercuspidal_values(self, kr_a, kr_b, kr_c):
        ra = depth_report(kr_a)
        assert (ra.depth, ra.c, ra.conductor_exponent) == \
            (1, Fraction(1, 2), Fraction(1))
        rb = depth_report(kr_b)
        assert (rb.depth, rb.c, rb.conductor_exponent) == \
            (3, Fraction(3, 2), Fraction(3))
        rc = depth_report(kr_c)
        assert (rc.depth, rc.c, rc.conductor_exponent) == \
            (2, Fraction(2), Fraction(4))

    def test_parabolic_values(self, parabolic_kr):
        r = depth_report(parabolic_kr)
        assert r.c == 1
        assert r.conductor_exponent == 4
        assert r.cfrak == 0

    def test_cfrak_bands(self, kr_a, kr_b, kr_c, parabolic_kr):
        # |cfrak - c/2| <= 1 by arithmetic (depth_report's docstring): on
        # the shipped data, on every single block of depth j < 200 and
        # period e <= 8, and on every pair of blocks, j < 40 and e <= 4,
        # that build_Kpi's band admits
        for kr in (kr_a, kr_b, kr_c, parabolic_kr):
            rep = depth_report(kr)
            assert abs(rep.cfrak - Fraction(rep.c) / 2) <= 1
        singles = [(j, e) for e in range(1, 9) for j in range(1, 200)
                   if math.gcd(j, e) == 1]
        for j, e in singles:
            cf = depth_bound_cfrak([depth_only(j, e)])
            assert abs(cf - Fraction(j, e) / 2) <= 1, (j, e)
        small = [(j, e) for j, e in singles if j < 40 and e <= 4]
        for (j1, e1), (j2, e2) in itertools.combinations(small, 2):
            cs = [Fraction(j1, e1), Fraction(j2, e2)]
            c = math.ceil(max(cs))
            if all(abs(ci - c) <= 1 for ci in cs):
                cf = depth_bound_cfrak([depth_only(j1, e1),
                                        depth_only(j2, e2)])
                assert abs(cf - Fraction(c, 2)) <= 1, (j1, e1, j2, e2)

    def test_cfrak_closed_form(self, kr_a):
        # floor((1/e) floor((d+1)/2)) = floor((1/2) * 1) = 0
        assert kr_a.cfrak == ((1 + 1) // 2) // 2 == 0
