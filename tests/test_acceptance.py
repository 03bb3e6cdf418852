"""Acceptance gate: one timed criterion per test, every check exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its elapsed time against the stated limit.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import build_datum
from oracles import (induced_laws_oracle, j1_oracle, partition_count_oracle,
                     theta_tilde_oracle)

from minvec.counting import (LatticeQuery, amplifier_exponent, enumerate_S,
                             partition_count)
from minvec.groups import (build_Kpi, gl_order, intertwining_dichotomy,
                           prepare_block, verify_character)
from minvec.orders import (HereditaryOrder, approximation_report,
                           is_minimal, k0, v_A)
from minvec.testfunc import (compare_with_p_power, concentration_check,
                             convolve_check, depth_report, make_omega, volume)


@contextmanager
def criterion(number, name, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL "
              f"after {time.perf_counter() - t0:.1f}s")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s "
          f"(limit {limit_seconds}s)")
    assert elapsed < limit_seconds


@pytest.fixture(scope="module")
def shipped():
    """The four shipped data, fully prepared (groups, characters, K_pi)."""
    blocks = {}
    krs = {}
    da = build_datum(3, 2, 2, [[0, 1], [3, 0]], -1)
    db = build_datum(3, 2, 2, [[0, 1], [3, 0]], -2)
    dc = build_datum(3, 2, 1, [[0, 1], [1, 1]], -2)
    for tag, d in (("a", da), ("b", db), ("c", dc)):
        blocks[tag] = prepare_block(d)
        krs[tag] = build_Kpi([blocks[tag]])
    d2 = build_datum(3, 2, 2, [[0, 1], [-3, 0]], -1)
    krs["par"] = build_Kpi([blocks["a"], prepare_block(d2)],
                           inequivalent_assertion=True)
    return blocks, krs


def test_criterion_1_filtration_laws():
    with criterion(1, "filtration laws", 5):
        for n in (2, 3, 4):
            for e in [d for d in range(1, n + 1) if n % d == 0]:
                o = HereditaryOrder(n, e)
                for i in range(-2 * e, 2 * e + 1):
                    rep = approximation_report(o, i)
                    assert rep.holds
                    for r in range(n):
                        for c in range(n):
                            # the spanning element 3^t E_rc of B^i
                            t = o.entry_threshold(i, r, c)
                            ent = [[0] * n for _ in range(n)]
                            ent[r][c] = 1
                            unit = v_A(ent, o, 3)   # grade of E_rc
                            assert unit + e * t >= i
                            # B^(i+e) = p B^i on the spanning element
                            ent[r][c] = 3
                            assert v_A(ent, o, 3) + e * t >= i + e
                            # and p^(t-1) E_rc lies outside B^i
                            assert unit + e * (t - 1) < i


def test_criterion_2_minimality_and_k0():
    with criterion(2, "minimality and k0", 60):
        shipped_minimal = [
            build_datum(3, 2, 2, [[0, 1], [3, 0]], -1),
            build_datum(3, 2, 2, [[0, 1], [3, 0]], -2),
            build_datum(3, 2, 1, [[0, 1], [1, 1]], -2),
        ]
        for d in shipped_minimal:
            assert is_minimal(d)
            res = k0(d)
            v_beta = v_A(d.beta_rows, d.order, d.p) + \
                d.order.e * d.beta_scale
            assert res.value == v_beta == -d.j
            assert not res.capped
        degenerate = build_datum(3, 2, 2, [[1, 0], [0, 1]], -1,
                                 strict=False)
        assert not is_minimal(degenerate)
        assert k0(degenerate).value > -degenerate.j


def test_criterion_3_simple_character(shipped):
    blocks, _ = shipped
    with criterion(3, "simple character", 30):
        for tag in ("a", "b", "c"):
            blk = blocks[tag]
            theta = blk.simple.theta
            cert = verify_character(blk.bundle.h1, theta.nums, theta.denom)
            assert cert.multiplicative, cert.witness
            top = blk.bundle.ua[blk.datum.j + 1]
            assert not np.any(theta.restricted_nums(top.codes) % theta.denom)


def test_criterion_4_heisenberg(shipped):
    blocks, _ = shipped
    with criterion(4, "Heisenberg extension", 60):
        blk = blocks["c"]
        pol, ind = blk.pol, blk.induced
        p = 3
        assert not pol.trivial
        m = pol.pairing
        assert all(m[i][i] % p == 0 for i in range(pol.dim))
        assert all((m[i][j] + m[j][i]) % p == 0
                   for i in range(pol.dim) for j in range(pol.dim))
        assert (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p != 0
        assert ind.dim == 3
        assert ind.dim ** 2 == blk.bundle.j1.size // blk.bundle.h1.size
        # the laws extend_and_induce derives by Mackey, element by element,
        # on theta~'s table
        b = blk.bundle
        rows = np.unique(np.random.default_rng(0).integers(0, b.j1.size, 32))
        want = induced_laws_oracle(j1_oracle(b), b.h1, blk.simple.theta,
                                   theta_tilde_oracle(blk), rows)
        assert want[:4] == (ind.dim, 1, True, ind.dim)


def test_criterion_5_intertwining_dichotomy(shipped):
    blocks, _ = shipped
    with criterion(5, "intertwining dichotomy", 120):
        blk = blocks["a"]
        rep = intertwining_dichotomy(blk.datum, blk.bundle, blk.simple.theta)
        assert rep.agree
        assert rep.witness is None
        assert rep.intertwining == rep.jcapk_size
        assert rep.total == gl_order(2, 3, 2)


def test_criterion_6_test_function_identities(shipped):
    _, krs = shipped
    with criterion(6, "test function identities", 600):
        for tag in ("a", "b", "c"):
            tf = make_omega(krs[tag])
            conv = convolve_check(tf)
            assert conv.mode == "full"
            assert conv.support_ok
            assert conv.offsupport_ok
            conc = concentration_check(tf)
            assert conc.mode == "certified"
            assert conc.threshold >= conc.cfrak
        tf = make_omega(krs["par"])
        conv = convolve_check(tf)
        assert conv.mode == "sampled"
        assert conv.support_ok and conv.offsupport_ok
        conc = concentration_check(tf)
        assert conc.mode == "certified"
        assert conc.threshold >= conc.cfrak


def test_criterion_7_volume_and_conductor(shipped):
    _, krs = shipped
    with criterion(7, "volume and conductor bookkeeping", 1):
        for tag in ("a", "b", "c", "par"):
            kr = krs[tag]
            vol = volume(kr)
            n = kr.n
            c = Fraction(kr.c)
            target = c * (n * n - n) / 2
            inv = 1 / vol.d_pi
            assert compare_with_p_power(inv, 3, target - n * n) >= 0
            assert compare_with_p_power(inv, 3, target + n * n) <= 0
            rep = depth_report(kr)
            assert abs(Fraction(rep.cfrak) - c / 2) <= 1


def test_criterion_8_counting():
    with criterion(8, "lattice counting", 300):
        for a in range(9):
            for n in range(1, 7):
                assert partition_count(a, n) == partition_count_oracle(a, n)
        in_regime_queries = [
            LatticeQuery(2, 1, 1, 3, 3, (((1, 0), (0, 1)),)),
            LatticeQuery(2, 4, 4, 3, 7, (((1, 0), (0, 4)), ((4, 0), (0, 1)))),
        ]
        for q in in_regime_queries:
            rep = enumerate_S(q)
            assert rep.regime_ok
            assert rep.abelian and rep.commute_witness is None
            assert rep.count <= rep.fiber_measured * rep.partition_bound
            assert rep.bound_ok
        out = enumerate_S(LatticeQuery(2, 1, 1, 3, 0, ()))
        assert not out.regime_ok
        assert not out.abelian and out.commute_witness is not None


def test_criterion_9_exponent():
    with criterion(9, "exact exponent", 1):
        r2 = amplifier_exponent(2)
        r3 = amplifier_exponent(3)
        assert r2.bound_exponent == Fraction(15, 64)
        assert r3.bound_exponent == Fraction(107, 216)
        # the sign audit must have been generated and internally agree
        for rep in (r2, r3):
            assert rep.assembled_matches and rep.penultimate_matches
            assert not rep.flipped_matches
