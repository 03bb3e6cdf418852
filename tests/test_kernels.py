"""Differential tests of the residue kernels against slow references."""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

import minvec
from minvec import groups, residues, testfunc
from minvec.groups import (FiniteSubgroup, GroupCharacter,
                           _first_not_intertwined, intertwining_dichotomy,
                           intertwining_spot, prepare_block, product_index,
                           unit_sumset)
from minvec.orders import HereditaryOrder, min_poly_fp
from minvec.padic import _adjugate, _int_det, mat_mul_int
from minvec.residues import Draws, det_inv_mod, pack, sample_units_outside

from conftest import build_datum
from oracles import (contains, first_not_intertwined_oracle,
                     first_outside_h1, intertwines_oracle, j1_oracle,
                     leibniz_det, mat_inv_mod, product_index_oracle,
                     product_table_oracle, sample_units_outside_oracle,
                     theta_tilde_oracle, with_flipped_block, without_coset)


@st.composite
def residue_stacks(draw):
    """(p, L, mats): a small stack mod p^L, the first matrix optionally made
    singular mod p by scaling its first row by p."""
    p = draw(st.sampled_from([2, 3, 5]))
    L = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    M = draw(st.integers(1, 6))
    mod = p ** L
    flat = draw(st.lists(st.integers(0, mod - 1), min_size=M * n * n,
                         max_size=M * n * n))
    mats = np.array(flat, dtype=np.int64).reshape(M, n, n)
    if draw(st.booleans()):
        mats[0, 0] = mats[0, 0] * p % mod
    return p, L, mats


class TestDetInv:
    @settings(max_examples=150, deadline=None)
    @given(residue_stacks())
    def test_matches_leibniz_and_gauss_jordan(self, case):
        p, L, mats = case
        det, inv, unit = det_inv_mod(mats, p, L)
        for m, d, m_inv, u in zip(mats, det, inv, unit):
            want = leibniz_det(m.tolist()) % p ** L
            assert d == want
            assert u == (want % p != 0)
            if u:
                assert m_inv.tolist() == mat_inv_mod(m.tolist(), p, L)
            else:
                with pytest.raises(ZeroDivisionError):
                    mat_inv_mod(m.tolist(), p, L)

    def test_chunks_match_int_det_and_adjugate(self, monkeypatch):
        # with 1 KiB chunks a chunk holds at most 128 matrices, so 500
        # matrices span more than three chunks; every seventh has a row
        # scaled by p, so it is singular mod p while its determinant mod
        # p^2 need not vanish
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1 << 10)
        p, L, mod = 3, 2, 9
        mats = Draws(4).integers(0, mod, size=(500, 3, 3))
        mats[::7, 2] = mats[::7, 2] * p % mod
        assert len(mats) > 3 * residues.chunk_rows(8)
        det, inv, unit = det_inv_mod(mats, p, L)
        assert not unit[::7].any() and unit.any()
        for m, d, m_inv, u in zip(mats.tolist(), det, inv, unit):
            want = _int_det(m) % mod
            assert (d, u) == (want, want % p != 0)
            if u:
                adj = np.array(_adjugate(m, 3)) * pow(want, -1, mod) % mod
                assert np.array_equal(m_inv, adj)

    @pytest.mark.parametrize("count", [2000, 20000])
    def test_temporaries_within_two_chunks(self, count):
        # tracemalloc sees numpy's buffers; see TestTorusMemory for why not
        # ru_maxrss
        mats = Draws(5).integers(0, 9, size=(count, 4, 4))
        tracemalloc.start()
        try:
            out = det_inv_mod(mats, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(a.nbytes for a in out) + 2 * residues.CHUNK_BYTES


def poly_at(coeffs, rows, p):
    """sum c_i A^i mod p, as a flat tuple."""
    n = len(rows)
    total = [[0] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in coeffs:
        total = [[(t + c * v) % p for t, v in zip(tr, pr)]
                 for tr, pr in zip(total, power)]
        power = mat_mul_int(power, rows)
    return tuple(v for row in total for v in row)


class TestMinPoly:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
    def test_annihilates_with_least_degree(self, p, n, data):
        rows = [[data.draw(st.integers(0, p - 1)) for _ in range(n)]
                for _ in range(n)]
        mp = min_poly_fp(rows, p)
        zero = (0,) * (n * n)
        assert mp[-1] == 1
        assert poly_at(mp, rows, p) == zero
        for deg in range(len(mp) - 1):
            for lower in itertools.product(range(p), repeat=deg):
                assert poly_at(list(lower) + [1], rows, p) != zero


BLOCKS = ["block_a", "block_b", "block_c", "parabolic 0", "parabolic 1"]


def get_block(request, name):
    """A prepared block: data a, b, c or a block of the parabolic datum."""
    if name.startswith("parabolic"):
        kr = request.getfixturevalue("parabolic_kr")
        return kr.blocks[int(name.split()[1])]
    return request.getfixturevalue(name)


def counted_packs(monkeypatch):
    """A list that grows by one at each pack call in groups: one per chunk
    of the product kernel."""
    calls = []

    def counting(mats, p, L):
        calls.append(len(mats))
        return pack(mats, p, L)

    monkeypatch.setattr(groups, "pack", counting)
    return calls


class TestProductIndex:
    """The one product-lookup kernel of groups.py against one einsum per
    row, with chunks of a few KiB so that every call spans several."""

    @pytest.mark.parametrize("name", BLOCKS)
    def test_matches_einsum_oracle(self, name, request, monkeypatch):
        b = get_block(request, name).bundle
        h1, j1 = b.h1, j1_oracle(b)
        p, L, n = h1.p, h1.level, h1.n
        rng = Draws(3)
        mats = rng.integers(0, p ** L, size=(40, n, n))
        G = np.concatenate([mats[det_inv_mod(mats, p, L)[2]][:8],
                            b.jcapk.draw(rng, 8)])
        Gi = det_inv_mod(G, p, L)[1]
        cases = [(h1, h1.mats, h1.mats[5:6], None),    # a tree generator
                 (j1, j1.mats[::max(1, j1.size // 40)], h1.mats, None),
                 (h1, G, h1.mats, Gi),                 # conjugation
                 (h1, j1.mats[:7], j1.mats[::13], None)]
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1 << 12)
        packs = counted_packs(monkeypatch)
        found = set()
        for target, left, mid, right in cases:
            want = product_index_oracle(target, left, mid, right)
            del packs[:]
            got = product_index(target, left, mid, right)
            assert len(packs) > 1
            assert got.shape == (len(left), len(mid))
            assert np.array_equal(got, want)
            found |= {bool(v) for v in np.unique(want >= 0)}
        # both hits and misses were compared
        assert found == {False, True}

    @pytest.mark.parametrize("name", BLOCKS)
    def test_generator_tree_matches_product_table(self, name, request,
                                                  monkeypatch):
        blk = get_block(request, name)
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1 << 12)
        for group in (blk.bundle.h1, j1_oracle(blk.bundle),
                      theta_tilde_oracle(blk).domain):
            # a fresh copy, since the tree is memoized
            sub = FiniteSubgroup(group.name, group.p, group.level, group.n,
                                 group.codes)
            root, perms = sub._generator_tree()
            rows = np.arange(0, sub.size, max(1, sub.size // 48))
            table = product_table_oracle(sub, rows)
            for perm in perms:
                assert np.array_equal(perm[rows], table[:, perm[root]])

    def test_generator_tree_stays_in_its_chunks(self, monkeypatch):
        # U_A(2) of the period-3 order of M_3 mod 9: 19,683 elements of 72
        # bytes.  The tree's peak is its perms and its search; one stack of
        # all right products g_i s would add another copy of the group
        codes = unit_sumset(HereditaryOrder(3, 3), 2,
                            np.eye(3, dtype=np.int64)[None], 3, 2)
        sub = FiniteSubgroup("U_A(2)", 3, 2, 3, codes)
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1 << 14)
        tracemalloc.start()
        try:
            sub._generator_tree()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sub.mats.nbytes


class TestIntertwiningKernel:
    @pytest.mark.parametrize("name", ["1+Pi", "I", "diag(1,2)"])
    def test_matches_matrixapprox_loop(self, block_a, name):
        d = block_a.datum
        rows = {"1+Pi": [[1, 1], [3, 1]], "I": [[1, 0], [0, 1]],
                "diag(1,2)": [[1, 0], [0, 2]]}[name]
        theta = block_a.simple.theta
        G = np.array([rows], dtype=np.int64)
        xs = theta.domain.mats
        first = _first_not_intertwined(G, det_inv_mod(G, 3, 2)[1], xs,
                                       theta)[0]
        want_ok, want_witness = intertwines_oracle(rows, theta, d)
        assert (first < 0) == want_ok == (name != "diag(1,2)")
        if first >= 0:
            assert np.array_equal(xs[first], want_witness)

    def test_stack_matches_reference_in_any_chunking(self, block_a,
                                                      monkeypatch):
        # 30 random units of GL_2(Z/9) and 30 elements of J cap K
        rng = Draws(2)
        mats = rng.integers(0, 9, size=(200, 2, 2))
        unit = det_inv_mod(mats, 3, 2)[2]
        G = np.concatenate([mats[unit][:30],
                            block_a.bundle.jcapk.draw(rng, 30)])
        Gi = det_inv_mod(G, 3, 2)[1]
        theta = block_a.simple.theta
        xs = theta.domain.mats
        want = first_not_intertwined_oracle(G, Gi, xs, theta).tolist()
        assert -1 in want and any(i >= 0 for i in want)
        assert _first_not_intertwined(G, Gi, xs, theta).tolist() == want
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1)
        assert _first_not_intertwined(G, Gi, xs, theta).tolist() == want


def kernel_calls(monkeypatch, run):
    """(G, Gi, xs, theta) of every intertwining-kernel call made while
    run() runs."""
    calls = []
    kernel = groups._first_not_intertwined

    def recording(G, Gi, xs, theta):
        calls.append((np.array(G), np.array(Gi), xs, theta))
        return kernel(G, Gi, xs, theta)

    with monkeypatch.context() as m:
        m.setattr(groups, "_first_not_intertwined", recording)
        run()
    return calls


def spot_call(blk, monkeypatch, seed=0):
    calls = kernel_calls(monkeypatch, lambda: intertwining_spot(
        blk.datum, blk.bundle, blk.simple.theta, seed=seed))
    assert len(calls) == 1
    return calls[0]


def normalizes_h1(G, Gi, h1):
    """Rows g with g H1 g^-1 inside H1, by conjugating every element."""
    conj = (G[:, None] @ h1.mats % h1.modulus) @ Gi[:, None] % h1.modulus
    idx = h1.index_of_codes(pack(conj.reshape(-1, h1.n, h1.n), h1.p,
                                 h1.level))
    return np.all(idx.reshape(len(G), h1.size) >= 0, axis=1)


class TestIntertwiningShortcut:
    """The generator certificate and the early-exit scan reproduce the full
    ordered scan index for index."""

    @staticmethod
    def assert_matches_scan(G, Gi, xs, theta):
        want = first_not_intertwined_oracle(G, Gi, xs, theta)
        assert _first_not_intertwined(G, Gi, xs, theta).tolist() == \
            want.tolist()
        return want

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_sweep_representatives(self, block_a, parabolic_kr, which,
                                   monkeypatch):
        blk = ([block_a] + list(parabolic_kr.blocks))[which]
        calls = kernel_calls(monkeypatch, lambda: intertwining_dichotomy(
            blk.datum, blk.bundle, blk.simple.theta))
        assert len(calls) == 1
        want = self.assert_matches_scan(*calls[0])
        assert -1 in want and (want >= 0).any()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("name", ["block_b", "block_c"])
    def test_spot_conjugators(self, name, seed, request, monkeypatch):
        G, Gi, xs, theta = spot_call(request.getfixturevalue(name),
                                     monkeypatch, seed)
        want = self.assert_matches_scan(G, Gi, xs, theta)
        # every intertwining row, the 40 members of J cap K first, is
        # certified on the generators alone
        fixed = groups._fixed_on_generators(G, Gi, theta)
        assert fixed[:40].all()
        assert fixed.tolist() == (want < 0).tolist()

    @pytest.mark.parametrize("twist", ["double", "conjugated"])
    def test_twisted_character(self, block_b, twist, monkeypatch):
        G, Gi, xs, theta = spot_call(block_b, monkeypatch)
        h1 = theta.domain
        normal = normalizes_h1(G, Gi, h1)
        if twist == "double":
            nums = 2 * theta.nums
        else:
            # theta o Ad(h) for a sampled h that normalizes H1 but does not
            # intertwine theta: the members of J cap K no longer fix it
            h = int(np.flatnonzero(normal[40:])[0]) + 40
            conj = (G[h] @ h1.mats % h1.modulus) @ Gi[h] % h1.modulus
            nums = theta.nums[h1.index_of_codes(pack(conj, 3, h1.level))]
        twisted = GroupCharacter(h1, nums, theta.denom)
        assert groups.verify_character(h1, twisted.nums,
                                       twisted.denom).multiplicative
        want = self.assert_matches_scan(G, Gi, xs, twisted)
        fixed = groups._fixed_on_generators(G, Gi, twisted)
        # normalizing rows that the generators do not certify are scanned
        assert (normal & ~fixed & (want >= 0)).any()
        assert fixed.tolist() == (want < 0).tolist()

    def test_a_wrong_inverse_is_not_certified(self, block_b):
        # x -> x c with c in ker theta agrees with theta on all of H1, but it
        # is no conjugation, so the generator proof must not take it
        theta = block_b.simple.theta
        h1 = theta.domain
        ident = h1.identity_index()
        c = next(i for i in np.flatnonzero(theta.nums == 0) if i != ident)
        G = np.eye(2, dtype=np.int64)[None]
        assert groups._fixed_on_generators(G, G, theta).all()
        assert not groups._fixed_on_generators(G, h1.mats[c][None],
                                                theta).any()
        self.assert_matches_scan(G, h1.mats[c][None], h1.mats, theta)


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_one_draw_at_a_time(self, n, seed):
        p, L = 3, 2

        def inside(g):
            return g[0, n - 1] % p == 0

        def inside_stack(gs):
            return gs[:, 0, n - 1] % p == 0

        got = sample_units_outside(inside_stack, p, L, n, Draws(seed), 300)
        want = sample_units_outside_oracle(inside, p, L, n, Draws(seed), 300)
        got, want = list(got), list(want)
        assert 0 < len(want) < 300
        assert [g.tolist() for g in got] == [g.tolist() for g in want]

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_membership_stack_matches_per_matrix(self, block_a, seed):
        jk = block_a.bundle.jcapk
        got = itertools.islice(sample_units_outside(
            jk.member_mask, 3, 2, 2, Draws(seed), 400), 40)
        want = itertools.islice(sample_units_outside_oracle(
            lambda g: contains(jk, g), 3, 2, 2, Draws(seed), 400), 40)
        assert [g.tolist() for g in got] == [g.tolist() for g in want]

    def test_tries_bound_the_draws(self):
        # everything is inside: no point is yielded after `tries` draws
        rng = Draws(0)
        assert list(sample_units_outside(
            lambda gs: np.ones(len(gs), dtype=bool), 3, 1, 2, rng, 50)) == []
        left = rng.integers(0, 3, size=(2, 2))
        again = Draws(0)
        for _ in range(50):
            again.integers(0, 3, size=(2, 2))
        assert left.tolist() == again.integers(0, 3, size=(2, 2)).tolist()


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_reproducible_per_seed(self, seed):
        a = Draws(seed).integers(0, 81, size=(40, 2, 2))
        b = Draws(seed).integers(0, 81, size=(40, 2, 2))
        assert a.dtype == np.int64 and a.shape == (40, 2, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, Draws(seed + 1).integers(
            0, 81, size=(40, 2, 2)))

    @pytest.mark.parametrize("low, high", [
        (0, 1), (7, 8), (0, 2), (0, 64), (0, 1 << 32), (0, 3), (0, 243),
        (0, 3 ** 20), (5, 12), (-4, 4), (0, 1 << 63)])
    def test_in_range(self, low, high):
        got = Draws(3).integers(low, high, size=5000)
        assert got.min() >= low and got.max() < high
        if high - low == 1:
            assert (got == low).all()

    @pytest.mark.parametrize("span", [2, 3, 5, 6, 9, 16])
    def test_covers_a_small_range(self, span):
        got = Draws(0).integers(0, span, size=400)
        assert sorted(set(got.tolist())) == list(range(span))

    def test_chunking_does_not_move_the_stream(self):
        # one call of 30 draws, or 30 calls of one, consume the same words
        whole = Draws(11).integers(0, 9, size=30)
        rng = Draws(11)
        parts = [int(rng.integers(0, 9)) for _ in range(30)]
        assert whole.tolist() == parts

    def test_matches_a_scalar_rejection_loop(self):
        # the stream is the 64-bit words of random.Random, little end
        # first, masked to the bit length of 242 and kept below 243
        import random
        ref = random.Random(4)
        want = []
        while len(want) < 100:
            word = ref.getrandbits(64) & 0xFF
            if word < 243:
                want.append(word)
        assert Draws(4).integers(0, 243, size=100).tolist() == want

    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError):
            Draws(0).integers(3, 3, size=2)


def test_one_product_scan():
    # every product that is looked up goes through product_index, the
    # only loop of groups.py that sizes chunks with chunk_rows
    tree = ast.parse(Path(groups.__file__).read_text())
    callers = set()
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "chunk_rows" in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None)):
                callers.add(node.name)
    assert callers == {"product_index"}


def test_each_character_law_decided_once():
    # extend_character writes the only character certificate, and every
    # GroupCharacter is built from a table it certified; it extends theta
    # to H1, and theta~ to B1 only for a parabolic Theta, never a
    # character to J1.  heisenberg alone decides theta's J1-stability, and
    # the intertwining scan its own rows
    callers = {"verify_character": set(), "GroupCharacter": set(),
               "_fixed_on_generators": set(), "extend_character": set()}
    for path in sorted(Path(minvec.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", None) \
                        or getattr(call.func, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.stem}.{node.name}")
    assert callers == {
        "verify_character": {"groups.extend_character"},
        "GroupCharacter": {"groups.simple_character",
                           "groups.listed_theta_tilde"},
        "_fixed_on_generators": {"groups.heisenberg",
                                 "groups._first_not_intertwined"},
        "extend_character": {"groups.simple_character",
                             "groups.listed_theta_tilde"}}


def test_no_float_decisions():
    for path in sorted(Path(minvec.__file__).parent.glob("*.py")):
        text = path.read_text()
        for banned in ("np.linalg", "math.log", "float("):
            assert banned not in text, f"{path.name} uses {banned}"


# ---------------------------------------------------------------------------
# the sweep and the sampled convolution in CHUNK_BYTES blocks
# ---------------------------------------------------------------------------

TINY_CHUNK = 1 << 12


@pytest.fixture(scope="module")
def block_n3():
    """p = 2, beta = 2^-1 [[0, 1, 0], [0, 0, 1], [2, 0, 0]], e = 3, j = 2
    (data/datum_n3e3j2p2.json): its sweep lists the 86,016 units of
    GL_3(Z/4)."""
    return prepare_block(build_datum(2, 3, 3, [[0, 1, 0], [0, 0, 1],
                                               [2, 0, 0]], -1))


def report_tuple(rep):
    """A dataclass report as a tuple, its witness as a list."""
    fields = dataclasses.astuple(rep)
    return fields[:-1] + (None if rep.witness is None
                          else rep.witness.tolist(),)


def widened_kpi(kr):
    """K_pi widened by the coset h^-1 K_pi, h = I + E_20, which is no group
    (TestFailingSections::test_offsupport_ok)."""
    kpi = kr.kpi
    h = np.eye(kr.n, dtype=np.int64)
    h[2, 0] = 1

    def member_mask(mats):
        return kpi.member_mask(mats) | \
            kpi.member_mask(h @ mats % kpi.modulus)

    return dataclasses.replace(kr, kpi=FiniteSubgroup(
        "K_pi+coset", kpi.p, kpi.level, kpi.n, membership=member_mask,
        size=kpi.size))


class TestTinyChunkBudget:
    """At a 4 KiB CHUNK_BYTES every stage runs in many row blocks and must
    return exactly its report at the default budget, counts and witness
    included."""

    def test_intertwining_dichotomy(self, block_a, block_b, block_c,
                                    parabolic_kr, monkeypatch):
        cases = [(b.datum, b.bundle, b.simple.theta) for b in
                 [block_a, block_b, block_c] + list(parabolic_kr.blocks)]
        broken = without_coset(block_a.bundle,
                               first_outside_h1(block_a.bundle))[0]
        cases.append((block_a.datum, broken, block_a.simple.theta))
        want = [report_tuple(intertwining_dichotomy(*c)) for c in cases]
        assert [w[3] for w in want] == [True] * 5 + [False]
        monkeypatch.setattr(residues, "CHUNK_BYTES", TINY_CHUNK)
        assert [report_tuple(intertwining_dichotomy(*c))
                for c in cases] == want

    def test_first_not_intertwined(self, block_a, block_b, monkeypatch):
        # the TestIntertwiningKernel stacks and the spot conjugators
        theta = block_a.simple.theta
        rng = Draws(2)
        mats = rng.integers(0, 9, size=(200, 2, 2))
        unit = det_inv_mod(mats, 3, 2)[2]
        cases = [(G, det_inv_mod(G, 3, 2)[1], theta.domain.mats, theta)
                 for G in (np.array([[[1, 1], [3, 1]], [[1, 0], [0, 1]],
                                     [[1, 0], [0, 2]]]),
                           np.concatenate([mats[unit][:30],
                                           block_a.bundle.jcapk.draw(rng,
                                                                     30)]))]
        cases.append(spot_call(block_b, monkeypatch))
        want = [_first_not_intertwined(*c).tolist() for c in cases]
        monkeypatch.setattr(residues, "CHUNK_BYTES", TINY_CHUNK)
        assert [_first_not_intertwined(*c).tolist() for c in cases] == want

    def test_convolve_check(self, parabolic_kr, monkeypatch):
        krs = [parabolic_kr, with_flipped_block(parabolic_kr),
               widened_kpi(parabolic_kr)]
        want = [report_tuple(testfunc.convolve_check(testfunc.make_omega(kr)))
                for kr in krs]
        assert [w[2] and w[4] for w in want] == [True, False, False]
        monkeypatch.setattr(residues, "CHUNK_BYTES", TINY_CHUNK)
        assert [report_tuple(testfunc.convolve_check(testfunc.make_omega(kr)))
                for kr in krs] == want


class TestStageMemory:
    # tracemalloc sees numpy's buffers; see TestTorusMemory for why not
    # ru_maxrss.  Each stage's traced peak exceeds its inputs and output by
    # at most 3 CHUNK_BYTES

    @staticmethod
    def traced(run):
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    def test_sweep(self, block_n3):
        # 86,016 codes and as many coset ids (0.66 MiB each) are the only
        # arrays that span GL_3(Z/4); a stack of its matrices is 5.9 MiB
        blk = block_n3
        rep, peak = self.traced(lambda: intertwining_dichotomy(
            blk.datum, blk.bundle, blk.simple.theta))
        assert (rep.total, rep.intertwining, rep.agree) == (86016, 4096, True)
        assert peak <= 3 * residues.CHUNK_BYTES

    def test_sampled_convolution(self, parabolic_kr):
        # the four draws of 2,000 4x4 matrices are 0.24 MiB each
        tf = testfunc.make_omega(parabolic_kr)
        rep, peak = self.traced(lambda: testfunc._convolve_sampled(
            tf, testfunc.CONVOLVE_SAMPLES, 0))
        assert (rep.support_points_checked, rep.offsupport_points_checked) \
            == (2000, 2000)
        assert peak <= 3 * residues.CHUNK_BYTES
