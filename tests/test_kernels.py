"""Differential tests of the residue kernels against slow references."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minvec
from minvec.errors import PrecisionLoss
from minvec.groups import _first_not_intertwined, enumerate_h1, intertwines
from minvec.orders import mat_mul_int, min_poly_fp
from minvec.padic import MatrixApprox
from minvec import residues
from minvec.residues import det_inv_mod, pack

from oracles import intertwines_oracle, leibniz_det, mat_inv_mod


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


class TestIntertwiningKernel:
    @pytest.mark.parametrize("name", ["prime", "diag(1,3)", "diag(3,1)",
                                      "1+Pi", "I"])
    def test_matches_matrixapprox_loop(self, block_a, name):
        d = block_a.datum
        g = {"prime": block_a.bundle.prime_element,
             "diag(1,3)": MatrixApprox.from_exact(d.ctx, [[1, 0], [0, 3]]),
             "diag(3,1)": MatrixApprox.from_exact(d.ctx, [[3, 0], [0, 1]]),
             "1+Pi": MatrixApprox.from_exact(d.ctx, [[1, 1], [3, 1]]),
             "I": MatrixApprox.identity(d.ctx, 2)}[name]
        theta = block_a.simple.theta
        ok, witness = intertwines(g, theta, d, block_a.bundle)
        want_ok, want_witness = intertwines_oracle(g, theta, d)
        assert ok == want_ok
        assert (witness is None) == (want_witness is None)
        if witness is not None:
            assert np.array_equal(witness, want_witness)

    def test_non_integral_conjugates_are_skipped(self, block_a):
        # diag(1, 3) x diag(1, 3)^-1 has x_12 / 3 in its corner, so x with
        # 3 not dividing x_12 lie outside the overlap and are never witnesses
        xs = enumerate_h1(block_a.datum, 3)
        xs = xs[xs[:, 0, 1] % 3 != 0]
        G, Gi = np.diag([1, 3]), np.diag([3, 1])
        assert _first_not_intertwined(G, Gi, -1, xs,
                                      block_a.simple.theta) is None

    def test_stack_matches_reference_in_any_chunking(self, block_a,
                                                      monkeypatch):
        # 30 random units of GL_2(Z/9) and 30 elements of J cap K
        rng = np.random.default_rng(2)
        mats = rng.integers(0, 9, size=(200, 2, 2))
        unit = det_inv_mod(mats, 3, 2)[2]
        jk = block_a.bundle.jcapk
        G = np.concatenate([mats[unit][:30],
                            jk.mats[rng.integers(0, jk.size, size=30)]])
        Gi = det_inv_mod(G, 3, 2)[1]
        theta = block_a.simple.theta
        xs = theta.domain.mats
        want = [first_bad_reference(g, gi, xs, theta) for g, gi in zip(G, Gi)]
        assert -1 in want and any(i >= 0 for i in want)
        assert _first_not_intertwined(G, Gi, 0, xs, theta).tolist() == want
        monkeypatch.setattr(residues, "CHUNK_BYTES", 1)
        assert _first_not_intertwined(G, Gi, 0, xs, theta).tolist() == want

    def test_short_inverse_is_a_precision_loss(self, block_a):
        # diag(1, 3) known mod 3^2 only: its inverse keeps one digit, and
        # the shift s = -1 needs L - s = 3
        d = block_a.datum
        g = MatrixApprox(d.ctx, [[1, 0], [0, 3]], prec=2)
        with pytest.raises(PrecisionLoss):
            intertwines(g, block_a.simple.theta, d, block_a.bundle)


def first_bad_reference(g, ginv, xs, theta):
    """Index of the first x with theta(x) != theta(g x g^-1) where the
    conjugate lies in H1, by one lookup per element; -1 if none."""
    h1 = theta.domain
    for i, x in enumerate(xs):
        conj = g @ x @ ginv % h1.modulus
        c = h1.index_of_codes(pack(conj[None], h1.p, h1.level))[0]
        xi = h1.index_of_codes(pack(x[None], h1.p, h1.level))[0]
        if c >= 0 and theta.nums[c] != theta.nums[xi]:
            return i
    return -1


def test_no_float_decisions():
    for path in sorted(Path(minvec.__file__).parent.glob("*.py")):
        text = path.read_text()
        for banned in ("np.linalg", "math.log", "float("):
            assert banned not in text, f"{path.name} uses {banned}"
