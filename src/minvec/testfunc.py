"""The local test function, its exact volume, convolution, and concentration.

omega is Theta on K_pi and zero elsewhere, with Haar measure normalized so
the standard maximal compact K = GL_n(O) has volume 1.  All volumes are
exact rationals computed from element counts mod p^N; the convolution
identity omega * omega^* = d_pi omega is checked by exact integer
congruences on the character's exponents, with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstructionFailure
from .groups import KpiResult, gl_order
from .padic import vp
from .residues import Draws, det_inv_mod, row_blocks


def compare_with_p_power(x: Fraction, p: int, q: Fraction) -> int:
    """Sign of x - p^q for positive rational x and rational q, exactly."""
    den = q.denominator
    num = q.numerator
    left = Fraction(x.numerator ** den, x.denominator ** den)
    right = Fraction(p ** num) if num >= 0 else Fraction(1, p ** (-num))
    if left == right:
        return 0
    return 1 if left > right else -1


@dataclass
class TestFunction:
    """omega: Theta on the support subgroup, zero elsewhere."""

    kpi_result: KpiResult


def make_omega(kpi_result: KpiResult) -> TestFunction:
    return TestFunction(kpi_result)


@dataclass
class VolumeReport:
    d_pi: Fraction
    target_exponent: Fraction      # c (n^2 - n) / 2
    valuation_of_inverse: int      # v_p(1/d_pi)
    bounded: bool                  # |log_p(1/d_pi) - target| <= n^2


def volume(kpi_result: KpiResult) -> VolumeReport:
    """d_pi = Vol(K_pi) = |K_pi mod p^N| / |K mod p^N| as an exact rational,
    with the exact-power comparison against p^{-c(n^2-n)/2}."""
    kpi = kpi_result.kpi
    n = kpi_result.n
    p = kpi.p
    d_pi = Fraction(kpi.size, gl_order(n, p, kpi.level))
    c = Fraction(kpi_result.c)
    target = c * (n * n - n) / 2
    inv = 1 / d_pi
    margin = n * n
    lo = compare_with_p_power(inv, p, target - margin)
    hi = compare_with_p_power(inv, p, target + margin)
    bounded = lo >= 0 and hi <= 0
    val = vp(inv.numerator, p) - vp(inv.denominator, p)
    return VolumeReport(d_pi, target, val, bounded)


@dataclass
class ConvolutionReport:
    mode: str
    support_points_checked: int
    support_ok: bool
    offsupport_points_checked: int
    offsupport_ok: bool
    witness: object


CONVOLVE_SAMPLES = 2000


def convolve_check(tf: TestFunction, seed: int = 0) -> ConvolutionReport:
    """Verify omega * omega^* = d_pi omega exactly.

    Enumerated supports are decided on every pair by the certificate that
    extend_character wrote for Theta on B^1 (H^1 at odd depth): it proves
    the support is a group, which settles all points outside it at once,
    and that Theta is multiplicative, which is the termwise law for every
    pair; the report's flags are then True and its off-support count 0.
    Membership-only supports are checked on CONVOLVE_SAMPLES seeded pairs
    on the support and as many off it, term by term: support_ok fails at
    the first pair whose g^-1 x leaves the support or breaks the law, and
    offsupport_ok at the first g off it that carries a point into it.  The
    pairs are drawn whole, and their inverses, products, membership and
    exponents are computed one row block at a time, within CHUNK_BYTES.
    """
    kpi = tf.kpi_result.kpi
    if kpi.codes is not None:
        return _convolve_full(tf)
    return _convolve_sampled(tf, CONVOLVE_SAMPLES, seed)


def _convolve_full(tf):
    """The law on an enumerated support, as Theta's certificate proved it.

    Over the group K_pi the termwise law Theta(x) - Theta(g^-1 x) = Theta(g)
    for every pair (g, x) of the support is multiplicativity itself, and
    g^-1 K_pi meets K_pi exactly when g lies in K_pi, so nothing is
    evaluated again and no point off the support is drawn."""
    kpi = tf.kpi_result.kpi
    return ConvolutionReport("full", kpi.size, True, 0, True, None)


def _convolve_sampled(tf, samples, seed):
    """Each half draws its pairs whole, in the order of one Draws stream,
    and decides them one row block at a time (_row_bytes).  The draws of
    the first half are freed before the second half draws."""
    kr = tf.kpi_result
    rng = Draws(seed)
    checked, ok, witness = _support_half(kr, rng, samples)
    off_checked, off_ok, off_witness = _offsupport_half(kr, rng, samples)
    return ConvolutionReport("sampled", checked, ok, off_checked, off_ok,
                             witness if off_ok else off_witness)


def _row_bytes(kr):
    """Bytes of every array that a row block makes, summed over its steps:
    about 32 n x n stacks a row, of which det_inv_mod's column steps make
    19, the inverse and product 3, membership 4 and the exponents 6.  The
    sum, not only the largest step, is held to CHUNK_BYTES, so that a block
    raises the heap by at most that much wherever the arrays land."""
    return 8 * 32 * kr.n * kr.n


def _support_half(kr, rng, samples):
    """On the support: g^-1 x lies in K_pi and Theta(x) - Theta(g^-1 x) =
    Theta(g); checked counts the pairs before the first failure."""
    kpi, theta, mod = kr.kpi, kr.theta, kr.kpi.p ** kr.level
    t = theta.nums_of_residues
    gs, xs = kr.sampler(rng, samples), kr.sampler(rng, samples)
    law = np.empty(samples, dtype=bool)
    for blk in row_blocks(samples, _row_bytes(kr)):
        g, x = gs[blk], xs[blk]
        gx = det_inv_mod(g, kpi.p, kr.level)[1] @ x % mod
        inside = law[blk] = kpi.member_mask(gx)
        law[blk][inside] = (t(x[inside]) - t(gx[inside]) - t(g[inside])) \
            % theta.denom == 0
    if law.all():
        return samples, True, None
    checked = int(np.argmin(law))
    return checked, False, gs[checked].copy()


def _offsupport_half(kr, rng, samples):
    """Off the support: a unit entry in an off-diagonal block breaks its
    p-divisibility, and then g^-1 x must leave K_pi."""
    kpi, mod = kr.kpi, kr.kpi.p ** kr.level
    starts = np.cumsum([0] + [b.datum.order.n for b in kr.blocks])
    nb = len(kr.blocks)
    corners = np.array([(starts[i], starts[k]) for i in range(nb)
                        for k in range(nb) if i != k])
    gs = kr.sampler(rng, samples)
    pick = corners[rng.integers(0, len(corners), size=samples)]
    gs[np.arange(samples), pick[:, 0], pick[:, 1]] = 1
    outside = np.empty(samples, dtype=bool)
    for blk in row_blocks(samples, _row_bytes(kr)):
        outside[blk] = ~kpi.member_mask(gs[blk])
    gs = gs[outside]
    xs = kr.sampler(rng, len(gs))
    lands = np.empty(len(gs), dtype=bool)
    for blk in row_blocks(len(gs), _row_bytes(kr)):
        lands[blk] = kpi.member_mask(
            det_inv_mod(gs[blk], kpi.p, kr.level)[1] @ xs[blk] % mod)
    if not lands.any():
        return len(gs), True, None
    off_checked = int(np.argmax(lands))
    return off_checked, False, gs[off_checked].copy()


@dataclass
class ConcentrationReport:
    cfrak: int
    threshold: int
    mode: str


def concentration_check(tf: TestFunction) -> ConcentrationReport:
    """Every x in the support has l in U_L(1) with x l^{-1} = 1 mod p^cfrak.

    build_Kpi recorded the threshold t from the orders alone: x - l lies in
    B^ceil(j/2) blockwise, and off the diagonal in the p-powers of K_pi, for
    the l of x's class, and that is inside p^t M_n(O).  B^k is a two-sided
    ideal, so x l^{-1} = 1 + (x - l) l^{-1} = 1 mod p^t, and cfrak <= t
    proves the law for every x without listing the support.
    """
    kpi_result = tf.kpi_result
    cf, t = kpi_result.cfrak, kpi_result.threshold
    if t < cf:
        raise ConstructionFailure(
            f"the support is certified inside U_L(1) only mod p^{t}, "
            f"not mod p^cfrak = p^{cf}")
    return ConcentrationReport(cf, t, "certified")


@dataclass
class DepthReport:
    depth: int
    c: object                      # Fraction or int
    cfrak: int
    conductor_exponent: Fraction   # n * c


def depth_report(kpi_result: KpiResult) -> DepthReport:
    """The depth, c, cfrak and conductor exponent n c of K_pi.

    |cfrak - c/2| <= 1 holds by arithmetic, so nothing decides it.  A
    block of c_i = j/e has c_i/2 - 1 < floor((j+1)/2e) <= c_i/2 + 1/2;
    cfrak is their least, and c is c_i for one block, or for several an
    integer with c - 1 <= c_i <= c, where 2 cfrak - c > -3 is an integer.
    """
    depth = max(b.datum.j for b in kpi_result.blocks)
    return DepthReport(depth, kpi_result.c, kpi_result.cfrak,
                       kpi_result.n * Fraction(kpi_result.c))
