"""Principal hereditary orders, radical filtrations, and minimal elements.

The standard order with period e in M_n has block shape: block (a,b)
(1-indexed, blocks of size m = n/e) consists of matrices with entries of
valuation >= ceil((i + a - b)/e) in the i-th radical power B^i.  This closed
form reproduces the block pictures for i = 0 (the order itself) and i = 1
(the Jacobson radical) and satisfies B^e = p * B^0.

The semi-valuation v_A(x) is the largest i with x in B^i.  An induction
datum is a pair (order, beta) with v_A(beta) = -j < 0 generating a degree-n
field.  beta is held exactly as p^s * B with B an integer matrix, and every
invariant below (v_A, the integral generator, the field certificate, the
normalizer check, k0) is computed from the integers of B and s.
Minimality of beta is the coprimality-plus-residue-generation test,
equivalent to k0(beta, A) = v_A(beta), and k0 itself is computed by an
exhaustive leading-term search over the finite quotient A / B^(j+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DatumInvalid
from .padic import _adjugate, _int_det, mat_mul_int, vp


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class HereditaryOrder:
    """Standard principal hereditary order: dimension n, period e | n."""

    n: int
    e: int

    def __post_init__(self):
        if self.e < 1 or self.n < 1:
            raise DatumInvalid("n and e must be positive")
        if self.n % self.e != 0:
            raise DatumInvalid("e must divide n")

    @property
    def m(self) -> int:
        return self.n // self.e

    def block(self, r: int, c: int):
        """1-indexed block coordinates of entry (r, c)."""
        return r // self.m + 1, c // self.m + 1

    def entry_threshold(self, i: int, r: int, c: int) -> int:
        """Minimal entry valuation at (r, c) for membership in B^i."""
        a, b = self.block(r, c)
        return _ceil_div(i + a - b, self.e)

    def entry_grade(self, r: int, c: int, val: int) -> int:
        """Largest i with p^val * E_rc in B^i."""
        a, b = self.block(r, c)
        return self.e * val + b - a

    def graded_positions(self, t: int):
        """Entries (r, c, power) with p^power * E_rc of grade exactly t >= 0."""
        out = []
        for r in range(self.n):
            for c in range(self.n):
                a, b = self.block(r, c)
                num = t + a - b
                if num % self.e == 0 and num // self.e >= 0:
                    out.append((r, c, num // self.e))
        return out


@dataclass(frozen=True)
class ApproximationReport:
    """Outcome of the two-sided comparison of B^i against powers of p*M_n."""

    holds: bool


def approximation_report(o: HereditaryOrder, i: int) -> ApproximationReport:
    """Verify p^M M_n < B^i < p^(floor(i/e)) M_n on elementary spanning sets:
    p^lower E_rc of B_0^lower must lie in B^i, and p^t E_rc of B^i, t the
    entry threshold, in B_0^upper."""
    lower = _ceil_div(i - 1, o.e) + 1
    upper = i // o.e
    return ApproximationReport(all(
        upper <= o.entry_threshold(i, r, c) <= lower
        for r in range(o.n) for c in range(o.n)))


# -- integer matrix helpers for the exact searches ---------------------------

def mat_sub_int(a, b):
    n = len(a)
    return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]


def v_A(rows, o: HereditaryOrder, p: int):
    """The largest i with the integer matrix rows in B^i; None for the zero
    matrix.  p^s * rows has v_A(rows) + e * s."""
    best = None
    for r in range(o.n):
        for c in range(o.n):
            v = rows[r][c]
            if v == 0:
                continue
            g = o.entry_grade(r, c, vp(v, p))
            best = g if best is None else min(best, g)
    return best


# -- polynomial helpers over F_p and Z ---------------------------------------

def _poly_divmod_fp(num, den, p):
    num = list(num)
    d = len(den) - 1
    inv = pow(den[-1], -1, p)
    quo = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        coef = num[i] * inv % p
        quo[i - d] = coef
        for k in range(d + 1):
            num[i - d + k] = (num[i - d + k] - coef * den[k]) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return quo, num


def poly_irreducible_fp(coeffs, p) -> bool:
    """Irreducibility of a monic polynomial over F_p by trial division."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # trial divisors: all monic polynomials of degree 1 .. deg//2
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            den = []
            x = code
            for _ in range(d):
                den.append(x % p)
                x //= p
            den.append(1)
            _, rem = _poly_divmod_fp(coeffs, den, p)
            if len(rem) == 1 and rem[0] % p == 0:
                return False
    return True


def fp_reduce(vec, basis, p):
    """Reduce vec mod p against an echelon basis: vectors with distinct
    leading (first nonzero) positions, each zero at the leading positions of
    the ones before it.  Returns (residual, coeffs) with vec = residual +
    sum coeffs[i] basis[i] mod p; the residual is zero iff vec lies in the
    span, and otherwise may extend the basis."""
    residual = [v % p for v in vec]
    coeffs = []
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        f = residual[lead] * pow(b[lead], -1, p) % p
        residual = [(x - f * y) % p for x, y in zip(residual, b)]
        coeffs.append(f)
    return residual, coeffs


def min_poly_fp(rows, p):
    """Monic minimal polynomial over F_p of a square matrix mod p."""
    n = len(rows)
    basis = []   # reduced powers of the matrix
    combos = []  # each reduced power as a combination of I, A, A^2, ...
    cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n + 1):   # Cayley-Hamilton: degree at most n
        residual, coeffs = fp_reduce([v for row in cur for v in row], basis, p)
        combo = [0] * k + [1]
        for f, c in zip(coeffs, combos):
            for i, ci in enumerate(c):
                combo[i] = (combo[i] - f * ci) % p
        if not any(residual):
            return combo
        basis.append(residual)
        combos.append(combo)
        cur = [[v % p for v in row] for row in mat_mul_int(cur, rows)]


def charpoly_int(rows):
    """Characteristic polynomial of an integer matrix (Faddeev-LeVerrier).

    Returns [c_0, ..., c_n] with det(xI - A) = sum c_i x^i, all integers.
    """
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    M = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        M = mat_mul_int(rows, M)
        for i in range(n):
            M[i][i] += c
        M_rows = mat_mul_int(rows, M)
        tr = sum(M_rows[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        coeffs[n - k] = c
        M = [row[:] for row in M]
    return coeffs


def newton_slope_denominator(coeffs, p):
    """Denominator of the slope if the Newton polygon is a single segment.

    coeffs = [c_0, ..., c_n] monic with c_0 != 0.  Returns the denominator of
    v_p(c_0)/n in lowest terms when every interior point lies on or above the
    segment from (0, v_p(c_0)) to (n, 0); otherwise None.
    """
    n = len(coeffs) - 1
    if coeffs[0] == 0:
        return None
    v0 = vp(coeffs[0], p)
    for i in range(1, n):
        if coeffs[i] == 0:
            continue
        # need v_p(c_i) >= v0 * (n - i) / n
        if n * vp(coeffs[i], p) < v0 * (n - i):
            return None
    g = math.gcd(v0, n)
    return n // g


@dataclass
class FieldCertificate:
    """Evidence that F[beta] is a field of degree n with e_(L/F) = e."""

    slope_denominator: int
    residue_minpoly: list
    residue_degree: int
    residue_irreducible: bool

    @property
    def certified(self) -> bool:
        return self.residue_irreducible


def scaled_integral(rows, p: int, k: int):
    """p^k * rows as integer rows, or None when it is not integral."""
    if k >= 0:
        return [[v * p ** k for v in row] for row in rows]
    q = p ** -k
    if any(v % q for row in rows for v in row):
        return None
    return [[v // q for v in row] for row in rows]


@dataclass(eq=False)
class InductionDatum:
    """A pair (order, beta) with beta = p^beta_scale * beta_rows exactly,
    v_A(beta) = -j < 0, and its derived invariants."""

    order: HereditaryOrder
    p: int
    beta_rows: list
    beta_scale: int
    j: int
    beta_integral: list     # p^s0 * beta as integer rows
    field_cert: FieldCertificate | None
    normalizes: bool

    @property
    def s0(self) -> int:
        return _ceil_div(self.j, self.order.e)

    @property
    def normalised_depth(self) -> Fraction:
        return Fraction(self.j, self.order.e)

    # convenience levels used by the group-side modules
    @property
    def group_level(self) -> int:
        """Digits needed so subgroup images mod p^level are faithful."""
        return self.s0 + 1

    @property
    def field_certified(self) -> bool:
        return self.field_cert is not None and self.field_cert.certified

    @classmethod
    def build(cls, order, p, rows, scale=0, strict=True):
        """Validate and construct the datum beta = p^scale * rows.

        strict=True requires the field certificate (degree n, ramification
        index e) and the normalizer check to pass; strict=False constructs a
        flagged datum for degenerate elements so that the coprimality clause
        of the minimality test can still be evaluated on them.
        """
        if len(rows) != order.n or any(len(r) != order.n for r in rows):
            raise DatumInvalid("beta dimension does not match the order")
        g = v_A(rows, order, p)
        if g is None:
            raise DatumInvalid("beta must be nonzero")
        j = -(g + order.e * scale)
        if j <= 0:
            raise DatumInvalid(f"v_A(beta) = {-j} must be negative")
        bi = scaled_integral(rows, p, _ceil_div(j, order.e) + scale)
        if bi is None:
            raise DatumInvalid("p^ceil(j/e) * beta is not integral")
        cert = _field_certificate(order, p, rows, scale, j, bi)
        normalizes = _normalizer_check(order, p, rows)
        if strict:
            if cert is None or not cert.certified:
                if math.gcd(j, order.e) == 1:
                    raise DatumInvalid(
                        "F[beta] could not be certified as a degree-n field")
                raise DatumInvalid(
                    "beta fails the coprimality clause and F[beta] is not "
                    "certified; construct with strict=False to inspect it")
            if not normalizes:
                raise DatumInvalid("L* does not normalize the order")
        return cls(order, p, [list(r) for r in rows], scale, j, bi, cert,
                   normalizes)


def _field_certificate(order, p, rows, scale, j, beta_integral):
    """Unified two-part certificate.

    (1) the Newton polygon of the characteristic polynomial of p^s0 * beta is
        pure of slope with denominator exactly e, forcing e | deg of every
        irreducible factor over Q_p;
    (2) the reduction of gamma = p^j beta^e = p^(j + e*scale) * rows^e has an
        m x m diagonal block whose minimal polynomial over F_p is irreducible
        of degree f = n/e, forcing the residue degree.
    Together these certify [F[beta] : F] = e * f = n.  Inconclusive data
    (for example non-pure polygons) return None.
    """
    denom = newton_slope_denominator(charpoly_int(beta_integral), p)
    if denom is None or denom != order.e:
        return None
    # residue part: gamma must be integral of grade 0
    power = [[int(r == c) for c in range(order.n)] for r in range(order.n)]
    for _ in range(order.e):
        power = mat_mul_int(power, rows)
    gamma = scaled_integral(power, p, j + order.e * scale)
    if gamma is None or v_A(gamma, order, p) != 0:
        return None
    m = order.m
    block = [[gamma[r][c] % p for c in range(m)] for r in range(m)]
    mp = min_poly_fp(block, p)
    deg = len(mp) - 1
    irred = deg == m and poly_irreducible_fp(mp, p)
    return FieldCertificate(denom, mp, deg, irred)


def _normalizer_check(order, p, rows) -> bool:
    """Instance check that conjugation by beta preserves every grade.

    beta E beta^-1 = B E adj(B) / det(B) for beta = p^s * B, so its grade is
    v_A(B E adj B) - e * v_p(det B); a singular B normalizes nothing.
    """
    det = _int_det(rows)
    if det == 0:
        return False
    shift = order.e * vp(det, p)
    adj = _adjugate(rows, order.n)
    for t in range(order.e):
        for (r, c, power) in order.graded_positions(t):
            # B (p^power E_rc) adj B: column r of B times row c of adj B
            conj = [[rows[a][r] * p ** power * adj[c][b]
                     for b in range(order.n)] for a in range(order.n)]
            if v_A(conj, order, p) - shift != t:
                return False
    return True


# -- the k0 search ------------------------------------------------------------

@dataclass
class K0Result:
    value: int
    capped: bool
    nodes: int


def _grade0_projection(rows, o: HereditaryOrder, p: int, pos0):
    """Coefficient vector of the grade-0 part of an integral matrix."""
    out = []
    for (r, c, power) in pos0:
        v = rows[r][c]
        out.append(v // p ** power % p)
    return tuple(out)


def k0(d: InductionDatum, budget: int = 500_000) -> K0Result:
    """k0(beta, A): the largest k admitting x in A, outside B + O_L, with
    beta x - x beta in B^k.

    Exhaustive search over A / B^(j+2) organized by graded leading terms:
    a partial sum over grades 0..t is explored further only while the
    commutator condition still holds, which covers every coset of the flat
    quotient without enumerating it.  Values are capped at j + 1 (deeper
    cancellation cannot occur for alpha_beta against B^(j+2)).
    """
    o, p, j = d.order, d.p, d.j
    e, n, s0 = o.e, o.n, d.s0
    Bt = d.beta_integral
    pos = [o.graded_positions(t) for t in range(2 * j + 1)]
    pos0 = pos[0]

    # image of O_L in A/B: an echelon basis of the span of the grade-0
    # projections of 1, b', b'^2, ...
    kbar = []
    cur = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    for _ in range(n):
        residual, _ = fp_reduce(_grade0_projection(cur, o, p, pos0), kbar, p)
        if any(residual):
            kbar.append(residual)
        cur = mat_mul_int(cur, Bt)

    def commutator_grade(rows):
        com = mat_sub_int(mat_mul_int(Bt, rows), mat_mul_int(rows, Bt))
        return v_A(com, o, p)   # None means exactly zero

    def valid(rows, depth):
        g = commutator_grade(rows)
        if g is None:
            return True
        # alpha(x) = p^{-s0}(Bt x - x Bt): v_A = g - e*s0
        return g - e * s0 >= depth + 1 - j

    cap_depth = 2 * j
    nodes = 0
    best_depth = -1

    def layer_elements(t):
        for combo in _coeff_tuples(len(pos[t]), p):
            if t == 0 and not any(fp_reduce(combo, kbar, p)[0]):
                continue
            ent = [[0] * n for _ in range(n)]
            for (r, c, power), coef in zip(pos[t], combo):
                ent[r][c] = coef * p ** power
            yield ent

    class _Capped(Exception):
        pass

    def dfs(rows, depth):
        nonlocal nodes, best_depth
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("k0 search budget exceeded", estimate=budget)
        if not valid(rows, depth):
            return
        best_depth = max(best_depth, depth)
        if depth == cap_depth:
            raise _Capped
        for layer in layer_elements(depth + 1):
            nxt = [[rows[i][k] + layer[i][k] for k in range(n)] for i in range(n)]
            dfs(nxt, depth + 1)

    capped = False
    try:
        for x0 in layer_elements(0):
            dfs(x0, 0)
    except _Capped:
        capped = True
        best_depth = cap_depth
    value = -j + best_depth + 1
    return K0Result(value, capped, nodes)


def _coeff_tuples(k, p):
    combo = [0] * k
    while True:
        yield tuple(combo)
        i = 0
        while i < k:
            combo[i] += 1
            if combo[i] < p:
                break
            combo[i] = 0
            i += 1
        else:
            return


def is_minimal(d: InductionDatum) -> bool:
    """Coprimality of v_L(beta) with e plus residue generation of k_L/k_F."""
    if math.gcd(d.j, d.order.e) != 1:
        return False
    if not d.field_certified:
        raise DatumInvalid("F[beta] is not a certified degree-n field")
    cert = d.field_cert
    f = d.order.n // d.order.e
    return cert.residue_degree == f and cert.residue_irreducible
