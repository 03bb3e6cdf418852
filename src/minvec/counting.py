"""Hecke-return lattice counting and the exponent bookkeeping.

S(m, T, cf) is the set of integer matrices with determinant m, entries
bounded by B (the entry-bound proxy for the archimedean Cartan condition),
and reduction mod p^cf inside a fixed torus residue set.  In the deep
congruence regime the set is abelian and its size is controlled by the
localization image bound prod_j P(a_j, n) with P(a, n) = C(n+a-1, n-1).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, DatumInvalid
from .padic import _int_det


@dataclass(frozen=True)
class LatticeQuery:
    n: int
    m: int                       # determinant, coprime to p
    entry_bound: int             # |gamma_ij| <= entry_bound
    p: int
    cf: int                      # congruence exponent
    torus_generators: tuple      # residue matrices mod p^cf

    def __post_init__(self):
        if self.m == 0 or math.gcd(self.m, self.p) != 1:
            raise DatumInvalid("determinant must be nonzero and coprime to p")
        if self.cf < 0 or self.entry_bound < 0:
            raise DatumInvalid("entry bound and congruence exponent must be >= 0")

    @functools.lru_cache(maxsize=32)
    def torus_set(self, budget: int = 1_000_000) -> frozenset:
        """Closure of the generators under product mod p^cf (cached)."""
        mod = self.p ** self.cf
        if mod == 1:
            return frozenset({()})
        gens = [tuple(tuple(int(v) % mod for v in row) for row in g)
                for g in self.torus_generators]
        for g in gens:
            if _int_det([list(r) for r in g]) % self.p == 0:
                raise DatumInvalid("torus residue is not invertible mod p")
        seen = set(gens)
        frontier = list(gens)
        while frontier:
            if len(seen) > budget:
                raise BudgetExceeded("torus closure exceeded budget",
                                     estimate=len(seen))
            nxt = []
            for a in frontier:
                for g in gens:
                    prod = tuple(tuple(sum(a[i][k] * g[k][j] for k in range(self.n))
                                       % mod for j in range(self.n))
                                 for i in range(self.n))
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
        return frozenset(seen)


def regime_threshold(q: LatticeQuery) -> int:
    """Explicit sufficient congruence depth for the abelian property.

    A commutator of two members is 1 + (p^cf / m^2) u with integral u and
    entries bounded by n^3 B^4 / m^2, so p^cf > n^3 B^4 + m^2 forces u = 0.
    """
    return q.n ** 3 * q.entry_bound ** 4 + q.m * q.m


def in_regime(q: LatticeQuery) -> bool:
    return q.p ** q.cf > regime_threshold(q)


@dataclass
class CountReport:
    query: LatticeQuery
    matches: list                      # canonical order
    candidates_scanned: int
    abelian: bool
    commute_witness: tuple | None
    regime_ok: bool
    regime_threshold: int
    tau_image_size: int                # unit-equivalence classes (proxy)
    fiber_measured: int                # largest class
    partition_bound: int               # prod_j P(a_j, n)
    bound_ok: bool                     # tau_image_size <= partition bound
    elapsed_ms: float = field(default=0.0, compare=False)

    @property
    def count(self) -> int:
        return len(self.matches)


def enumerate_S(q: LatticeQuery, budget: int = 5_000_000,
                row_order=None, pruned: bool = True) -> CountReport:
    """All integer matrices with |entries| <= B, det = m, reduction in T.

    Row-by-row search with Hadamard-type determinant pruning; the result is
    independent of the row ordering used for the search (canonical sorted
    output), which row_order exposes for the permutation-stability test.
    """
    t0 = time.perf_counter()
    n, m, B = q.n, q.m, q.entry_bound
    total = (2 * B + 1) ** (n * n)
    if not pruned and total > budget:
        raise BudgetExceeded("flat candidate space exceeds the budget",
                             estimate=total)
    torus = q.torus_set()
    mod = q.p ** q.cf
    order = list(row_order) if row_order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("row_order must be a permutation of the rows")

    row_choices = _bounded_rows(n, B)
    row_sq = [sum(v * v for v in row) for row in row_choices]
    # squared Hadamard bound for the remaining rows, in exact integers
    bound_sq = [(n * B * B) ** r for r in range(n + 1)]
    matches = []
    scanned = 0
    rows_buf = [None] * n

    def rec(k, sq_prod):
        nonlocal scanned
        if pruned and sq_prod * bound_sq[n - k] < m * m:
            return
        if k == n:
            mat = tuple(rows_buf[i] for i in range(n))
            scanned += 1
            if _int_det([list(r) for r in mat]) != m:
                return
            if mod > 1:
                red = tuple(tuple(v % mod for v in row) for row in mat)
                if red not in torus:
                    return
            matches.append(mat)
            return
        ridx = order[k]
        for row, sq in zip(row_choices, row_sq):
            scanned += 1
            if scanned > budget:
                raise BudgetExceeded("enumeration budget exceeded",
                                     estimate=total, partial=len(matches))
            rows_buf[ridx] = row
            if pruned and sq == 0:
                continue
            rec(k + 1, sq_prod * (sq or 1))
        rows_buf[ridx] = None

    rec(0, 1)
    matches.sort()
    abelian, witness = _pairwise_commuting(matches)
    classes = _unit_classes(matches, m, n)
    fiber = max((len(c) for c in classes), default=0)
    bound = tau_bound(factorize(abs(m)), n)
    report = CountReport(
        query=q, matches=matches, candidates_scanned=scanned,
        abelian=abelian, commute_witness=witness,
        regime_ok=in_regime(q), regime_threshold=regime_threshold(q),
        tau_image_size=len(classes), fiber_measured=fiber,
        partition_bound=bound, bound_ok=len(classes) <= bound,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)
    return report


def _bounded_rows(n, B):
    rows = []
    span = range(-B, B + 1)

    def rec(prefix):
        if len(prefix) == n:
            rows.append(tuple(prefix))
            return
        for v in span:
            rec(prefix + [v])

    rec([])
    return rows


def _pairwise_commuting(matches):
    for i in range(len(matches)):
        a = matches[i]
        for b in matches[i + 1:]:
            ab = _mul_int(a, b)
            ba = _mul_int(b, a)
            if ab != ba:
                return False, (a, b)
    return True, None


def _mul_int(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _unit_classes(matches, m, n):
    """Group matches by gamma1^{-1} gamma2 being a two-sided integral unit.

    tau itself (the ideal map into the etale algebra) is not constructed;
    two elements share a tau-image only if their quotient is a unit at every
    prime dividing m, for which integrality of gamma1^{-1} gamma2 and its
    inverse away from denominators prime to m, with determinant +-1, is the
    computable stand-in.
    """
    classes = []
    for g in matches:
        placed = False
        for cls in classes:
            if _unit_equivalent(cls[0], g, m, n):
                cls.append(g)
                placed = True
                break
        if not placed:
            classes.append([g])
    return classes


def _unit_equivalent(a, b, m, n):
    """Whether a^{-1} b is a unit: an integer matrix with integer inverse.

    Both quotients adj(a) b / det(a) and adj(b) a / det(b) must be integral;
    equality of the tau images forces exactly this (units of every
    localization with determinant 1), so classes here can only merge more
    than tau does and their number lower-bounds the tau image size.
    """
    det_a = _int_det([list(r) for r in a])
    det_b = _int_det([list(r) for r in b])
    if abs(det_a) != abs(det_b):
        return False
    for x, y, det in ((a, b, det_a), (b, a, det_b)):
        num = _mul_int(_adjugate_int(x, n), y)
        if any(v % det != 0 for row in num for v in row):
            return False
    return True


def _adjugate_int(a, n):
    from .padic import _adjugate
    return tuple(tuple(r) for r in _adjugate([list(row) for row in a], n))


def abelian_check(report: CountReport):
    """Re-derive the commutativity verdict with the regime condition."""
    return {
        "abelian": report.abelian,
        "witness": report.commute_witness,
        "regime_ok": report.regime_ok,
        "regime_threshold": report.regime_threshold,
        "congruence_depth": report.query.p ** report.query.cf,
    }


def partition_count(a: int, n: int) -> int:
    """Number of ordered n-tuples of nonnegative integers summing to a."""
    if a < 0 or n < 1:
        raise ValueError("need a >= 0 and n >= 1")
    return math.comb(n + a - 1, n - 1)


def partition_count_oracle(a: int, n: int) -> int:
    """Independent tuple-enumeration count (small inputs only)."""
    if n == 1:
        return 1

    def rec(remaining, slots):
        if slots == 1:
            return 1
        return sum(rec(remaining - first, slots - 1)
                   for first in range(remaining + 1))

    return rec(a, n)


def factorize(m: int):
    """Prime factorization [(l, a), ...] by trial division."""
    if m < 1:
        raise ValueError("need a positive integer")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def tau_bound(factorization, n: int) -> int:
    """prod_j P(a_j, n) over the prime factorization of the determinant."""
    bound = 1
    for _, a in factorization:
        bound *= partition_count(a, n)
    return bound


@dataclass
class ExponentReport:
    n: int
    bound_exponent: Fraction            # (n-1)/4 - 1/(8 n^3)
    amplifier_exponent_coeff: Fraction  # L_0 = p^(coeff * cf)
    d_pi_exponent: Fraction             # log_C d_pi = -(n-1)/2
    l0_exponent: Fraction               # log_C L_0 = 1/(4 n^3)
    assembled: Fraction                 # -(1/2)(d_pi exp + L_0 exp)
    assembled_matches: bool
    penultimate: Fraction               # c(n^2-n)/4 - cf/(4n^2), in C units
    penultimate_matches: bool
    flipped_variant: Fraction           # the sign-flipped assembly
    flipped_matches: bool


def amplifier_exponent(n: int) -> ExponentReport:
    """The closed-form sup-norm exponent with a full sign audit.

    Exponents are in conductor units (C = p^(n c)): the test function volume
    contributes -(n-1)/2, the amplifier length L_0 = p^(cf/(2n^2)) with
    cf ~ c/2 contributes 1/(4 n^3), and |F| is bounded by (d_pi L_0)^(-1/2).
    The audit evaluates the assembly both ways and against the closed form,
    flagging the variant in which the amplifier term enters with the
    opposite sign.
    """
    if n < 2:
        raise DatumInvalid("n >= 2 required")
    closed = Fraction(n - 1, 4) - Fraction(1, 8 * n ** 3)
    dpi_exp = Fraction(-(n - 1), 2)
    l0_exp = Fraction(1, 4 * n ** 3)
    assembled = -Fraction(1, 2) * (dpi_exp + l0_exp)
    # penultimate display, converted to conductor units: the p-exponent
    # c(n^2-n)/4 - cf/(4 n^2) with cf = c/2, divided by n c
    penultimate = (Fraction(n * n - n, 4) - Fraction(1, 8 * n * n)) / n
    flipped = -Fraction(1, 2) * (dpi_exp - l0_exp)
    return ExponentReport(
        n=n,
        bound_exponent=closed,
        amplifier_exponent_coeff=Fraction(1, 2 * n * n),
        d_pi_exponent=dpi_exp,
        l0_exponent=l0_exp,
        assembled=assembled,
        assembled_matches=assembled == closed,
        penultimate=penultimate,
        penultimate_matches=penultimate == closed,
        flipped_variant=flipped,
        flipped_matches=flipped == closed,
    )
