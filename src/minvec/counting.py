"""Hecke-return lattice counting and the exponent bookkeeping.

S(m, T, cf) is the set of integer matrices with determinant m, entries
bounded by B (the entry-bound proxy for the archimedean Cartan condition),
and reduction mod p^cf inside a fixed torus residue set.  In the deep
congruence regime the set is abelian and its size is controlled by the
localization image bound prod_j P(a_j, n) with P(a, n) = C(n+a-1, n-1).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, DatumInvalid
from .padic import _adjugate, _int_det, mat_mul_int
from .residues import (chunk_rows, contains_codes, fits_packing, matrix_keys,
                       pack, unique_in_place, unpack)


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
    def torus_set(self, budget: int = 1_000_000) -> np.ndarray:
        """Closure of I and the generators under product mod p^cf (cached).

        Elements are kept as sorted codes (_codes: residues.pack, or
        residues.matrix_keys where the packing does not fit int64).  The
        seed is the product of the generators' cyclic subgroups: for each
        generator g the set S grows to S g^0 ... S g^(m-1), with m the
        least exponent such that g^m lies in S, the powers found by
        doubling.  A breadth-first loop then multiplies its frontier, first
        the whole seed, by each generator in turn and merges the products
        not yet known.  On commuting generators its first round finds
        nothing new, which certifies that S is the closure.  Each product
        round (_distinct) decodes its codes one residues.chunk_rows chunk
        at a time and writes the product codes into one array, sorted in
        place; membership goes through residues.contains_codes.  So the
        working memory is the result, one product-code array per round and
        CHUNK_BYTES of temporaries, and a round holds at most 2 budget
        codes plus one chunk before BudgetExceeded.  Returns the sorted,
        read-only code array; without generators the torus is {I}.
        BudgetExceeded is raised exactly when more than `budget` elements
        are distinct.
        """
        n, mod = self.n, self.p ** self.cf
        if n * (mod - 1) ** 2 >= 2 ** 63:
            raise BudgetExceeded(f"torus products mod {mod} overflow int64")
        gens = np.array([[[int(v) % mod for v in row] for row in g]
                         for g in self.torus_generators],
                        dtype=np.int64).reshape(-1, n, n)
        if mod > 1 and any(_int_det(g.tolist()) % self.p == 0 for g in gens):
            raise DatumInvalid("torus residue is not invertible mod p")
        known = self._codes(np.eye(n, dtype=np.int64)[None] % mod)
        for g in gens:
            known = self._distinct(known, self._powers_outside(g, known,
                                                               budget), budget)
        frontier = known
        while len(frontier):
            fresh = []
            for g in gens:
                prods = self._distinct(frontier, g[None], budget)
                prods = prods[~contains_codes(known, prods)]
                if len(prods):
                    fresh.append(prods)
                    known = np.concatenate([known, prods])
                    # two sorted runs: the stable sort merges them in one pass
                    known.sort(kind="stable")
                    _check_budget(len(known), budget)
            frontier = np.concatenate([known[:0], *fresh])
            frontier.sort()
        known.flags.writeable = False
        return known

    def _powers_outside(self, g, known, budget):
        """g^0 ... g^(m-1), m the least exponent with g^m among the sorted
        codes `known`, by doubling: one stacked product per step."""
        mod = self.p ** self.cf
        powers, step = np.eye(self.n, dtype=np.int64)[None] % mod, g
        while True:
            more = powers @ step % mod
            hit = np.flatnonzero(contains_codes(known, self._codes(more)))
            if len(hit):
                return np.concatenate([powers, more[:hit[0]]])
            # no power g^i with 0 < i < 2 len(powers) is known, so all of
            # g^0 ... g^(2 len(powers) - 1) are distinct members
            powers = np.concatenate([powers, more])
            _check_budget(len(powers), budget)
            step = step @ step % mod

    def _distinct(self, codes, right, budget):
        """Sorted distinct codes of the products a b, a decoded from `codes`
        and b taken from the stack `right`, both one chunk at a time so that
        one block of products stays within CHUNK_BYTES of temporaries, and
        written into one array.  They are sorted and deduplicated in place
        whenever more than twice `budget` are held, so no product count
        before deduplication raises, and BudgetExceeded is raised once
        more than `budget` are distinct."""
        n, mod = self.n, self.p ** self.cf
        width = min(len(right), chunk_rows(4 * 8 * n * n))
        step = chunk_rows(4 * 8 * n * n * width)
        out = np.empty(min(len(codes) * len(right),
                           2 * budget + step * width), dtype=codes.dtype)
        held = 0
        for lo in range(0, len(codes), step):
            left = self._decode(codes[lo:lo + step])[:, None]
            for r in range(0, len(right), width):
                prods = left @ right[r:r + width] % mod
                part = self._codes(prods.reshape(-1, n, n))
                out[held:held + len(part)] = part
                held += len(part)
                if held > 2 * budget:
                    held = unique_in_place(out[:held])
                    _check_budget(held, budget)
        held = unique_in_place(out[:held])
        _check_budget(held, budget)
        return out if held == len(out) else out[:held].copy()

    def _codes(self, mats) -> np.ndarray:
        """Sortable codes of a residue stack mod p^cf: residues.pack where
        it fits int64, else residues.matrix_keys."""
        if fits_packing(self.p, self.cf, self.n):
            return pack(mats, self.p, self.cf)
        return matrix_keys(mats)

    def _decode(self, codes) -> np.ndarray:
        """The residue stack of codes made by _codes."""
        if codes.dtype == np.int64:
            return unpack(codes, self.p, self.cf, self.n)
        return np.frombuffer(codes.tobytes(), dtype=">i8").reshape(
            -1, self.n, self.n).astype(np.int64)

    def in_torus(self, mats, budget: int) -> np.ndarray:
        """Whether each integer matrix of a stack reduces into the torus,
        whose closure is held to `budget` elements."""
        torus = self.torus_set(budget)
        mats = np.asarray(mats, dtype=np.int64).reshape(-1, self.n, self.n)
        return contains_codes(torus, self._codes(mats % self.p ** self.cf))


def _check_budget(distinct, budget):
    if distinct > budget:
        raise BudgetExceeded("torus closure exceeded budget",
                             estimate=distinct)


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


def enumerate_S(q: LatticeQuery, budget: int = 5_000_000) -> CountReport:
    """All integer matrices with |entries| <= B, det = m, reduction in T.

    Row-by-row search over the first n-2 rows, in order, with exact
    Hadamard-type pruning; the last two rows are decided in one stacked
    int64 kernel.  The last row's cofactors are linear in the row before
    it, so with C their values at the n unit rows, rows @ C @ rows.T holds
    all R x R determinants (R = (2B+1)^n) and the pruning becomes masks on
    it (n = 1 keeps a one-row leaf).  Torus membership is then tested in
    one batched lookup on the det = m candidates only, so a search that
    exceeds the budget never builds the torus, and the closure is held to
    the same budget.  candidates_scanned counts every row tried at every
    level plus every leaf that survives pruning, from cumulative sums; the
    budget is raised at the same row as by a row-by-row search.  The
    output is sorted, so it does not depend on the order in which rows are
    fixed.
    """
    t0 = time.perf_counter()
    n, m, B = q.n, q.m, q.entry_bound
    total = (2 * B + 1) ** (n * n)
    top = n * B * B                    # the largest |row|^2
    if (2 * B + 1) ** n > budget or math.factorial(n) * B ** n >= 2 ** 63 \
            or top * (top + 1) >= 2 ** 63:
        raise BudgetExceeded("bounded rows exceed the budget or int64",
                             estimate=total)

    rows_arr = np.array(list(itertools.product(range(-B, B + 1), repeat=n)),
                        dtype=np.int64)
    R = len(rows_arr)
    row_sq = (rows_arr * rows_arr).sum(axis=1)
    # squared Hadamard bound for the remaining rows, in exact integers
    bound_sq = [top ** r for r in range(n + 1)]
    fixed = np.zeros((n, n), dtype=np.int64)
    parts = [np.empty((0, n, n), dtype=np.int64)]  # det = m, torus untested
    scanned = 0

    def over_budget():
        return BudgetExceeded("enumeration budget exceeded", estimate=total)

    def floor_sq(sq_prod, sq):
        """Least |row|^2 of a surviving leaf below rows of squared norms
        sq_prod * sq (ceiling division); top + 1 where none survives."""
        # the cap keeps num in int64 and changes no floor below top + 1
        num = min(-(-m * m // sq_prod), top * (top + 1))
        return np.minimum(-(-num // np.maximum(sq, 1)), top + 1)

    def two_rows(sq_prod):
        nonlocal scanned
        prev, last = n - 2, n - 1
        cof = np.empty((n, n), dtype=np.int64)
        for t, unit in enumerate(np.eye(n, dtype=np.int64)):
            fixed[prev] = unit
            # column `last` of the adjugate ignores row `last`
            cof[t] = [r[last] for r in _adjugate(fixed.tolist(), n)]
        # rows_arr[i] as row `prev` reaches the last row where it survives
        floor = floor_sq(sq_prod, row_sq)
        enters = (row_sq > 0) & (floor <= top)
        # each row tried scans 1, then its leaf R rows plus the survivors
        live = R - np.searchsorted(np.sort(row_sq), floor)
        leaf = np.where(enters, R + live, 0)
        reach = scanned + np.cumsum(np.stack([np.ones_like(leaf), leaf], 1))
        if reach[-1] > budget:
            raise over_budget()
        entered = np.flatnonzero(enters)
        step = chunk_rows(4 * 8 * R)
        for lo in range(0, len(entered), step):
            idx = entered[lo:lo + step]
            dets = rows_arr[idx] @ cof @ rows_arr.T
            i, j = np.nonzero((dets == m) & (row_sq >= floor[idx, None]))
            mats = np.repeat(fixed[None], len(i), axis=0)
            mats[:, prev], mats[:, last] = rows_arr[idx[i]], rows_arr[j]
            parts.append(mats)
        scanned = int(reach[-1])

    def rec(k, sq_prod):
        nonlocal scanned
        if sq_prod * bound_sq[n - k] < m * m:
            return
        if k == n - 1:
            # n = 1: a one-row leaf whose determinant is its entry
            live = row_sq >= floor_sq(sq_prod, 1)
            scanned += R + int(np.count_nonzero(live))
            if scanned > budget:
                raise over_budget()
            parts.append(rows_arr[live & (rows_arr[:, 0] == m)][:, None])
            return
        if k == n - 2:
            return two_rows(sq_prod)
        for row, sq in zip(rows_arr, row_sq.tolist()):
            scanned += 1
            if scanned > budget:
                raise over_budget()
            fixed[k] = row
            if sq == 0:
                continue
            rec(k + 1, sq_prod * sq)

    rec(0, 1)
    candidates = np.concatenate(parts)
    matches = sorted(tuple(map(tuple, mat)) for mat in
                     candidates[q.in_torus(candidates, budget)].tolist())
    abelian, witness = _pairwise_commuting(matches)
    classes = _unit_classes(matches, m, n)
    fiber = max((len(c) for c in classes), default=0)
    bound = tau_bound(factorize(abs(m)), n)
    return CountReport(
        query=q, matches=matches, candidates_scanned=scanned,
        abelian=abelian, commute_witness=witness,
        regime_ok=in_regime(q), regime_threshold=regime_threshold(q),
        tau_image_size=len(classes), fiber_measured=fiber,
        partition_bound=bound, bound_ok=len(classes) <= bound,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0)


def _pairwise_commuting(matches):
    for a, b in itertools.combinations(matches, 2):
        if mat_mul_int(a, b) != mat_mul_int(b, a):
            return False, (a, b)
    return True, None


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
        for cls in classes:
            if _unit_equivalent(cls[0], g, m, n):
                cls.append(g)
                break
        else:
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
        num = mat_mul_int(_adjugate(x, n), y)
        if any(v % det != 0 for row in num for v in row):
            return False
    return True


def partition_count(a: int, n: int) -> int:
    """Number of ordered n-tuples of nonnegative integers summing to a."""
    if a < 0 or n < 1:
        raise ValueError("need a >= 0 and n >= 1")
    return math.comb(n + a - 1, n - 1)


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
