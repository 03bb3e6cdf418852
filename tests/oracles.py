"""Slow, independent reference implementations the tests compare against."""

import functools
import itertools
import math
from fractions import Fraction

from minvec.padic import _adjugate, _int_det, mat_mul_int, vp


def contains(sub, mat):
    """Whether one residue matrix lies in sub, by a one-row member_mask."""
    import numpy as np
    return bool(sub.member_mask(np.asarray(mat)[None])[0])


def exponent_at(theta, mat):
    """theta's exponent at one residue matrix of its domain, a Fraction,
    by a one-row nums_of_residues."""
    import numpy as np
    return Fraction(int(theta.nums_of_residues(np.asarray(mat)[None])[0]),
                    theta.denom)


@functools.lru_cache(maxsize=None)
def torus_closure_oracle(gens, mod, n):
    """Closure of I and gens under product mod `mod`, as a frozenset of
    row-major flat residue tuples, by a pure-Python breadth-first search."""
    ident = tuple(int(i == j) % mod for i in range(n) for j in range(n))
    gens = [tuple(int(v) % mod for row in g for v in row) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = tuple(sum(a[i * n + k] * g[k * n + j] for k in range(n))
                             % mod for i in range(n) for j in range(n))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def approximation_strictness_oracle(o, i):
    """(lower_strict, upper_strict) of p^lower M_n < B^i < p^upper M_n,
    lower = ceil((i - 1)/e) + 1 and upper = floor(i/e): whether some
    p^(lower - 1) E_rc lies in B^i, and whether some p^upper E_rc does not,
    read off the grades of the matrix units."""
    lower = -((1 - i) // o.e) + 1
    upper = i // o.e
    grades = [(r, c) for r in range(o.n) for c in range(o.n)]
    return (any(o.entry_grade(r, c, lower - 1) >= i for r, c in grades),
            any(o.entry_grade(r, c, upper) < i for r, c in grades))


def leibniz_det(mat):
    """Exact integer determinant by the permutation expansion."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def brute_force_S(q):
    """Flat scan over the entire candidate box, no pruning at all."""
    span = range(-q.entry_bound, q.entry_bound + 1)
    mod = q.p ** q.cf
    torus = torus_closure_oracle(q.torus_generators, mod, q.n)
    out = []
    for flat in itertools.product(span, repeat=q.n * q.n):
        mat = tuple(tuple(flat[i * q.n + j] for j in range(q.n))
                    for i in range(q.n))
        if leibniz_det(mat) != q.m:
            continue
        if tuple(v % mod for v in flat) in torus:
            out.append(mat)
    return sorted(out)


def enumerate_S_oracle(q, budget=5_000_000, row_order=None, pruned=True):
    """(sorted matches, candidates_scanned) of the row-by-row search over
    all n rows, fixed in the positions of row_order, each last row decided
    by one dot product with the cofactor vector of the fixed rows, with the
    Hadamard pruning or (pruned=False) without it.  Raises BudgetExceeded
    as soon as more than `budget` candidates are scanned."""
    import numpy as np
    from minvec.errors import BudgetExceeded
    n, m, B = q.n, q.m, q.entry_bound
    order = list(row_order) if row_order is not None else list(range(n))
    rows = list(itertools.product(range(-B, B + 1), repeat=n))
    rows_arr = np.array(rows, dtype=np.int64)
    row_sq = (rows_arr * rows_arr).sum(axis=1)
    bound_sq = [(n * B * B) ** r for r in range(n + 1)]
    last = order[-1]
    candidates = []
    scanned = 0
    rows_buf = [(0,) * n] * n

    def over_budget():
        return BudgetExceeded("enumeration budget exceeded")

    def rec(k, sq_prod):
        nonlocal scanned
        if pruned and sq_prod * bound_sq[n - k] < m * m:
            return
        if k == n - 1:
            live = row_sq >= (-(-m * m // sq_prod) if pruned else 0)
            scanned += len(rows) + int(np.count_nonzero(live))
            if scanned > budget:
                raise over_budget()
            cof = np.array([r[last] for r in _adjugate(rows_buf, n)],
                           dtype=np.int64)
            for i in np.flatnonzero(live & (rows_arr @ cof == m)):
                rows_buf[last] = rows[i]
                candidates.append(tuple(rows_buf))
            return
        ridx = order[k]
        for row, sq in zip(rows, row_sq.tolist()):
            scanned += 1
            if scanned > budget:
                raise over_budget()
            rows_buf[ridx] = row
            if pruned and sq == 0:
                continue
            rec(k + 1, sq_prod * (sq or 1))

    rec(0, 1)
    matches = sorted(mat for mat, ok in zip(candidates,
                                            q.in_torus(candidates, budget))
                     if ok)
    return matches, scanned


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


def product_table_oracle(sub, rows):
    """The given rows of a subgroup's product-index table by explicit matrix
    products and binary search: entry [i, k] is the index of g_rows[i] g_k,
    or -1 where the product leaves the subgroup."""
    from minvec.residues import pack, sorted_index
    prods = sub.mats[rows, None] @ sub.mats[None] % sub.modulus
    codes = pack(prods.reshape(-1, sub.n, sub.n), sub.p, sub.level)
    return sorted_index(sub.codes, codes).reshape(len(rows), sub.size)


def product_index_oracle(target, left, mid, right=None):
    """groups.product_index by one einsum per row of left and one lookup:
    entry [a, b] is the index in target of left[a] mid[b] right[a] (no
    right factor when right is None), or -1 where it is not in target."""
    import numpy as np
    from minvec.residues import pack, sorted_index
    mod = target.modulus
    out = np.empty((len(left), len(mid)), dtype=np.intp)
    for a in range(len(left)):
        prods = np.einsum("ij,mjk->mik", left[a], mid) % mod
        if right is not None:
            prods = np.einsum("mij,jk->mik", prods, right[a]) % mod
        out[a] = sorted_index(target.codes, pack(prods, target.p,
                                                 target.level))
    return out


def character_certificate_oracle(sub, nums, denom, coords=None,
                                 coord_orders=None, rows=None):
    """The full-table certificate: every pair (g_i, g_k) of the product
    table with i in rows (default all), scanned 64 rows at a time.  Asserts
    closure and that every row hits the identity once; returns
    (multiplicative, first failing pair (i, k), coords_additive or None)."""
    import numpy as np
    nums = np.asarray(nums, dtype=np.int64) % denom
    rows = np.arange(sub.size) if rows is None else np.asarray(rows)
    ident = sub.identity_index()
    witness = None
    coords_ok = None if coords is None else True
    for lo in range(0, len(rows), 64):
        block = rows[lo:lo + 64]
        idx = product_table_oracle(sub, block)
        assert np.all(idx >= 0), "a product left the subgroup"
        assert np.array_equal(np.sum(idx == ident, axis=1), np.ones(len(block)))
        bad = (nums[idx] - nums[block, None] - nums[None]) % denom != 0
        if witness is None and bad.any():
            i, k = np.argwhere(bad)[0]
            witness = (int(block[i]), int(k))
        if coords is not None:
            for c, m in zip(np.asarray(coords).T, coord_orders):
                coords_ok &= not np.any((c[idx] - c[block, None] - c[None]) % m)
    return witness is None, witness, coords_ok


def product_set_oracle(A, B, p, L, rows=64):
    """Sorted unique codes of all products a b mod p^L, by explicit matrix
    products and np.unique."""
    import numpy as np
    from minvec.residues import pack
    n = A.shape[1]
    pieces = [pack((A[lo:lo + rows, None] @ B[None] % p ** L).reshape(-1, n, n),
                   p, L) for lo in range(0, len(A), rows)]
    return np.unique(np.concatenate(pieces))


def convolution_rows_oracle(sub, nums, denom, rows):
    """Reference rows of the convolution law: row g holds the exponents
    Theta(x) - Theta(g^-1 x) over all x, with g^-1 from mat_inv_mod and the
    products from an einsum product table."""
    import numpy as np
    from minvec.residues import pack
    p, L, n = sub.p, sub.level, sub.n
    nums = np.asarray(nums, dtype=np.int64)
    inv_mats = np.array([mat_inv_mod(sub.mats[g], p, L) for g in rows])
    out = []
    for lo in range(0, len(inv_mats), 256):
        prods = np.einsum("gij,mjk->gmik", inv_mats[lo:lo + 256],
                          sub.mats) % p ** L
        idx = sub.index_of_codes(pack(prods.reshape(-1, n, n), p, L))
        assert np.all(idx >= 0)
        out.append((nums[None, :] - nums[idx.reshape(-1, sub.size)]) % denom)
    return np.concatenate(out)


def row_disagrees(sub, nums, denom, g):
    """Whether reference row g of the convolution law has a term that is
    not Theta(g)."""
    row = convolution_rows_oracle(sub, nums, denom, [g])[0]
    return bool((row != nums[g] % denom).any())


def psi_exponent(x, p):
    """t in [0, 1) with psi(x) = e^{2 pi i t} for the level-one additive
    character psi of Q_p: t is the p-adic fractional part {x/p}."""
    from fractions import Fraction
    y = Fraction(x) / p
    k = 0
    while y.denominator % p ** (k + 1) == 0:
        k += 1
    rest = y.denominator // p ** k
    return Fraction(y.numerator * pow(rest, -1, p ** k) % p ** k, p ** k)


def mat_inv_mod(rows, p: int, L: int):
    """Inverse of one n x n integer matrix with unit determinant mod p^L.

    Gauss-Jordan over Z/p^L; pivots are chosen among unit entries, which
    always exist column by column when det is a unit.
    """
    m = p ** L
    n = len(rows)
    a = [[int(rows[i][j]) % m for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible mod p")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        f = pow(a[col][col], -1, m)
        a[col] = [v * f % m for v in a[col]]
        inv[col] = [v * f % m for v in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [(v - f * w) % m for v, w in zip(a[r], a[col])]
            inv[r] = [(v - f * w) % m for v, w in zip(inv[r], inv[col])]
    return inv


def enumerate_h1(d, L):
    """H^1 = U_L(1) U_A(floor(j/2)+1) mod p^L, residue matrices in code
    order."""
    from minvec.groups import enumerate_field_order, unit_sumset
    from minvec.residues import unpack
    n = d.order.n
    ol_codes, _, ul1_mask = enumerate_field_order(d, L)
    codes = unit_sumset(d.order, d.j // 2 + 1,
                        unpack(ol_codes[ul1_mask], d.p, L, n), d.p, L)
    return unpack(codes, d.p, L, n)


def residues_of(m, p, level):
    """Residues mod p^level of a rational matrix with p-integral entries,
    else None."""
    import numpy as np
    mod = p ** level
    m = [[Fraction(x) for x in row] for row in m]
    if any(x.denominator % p == 0 for row in m for x in row):
        return None
    return np.array([[x.numerator * pow(x.denominator, -1, mod) % mod
                      for x in row] for row in m], dtype=np.int64)


def intertwines_oracle(g, theta, d):
    """(verdict, witness) of whether the rational matrix g intertwines
    theta, by the per-element loop: every H1 element x at level L + loss is
    conjugated exactly, g x g^-1 = g x adj(g) / det(g), and reduced through
    residues_of, where loss is the p-power lost in g^-1, so that conjugates
    by non-units are decided too."""
    h1 = theta.domain
    p, L = d.p, h1.level
    # conjugation ignores scalars: clear g's denominators
    g = [[Fraction(x) for x in row] for row in g]
    den = math.lcm(*(x.denominator for row in g for x in row))
    g = [[int(x * den) for x in row] for row in g]
    adj, det = _adjugate(g, len(g)), _int_det(g)
    loss = max(0, vp(det, p) - min_vp(g, p) - min_vp(adj, p))
    for x_res in enumerate_h1(d, L + loss):
        conj = mat_mul_int(mat_mul_int(g, x_res.tolist()), adj)
        res = residues_of([[Fraction(v, det) for v in row] for row in conj],
                          p, L)
        if res is None or not contains(h1, res):
            continue
        if exponent_at(theta, x_res % d.p ** L) != exponent_at(theta, res):
            return False, x_res
    return True, None


def first_not_intertwined_oracle(G, Gi, xs, theta):
    """The full ordered scan that groups._first_not_intertwined must match
    index for index: per conjugator of a (B, n, n) stack, the index in xs
    of the first x whose conjugate G x Gi lies in H1 and has another theta
    value, or -1.  Every x is conjugated, one conjugator at a time, with no
    shortcut and no early exit."""
    import numpy as np
    from minvec.residues import pack
    h1 = theta.domain
    p, L, mod = h1.p, h1.level, h1.modulus
    x_nums = theta.nums[h1.index_of_codes(pack(xs, p, L))]
    out = []
    for g, gi in zip(G, Gi):
        conj = (g @ xs % mod) @ gi % mod
        c_idx = h1.index_of_codes(pack(conj, p, L))
        bad = (c_idx >= 0) & (theta.nums[c_idx] != x_nums)
        out.append(int(np.argmax(bad)) if bad.any() else -1)
    return np.array(out, dtype=np.intp)


def sample_units_outside_oracle(inside, p, L, n, rng, tries):
    """Units g of GL_n(Z/p^L) with inside(g) False for a one-matrix
    predicate, deciding each of at most `tries` draws of
    rng.integers(0, p^L, (n, n)) from a Draws stream as it is drawn."""
    for _ in range(tries):
        g = rng.integers(0, p ** L, size=(n, n))
        if leibniz_det(g.tolist()) % p and not inside(g):
            yield g


def _listed_at_half_depth(bundle, units, name):
    """units U_A(ceil(j/2)) mod p^L, enumerated by unit_sumset."""
    from minvec.groups import FiniteSubgroup, unit_sumset
    d = bundle.datum
    codes = unit_sumset(d.order, (d.j + 1) // 2, units.mats, d.p,
                        bundle.level, budget=10 ** 7)
    return FiniteSubgroup(name, d.p, bundle.level, d.order.n, codes)


def jcapk_oracle(bundle):
    """J cap K = O_L^* U_A(ceil(j/2)) mod p^L, enumerated element by element
    by unit_sumset: the reference for the membership-only bundle.jcapk."""
    return _listed_at_half_depth(bundle, bundle.ol_units, "JcapK-oracle")


def j1_oracle(bundle):
    """J1 = U_L(1) U_A(ceil(j/2)) mod p^L, enumerated element by element by
    unit_sumset: the reference for bundle.j1, which is never listed at even
    depth."""
    return _listed_at_half_depth(bundle, bundle.ul1, "J1-oracle")


def first_outside_h1(bundle):
    """The index in the enumerated J cap K of its first element outside
    H1."""
    import numpy as np
    from minvec.residues import contains_codes
    codes = jcapk_oracle(bundle).codes
    return int(np.flatnonzero(~contains_codes(bundle.h1.codes, codes))[0])


def without_coset(bundle, k):
    """A copy of the bundle whose J cap K misses the coset g H1 of the k-th
    element of the enumerated J cap K; returns (bundle, the enumerated
    J cap K minus that coset, sorted codes of the coset).  The copy is a
    sumset like bundle.jcapk: at odd depth H1 contains U_A(ceil(j/2)), so
    the coset is a union of classes."""
    import dataclasses
    import numpy as np
    from minvec.groups import FiniteSubgroup
    from minvec.residues import contains_codes, pack, sorted_unique
    jk, h1 = jcapk_oracle(bundle), bundle.h1
    coset = np.sort(pack(jk.mats[k] @ h1.mats % jk.modulus, jk.p, jk.level))
    keep = ~contains_codes(coset, jk.codes)
    want = FiniteSubgroup("JcapK-minus-coset", jk.p, jk.level, jk.n,
                          jk.codes[keep])
    steps = bundle.jcapk.steps
    classes = sorted_unique(pack(want.mats % steps, jk.p, jk.level))
    broken = FiniteSubgroup("JcapK-minus-coset", jk.p, jk.level, jk.n,
                            sumset=(classes, steps))
    assert broken.size == want.size
    return dataclasses.replace(bundle, jcapk=broken), want, coset


def dichotomy_oracle(d, bundle, theta, jcapk=None, per_coset=False):
    """(total, intertwining, jcapk_size, agree, witness) of the dichotomy by
    sweeping every unit of K mod p^L, with membership in an enumerated
    J cap K (jcapk_oracle unless given).  Each unit is decided by scanning
    all of H1; with per_coset, only the first unit of each left coset
    g H1 in code order is, found by multiplying g into every element of
    H1, and the coset takes its verdict (theta is a character of H1, so
    g h intertwines exactly when g does)."""
    import numpy as np
    from minvec.residues import (box_enumerate, contains_codes, det_inv_mod,
                                 pack)
    p, n, L = d.p, d.order.n, bundle.level
    mod = p ** L
    h1 = bundle.h1
    jk = jcapk_oracle(bundle) if jcapk is None else jcapk
    allm = box_enumerate([0] * (n * n), [1] * (n * n), [mod] * (n * n),
                         mod).reshape(-1, n, n)
    _, inv_all, unit = det_inv_mod(allm, p, L)
    units, inv_all = allm[unit], inv_all[unit]
    codes = pack(units, p, L)          # sorted: the box is in code order
    members = contains_codes(jk.codes, codes)
    if per_coset:
        inter = np.zeros(len(units), dtype=bool)
        done = np.zeros(len(units), dtype=bool)
        while not done.all():
            g = int(np.argmin(done))
            coset_codes = pack(units[g] @ h1.mats % mod, p, L)
            coset = np.searchsorted(codes, coset_codes)
            assert np.array_equal(codes[coset], coset_codes)
            inter[coset] = first_not_intertwined_oracle(
                units[g:g + 1], inv_all[g:g + 1], h1.mats, theta)[0] < 0
            done[coset] = True
    else:
        inter = first_not_intertwined_oracle(units, inv_all, h1.mats,
                                             theta) < 0
    disagree = np.flatnonzero(inter != members)
    witness = units[disagree[0]] if len(disagree) else None
    return len(units), int(inter.sum()), jk.size, witness is None, witness


def sumset_draws_oracle(jcapk, steps, rng, count):
    """The members that FiniteSubgroup.draw takes from the same Draws
    stream, decoded one at a time in Python integers: the classes are the
    distinct residues mod steps of an enumerated J cap K, a draw picks a
    class and then a box index, whose mixed-radix digits (last entry
    fastest) are the multiples of steps added to the class."""
    import numpy as np
    p, L, n = jcapk.p, jcapk.level, jcapk.n
    classes = sorted({pack_one(m % steps, p, L) for m in jcapk.mats})
    radices = [p ** L // int(s) for s in steps.ravel()]
    cls = rng.integers(0, len(classes), size=count)
    box = rng.integers(0, math.prod(radices), size=count)
    out = []
    for c, t in zip(cls.tolist(), box.tolist()):
        code, entries = classes[c], []
        for radix, step in zip(reversed(radices), reversed(steps.ravel())):
            t, digit = divmod(t, radix)
            code, rest = divmod(code, p ** L)
            entries.append(rest + int(step) * digit)
        out.append(np.array(entries[::-1], dtype=np.int64).reshape(n, n))
    return np.array(out, dtype=np.int64).reshape(-1, n, n)


def spot_oracle(d, bundle, theta, jcapk=None, members=40, nonmembers=40,
                seed=0):
    """(members_checked, nonmembers_checked, agree, witness) of the spot
    check by deciding the sampled conjugators one at a time, members first,
    up to the first failure, with membership in an enumerated J cap K
    (jcapk_oracle unless given)."""
    import numpy as np
    from minvec.residues import Draws
    p, n, L = d.p, d.order.n, bundle.level
    h1 = bundle.h1
    jk = jcapk_oracle(bundle) if jcapk is None else jcapk
    rng = Draws(seed)

    def intertwines(g):
        ginv = np.array(mat_inv_mod(g.tolist(), p, L))
        return first_not_intertwined_oracle(g[None], ginv[None], h1.mats,
                                            theta)[0] < 0

    gs = sumset_draws_oracle(jk, bundle.jcapk.steps, rng, members)
    assert all(contains(jk, g) for g in gs)
    for i, g in enumerate(gs):
        if not intertwines(g):
            return i, 0, False, g
    outside = sample_units_outside_oracle(functools.partial(contains, jk),
                                          p, L, n, rng, 100 * nonmembers)
    checked = 0
    for g in itertools.islice(outside, nonmembers):
        if intertwines(g):
            return members, checked, False, g
        checked += 1
    return members, checked, True, None


def offsupport_lands_oracle(kpi, gs):
    """For each unit g of a stack, whether g^-1 K_pi meets K_pi, by
    multiplying g^-1 into every element of K_pi and looking each product
    up."""
    from minvec.residues import det_inv_mod, pack
    p, L, n = kpi.p, kpi.level, kpi.n
    out = []
    for ginv in det_inv_mod(gs, p, L)[1]:
        prods = ginv @ kpi.mats % p ** L
        out.append(bool((kpi.index_of_codes(pack(prods, p, L)) >= 0).any()))
    return out


def kpi_member_oracle(kr, mat):
    """Membership in a parabolic K_pi, one matrix at a time: every diagonal
    block in its B^1 and every off-diagonal block divisible by its p-power
    (floor((c+1)/2) above the diagonal, ceil((c+1)/2) below)."""
    import numpy as np
    p = kr.kpi.p
    mat = np.asarray(mat, dtype=np.int64) % p ** kr.level
    starts = [0]
    for blk in kr.blocks:
        starts.append(starts[-1] + blk.datum.order.n)
    for i, blk in enumerate(kr.blocks):
        sl = slice(starts[i], starts[i + 1])
        code = pack_one(mat[sl, sl] % blk.b1.modulus, p, blk.b1.level)
        if code not in set(int(c) for c in blk.b1.codes):
            return False
        for k in range(len(kr.blocks)):
            if k != i:
                thr = (kr.c + 1) // 2 if i < k else (kr.c + 2) // 2
                block = mat[sl, starts[k]:starts[k + 1]]
                if np.any(block % p ** thr):
                    return False
    return True


def concentration_oracle(kr, cf, mats=None):
    """For each x of mats, every element of an enumerated K_pi by default,
    whether x = l mod p^cf for some l in U_L(1), one l per diagonal block:
    each diagonal block of x is looked up among its block's U_L(1) classes
    mod p^cf and every entry off the diagonal blocks must vanish mod p^cf."""
    mod = kr.kpi.p ** cf
    rows = (kr.kpi.mats if mats is None else mats).tolist()
    spans = []
    off = 0
    for blk in kr.blocks:
        ni = blk.datum.order.n
        classes = {tuple(v % mod for row in l for v in row)
                   for l in blk.bundle.ul1.mats.tolist()}
        spans.append((range(off, off + ni), classes))
        off += ni
    diagonal = {(r, c) for span, _ in spans for r in span for c in span}
    off_diagonal = [(r, c) for r in range(off) for c in range(off)
                    if (r, c) not in diagonal]
    return [all(tuple(x[r][c] % mod for r in span for c in span) in classes
                for span, classes in spans)
            and all(x[r][c] % mod == 0 for r, c in off_diagonal)
            for x in rows]


def kpi_exponent_oracle(kr, mat):
    """Theta on a parabolic K_pi as a Fraction in [0, 1): the sum over the
    diagonal blocks of theta~ looked up one code at a time."""
    from fractions import Fraction
    total = Fraction(0)
    off = 0
    for blk in kr.blocks:
        ni = blk.datum.order.n
        sub = mat[off:off + ni, off:off + ni] % blk.b1.modulus
        off += ni
        codes = [int(c) for c in blk.b1.codes]
        i = codes.index(pack_one(sub, blk.b1.p, blk.b1.level))
        theta = blk.theta_tilde
        total += Fraction(int(theta.nums[i]), theta.denom)
    return total - (total.numerator // total.denominator)


def with_flipped_block(kr, b=0):
    """A parabolic K_pi result whose block b theta~ is wrong at one element."""
    import dataclasses
    from minvec.groups import BlockCharacter, GroupCharacter
    blk = kr.blocks[b]
    theta = blk.theta_tilde
    nums = theta.nums.copy()
    k = (theta.domain.identity_index() + 1) % theta.domain.size
    nums[k] = (nums[k] + 1) % theta.denom
    induced = dataclasses.replace(blk.induced, theta_tilde=GroupCharacter(
        theta.domain, nums, theta.denom))
    blocks = list(kr.blocks)
    blocks[b] = dataclasses.replace(blk, induced=induced)
    old = kr.theta
    return dataclasses.replace(kr, blocks=blocks, theta=BlockCharacter(
        blocks, old.offsets, old.level, old.p))


def omega_exponent(tf, residues):
    """Exponent of omega at one residue matrix, or None where omega = 0,
    by a membership test of that matrix alone."""
    import numpy as np
    kpi = tf.kpi_result.kpi
    mat = np.asarray(residues, dtype=np.int64) % kpi.modulus
    if not contains(kpi, mat):
        return None
    return exponent_at(tf.kpi_result.theta, mat)


def omega_star_exponent(tf, residues):
    """Exponent of omega^*(g) = conj(omega(g^{-1})), or None."""
    import math
    import numpy as np
    from minvec.residues import det_inv_mod
    kpi = tf.kpi_result.kpi
    _, inv, unit = det_inv_mod(np.asarray(residues)[None], kpi.p, kpi.level)
    if not unit[0]:
        raise ZeroDivisionError("matrix is not invertible mod p")
    t = omega_exponent(tf, inv[0])
    if t is None:
        return None
    t = -t
    return t - math.floor(t)


def pack_one(mat, p, L):
    """Row-major base-p^L code of one residue matrix, in Python integers."""
    code = 0
    for v in [int(v) for row in mat for v in row]:
        code = code * p ** L + v
    return code


def contains_value(sub, m):
    """Whether the rational matrix m is p-integral with residues in sub."""
    res = residues_of(m, sub.p, sub.level)
    return res is not None and contains(sub, res)


def prime_element_of_L(d):
    """A prime element of L = F[beta], v_A = 1, as a Fraction matrix: the
    integral generator b' = p^s0 beta has grade -r with r = (e s0 - j) mod e
    coprime to e, and with a r = 1 + k e the element b'^a / p^k has grade
    1 (when e = 1, a = 0 and k = -1 give p itself)."""
    o = d.order
    r = (o.e * d.s0 - d.j) % o.e
    a = pow(r, -1, o.e)
    k = (a * r - 1) // o.e
    return frac_matrix(frac_pow(frac_matrix(d.beta_integral), a), d.p, -k)


def j_grade_and_part(bundle, g):
    """Decompose the rational matrix g = Pi^k g0 with Pi the prime element
    of L: returns (k, g0), k = v_A(g) and g0 the compact part."""
    d = bundle.datum
    k = frac_grade(g, d.order.n, d.order.e, d.p)
    return k, frac_mul(frac_pow(prime_element_of_L(d), -k), g)


def j_contains(bundle, g):
    """Membership in J via the symbolic prime-power grading."""
    _, g0 = j_grade_and_part(bundle, g)
    return contains_value(bundle.jcapk, g0)


# -- exact matrices over Q for the datum side --------------------------------

def frac_matrix(rows, p=1, scale=0):
    """p^scale * rows as a matrix of Fractions."""
    f = Fraction(p) ** scale
    return [[Fraction(v) * f for v in row] for row in rows]


def frac_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def frac_inv(a):
    """Inverse over Q by Gauss-Jordan elimination; None when singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


def frac_pow(a, k):
    """a^k for any integer k (a invertible when k < 0)."""
    out = frac_matrix([[int(i == j) for j in range(len(a))]
                       for i in range(len(a))])
    base = a if k >= 0 else frac_inv(a)
    for _ in range(abs(k)):
        out = frac_mul(out, base)
    return out


def frac_vp(x, p):
    """p-adic valuation of a nonzero rational number."""
    x = Fraction(x)
    return vp(x.numerator, p) - vp(x.denominator, p)


def min_vp(m, p):
    """Least p-adic valuation of the nonzero entries of a rational matrix."""
    return min(frac_vp(x, p) for row in m for x in row if x)


def frac_grade(m, n, e, p):
    """v_A of a rational matrix for the period-e order, read entry by entry
    off the block picture: p^v E_rc in block (a, b) has grade e v + b - a.
    None for the zero matrix."""
    size = n // e
    grades = [e * frac_vp(x, p) + c // size - r // size
              for r, row in enumerate(m) for c, x in enumerate(row) if x]
    return min(grades) if grades else None


def datum_oracle(p, n, e, rows, scale):
    """The datum-side invariants of beta = p^scale * rows on Fraction
    matrices, as a dict: v_A always; when v_A < 0 also j, s0,
    beta_integral, the field certificate as (slope denominator, residue
    minimal polynomial, its degree, irreducible) or None, and whether
    conjugation by beta preserves the grade of every basis element
    p^power E_rc of A / B^e."""
    from minvec.orders import (charpoly_int, min_poly_fp,
                               newton_slope_denominator, poly_irreducible_fp)
    beta = frac_matrix(rows, p, scale)
    out = {"v_A": frac_grade(beta, n, e, p)}
    if out["v_A"] is None or out["v_A"] >= 0:
        return out
    j = -out["v_A"]
    s0 = -(-j // e)
    bi = frac_matrix(rows, p, scale + s0)
    assert all(x.denominator == 1 for row in bi for x in row)
    bi = [[int(x) for x in row] for row in bi]
    out.update(j=j, s0=s0, beta_integral=bi, cert=None)
    m = n // e
    if newton_slope_denominator(charpoly_int(bi), p) == e:
        gamma = [[x * Fraction(p) ** j for x in row]
                 for row in frac_pow(beta, e)]
        if all(x.denominator == 1 for row in gamma for x in row) and \
                frac_grade(gamma, n, e, p) == 0:
            mp = min_poly_fp([[int(gamma[r][c]) % p for c in range(m)]
                              for r in range(m)], p)
            deg = len(mp) - 1
            out["cert"] = (e, mp, deg, deg == m and poly_irreducible_fp(mp, p))
    out["normalizes"] = normalizes_oracle(beta, n, e, p)
    return out


def normalizes_oracle(beta, n, e, p):
    """Whether conjugation by the rational matrix beta keeps the grade t of
    every basis element p^power E_rc of A / B^e, 0 <= t < e.  From the
    block picture, power is 0 on and above the block diagonal and 1 below
    it."""
    inv = frac_inv(beta)
    if inv is None:
        return False
    m = n // e
    for r in range(n):
        for c in range(n):
            power = int(c // m < r // m)
            elt = [[int((a, b) == (r, c)) for b in range(n)]
                   for a in range(n)]
            conj = frac_mul(frac_mul(beta, frac_matrix(elt, p, power)), inv)
            if frac_grade(conj, n, e, p) != e * power + c // m - r // m:
                return False
    return True


def subgroup_dump_lines(sub):
    """The golden line format of an enumerated subgroup: a header, then its
    row-major residues in code order."""
    out = [f"# subgroup {sub.name} p={sub.p} N={sub.level} n={sub.n} "
           f"size={sub.size}"]
    for row in sub.mats.reshape(sub.size, sub.n * sub.n):
        out.append(" ".join(str(int(v)) for v in row))
    return out


def character_dump_lines(theta):
    """The golden line format of a character table: a header, then each
    element's row-major residues and its exponent in lowest terms."""
    from fractions import Fraction
    dom = theta.domain
    out = [f"# character on {dom.name} p={dom.p} N={dom.level} n={dom.n} "
           f"denom={theta.denom}"]
    for row, num in zip(dom.mats.reshape(dom.size, -1), theta.nums):
        t = Fraction(int(num), theta.denom)
        out.append(" ".join(str(int(v)) for v in row) +
                   f"  {t.numerator}/{t.denominator}")
    return out


def serialize_spec(spec):
    """Canonical JSON text of a parsed datum, parabolic or query spec, for
    the round trip against the shipped files."""
    from minvec.datafiles import (DatumSpec, ParabolicSpec, QuerySpec,
                                  canonical_dumps)

    def as_dict(s):
        if isinstance(s, DatumSpec):
            return {"kind": "supercuspidal", "p": s.p, "n": s.n, "e": s.e,
                    "j": s.j, "beta": {"scale": s.beta_scale,
                                       "entries": s.beta_entries}}
        if isinstance(s, ParabolicSpec):
            return {"kind": "parabolic", "p": s.p,
                    "blocks": [as_dict(b) for b in s.blocks],
                    "inequivalent": s.inequivalent}
        assert isinstance(s, QuerySpec)
        return {"kind": "lattice-query", "n": s.n, "m": s.m,
                "entry_bound": s.entry_bound, "p": s.p, "c": s.c,
                "torus_generators": s.torus_generators}

    return canonical_dumps(as_dict(spec))


def _residue_span(vectors, p):
    """All F_p combinations of the given coefficient vectors, as a set."""
    span = {tuple(0 for _ in vectors[0])}
    for vec in vectors:
        new = set()
        for base in span:
            for c in range(p):
                new.add(tuple((b + c * v) % p for b, v in zip(base, vec)))
        span = new
    return span


def k0_flat(d, budget: int = 2_000_000) -> int:
    """Independent flat enumeration of A / B^(j+2) (small data only)."""
    from minvec.errors import BudgetExceeded
    from minvec.orders import (_coeff_tuples, _grade0_projection,
                               mat_sub_int, v_A)
    o, p, j = d.order, d.p, d.j
    n, e, s0 = o.n, o.e, d.s0
    Bt = d.beta_integral
    depth = j + 2
    pos = [o.graded_positions(t) for t in range(depth)]
    pos0 = pos[0]
    basis = []
    cur = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    for _ in range(n):
        basis.append(_grade0_projection(cur, o, p, pos0))
        cur = mat_mul_int(cur, Bt)
    kbar = _residue_span(basis, p)
    total = p ** sum(len(t) for t in pos)
    if total > budget:
        raise BudgetExceeded("flat k0 oracle too large", estimate=total)
    best = -j
    flat_positions = [(t, r, c, power) for t in range(depth)
                      for (r, c, power) in pos[t]]
    for combo in _coeff_tuples(len(flat_positions), p):
        proj = tuple(coef for (t, _, _, _), coef in zip(flat_positions, combo)
                     if t == 0)
        if proj in kbar:
            continue
        ent = [[0] * n for _ in range(n)]
        for (t, r, c, power), coef in zip(flat_positions, combo):
            ent[r][c] += coef * p ** power
        com = mat_sub_int(mat_mul_int(Bt, ent), mat_mul_int(ent, Bt))
        g = v_A(com, o, p)
        val = j + 1 if g is None else min(g - e * s0, j + 1)
        best = max(best, val)
    return best


def coset_decomposition_oracle(big, small_codes):
    """(rep_indices, coset_id) of the left cosets of an enumerated subgroup
    by the per-representative loop: the first unassigned element in code
    order starts the next coset, found by one einsum product per coset."""
    import numpy as np
    from minvec.residues import pack, sorted_index
    small_mats = big.mats[sorted_index(big.codes, small_codes)]
    coset_id = np.full(big.size, -1, dtype=np.int64)
    reps = []
    for i in range(big.size):
        if coset_id[i] >= 0:
            continue
        prods = np.einsum("ij,mjk->mik", big.mats[i], small_mats) % big.modulus
        idx = sorted_index(big.codes, pack(prods, big.p, big.level))
        assert np.all(idx >= 0), "a coset left the overgroup"
        coset_id[idx] = len(reps)
        reps.append(i)
    return np.array(reps, dtype=np.int64), coset_id


def extend_character_oracle(group, sub_exponents, denom_hint=None):
    """(nums, denom, coords, orders) of extend_character by a walk over a
    dict from codes to Fractions, one einsum product per coset power."""
    import math
    from fractions import Fraction
    import numpy as np
    from minvec.residues import pack
    p, L, n = group.p, group.level, group.n
    values = dict(sub_exponents)
    coords = {c: () for c in values}
    orders = []
    mats_by_code = {int(c): group.mats[i] for i, c in enumerate(group.codes)}
    while len(values) < group.size:
        g_code = min(int(c) for c in group.codes if int(c) not in values)
        g = mats_by_code[g_code]
        power, m = g.copy(), 1
        while int(pack(power[None], p, L)[0]) not in values:
            power, m = power @ g % p ** L, m + 1
        t = Fraction(values[int(pack(power[None], p, L)[0])], m)
        t -= math.floor(t)
        base = list(values.items())
        base_mats = np.array([mats_by_code[code] for code, _ in base])
        gc = np.eye(n, dtype=np.int64)
        for c in range(1, m):
            gc = gc @ g % p ** L
            prods = np.einsum("ij,mjk->mik", gc, base_mats) % p ** L
            for (code0, val0), newc in zip(base, pack(prods, p, L)):
                values[int(newc)] = val0 + c * t
                coords[int(newc)] = coords[code0] + (c,)
        orders.append(m)
        coords = {c: v + (0,) * (len(orders) - len(v)) for c, v in coords.items()}
    denom = math.lcm(*(v.denominator for v in values.values()))
    if denom_hint:
        denom = math.lcm(denom, denom_hint)
    nums = np.array([int(values[int(c)] * denom) % denom for c in group.codes],
                    dtype=np.int64)
    cmat = np.array([coords[int(c)] for c in group.codes],
                    dtype=np.int64).reshape(group.size, len(orders))
    return nums, denom, cmat, orders


# Exact arithmetic with p-power roots of unity.  A value is a formal
# Q-linear combination of e^{2 pi i t} over exponents t in Q/Z with
# p-power denominator.  Equality is decided after canonical reduction
# modulo the cyclotomic polynomial Phi_{p^k}(x) = sum_{i<p} x^{i p^{k-1}},
# so no floating point is involved anywhere.

def _norm_exp(t) -> Fraction:
    t = Fraction(t)
    return t - (t.numerator // t.denominator)


class CyclotomicSum:
    """Formal sum  sum_t  c_t * e^{2 pi i t}  with rational c_t."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        self.terms = {}
        if terms:
            for t, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                t = _norm_exp(t)
                if t.denominator != 1 and t.denominator % p != 0:
                    raise ValueError(f"exponent {t} is not p-power for p={p}")
                self.terms[t] = self.terms.get(t, Fraction(0)) + c

    def __sub__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) - c
        return CyclotomicSum(self.p, out)

    def reduced(self):
        """Canonical coefficients on the power basis of Z[zeta_{p^k}].

        Returns a dict exponent -> coefficient with exponents a/p^k for
        0 <= a < phi(p^k), after polynomial reduction mod Phi_{p^k}.
        """
        p = self.p
        k = 0
        for t in self.terms:
            if t.denominator != 1:
                k = max(k, vp(t.denominator, p))
        if k == 0:
            c = self.terms.get(Fraction(0), Fraction(0))
            return {} if c == 0 else {Fraction(0): c}
        order = p ** k
        coeffs = [Fraction(0)] * order
        for t, c in self.terms.items():
            a = t.numerator * (order // t.denominator) % order
            coeffs[a] += c
        # divide by Phi_{p^k}(x) = 1 + x^{p^{k-1}} + ... + x^{(p-1) p^{k-1}}
        step = p ** (k - 1)
        deg_phi = (p - 1) * step
        for a in range(order - 1, deg_phi - 1, -1):
            lead = coeffs[a]
            if lead == 0:
                continue
            coeffs[a] = Fraction(0)
            for i in range(p - 1):
                coeffs[a - deg_phi + i * step] -= lead
        return {Fraction(a, order): c for a, c in enumerate(coeffs[:deg_phi]) if c != 0}

    def is_zero(self) -> bool:
        return not self.reduced()

    def rational_value(self):
        """The value as a Fraction if it is rational, else None."""
        red = self.reduced()
        if not red:
            return Fraction(0)
        if set(red) == {Fraction(0)}:
            return red[Fraction(0)]
        return None

    def __eq__(self, other):
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        red = self.reduced()
        if not red:
            return "CyclotomicSum(0)"
        parts = [f"{c}*e({t})" for t, c in sorted(red.items())]
        return "CyclotomicSum(" + " + ".join(parts) + ")"


def exponent_counter_inner(lists_a, lists_b, p, size):
    """(1/size) sum_g value_a(g) * conj(value_b(g)) as an exact
    CyclotomicSum, from per-element exponent lists of Fractions."""
    import math
    from fractions import Fraction
    counter = {}
    for la, lb in zip(lists_a, lists_b):
        for ta in la:
            for tb in lb:
                t = ta - tb
                t -= math.floor(t)
                counter[t] = counter.get(t, 0) + Fraction(1, size)
    return CyclotomicSum(p, counter)


def induced_laws_oracle(j1, h1, theta, theta_tilde, rows=None):
    """(dim, <eta, eta>, eta|H1 == dim theta, <eta|H1, theta>, class
    constancy) of eta = Ind theta~ by Fraction exponent lists: one list per
    element of J1 built by the per-representative loop, one CyclotomicSum
    per element.  Class constancy compares eta(x g x^-1) with eta(g) for
    every x in J1 and every g in rows (default all of J1)."""
    from fractions import Fraction
    import numpy as np
    from minvec.residues import det_inv_mod, pack, sorted_index
    p, L = j1.p, j1.level
    b1 = theta_tilde.domain

    def tilde_at(i):
        return Fraction(int(theta_tilde.nums[i]), theta_tilde.denom)

    if b1.size == j1.size:
        lists = [(tilde_at(int(i)),) for i in sorted_index(b1.codes, j1.codes)]
    else:
        reps, _ = coset_decomposition_oracle(j1, b1.codes)
        lists = [[] for _ in range(j1.size)]
        for t in j1.mats[reps]:
            tinv = mat_inv_mod(t.tolist(), p, L)
            conj = (np.array(tinv) @ j1.mats % j1.modulus) @ t % j1.modulus
            for g, bi in enumerate(sorted_index(b1.codes, pack(conj, p, L))):
                if bi >= 0:
                    lists[g].append(tilde_at(int(bi)))

    def value(g):
        terms = {}
        for t in lists[g]:
            terms[t] = terms.get(t, 0) + 1
        return CyclotomicSum(p, terms)

    dim = value(j1.identity_index()).rational_value()
    if dim is None or dim.denominator != 1 or dim <= 0:
        raise AssertionError("dimension is not a positive integer")
    dim = int(dim)
    inner = exponent_counter_inner(lists, lists, p, j1.size).rational_value()
    h_rows = sorted_index(j1.codes, h1.codes)
    theta_lists = [(Fraction(int(v), theta.denom),) for v in theta.nums]
    restriction = all(value(int(g)) == CyclotomicSum(p, {t: dim})
                      for g, (t,) in zip(h_rows, theta_lists))
    rinner = exponent_counter_inner([lists[g] for g in h_rows], theta_lists,
                                    p, h1.size).rational_value()
    vid = {}
    constancy = True
    invs = det_inv_mod(j1.mats, p, L)[1]
    for g in (range(j1.size) if rows is None else rows):
        conj = (j1.mats @ j1.mats[g] % j1.modulus) @ invs % j1.modulus
        conj = set(sorted_index(j1.codes, pack(conj, p, L)).tolist())
        assert min(conj) >= 0, "conjugation left J1"
        for c in conj | {g}:
            if c not in vid:
                vid[c] = tuple(sorted(value(c).reduced().items()))
        constancy &= all(vid[c] == vid[g] for c in conj)
    return dim, inner, restriction, rinner, constancy


def pairing_forms_oracle(d, bundle, pol):
    """Whether the commutator form is coset-invariant on the basis
    representatives x, y, by a per-element loop over every h in H1:
    Tr(beta' [xh - 1, y - 1]) / p^(lvl-1) against its value at x."""
    import numpy as np
    p, n = d.p, d.order.n
    bt = np.array(d.beta_integral, dtype=np.int64)
    pmod = p ** (d.s0 + 1)
    eye = np.eye(n, dtype=np.int64)

    def raw(x, y):
        return int(np.trace(bt @ (x - eye) @ (y - eye))) % pmod

    def comm(x, y):
        return (raw(x, y) - raw(y, x)) % pmod // (pmod // p)

    return all(comm(x @ h % bundle.h1.modulus, y) == comm(x, y)
               for x in pol.coset_reps for y in pol.coset_reps
               for h in bundle.h1.mats)


def trace_pairing_oracle(d, basis_mats):
    """The trace form Tr(beta' [x - 1, y - 1]) / p^s0 mod p, beta' =
    p^s0 beta, on each pair of a basis of J1/H1."""
    import numpy as np
    p, n = d.p, d.order.n
    bt = np.array(d.beta_integral, dtype=np.int64)
    pmod, eye = p ** (d.s0 + 1), np.eye(n, dtype=np.int64)

    def tr(u, v):
        return int(np.trace(bt @ u @ v)) % pmod

    return [[(tr(x - eye, y - eye) - tr(y - eye, x - eye)) % pmod
             // (pmod // p) for y in basis_mats] for x in basis_mats]


def polarization_oracle(d, bundle, basis_mats):
    """(pairing, isotropic, b1_codes) of heisenberg at even depth on a given
    basis of J1/H1, by a coset table of the listed J1 (j1_oracle): the
    cosets, a normality scan of H1, the k x k coset multiplication table,
    the check that the basis cosets have order p and span the table, the
    trace form on the first element of each basis coset, and B1 as the
    union of the cosets that a walk through the table reaches from each
    combination of the isotropic vectors."""
    import numpy as np
    from minvec import groups
    from minvec.errors import ConstructionFailure
    from minvec.residues import box_enumerate, det_inv_mod, pack, sorted_index
    p, L, n = d.p, bundle.level, d.order.n
    h1, j1 = bundle.h1, j1_oracle(bundle)
    rep_idx, coset_id = coset_decomposition_oracle(j1, h1.codes)
    k = len(rep_idx)
    dim = vp(k, p)
    if p ** dim != k:
        raise ConstructionFailure("J1/H1 is not a p-group quotient")
    reps = j1.mats[rep_idx]
    inverses = det_inv_mod(reps, p, L)[1]
    if np.any(groups.product_index(h1, reps, h1.mats, inverses) < 0):
        raise ConstructionFailure("H1 is not normal in J1")
    idx = groups.product_index(j1, reps, reps)
    if np.any(idx < 0):
        raise ConstructionFailure("J1 is not closed under products")
    table = coset_id[idx]
    if not np.array_equal(table, table.T):
        raise ConstructionFailure("J1/H1 is not abelian")

    id_coset = int(coset_id[j1.identity_index()])
    at = sorted_index(j1.codes, pack(np.asarray(basis_mats) % j1.modulus,
                                     p, L))
    if np.any(at < 0):
        raise ConstructionFailure("a basis element lies outside J1")
    basis = [int(c) for c in coset_id[at]]
    span = {id_coset}
    for cid in basis:
        powers = [id_coset]
        for _ in range(p - 1):
            powers.append(int(table[powers[-1], cid]))
        if int(table[powers[-1], cid]) != id_coset:
            raise ConstructionFailure("J1/H1 is not elementary abelian")
        span = {int(table[s, pw]) for s in span for pw in powers}
    if len(basis) != dim or len(span) != k:
        raise ConstructionFailure("the basis is not an F_p basis of J1/H1")

    pairing = trace_pairing_oracle(d, reps[basis])
    iso_vecs = groups._symplectic_isotropic_basis(pairing, p)

    combos = box_enumerate([0] * len(iso_vecs), [1] * len(iso_vecs),
                           [p] * len(iso_vecs), p)
    member_cosets = set()
    for combo in combos:
        vec = [0] * dim
        for cf, bv in zip(combo, iso_vecs):
            vec = [(a + cf * b) % p for a, b in zip(vec, bv)]
        cid = id_coset
        for coord, times in zip(basis, vec):
            for _ in range(times):
                cid = int(table[cid, coord])
        member_cosets.add(cid)
    mask = np.isin(coset_id, sorted(member_cosets))
    return pairing, iso_vecs, j1.codes[mask]
