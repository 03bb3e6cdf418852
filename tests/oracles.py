"""Slow, independent reference implementations the tests compare against."""

import functools
import itertools


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


def product_table_oracle(sub, lo, hi):
    """Rows lo..hi of a subgroup's product-index table by explicit matrix
    products and binary search: entry [i, k] is the index of g_(lo+i) g_k,
    or -1 where the product leaves the subgroup."""
    from minvec.residues import cross_products_packed, sorted_index
    codes = cross_products_packed(sub.mats[lo:hi], sub.mats, sub.p, sub.level)
    return sorted_index(sub.codes, codes.reshape(-1)).reshape(codes.shape)
