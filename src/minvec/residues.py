"""Bulk helpers for matrices over Z/p^L: enumeration, products, lookups.

Element sets are numpy arrays of shape (M, n, n) with int64 residues in
[0, p^L).  For sorting and membership each matrix is packed into one int64
(pack, while (p^L)^(n^2) fits) or keyed by its bytes (matrix_keys, any
modulus); all heavy pairwise checks go through these helpers so they stay
exact (integer arithmetic only) while running at numpy speed.
"""

from __future__ import annotations

import numpy as np


def fits_packing(p: int, L: int, n: int) -> bool:
    return (p ** L) ** (n * n) < 2 ** 62


def pack(mats: np.ndarray, p: int, L: int) -> np.ndarray:
    """Row-major base-p^L packing of (M, n, n) residue matrices."""
    M, n, _ = mats.shape
    base = p ** L
    if not fits_packing(p, L, n):
        raise OverflowError("residue packing does not fit in int64")
    flat = mats.reshape(M, n * n).astype(np.int64)
    codes = np.zeros(M, dtype=np.int64)
    for i in range(n * n):
        codes = codes * base + flat[:, i]
    return codes


def matrix_keys(mats: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per (M, n, n) residue matrix, for any modulus:
    big-endian int64 entries, so residues sort in row-major order."""
    M, n, _ = mats.shape
    flat = np.ascontiguousarray(mats.reshape(M, n * n), dtype=">i8")
    return flat.view(np.dtype((np.void, 8 * n * n))).ravel()


def unpack(codes: np.ndarray, p: int, L: int, n: int) -> np.ndarray:
    base = p ** L
    out = np.zeros((len(codes), n * n), dtype=np.int64)
    rem = codes.astype(np.int64).copy()
    for i in range(n * n - 1, -1, -1):
        out[:, i] = rem % base
        rem //= base
    return out.reshape(len(codes), n, n)


def box_enumerate(offsets, steps, counts, modulus) -> np.ndarray:
    """All tuples (offset_i + steps_i * t_i) mod modulus, t_i < counts_i.

    Returns an array of shape (prod counts, k) in odometer order with the
    first coordinate slowest.
    """
    k = len(offsets)
    total = 1
    for c in counts:
        total *= c
    out = np.empty((total, k), dtype=np.int64)
    rep = total
    for i in range(k):
        c = counts[i]
        rep //= c
        ramp = np.repeat(np.arange(c, dtype=np.int64) * steps[i], rep)
        out[:, i] = (np.tile(ramp, total // (rep * c)) + offsets[i]) % modulus
    return out


# bytes of one block of pairwise product codes or product indices, bounding
# every product chunk: peak memory grows with it
BLOCK_BYTES = 1 << 22


def cross_products_packed(A: np.ndarray, B: np.ndarray, p: int, L: int):
    """Packed codes of all pairwise products a b mod p^L, shape (|A|, |B|).

    Explicit broadcast arithmetic; measurably faster than einsum for the
    small residue matrices used here.
    """
    n = A.shape[1]
    if not fits_packing(p, L, n):
        raise OverflowError("residue packing does not fit in int64")
    mod = p ** L
    codes = None
    for i in range(n):
        for j in range(n):
            acc = A[:, i, 0, None] * B[None, :, 0, j]
            for k in range(1, n):
                acc += A[:, i, k, None] * B[None, :, k, j]
            acc %= mod
            codes = acc if codes is None else codes * mod + acc
    return codes


def product_set(A: np.ndarray, B: np.ndarray, p: int, L: int) -> np.ndarray:
    """Unique products {a b mod p^L}, returned as a sorted code array."""
    chunk = max(1, BLOCK_BYTES // (8 * max(len(B), 1)))
    pieces = [np.unique(cross_products_packed(A[lo:lo + chunk], B, p, L))
              for lo in range(0, len(A), chunk)]
    return np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)


def unit_inverse_table(p: int, L: int) -> np.ndarray:
    """inv[u] = u^{-1} mod p^L for units u; 0 elsewhere."""
    m = p ** L
    table = np.zeros(m, dtype=np.int64)
    units = np.arange(m)[np.arange(m) % p != 0]
    for u in units:
        table[u] = pow(int(u), -1, m)
    return table


def batch_inv_2x2(mats: np.ndarray, p: int, L: int,
                  inv_table=None) -> np.ndarray:
    """Inverses of 2x2 residue matrices with unit determinant mod p^L."""
    m = p ** L
    if inv_table is None:
        inv_table = unit_inverse_table(p, L)
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    det = (a * d - b * c) % m
    if np.any(det % p == 0):
        raise ZeroDivisionError("non-unit determinant in batch inverse")
    dinv = inv_table[det]
    out = np.empty_like(mats)
    out[:, 0, 0] = d * dinv % m
    out[:, 0, 1] = (-b) * dinv % m
    out[:, 1, 0] = (-c) * dinv % m
    out[:, 1, 1] = a * dinv % m
    return out


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


def sorted_index(codes_sorted: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Indices of queries in a sorted code array; -1 where absent."""
    if len(codes_sorted) == 0:
        return np.full(len(queries), -1, dtype=np.intp)
    pos = np.searchsorted(codes_sorted, queries)
    pos_clip = np.minimum(pos, len(codes_sorted) - 1)
    ok = codes_sorted[pos_clip] == queries
    return np.where(ok, pos_clip, -1)


def contains_codes(codes_sorted: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return sorted_index(codes_sorted, queries) >= 0
