"""Bulk helpers for matrices over Z/p^L: enumeration, inverses, lookups.

Element sets are numpy arrays of shape (M, n, n) with int64 residues in
[0, p^L).  For sorting and membership each matrix is packed into one int64
(pack, while (p^L)^(n^2) < 2^62) or, only past that, keyed by its bytes
(matrix_keys, any modulus).  Sets of codes are deduplicated by sorting
(sorted_unique) and looked up by binary search (sorted_index); the lattice
torus closure keeps its elements this way.  All heavy pairwise checks go
through these helpers so they stay exact (integer arithmetic only) while
running at numpy speed.  A stacked kernel sizes its chunks with chunk_rows
to hold CHUNK_BYTES of temporaries, or walks a stack in the row_blocks that
fit them; in groups, every product that is looked up goes through the one
kernel there that calls chunk_rows, groups.product_index.
"""

from __future__ import annotations

import math
import random

import numpy as np

# bytes that the temporaries of one chunk of a stacked kernel may hold
CHUNK_BYTES = 1 << 20


def chunk_rows(row_bytes: int) -> int:
    """Rows per chunk of a stacked kernel whose temporaries take row_bytes
    per row."""
    return max(1, CHUNK_BYTES // max(1, row_bytes))


def row_blocks(count: int, row_bytes: int):
    """Slices that cover range(count) in order, chunk_rows(row_bytes) rows
    each (the last may be shorter)."""
    step = chunk_rows(row_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def fits_packing(p: int, L: int, n: int) -> bool:
    return (p ** L) ** (n * n) < 2 ** 62


def _weights(p: int, L: int, n: int) -> np.ndarray:
    """Place values (p^L)^(n^2 - 1), ..., 1 of the row-major packing."""
    if not fits_packing(p, L, n):
        raise OverflowError("residue packing does not fit in int64")
    return (p ** L) ** np.arange(n * n - 1, -1, -1, dtype=np.int64)


def pack(mats: np.ndarray, p: int, L: int) -> np.ndarray:
    """Row-major base-p^L packing of (M, n, n) residue matrices."""
    M, n, _ = mats.shape
    return np.asarray(mats, dtype=np.int64).reshape(M, n * n) \
        @ _weights(p, L, n)


def pack_mod(mats: np.ndarray, p: int, L: int, moduli) -> np.ndarray:
    """pack(mats % moduli, p, L) for an (M, n, n) stack, where moduli, one
    modulus or an (n, n) array of them, divides p^L: one row block at a
    time, so the reduced copy stays in CHUNK_BYTES."""
    mats = np.asarray(mats)
    M, n, _ = mats.shape
    out = np.empty(M, dtype=np.int64)
    for blk in row_blocks(M, 8 * n * n):
        out[blk] = pack(np.asarray(mats[blk], dtype=np.int64) % moduli, p, L)
    return out


def distinct_codes(mats: np.ndarray, p: int, L: int, moduli) -> np.ndarray:
    """The sorted distinct codes of mats % moduli (as pack_mod), merged one
    row block at a time, so that a block's codes and the distinct ones are
    all that is held."""
    out = np.zeros(0, dtype=np.int64)
    for blk in row_blocks(len(mats), 3 * 8):
        out = sorted_unique(np.concatenate([out, pack_mod(mats[blk], p, L,
                                                          moduli)]))
    return out


def matrix_keys(mats: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per (M, n, n) residue matrix, for any modulus:
    big-endian int64 entries, so residues sort in row-major order."""
    M, n, _ = mats.shape
    flat = np.ascontiguousarray(mats.reshape(M, n * n), dtype=">i8")
    return flat.view(np.dtype((np.void, 8 * n * n))).ravel()


def unpack(codes: np.ndarray, p: int, L: int, n: int) -> np.ndarray:
    """The (M, n, n) residue matrices of codes made by pack."""
    digits = np.asarray(codes, dtype=np.int64)[:, None] // _weights(p, L, n)
    digits %= p ** L
    return digits.reshape(len(codes), n, n)


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


def unit_codes(p: int, s: int, n: int) -> np.ndarray:
    """The sorted codes of GL_n(Z/p^s), listed as the lifts g + p y of the
    units g of GL_n(F_p), so that no p^(n^2 s) box is inverted."""
    box = unpack(np.arange(p ** (n * n)), p, 1, n)
    lifts = box_enumerate([0] * (n * n), [p] * (n * n),
                          [p ** (s - 1)] * (n * n), p ** s)
    codes = (pack(box[det_inv_mod(box, p, 1)[2]], p, s)[:, None]
             + pack(lifts.reshape(-1, n, n), p, s)).ravel()
    codes.sort()
    return codes


def det_inv_mod(mats, p: int, L: int):
    """(det, inverses, unit) of an (M, n, n) stack of residue matrices mod p^L.

    Gauss-Jordan in int64, one chunk of chunk_rows matrices at a time into
    preallocated outputs, so that one chunk's temporaries (its reduced
    input, augmented rows and one product of them) stay in CHUNK_BYTES.
    Each column pivots on a row entry of least p-adic valuation, so every
    elimination step is an integer row operation and det is exact mod p^L
    for every matrix.  Where det is a unit every pivot is a unit and the
    right half ends as the inverse; rows of `inv` where `unit` is False are
    meaningless.
    """
    mod = p ** L
    if mod * mod >= 1 << 63:
        raise OverflowError("residue products do not fit in int64")
    mats = np.asarray(mats)
    M, n, _ = mats.shape
    det = np.empty(M, dtype=np.int64)
    inv = np.empty((M, n, n), dtype=np.int64)
    for blk in row_blocks(M, 8 * (5 * n * n + 8 * n + 8)):
        a = np.asarray(mats[blk], dtype=np.int64) % mod
        aug = np.concatenate([a, np.broadcast_to(np.eye(n, dtype=np.int64),
                                                 a.shape)], axis=2)
        d = np.ones(len(a), dtype=np.int64)
        rows = np.arange(len(a))
        for c in range(n):
            # gcd(x, p^L) = p^v, with v the valuation of x capped at L
            pw = np.gcd(aug[:, c:, c], mod)
            piv = c + np.argmin(pw, axis=1)
            pw = pw[rows, piv - c]
            top = aug[rows, piv]
            d = np.where(piv == c, d, -d) * top[:, c] % mod
            # unit^-1 = unit^(phi(p^L) - 1), by square and multiply
            unit = top[:, c] // pw
            uinv = np.ones(len(a), dtype=np.int64)
            e = p ** (L - 1) * (p - 1) - 1
            while e:
                if e & 1:
                    uinv = uinv * unit % mod
                unit = unit * unit % mod
                e >>= 1
            aug[rows, piv] = aug[:, c]
            aug[:, c] = top * uinv[:, None] % mod
            f = aug[:, :, c] // pw[:, None]
            f[:, c] = 0
            aug -= f[:, :, None] * aug[:, c, None]
            aug %= mod
        det[blk] = d
        inv[blk] = aug[:, :, n:]
    return det, inv, det % p != 0


class Draws:
    """Seeded uniform integers for the sampled checks, from the standard
    library's Mersenne Twister (numpy.random, with its OpenSSL-backed
    seeding, is never imported).

    The stream is one sequence of 64-bit words.  A draw from [low, high)
    masks the next word to the bit length of high - low - 1 and keeps it
    when it is below high - low, else moves on to the next word, so every
    kept value is exactly uniform and k draws consume the same words
    whether they are asked for at once or one at a time.  Each rejection
    round asks for as many words as values are missing; a word is kept with
    probability above 1/2, so after 64 + log2(count) rounds a value is
    still missing with probability below 2^-64, and such a draw raises.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def integers(self, low: int, high: int, size=()) -> np.ndarray:
        """An int64 array of the given shape, uniform on [low, high)."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        count, span = math.prod(shape), high - low
        if not 0 < span <= 1 << 63:
            raise ValueError(f"cannot draw from [{low}, {high})")
        mask = np.uint64((1 << (span - 1).bit_length()) - 1)
        out = np.empty(count, dtype=np.int64)
        filled, rounds = 0, 64 + count.bit_length()
        while filled < count:
            if not rounds:
                raise RuntimeError("rejection sampling exceeded its bound")
            rounds -= 1
            need = count - filled
            words = np.frombuffer(self._random.getrandbits(64 * need)
                                  .to_bytes(8 * need, "little"), "<u8") & mask
            kept = words[words < span]
            out[filled:filled + len(kept)] = kept
            filled += len(kept)
        return (out + low).reshape(shape)


def sample_units_outside(inside, p: int, L: int, n: int, rng: Draws,
                         tries: int):
    """Yield the units g of GL_n(Z/p^L) with inside(g) False.

    Draws at most `tries` matrices rng.integers(0, p^L, (n, n)).  They are
    taken in blocks that double in size, which by the word stream of Draws
    are the draws of one matrix at a time, so the units yielded do not
    depend on how many of them the caller takes.  The unit test and
    `inside`, a predicate on (k, n, n) stacks, are decided per block, so
    rng may be left up to one block past the last yielded draw.
    """
    block = 8
    while tries > 0:
        k = min(block, tries)
        gs = rng.integers(0, p ** L, size=(k, n, n))
        keep = det_inv_mod(gs, p, L)[2]
        if keep.any():
            keep[keep] = ~np.asarray(inside(gs[keep]), dtype=bool)
        yield from gs[keep]
        tries -= k
        block *= 2


def unique_in_place(codes: np.ndarray) -> int:
    """Sort a 1-D array in place and move its distinct values to the front,
    by comparing sorted neighbours; returns how many there are."""
    codes.sort()
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    distinct = int(np.count_nonzero(keep))
    if distinct < len(codes):
        codes[:distinct] = codes[keep]
    return distinct


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted (np.unique hashes, and
    imports numpy.ma on first use)."""
    codes = np.array(codes)
    return codes[:unique_in_place(codes)]


def _hits(codes_sorted: np.ndarray, queries: np.ndarray):
    """(blk, pos, hit) for each row block of the queries: pos their
    positions in the sorted codes, clipped in place, and hit whether the
    code there is the query.  One block's temporaries stay in CHUNK_BYTES."""
    for blk in row_blocks(len(queries) if len(codes_sorted) else 0,
                          2 * 8 + 1 + codes_sorted.itemsize):
        chunk = queries[blk]
        pos = np.searchsorted(codes_sorted, chunk)
        np.minimum(pos, len(codes_sorted) - 1, out=pos)
        yield blk, pos, codes_sorted[pos] == chunk


def sorted_index(codes_sorted: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Indices of queries in a sorted code array; -1 where absent."""
    out = np.full(len(queries), -1, dtype=np.intp)
    for blk, pos, hit in _hits(codes_sorted, queries):
        out[blk][hit] = pos[hit]
    return out


def contains_codes(codes_sorted: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query is in a sorted code array."""
    out = np.zeros(len(queries), dtype=bool)
    for blk, pos, hit in _hits(codes_sorted, queries):
        out[blk] = hit
    return out
