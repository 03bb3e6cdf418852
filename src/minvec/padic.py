"""Exact integer arithmetic over Z_p: primality, valuations and small
integer matrices.

Everything on the datum side is an exact integer: a matrix over Q_p is held
as a pair (integer rows B, scale s) meaning p^s * B, so a valuation read off
it is a fact, never a guess from truncated digits.  The working prime p
plays the role of the uniformiser throughout: the base field is Q_p and
nothing here supports ramified base fields.
"""

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = 41
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _adjugate(rows, n):
    """Adjugate of an n x n integer matrix given as list of lists."""
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = [[rows[i][j] for j in range(n) if j != c]
                     for i in range(n) if i != r]
            adj[c][r] = (-1) ** (r + c) * _int_det(minor)
    return adj


def mat_mul_int(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [[rows[i][j] for j in range(n) if j != c] for i in range(1, n)]
        det += (-1) ** c * rows[0][c] * _int_det(minor)
    return det
