"""Exact truncated p-adic arithmetic for matrices.

A matrix is stored as p^scale * (entries mod p^prec) together with an
explicit exact-zero flag.  Exact inputs (integer matrices such as the datum
element beta) keep their entries as true integers, so valuations computed
from them are never guesses; truncated values carry an honest ``prec`` field and any
operation that would need digits beyond it raises PrecisionLoss instead of
silently inventing them.

The working prime p plays the role of the uniformiser throughout: the base
field is Q_p and nothing here supports ramified base fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionLoss

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


@dataclass(frozen=True)
class PrecisionCtx:
    """Working prime p and number of tracked digits N (congruences mod p^N)."""

    p: int
    N: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    def require_same(self, other: "PrecisionCtx"):
        if (self.p, self.N) != (other.p, other.N):
            raise ValueError(f"mixed precision contexts {self} vs {other}")


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


class MatrixApprox:
    """An n x n matrix over Q_p stored as p^scale times an integer matrix.

    ``exact=True`` means the entries are true integers; otherwise they are
    residues mod p^prec.  After ``normalize`` not all entries are divisible
    by p (the scale absorbs common powers), so equal values have identical
    normalized forms.
    """

    __slots__ = ("ctx", "n", "scale", "entries", "prec", "exact", "zero")

    def __init__(self, ctx, entries, scale=0, prec=None, exact=False, zero=False):
        self.ctx = ctx
        self.zero = zero
        if zero:
            self.n = len(entries)
            self.scale = 0
            self.entries = tuple(tuple(0 for _ in range(self.n)) for _ in range(self.n))
            self.prec = ctx.N
            self.exact = True
            return
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        self.n = n
        self.scale = scale
        self.exact = exact
        self.prec = ctx.N if prec is None else prec
        if self.prec < 1:
            raise PrecisionLoss("matrix retains no significant digits")
        if exact:
            self.entries = tuple(tuple(int(v) for v in row) for row in entries)
        else:
            m = ctx.p ** self.prec
            self.entries = tuple(tuple(int(v) % m for v in row) for row in entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_exact(cls, ctx, entries, scale=0) -> "MatrixApprox":
        if all(v == 0 for row in entries for v in row):
            return cls.zero_of(ctx, len(entries))
        return cls(ctx, entries, scale=scale, exact=True)

    @classmethod
    def identity(cls, ctx, n) -> "MatrixApprox":
        return cls.from_exact(ctx, [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])

    @classmethod
    def zero_of(cls, ctx, n) -> "MatrixApprox":
        return cls(ctx, [[0] * n for _ in range(n)], zero=True)

    # -- bookkeeping -------------------------------------------------------

    def entry_val_floor(self, r, c):
        """(val, exactly_known): valuation of entry value p^scale*entries[r][c].

        For a residue that vanishes mod p^prec of an inexact matrix the true
        valuation is only bounded below; the flag is False in that case.
        """
        v = self.entries[r][c]
        if v == 0:
            if self.exact:
                return None, True  # exact zero entry
            return self.scale + self.prec, False
        if not self.exact and vp(v, self.ctx.p) >= self.prec:
            return self.scale + self.prec, False
        return self.scale + vp(v, self.ctx.p), True

    def normalize(self) -> "MatrixApprox":
        """Extract the common p-power of the entries into the scale.

        Raises PrecisionLoss when every entry vanishes mod p^prec without the
        matrix being declared exactly zero.
        """
        if self.zero:
            return self
        p = self.ctx.p
        vals = []
        for row in self.entries:
            for v in row:
                if v != 0:
                    vals.append(vp(v, p))
        if not vals:
            if self.exact:
                return MatrixApprox.zero_of(self.ctx, self.n)
            raise PrecisionLoss("all entries vanish mod p^prec, value undeclared")
        d = min(vals)
        if not self.exact and d >= self.prec:
            raise PrecisionLoss("all entries vanish mod p^prec, value undeclared")
        if d == 0:
            return self
        ent = [[v // p ** d for v in row] for row in self.entries]
        prec = self.prec if self.exact else self.prec - d
        return MatrixApprox(self.ctx, ent, scale=self.scale + d,
                            prec=prec, exact=self.exact)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scalar_mul(other)
        self.ctx.require_same(other.ctx)
        if self.zero or other.zero:
            return MatrixApprox.zero_of(self.ctx, self.n)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        exact = self.exact and other.exact
        if exact:
            prec = min(self.prec, other.prec)
        else:
            # an exact factor does not limit the digits of the product
            prec = min(p for p, ex in ((self.prec, self.exact),
                                       (other.prec, other.exact)) if not ex)
        m = self.ctx.p ** prec
        ent = mat_mul_int(self.entries, other.entries)
        if not exact:
            ent = [[v % m for v in row] for row in ent]
        return MatrixApprox(self.ctx, ent, scale=self.scale + other.scale,
                            prec=prec, exact=exact)

    def _scalar_mul(self, k: int):
        if self.zero or k == 0:
            return MatrixApprox.zero_of(self.ctx, self.n)
        ent = [[v * k for v in row] for row in self.entries]
        return MatrixApprox(self.ctx, ent, scale=self.scale,
                            prec=self.prec, exact=self.exact)

    def scaled(self, k: int) -> "MatrixApprox":
        """The value p^k * self (pure scale shift, no digit movement)."""
        if self.zero:
            return self
        return MatrixApprox(self.ctx, self.entries, scale=self.scale + k,
                            prec=self.prec, exact=self.exact)

    __rmul__ = __mul__

    def inverse(self) -> "MatrixApprox":
        """Inverse via the adjugate; the reported prec drops by v_p(det)."""
        if self.zero:
            raise ZeroDivisionError("zero matrix")
        p = self.ctx.p
        rows = [list(r) for r in self.entries]
        det = _int_det(rows)
        if det == 0 and self.exact:
            raise ZeroDivisionError("exact matrix is singular")
        if self.exact:
            # the inverse of an exact matrix is exactly determined; carry
            # enough digits that later renormalization keeps N of them
            t = vp(det, p)
            prec = self.ctx.N + t + self.n * abs(self.scale) + 2
        else:
            det %= p ** self.prec
            if det == 0:
                raise PrecisionLoss("det valuation too large for tracked digits")
            t = vp(det, p)
            prec = self.prec - t
            if prec < 1:
                raise PrecisionLoss("det valuation too large for tracked digits")
        unit = det // p ** t
        m = p ** prec
        uinv = pow(unit % m, -1, m)
        adj = _adjugate(rows, self.n)
        ent = [[v * uinv % m for v in row] for row in adj]
        return MatrixApprox(self.ctx, ent, scale=-self.scale - t,
                            prec=prec, exact=False)

    def pow(self, k: int) -> "MatrixApprox":
        if k < 0:
            return self.pow(-k).inverse()
        result = MatrixApprox.identity(self.ctx, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        tag = "exact" if self.exact else f"mod p^{self.prec}"
        return f"MatrixApprox(p^{self.scale} * {list(map(list, self.entries))}, {tag})"

