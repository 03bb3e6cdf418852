"""Exact arithmetic with p-power roots of unity.

A value is a formal Q-linear combination of e^{2 pi i t} over exponents
t in Q/Z with p-power denominator.  Equality is decided after canonical
reduction modulo the cyclotomic polynomial Phi_{p^k}(x) = sum_{i<p} x^{i p^{k-1}},
so no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import vp


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
