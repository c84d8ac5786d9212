"""Exact arithmetic with rational combinations of square roots.

Every coefficient that shows up when the sl_n generators act on a
Gelfand-Tsetlin pattern is a square root of a rational number, and sums of
products of such.  They all live in the field of finite sums

    c_1*sqrt(d_1) + c_2*sqrt(d_2) + ...

with rational c_i and distinct squarefree positive integers d_i.  Since
square roots of distinct squarefree integers are linearly independent over
the rationals, the map {d -> c_d} is a canonical form and equality is just
dict comparison.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, sqrt


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree; return (s, d).

    Trial division is plenty here: the integers we see are small products
    of pattern-entry differences.
    """
    if n < 1:
        raise ValueError("squarefree_decompose needs a positive integer, got %r" % (n,))
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m  # leftover m is prime (or 1)
    return s, d


def is_squarefree(n: int) -> bool:
    """Whether n ≥ 1 has no square factor other than 1.

    Trial division stops once p³ exceeds m, the cofactor left.  Every prime
    factor of m is then at least p, so m has at most two, and m is
    squarefree unless it is the square of a prime.  That takes about ∛n
    steps where ``squarefree_decompose`` takes √n.
    """
    if n < 1:
        return False
    m, p = n, 2
    while p * p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 1 if p == 2 else 2
    return m == 1 or isqrt(m) ** 2 != m


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an int or Fraction, got %r" % (x,))


def json_int(x) -> int:
    """An integer field of a JSON document: an int, or an integer string.

    These are the forms ``to_json`` writes; anything else (a float, a bool,
    " 1", "1_000") is a ValueError rather than a truncated or lenient read.
    """
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise ValueError("not an integer: %r" % (x,))


class RadicalScalar:
    """An element sum(c_d * sqrt(d)) in canonical form.

    ``terms`` maps squarefree radicand d to its nonzero rational
    coefficient; the rational part sits at d = 1.  Instances are immutable
    and hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                s, df = squarefree_decompose(d)
                clean[df] = clean.get(df, Fraction(0)) + c * s
                if clean[df] == 0:
                    del clean[df]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RadicalScalar is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "RadicalScalar":
        return cls({1: _as_fraction(r)})

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return cls()

    @classmethod
    def one(cls) -> "RadicalScalar":
        return cls({1: Fraction(1)})

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self.terms)

    @property
    def rational_part(self) -> Fraction:
        return self.terms.get(1, Fraction(0))

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        out = dict(self.terms)
        for d, c in other.terms.items():
            acc = out.get(d)
            if acc is None:
                out[d] = c
            else:
                acc += c
                if acc:
                    out[d] = acc
                else:
                    del out[d]
        return _make(out)

    def __neg__(self) -> "RadicalScalar":
        return _make({d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        out = dict(self.terms)
        for d, c in other.terms.items():
            acc = out.get(d)
            if acc is None:
                out[d] = -c
            else:
                acc -= c
                if acc:
                    out[d] = acc
                else:
                    del out[d]
        return _make(out)

    def __mul__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _make({})
        # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2), and
        # d1*d2/g^2 is squarefree again.
        if len(a) == 1 and len(b) == 1:
            # c1*c2*g as one Fraction: a single normalization
            ((d1, c1),) = a.items()
            ((d2, c2),) = b.items()
            g = gcd(d1, d2)
            return _make({
                (d1 // g) * (d2 // g): Fraction(
                    c1.numerator * c2.numerator * g, c1.denominator * c2.denominator
                )
            })
        out: dict[int, Fraction] = {}
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                acc = out.get(d)
                if acc is None:
                    out[d] = c
                else:
                    acc += c
                    if acc:
                        out[d] = acc
                    else:
                        del out[d]
        return _make(out)

    def scale(self, r) -> "RadicalScalar":
        """Multiply by a plain rational (cheaper than a full mul)."""
        r = _as_fraction(r)
        if r == 0:
            return _make({})
        return _make({d: c * r for d, c in self.terms.items()})

    # -- field structure ---------------------------------------------------

    def invert(self) -> "RadicalScalar":
        """Exact multiplicative inverse.

        Repeatedly conjugate away one prime at a time: pick a prime p that
        divides some radicand of the running denominator, negate every term
        whose radicand p divides (the field automorphism sqrt(p) -> -sqrt(p))
        and multiply both numerator and denominator by that conjugate.  The
        set of primes appearing in the denominator's radicands strictly
        shrinks each round, so this terminates with a rational denominator.
        """
        if not self.terms:
            raise ZeroDivisionError("cannot invert zero")
        num = RadicalScalar.one()
        den = self
        while not den.is_rational():
            p = _some_radicand_prime(den)
            conj_terms = {
                d: (-c if d % p == 0 else c) for d, c in den.terms.items()
            }
            conj = _make(conj_terms)
            num = num * conj
            den = den * conj
        return num.scale(1 / den.rational_part)

    def __truediv__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self * other.invert()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is, without its
        # method calls; sum(), not +=, since Python 3.12's sum compensates
        return sum(c.numerator / c.denominator * sqrt(d) for d, c in self.terms.items())

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self):
        return "RadicalScalar(%s)" % (self.terms,)

    def __str__(self):
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 1:
                text = str(c)
            else:
                text = multiple_text(c.numerator, "√%d" % d)
                if c.denominator != 1:
                    text += "/%d" % c.denominator
            parts.append(text)
        return join_terms(parts)

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Sorted [{radicand, num, den}] with big integers as strings."""
        return [
            {
                "radicand": d,
                "num": str(self.terms[d].numerator),
                "den": str(self.terms[d].denominator),
            }
            for d in sorted(self.terms)
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "RadicalScalar":
        """Read ``to_json`` output.

        A repeated or non-squarefree radicand is a ValueError, as is a field
        that is not an int or an integer string (``json_int``) and a
        coefficient that is zero or not num/den in lowest terms with den > 0.
        """
        if not isinstance(data, list):  # {} or "" would read as zero
            raise ValueError("scalar is not a list: %r" % (data,))
        try:
            items = [(json_int(item["radicand"]), json_int(item["num"]), json_int(item["den"]))
                     for item in data]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed scalar document: %r" % (exc,)) from None
        terms = {}
        for d, num, den in items:
            if not is_squarefree(d):
                raise ValueError("radicand %d is not squarefree" % (d,))
            if num == 0 or den < 1 or gcd(num, den) != 1:
                raise ValueError("coefficient %d/%d is not as to_json writes it" % (num, den))
            terms[d] = Fraction(num, den)
        if len(terms) != len(items):
            raise ValueError("repeated radicand in %r" % (data,))
        return _make(terms)


# The slot's own setter: RadicalScalar.__setattr__ refuses every assignment.
_set_terms = RadicalScalar.terms.__set__


def _make(terms: dict[int, Fraction]) -> RadicalScalar:
    """Wrap a dict that is already canonical: squarefree keys, nonzero Fractions."""
    res = RadicalScalar.__new__(RadicalScalar)
    _set_terms(res, terms)
    return res


def multiple_text(k: int, symbol: str) -> str:
    """Integer multiple of a symbol as text: "x", "-x" or "3x"."""
    if k == 1:
        return symbol
    if k == -1:
        return "-" + symbol
    return "%d%s" % (k, symbol)


def join_terms(parts: list[str]) -> str:
    """Join term texts with " + ", writing "+ -x" as "- x"; "0" if none."""
    if not parts:
        return "0"
    out = parts[0]
    for text in parts[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


def _some_radicand_prime(x: RadicalScalar) -> int:
    """Smallest prime factor of some non-unit radicand of x."""
    for d in x.terms:
        if d > 1:
            p = 2
            while d % p:
                p += 1 if p == 2 else 2
            return p
    raise ValueError("no non-rational term")  # pragma: no cover


def sqrt_rational(r) -> RadicalScalar:
    """Exact square root of a nonnegative rational as a RadicalScalar.

    sqrt(p/q) = sqrt(p*q)/q = (s/q)*sqrt(d) where p*q = s**2 * d, so the
    radicand is a single squarefree integer and the denominator is rational.
    """
    r = _as_fraction(r)
    if r < 0:
        raise ValueError("sqrt_rational of a negative rational: %s" % (r,))
    if r == 0:
        return RadicalScalar()
    p, q = r.numerator, r.denominator
    s, d = squarefree_decompose(p * q)
    return _make({d: Fraction(s, q)})
