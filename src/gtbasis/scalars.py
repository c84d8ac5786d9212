"""Exact arithmetic with rational combinations of square roots.

Every coefficient that shows up when the sl_n generators act on a
Gelfand-Tsetlin pattern is a square root of a rational number, and sums of
products of such.  They all live in the field of finite sums

    c_1*sqrt(d_1) + c_2*sqrt(d_2) + ...

with rational c_i and distinct squarefree positive integers d_i.  Since
square roots of distinct squarefree integers are linearly independent over
the rationals, the map {d -> c_d} is a canonical form.  It is kept on plain
ints, c_d = n_d / D over one common denominator D ≥ 1 with gcd(D, every n_d)
= 1, so equality compares ints and the arithmetic builds no Fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt


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
    if isinstance(x, int) and not isinstance(x, bool):
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


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class RadicalScalar:
    """An element sum(n_d * sqrt(d)) / den in canonical form.

    ``terms`` maps squarefree radicand d to its nonzero int numerator n_d;
    the rational part sits at d = 1.  ``den`` ≥ 1 is the one common
    denominator, with gcd(den, every n_d) = 1; zero is ({}, 1).  The
    constructor takes {d: Fraction or int}, and ``coefficients`` gives that
    form back.  Immutable; ``__eq__`` and ``__hash__`` are written out, as a
    generated ``__hash__`` would hash the dict ``terms`` and fail.
    """

    terms: dict[int, int]
    den: int

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                if type(d) is not int:
                    raise TypeError("radicand must be an int, got %r" % (d,))
                c = _as_fraction(c)
                if c == 0:
                    continue
                s, df = squarefree_decompose(d)
                clean[df] = clean.get(df, Fraction(0)) + c * s
                if clean[df] == 0:
                    del clean[df]
        terms, den = _over_common_den(clean)
        _set_terms(self, terms)
        _set_den(self, den)

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
        return Fraction(self.terms.get(1, 0), self.den)

    def coefficients(self) -> dict[int, Fraction]:
        """{d: c_d}, each c_d = n_d / den a nonzero Fraction."""
        return {d: Fraction(n, self.den) for d, n in self.terms.items()}

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return _sum(self, other, 1)

    def __neg__(self) -> "RadicalScalar":
        return _make({d: -n for d, n in self.terms.items()}, self.den)

    def __sub__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return _sum(self, other, -1)

    def __mul__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _make({}, 1)
        # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2), and
        # d1*d2/g^2 is squarefree again.
        den = self.den * other.den
        if len(a) == 1 and len(b) == 1:
            ((d1, n1),) = a.items()
            ((d2, n2),) = b.items()
            g = gcd(d1, d2)
            n = n1 * n2 * g
            h = gcd(n, den)
            return _make({(d1 // g) * (d2 // g): n // h}, den // h)
        out: dict[int, int] = {}
        for d1, n1 in a.items():
            for d2, n2 in b.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                acc = out.get(d, 0) + n1 * n2 * g
                if acc:
                    out[d] = acc
                else:
                    del out[d]
        return _reduced(out, den)

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
            conj = _make({d: -n if d % p == 0 else n for d, n in den.terms.items()}, den.den)
            num = num * conj
            den = den * conj
        n, q = den.terms[1], den.den  # den is the rational n / q ≠ 0
        q = q if n > 0 else -q
        return _reduced({d: m * q for d, m in num.terms.items()}, num.den * abs(n))

    def __truediv__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self * other.invert()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is, without its
        # method calls; sum(), not +=, since Python 3.12's sum compensates
        den = self.den
        return sum(n / den * sqrt(d) for d, n in self.terms.items())

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self):
        return "RadicalScalar(%s)" % (self.coefficients(),)

    def __str__(self):
        parts = []
        for d, c in sorted(self.coefficients().items()):
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
            {"radicand": d, "num": str(c.numerator), "den": str(c.denominator)}
            for d, c in sorted(self.coefficients().items())
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
        return _make(*_over_common_den(terms))


# The slots' own setters, which bypass the frozen RadicalScalar.__setattr__.
_set_terms, _set_den = RadicalScalar.terms.__set__, RadicalScalar.den.__set__


def _make(terms: dict[int, int], den: int) -> RadicalScalar:
    """Wrap a canonical pair: squarefree keys, nonzero ints, den coprime to them."""
    res = RadicalScalar.__new__(RadicalScalar)
    _set_terms(res, terms)
    _set_den(res, den)
    return res


def _reduced(terms: dict[int, int], den: int) -> RadicalScalar:
    """Wrap nonzero ints over den ≥ 1, dividing out their gcd with den ({} gets den 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {d: n // g for d, n in terms.items()}
            den //= g
    return _make(terms, den)


def _over_common_den(coeffs: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Reduced Fractions as ints over the lcm of their denominators, with gcd 1:
    each prime's full power in the lcm is in a denominator, prime to its numerator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {d: c.numerator * (den // c.denominator) for d, c in coeffs.items()}, den


def _sum(x: RadicalScalar, y: RadicalScalar, sign: int) -> RadicalScalar:
    """x + sign*y, over x's den when the dens agree, else over their lcm."""
    den, fy = x.den, sign
    if den == y.den:
        out = dict(x.terms)
    else:
        g = gcd(den, y.den)
        fx, fy = y.den // g, sign * (den // g)
        out = {d: n * fx for d, n in x.terms.items()}
        den *= fx
    for d, n in y.terms.items():
        acc = out.get(d, 0) + n * fy
        if acc:
            out[d] = acc
        else:
            del out[d]
    return _reduced(out, den)


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
    return _sqrt_ratio(r.numerator, r.denominator)


def _sqrt_ratio(p: int, q: int) -> RadicalScalar:
    """sqrt(p/q) for coprime ints p ≥ 0 and q ≥ 1, as ``sqrt_rational``."""
    if p == 0:
        return _make({}, 1)
    s, d = squarefree_decompose(p * q)
    return _reduced({d: s}, q)
