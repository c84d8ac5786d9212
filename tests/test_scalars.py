"""Exact radical arithmetic: examples, field axioms, JSON round-trips."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis.scalars import (
    RadicalScalar,
    is_squarefree,
    json_int,
    sqrt_rational,
    squarefree_decompose,
)

SQRT2 = sqrt_rational(2)
ONE = RadicalScalar.one()
ZERO = RadicalScalar.zero()


def test_squarefree_decompose_examples():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(36) == (6, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(7) == (1, 7)


def test_squarefree_decompose_reconstructs():
    for n in range(1, 2000):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, int(math.isqrt(d)) + 1):
            assert d % (p * p) != 0


def test_sqrt_rational_examples():
    assert sqrt_rational(2) == RadicalScalar({2: 1})
    assert sqrt_rational(Fraction(9, 4)) == RadicalScalar({1: Fraction(3, 2)})
    assert sqrt_rational(Fraction(1, 2)) == RadicalScalar({2: Fraction(1, 2)})
    assert sqrt_rational(0) == ZERO
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_add_examples():
    assert SQRT2 + SQRT2 == RadicalScalar({2: 2})
    assert SQRT2 + (-SQRT2) == ZERO
    half = Fraction(1, 2)
    combined = RadicalScalar({2: half}) + RadicalScalar({6: half})
    assert combined == RadicalScalar({2: half, 6: half})
    assert SQRT2 + ONE == RadicalScalar({1: 1, 2: 1})


def test_mul_examples():
    assert SQRT2 * SQRT2 == RadicalScalar.from_rational(2)
    assert SQRT2 * sqrt_rational(3) == sqrt_rational(6)
    half_sqrt6 = RadicalScalar({6: Fraction(1, 2)})
    assert half_sqrt6 * half_sqrt6 == RadicalScalar.from_rational(Fraction(3, 2))
    assert sqrt_rational(6) * sqrt_rational(10) == RadicalScalar({15: 2})


def test_invert_examples():
    assert SQRT2.invert() == RadicalScalar({2: Fraction(1, 2)})
    assert RadicalScalar.from_rational(Fraction(3, 2)).invert() == (
        RadicalScalar.from_rational(Fraction(2, 3))
    )
    one_plus_sqrt2 = ONE + SQRT2
    assert one_plus_sqrt2.invert() == RadicalScalar({1: -1, 2: 1})
    assert one_plus_sqrt2 * one_plus_sqrt2.invert() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()


def test_invert_multi_term():
    x = RadicalScalar({1: Fraction(1, 3), 2: -2, 15: Fraction(7, 5)})
    assert x * x.invert() == ONE
    y = RadicalScalar({2: 1, 3: 1, 6: 1})
    assert y * y.invert() == ONE


def test_truediv():
    x = RadicalScalar({2: 1, 3: -1})
    assert (x / x) == ONE
    assert (SQRT2 / SQRT2) == ONE


def test_to_float_examples():
    assert abs(SQRT2.to_float() - math.sqrt(2)) < 1e-12
    assert ZERO.to_float() == 0.0
    combined = RadicalScalar({2: Fraction(1, 2), 6: Fraction(1, 2)})
    assert abs(combined.to_float() - 1.9318516525781366) < 1e-9
    assert float(combined) == combined.to_float()


def test_to_float_is_the_exact_float_sum_bit_for_bit():
    rng = random.Random(20)
    radicands = [1, 2, 3, 5, 6, 7, 10, 15, 30, 105, 9699690]
    cases = [SQRT2, RadicalScalar({2: Fraction(1, 2), 6: Fraction(1, 2)})]
    for size in (1, 1, 2, 3, 4) * 60:
        big = 10 ** rng.choice((3, 12, 30))  # past 2**53 too: one rounding, not two
        terms = {d: Fraction(rng.randint(-big, big) or 1, rng.randint(1, big))
                 for d in rng.sample(radicands, size)}
        cases.append(RadicalScalar(terms))
    assert any(len(x.terms) == 1 for x in cases) and any(len(x.terms) > 2 for x in cases)
    for x in cases:
        want = sum(float(c) * math.sqrt(d) for d, c in x.coefficients().items())
        assert x.to_float() == want and float(x) == want, x


def test_constructor_takes_int_radicands_and_no_bools():
    # a float radicand went into to_json as 2.0, which from_json refuses; a
    # bool read as the int it subclasses
    for bad in ({2.0: 1}, {"2": 1}, {Fraction(2): 1}, {True: 3}, {2: True}, {2: False},
                {2: 1.5}):
        with pytest.raises(TypeError):
            RadicalScalar(bad)
    with pytest.raises(TypeError):
        RadicalScalar.from_rational(True)


def test_canonicalization_collapses_radicands():
    # √8 = 2√2, so {8: 1} and {2: 2} are the same canonical value.
    assert RadicalScalar({8: 1}) == RadicalScalar({2: 2})
    assert RadicalScalar({4: Fraction(1, 2)}) == ONE
    assert RadicalScalar({2: 0}) == ZERO


def test_equality_is_structural_and_hashable():
    a = RadicalScalar({2: Fraction(1, 2), 3: 1})
    b = RadicalScalar({3: 1, 2: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert a != RadicalScalar({2: Fraction(1, 2)})
    assert len({a, b}) == 1


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(SQRT2) == "√2"
    assert str(-SQRT2) == "-√2"
    assert str(RadicalScalar({2: Fraction(1, 2)})) == "√2/2"
    assert str(RadicalScalar({6: Fraction(1, 2)})) == "√6/2"
    assert str(RadicalScalar({1: 1, 2: -1})) == "1 - √2"
    assert str(RadicalScalar({2: Fraction(-3, 2)})) == "-3√2/2"


def test_json_round_trip():
    x = RadicalScalar({1: Fraction(-7, 3), 2: Fraction(1, 2), 30: 4})
    doc = x.to_json()
    assert doc == [
        {"radicand": 1, "num": "-7", "den": "3"},
        {"radicand": 2, "num": "1", "den": "2"},
        {"radicand": 30, "num": "4", "den": "1"},
    ]
    assert RadicalScalar.from_json(doc) == x
    assert RadicalScalar.from_json(json.loads(json.dumps(doc))) == x
    assert ZERO.to_json() == []
    assert RadicalScalar.from_json([]) == ZERO
    one = {"radicand": 2, "num": "1", "den": "1"}
    for bad in ([one, {**one, "num": "3"}], [{"radicand": 2}], [{**one, "den": "0"}],
                [1], 5, [{**one, "num": "x"}],
                # not a list, though {} and "" iterate like the empty list
                {}, "", one,
                # 8 = 2²·2 is not squarefree: to_json never writes it
                [one, {**one, "radicand": 8}], [{**one, "radicand": 8}],
                [{**one, "radicand": 0}],
                # fields that int() would truncate or read leniently
                [{**one, "radicand": 2.9, "num": 1.5}], [{**one, "num": 1.5}],
                [{**one, "den": 2.0}], [{**one, "num": True}], [{**one, "num": " 1"}],
                # a zero, a negative denominator, a fraction not in lowest terms
                [{**one, "num": "0"}], [{**one, "den": "-2"}], [{**one, "num": "2", "den": "4"}]):
        with pytest.raises(ValueError):
            RadicalScalar.from_json(bad)
    assert RadicalScalar.from_json([{"radicand": 2, "num": -3, "den": 4}]) == RadicalScalar(
        {2: Fraction(-3, 4)})


def test_is_squarefree_agrees_with_squarefree_decompose():
    assert [n for n in range(1, 5000)
            if is_squarefree(n) != (squarefree_decompose(n) == (1, n))] == []
    # two primes above the cube root, a prime square times 2, a prime cube
    for n, want in ((1009 * 1013, True), (2 * 1009 ** 2, False), (101 ** 3, False),
                    (1009 ** 2, False), (0, False), (-6, False)):
        assert is_squarefree(n) == want, n


def test_json_reads_a_large_prime_radicand_quickly():
    prime = 99999999999973
    start = time.perf_counter()
    x = RadicalScalar.from_json([{"radicand": prime, "num": "1", "den": "1"}])
    assert time.perf_counter() - start < 0.1  # √-step trial division took 0.7 s
    assert x.terms == {prime: 1}
    with pytest.raises(ValueError, match="not squarefree"):
        RadicalScalar.from_json([{"radicand": 1000003 ** 2, "num": "1", "den": "1"}])


def test_json_int_reads_ints_and_integer_strings_only():
    assert [json_int(x) for x in (0, -3, "12", "-7", "1" * 30)] == [0, -3, 12, -7, int("1" * 30)]
    for bad in (1.0, 2.9, True, None, [1], "", " 1", "1_000", "+1", "1.5", "0x10", "١"):
        with pytest.raises(ValueError):
            json_int(bad)


def random_scalar(rng, max_terms=3, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        d = rng.randint(1, 1000)
        num = rng.randint(-100, 100)
        den = rng.randint(1, 100)
        terms[d] = terms.get(d, Fraction(0)) + Fraction(num, den)
    return RadicalScalar(terms)


def test_field_axioms_randomized():
    rng = random.Random(20260814)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a + ZERO == a
        assert a * ONE == a


def test_sqrt_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        r = Fraction(rng.randint(0, 10000), rng.randint(1, 1000))
        root = sqrt_rational(r)
        assert root * root == RadicalScalar.from_rational(r)


def test_invert_randomized():
    rng = random.Random(7)
    for _ in range(500):
        a = random_scalar(rng, allow_zero=False)
        if a.is_zero():
            continue
        assert a * a.invert() == ONE


def test_to_float_is_homomorphism():
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert abs((a + b).to_float() - (a.to_float() + b.to_float())) < 1e-9
        assert abs((a * b).to_float() - a.to_float() * b.to_float()) < 1e-9


scalar_strategy = st.builds(
    RadicalScalar,
    st.dictionaries(
        st.integers(min_value=1, max_value=200),
        st.fractions(
            min_value=-50, max_value=50, max_denominator=20
        ).filter(lambda f: f != 0),
        max_size=3,
    ),
)


@settings(max_examples=200, deadline=None)
@given(scalar_strategy, scalar_strategy, scalar_strategy)
def test_field_axioms_hypothesis(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == ZERO
    if not a.is_zero():
        assert a * a.invert() == ONE


one_term_strategy = st.builds(
    RadicalScalar,
    st.dictionaries(
        st.integers(min_value=1, max_value=200),
        st.fractions(
            min_value=-50, max_value=50, max_denominator=20
        ).filter(lambda f: f != 0),
        min_size=1,
        max_size=1,
    ),
)


def reference_terms(signed_products):
    """{d: c} for sum(c1*c2*sqrt(d1*d2)) over (c1, d1, c2, d2), dropping zeros."""
    acc = {}
    for c1, d1, c2, d2 in signed_products:
        s, d = squarefree_decompose(d1 * d2)
        acc[d] = acc.get(d, Fraction(0)) + c1 * c2 * s
    return {d: c for d, c in acc.items() if c != 0}


def assert_canonical(x):
    """Nonzero int numerators on squarefree keys over one den ≥ 1 prime to them."""
    assert type(x.den) is int and x.den >= 1
    assert math.gcd(x.den, *x.terms.values()) == 1
    for d, n in x.terms.items():
        assert type(d) is int and type(n) is int and n != 0
        assert squarefree_decompose(d) == (1, d)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(one_term_strategy, scalar_strategy),
    st.one_of(one_term_strategy, scalar_strategy),
)
def test_kernels_match_reference(a, b):
    ca, cb = a.coefficients(), b.coefficients()
    ta = [(c, d, 1, 1) for d, c in ca.items()]
    tb = [(c, d, 1, 1) for d, c in cb.items()]
    neg_b = [(-c, d, 1, 1) for d, c in cb.items()]
    prod = [(c1, d1, c2, d2) for d1, c1 in ca.items() for d2, c2 in cb.items()]
    for got, want in (
        (a * b, reference_terms(prod)),
        (a + b, reference_terms(ta + tb)),
        (a - b, reference_terms(ta + neg_b)),
        (-b, reference_terms(neg_b)),
    ):
        assert got.coefficients() == want
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=10000, max_denominator=500))
def test_sqrt_round_trip_hypothesis(r):
    root = sqrt_rational(r)
    assert root * root == RadicalScalar.from_rational(r)
    assert abs(root.to_float() - math.sqrt(float(r))) < 1e-9
    assert_canonical(root)


big_scalar_strategy = st.builds(
    RadicalScalar,
    st.dictionaries(
        st.integers(min_value=1, max_value=500),
        st.builds(Fraction, st.integers(min_value=-10**30, max_value=10**30),
                  st.integers(min_value=1, max_value=10**12)),
        max_size=3,
    ),
)


@settings(max_examples=300, deadline=None)
@given(big_scalar_strategy, big_scalar_strategy, big_scalar_strategy,
       st.fractions(max_denominator=10**9))
def test_results_stay_canonical_hypothesis(a, b, c, r):
    left, right = (a + b) * c, a * c + b * c
    assert left == right and hash(left) == hash(right)
    results = [a, b, c, a + b, a - b, a * b, -a, a * RadicalScalar.from_rational(r),
               left, right]
    if not a.is_zero():
        results.append(a.invert())
    for x in results:
        assert_canonical(x)
        assert RadicalScalar.from_json(json.loads(json.dumps(x.to_json()))) == x
