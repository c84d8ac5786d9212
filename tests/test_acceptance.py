"""Acceptance suite: the eight headline checks, each with its time budget.

Every test prints one [PASS]/[FAIL] line (visible even under capture) and
fails if its wall-clock budget is exceeded.  The checks reuse the frozen
reference values in golden_data so a regression in any module surfaces here
as well as in the unit suites.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from click.testing import CliRunner

from gtbasis.cli import main as cli_main
from gtbasis.monomials import basis_matrix, monomial_family, rank
from gtbasis.operators import (
    GTModule,
    act_diag,
    act_lower,
    act_raise,
    verify_sln_relations,
)
from gtbasis.patterns import Partition, dimension, enumerate_patterns
from gtbasis.raising import raising_word, verify_raise
from gtbasis.scalars import RadicalScalar, sqrt_rational
from gtbasis.weights import epsilon_string, fundamental_coords, weight_decomposition, weight_of

from golden_data import (
    CANONICAL_TRIPLES_210,
    CANONICAL_WORDS_210,
    CANONICAL_WORDS_320,
    DUPLICATE_PAIR_210,
    DUPLICATE_WORD_210,
    E12_210,
    E23_210,
    F21_210,
    F32_210,
    H11_210,
    H22_210,
    H33_210,
    P110,
    P210,
    P320,
    PATTERNS_110,
    TABLE_ORDER_210,
    WEIGHTS_210,
    all_partitions,
    closed_e12,
    closed_e23,
    closed_f21,
    closed_f32,
    closed_h,
    pat,
    rad,
)


@contextmanager
def criterion(capsys, number, description, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("[FAIL] criterion %d: %s" % (number, description))
        raise
    elapsed = time.monotonic() - start
    line = "[%s] criterion %d: %s (%.2f s, budget %g s)" % (
        "PASS" if elapsed < budget else "FAIL",
        number,
        description,
        elapsed,
        budget,
    )
    with capsys.disabled():
        print(line)
    assert elapsed < budget, line


def table_vector(table_row):
    return {pat(P210, target): rad(*coeff) for target, coeff in table_row.items()}


def test_criterion_1_dimension_and_enumeration(capsys):
    with criterion(capsys, 1, "dimension formula and pattern enumeration", 10):
        assert dimension(P210) == 8
        assert dimension(P110) == 3
        assert [p.compact_str() for p in enumerate_patterns(P110)] == PATTERNS_110
        assert {p.compact_str() for p in enumerate_patterns(P210)} == set(
            TABLE_ORDER_210
        )
        assert len(enumerate_patterns(P210)) == 8
        for n in (2, 3, 4):
            for partition in all_partitions(n, 4):
                assert dimension(partition) == len(enumerate_patterns(partition)), (
                    partition
                )


def test_criterion_2_action_tables(capsys):
    with criterion(capsys, 2, "generator action tables for (2,1,0)", 1):
        for source in TABLE_ORDER_210:
            xi = pat(P210, source)
            assert act_raise(1, xi) == table_vector(E12_210[source]), source
            assert act_raise(2, xi) == table_vector(E23_210[source]), source
            assert act_lower(1, xi) == table_vector(F21_210[source]), source
            assert act_lower(2, xi) == table_vector(F32_210[source]), source
            assert act_diag(1, xi)[0] == H11_210[source]
            assert act_diag(2, xi)[0] == H22_210[source]
            assert act_diag(3, xi)[0] == H33_210[source]
        # Adjointness forces a second term in these two images.
        zero = RadicalScalar.zero()
        assert len(act_raise(2, pat(P210, "1,0;1"))) == 2
        assert act_raise(2, pat(P210, "1,0;1")).get(pat(P210, "1,1;1"), zero) == rad(
            1, 2, 6
        )
        assert len(act_lower(2, pat(P210, "2,1;1"))) == 2
        assert act_lower(2, pat(P210, "2,1;1")).get(pat(P210, "2,0;1"), zero) == rad(
            1, 2, 2
        )


def test_criterion_3_general_vs_closed_forms(capsys):
    with criterion(capsys, 3, "general formula vs n=3 closed forms", 30):
        for partition in all_partitions(3, 4):
            m = partition.parts
            for xi in enumerate_patterns(partition):
                p1, p2 = xi.row(2)
                q = xi.row(1)[0]
                cases = [
                    (act_raise(1, xi), closed_e12(m, p1, p2, q)),
                    (act_raise(2, xi), closed_e23(m, p1, p2, q)),
                    (act_lower(1, xi), closed_f21(m, p1, p2, q)),
                    (act_lower(2, xi), closed_f32(m, p1, p2, q)),
                ]
                for image, closed in cases:
                    expected = {
                        pat(partition, "%d,%d;%d" % t): coeff for t, coeff in closed
                    }
                    assert image == expected, (partition, xi.to_string())
                h = closed_h(m, p1, p2, q)
                for i in (1, 2, 3):
                    assert act_diag(i, xi)[0] == h[i - 1]


def test_criterion_4_bracket_relations(capsys):
    with criterion(capsys, 4, "bracket relations on five modules", 120):
        for parts in ([1, 0], [2, 1, 0], [3, 2, 0], [2, 1, 1, 0], [1, 1, 1, 0]):
            report = verify_sln_relations(GTModule(Partition(parts)))
            assert report.passed, (parts, report.failures)


def test_criterion_5_weight_table(capsys):
    with criterion(capsys, 5, "weight table for (2,1,0)", 1):
        for compact, (kappa, eps) in WEIGHTS_210.items():
            w = weight_of(pat(P210, compact))
            assert tuple(w) == kappa, compact
            assert epsilon_string(w) == eps, compact
        decomposition = weight_decomposition(P210)
        doubles = {
            epsilon_string(w): [p.compact_str() for p in pats]
            for w, pats in decomposition.items()
            if len(pats) == 2
        }
        assert doubles == {"ε_1 + ε_2 + ε_3": ["1,1;1", "2,0;1"]}
        w = weight_of(pat(P210, "1,0;0"))
        assert tuple(fundamental_coords(w)) == (-1, -1)


def test_criterion_6_raising_certification(capsys):
    with criterion(capsys, 6, "raising words and certification sweep", 120):
        for compact, triple in CANONICAL_TRIPLES_210.items():
            word = raising_word(pat(P210, compact))
            assert tuple(word.exponents_written()) == triple, compact
        sweeps = [(2, 4), (3, 4), (4, 2)]
        for n, max_m1 in sweeps:
            for partition in all_partitions(n, max_m1):
                for xi in enumerate_patterns(partition):
                    lam = verify_raise(xi)
                    assert not lam.is_zero(), (partition, xi.to_string())


def test_criterion_7_monomial_bases(capsys):
    with criterion(capsys, 7, "monomial families and ranks", 60):
        canonical = monomial_family(GTModule(P210), "canonical")
        assert set(canonical.word_texts()) == CANONICAL_WORDS_210
        assert rank(basis_matrix(canonical)) == 8
        canonical_320 = monomial_family(GTModule(P320), "canonical")
        assert set(canonical_320.word_texts()) == CANONICAL_WORDS_320
        assert rank(basis_matrix(canonical_320)) == 15
        alternate = monomial_family(GTModule(P210), "alternate")
        assert alternate.distinct_count <= 7
        assert rank(basis_matrix(alternate)) < 8
        pats = [p.compact_str() for p in alternate.patterns]
        first, dup = DUPLICATE_PAIR_210
        assert alternate.duplicate_of[pats.index(dup)] == pats.index(first)
        assert alternate.word_texts()[pats.index(dup)] == DUPLICATE_WORD_210
        result = CliRunner().invoke(
            cli_main, ["monomials", "2,1,0", "--schedule", "alternate", "--strict"]
        )
        assert result.exit_code == 1
        assert "NOT A BASIS" in result.output
        assert "[duplicate of 2,1,0;1,1;1]" in result.output


def test_criterion_8_scalar_field_properties(capsys):
    with criterion(capsys, 8, "randomized scalar field checks", 30):
        rng = random.Random(20260814)
        radicands = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15]

        def random_scalar():
            terms = {}
            for d in rng.sample(radicands, rng.randint(1, 3)):
                terms[d] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return RadicalScalar(terms)

        one = RadicalScalar.one()
        zero = RadicalScalar.zero()
        for _ in range(1000):
            a, b, c = random_scalar(), random_scalar(), random_scalar()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            r = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            root = sqrt_rational(r)
            assert root * root == RadicalScalar.from_rational(r)
            if not a.is_zero():
                assert a * a.invert() == one
            expr = a * b + c
            assert abs(expr.to_float() - (a.to_float() * b.to_float() + c.to_float())) <= 1e-9
