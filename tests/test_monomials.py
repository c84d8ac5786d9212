"""Lowering-monomial families, exact rank, and the basis verdict."""

import json
import subprocess
import sys
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtbasis import monomials, operators, raising
from gtbasis.monomials import (
    MonomialFamily,
    UnsupportedScheduleError,
    _float_copies,
    _float_rank,
    basis_matrix,
    family_from_json,
    family_rank,
    family_to_json,
    float_columns,
    monomial_family,
    rank,
    reached_sets,
)
from gtbasis.operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
)
from gtbasis.patterns import Partition, enumerate_patterns, highest_pattern
from gtbasis.raising import (SCHEDULES, GeneratorWord, apply_word, resolve_schedule,
                             sweep_exponents)
from gtbasis.scalars import RadicalScalar
from gtbasis.weights import weight_decomposition, weight_of

from golden_data import (
    ALTERNATE_DISTINCT_WORDS_210,
    CANONICAL_WORDS_210,
    CANONICAL_WORDS_320,
    DUPLICATE_PAIR_210,
    DUPLICATE_PAIRS_320,
    DUPLICATE_WORD_210,
    P110,
    P210,
    P320,
    all_partitions,
    pat,
)
from test_operators import _corrupting


def _family_word(xi):
    """ξ's word text and exponents in its module's canonical family."""
    family = monomial_family(GTModule(xi.partition))
    i = family.patterns.index(xi)
    return family.word_texts()[i], family.exponents[i]


def test_monomial_word_examples():
    assert _family_word(pat(P210, "2,0;0"))[0] == "F12^2 F23^1 F12^0"
    beta_text, beta_exponents = _family_word(highest_pattern(P210))
    assert beta_text == "F12^0 F23^0 F12^0"
    assert not any(beta_exponents)
    # written raising word E12^0 E23^1 E12^1, factor order reversed:
    assert _family_word(pat(P110, "1,0;0"))[0] == "F12^1 F23^1 F12^0"


def test_canonical_family_210_matches_printed_set():
    family = monomial_family(GTModule(P210), "canonical")
    assert set(family.word_texts()) == CANONICAL_WORDS_210
    assert family.duplicate_of == [None] * 8
    assert rank(basis_matrix(family)) == 8


def test_canonical_family_320_matches_printed_set():
    family = monomial_family(GTModule(P320), "canonical")
    assert set(family.word_texts()) == CANONICAL_WORDS_320
    assert family.distinct_count == 15
    assert rank(basis_matrix(family)) == 15


def test_alternate_family_210_duplicate_and_rank():
    family = monomial_family(GTModule(P210), "alternate")
    assert set(family.word_texts()) == ALTERNATE_DISTINCT_WORDS_210
    assert family.distinct_count == 7
    first, dup = DUPLICATE_PAIR_210
    pats = [p.compact_str() for p in family.patterns]
    i_first, i_dup = pats.index(first), pats.index(dup)
    assert family.duplicate_of[i_dup] == i_first
    assert family.word_texts()[i_dup] == DUPLICATE_WORD_210
    assert sum(1 for d in family.duplicate_of if d is not None) == 1
    assert rank(basis_matrix(family)) == 7 < 8


def test_alternate_family_320_duplicates():
    family = monomial_family(GTModule(P320), "alternate")
    assert family.distinct_count == 12
    pats = [p.compact_str() for p in family.patterns]
    observed = {
        (pats[d], pats[i]) for i, d in enumerate(family.duplicate_of) if d is not None
    }
    assert observed == set(DUPLICATE_PAIRS_320)
    assert rank(basis_matrix(family)) == 12


ALTERNATE_POOL = [(6, 3, 0), (7, 3, 0), (8, 4, 0), (9, 3, 0), (9, 4, 0), (10, 5, 0),
                  (11, 5, 0), (12, 6, 0)]


@pytest.mark.parametrize(
    "parts, schedule",
    [(parts, "alternate") for parts in ALTERNATE_POOL] + [((3, 2, 1, 0, 0), "canonical")]
    + [((3, 2, 1, 0), "alternate"), ((3, 2, 1, 0, 0), "alternate")],
)
def test_family_words_are_mirrored_raising_words(parts, schedule):
    partition = Partition(parts)
    family = monomial_family(GTModule(partition), schedule)
    first, order = {}, family.order
    for i, p in enumerate(family.patterns):
        word = raising.raising_word(p, schedule)
        # the mirror reverses the factors and turns each raise into a lower
        assert family.exponents[i] == tuple(reversed(word.exponents_written()))
        assert order == [spec.index for spec, _ in reversed(word.factors)]
        j = first.setdefault(family.exponents[i], i)
        assert family.duplicate_of[i] == (None if j == i else j)


def test_alternate_schedule_at_other_n():
    # n = 4: rows [3, 2, 1, 3, 2, 3]; the smallest module with a repeated word
    family = monomial_family(GTModule(Partition([2, 1, 1, 0])), "alternate")
    assert family.duplicates == [(7, 6)]
    assert rank(basis_matrix(family)) == family.distinct_count == 14
    family = monomial_family(GTModule(Partition([3, 2, 1, 0])), "alternate")
    assert len(family.patterns) == 64
    assert rank(basis_matrix(family)) == family.distinct_count == 42
    # n = 2: the alternate order is the canonical [1]
    family = monomial_family(GTModule(Partition([3, 0])), "alternate")
    assert family.exponents == monomial_family(GTModule(Partition([3, 0]))).exponents
    assert rank(basis_matrix(family)) == 4


def _reduced_words_of_w0(n):
    """Every reduced word of the longest element of S_n, in application order.

    A word is reduced when each simple transposition s_r adds an inversion,
    that is when the entries at positions r and r + 1 are still increasing.
    """
    words = [((), tuple(range(n)))]
    for _ in range(n * (n - 1) // 2):
        words = [(word + (r,), perm[:r - 1] + (perm[r], perm[r - 1]) + perm[r + 1:])
                 for word, perm in words for r in range(1, n) if perm[r - 1] < perm[r]]
    return [list(word) for word, _ in words]


@pytest.mark.parametrize("parts", [(2, 1, 0, 0), (3, 2, 1, 0), (4, 2, 1, 0)])
def test_only_the_canonical_commutation_class_gives_a_basis(parts):
    """Sweep along every reduced word of w0 at n = 4: the rank is always the
    number of distinct words, and the family is a basis exactly for the
    canonical word and the one that commutes its rows 3 and 1."""
    words = _reduced_words_of_w0(4)
    assert len(words) == 16 and [1, 2, 3, 1, 2, 1] in words
    module = GTModule(Partition(parts))
    bases = []
    for order in words:
        exps = [tuple(sweep_exponents(p, order)) for p in module.basis]
        cols = monomials.walk(order, exps, {module.beta: RadicalScalar.one()},
                              lambda r, v: module.generator("lower", r).apply(v))
        assert rank(OperatorMatrix(cols)) == len(set(exps)), order
        if len(set(exps)) == len(module.basis):
            bases.append(order)
    assert sorted(bases) == [[1, 2, 1, 3, 2, 1], [1, 2, 3, 1, 2, 1]]


def test_custom_schedule():
    for schedule in ([2, 1, 2], [3, 1], (1, 2), "sideways", 5):
        with pytest.raises(UnsupportedScheduleError):
            monomial_family(GTModule(P210), schedule)


def test_basis_matrix_identity_column():
    module = GTModule(P210)
    family = monomial_family(module, "canonical")
    assert family.module is module and family.patterns is module.basis
    mat = basis_matrix(family)
    assert mat == basis_matrix(monomial_family(GTModule(P210), "canonical"))
    pats = enumerate_patterns(P210)
    beta_index = pats.index(highest_pattern(P210))
    col = [mat.entries[r][beta_index] for r in range(8)]
    assert col[beta_index] == RadicalScalar.one()
    assert all(col[r].is_zero() for r in range(8) if r != beta_index)


def _words(family):
    """The family's lowering words, built by hand from its order and exponents."""
    specs = [GeneratorSpec("lower", r) for r in family.order]
    return [GeneratorWord(zip(specs, e)) for e in family.exponents]


def _word_by_word(family):
    """Reference basis matrix: each word applied to β on its own."""
    pats = enumerate_patterns(family.partition)
    index = {p: i for i, p in enumerate(pats)}
    beta = {highest_pattern(family.partition): RadicalScalar.one()}
    cols = []
    for word in _words(family):
        image = apply_word(word, beta)
        cols.append({index[p]: v for p, v in image.items()})
    return OperatorMatrix(cols)


def test_basis_matrix_columns_are_word_images():
    for parts, schedule in (
        ([1, 1, 0], "canonical"),
        ([2, 1, 0], "canonical"),
        ([3, 1, 0], "canonical"),
        ([2, 1, 1, 0], "canonical"),
        ([3, 2, 1, 0], "canonical"),
        ([2, 1, 1, 1, 0], "canonical"),
        ([2, 1, 0, 0, 0, 0], "canonical"),
        ([3, 1, 0], "alternate"),  # duplicate words
        ([6, 3, 0], "alternate"),
        ([8, 4, 0], "alternate"),
    ):
        family = monomial_family(GTModule(Partition(parts)), schedule)
        assert basis_matrix(family) == _word_by_word(family), (parts, schedule)
    assert rank(basis_matrix(monomial_family(GTModule(P110), "canonical"))) == 3


def test_basis_matrix_follows_the_stored_exponents():
    # canonical row order, alternate exponents: the words and the columns
    # are both read from the one stored form
    alternate = monomial_family(GTModule(P210), "alternate")
    family = MonomialFamily(GTModule(P210), "canonical",
                            alternate.exponents, alternate.duplicate_of)
    assert [w.to_text() for w in _words(family)] == family.word_texts()
    assert family.word_texts() != alternate.word_texts()
    assert basis_matrix(family) == _word_by_word(family)
    assert basis_matrix(family) != basis_matrix(monomial_family(GTModule(P210), "canonical"))


@pytest.mark.parametrize("parts, schedule, steps", [
    ([12, 6, 0], "canonical", 357),
    ([5, 3, 2, 0], "canonical", 347),
    ([3, 2, 1, 0, 0], "canonical", 447),
    ([3, 2, 1, 0, 0, 0], "canonical", 1804),
    ([2, 1, 0, 0, 0, 0, 0], "canonical", 211),
    ([12, 6, 0], "alternate", 177),
])
def test_walk_shares_word_prefixes(parts, schedule, steps, monkeypatch):
    partition = Partition(parts)
    module = GTModule(partition)
    family = monomial_family(module, schedule)
    calls = []
    original = monomials.walk

    def counting(order, exponents, start, step):
        def counted(r, value):
            calls.append(r)
            return step(r, value)
        return original(order, exponents, start, counted)

    monkeypatch.setattr(monomials, "walk", counting)
    basis_matrix(family)
    assert len(calls) == steps
    calls.clear()
    monomials.reached_sets(family)
    assert len(calls) == steps


@st.composite
def _orders_and_exponents(draw):
    """A canonical or alternate row order for n <= 6, and exponent vectors
    along it with many zero blocks, so that blocks of one row often have
    only zero blocks between them."""
    n = draw(st.integers(2, 6))
    order = resolve_schedule(n, draw(st.sampled_from(sorted(SCHEDULES))))
    block = st.one_of(st.just(0), st.integers(0, 3))
    return order, draw(st.lists(st.tuples(*[block] * len(order)), max_size=30))


@settings(max_examples=300, deadline=None)
@given(_orders_and_exponents())
@example(([1, 2, 1], [(1, 0, 2), (3, 0, 0), (0, 0, 3), (2, 0, 1), (0, 1, 2)]))
def test_walk_steps_each_word_and_each_prefix_once(case):
    """Each value is the word's own steps, in order, from ``start``, and
    there is one ``step`` call per distinct nonempty step prefix."""
    order, exponents = case
    calls = []

    def step(r, steps):
        calls.append(r)
        return steps + (r,)

    words = [tuple(r for r, a in zip(order[::-1], e[::-1]) for _ in range(a))
             for e in exponents]
    assert monomials.walk(order, exponents, (), step) == words
    assert len(calls) == len({w[:k] for w in words for k in range(1, len(w) + 1)})


@pytest.mark.parametrize("parts, schedule", [
    ([1, 0], "canonical"),
    ([2, 1, 0], "canonical"),
    ([12, 6, 0], "canonical"),  # two-digit exponents
    ([3, 1, 1, 0], "canonical"),
    ([2, 1, 1, 0, 0], "canonical"),
    ([2, 1, 0, 0, 0, 0], "canonical"),
    ([2, 1, 0, 0, 0, 0, 0], "canonical"),
    ([8, 4, 0], "alternate"),
])
def test_word_texts_are_the_words_to_text(parts, schedule):
    family = monomial_family(GTModule(Partition(parts)), schedule)
    assert family.word_texts() == [w.to_text() for w in _words(family)]


def test_basis_matrix_builds_each_lowering_matrix_once(monkeypatch):
    calls = []
    original = operators.operator_matrix

    def counting(spec, module):
        calls.append(spec)
        return original(spec, module)

    def forbidden(*args):
        raise AssertionError("basis_matrix applied a word pattern by pattern")

    monkeypatch.setattr(operators, "operator_matrix", counting)
    monkeypatch.setattr(raising, "apply_word", forbidden)
    monkeypatch.setattr(raising, "apply_generator", forbidden)
    monkeypatch.setattr(operators, "apply_generator", forbidden)
    for parts, schedule in (
        ([1, 0], "canonical"),
        ([2, 1, 0], "canonical"),
        ([3, 1, 0], "alternate"),
        ([2, 1, 1, 0], "canonical"),
        ([3, 2, 1, 0, 0], "canonical"),
    ):
        calls.clear()
        n = len(parts)
        basis_matrix(monomial_family(GTModule(Partition(parts)), schedule))
        assert sorted(spec.index for spec in calls) == list(range(1, n))
        assert {spec.kind for spec in calls} == {"lower"}


def test_column_weight_matches_source_pattern():
    for partition in (P110, P210, P320):
        family = monomial_family(GTModule(partition), "canonical")
        mat = basis_matrix(family)
        pats = enumerate_patterns(partition)
        for c, source in enumerate(family.patterns):
            targets = [pats[r] for r in range(len(pats))
                       if not mat.entries[r][c].is_zero()]
            assert targets, source
            for t in targets:
                assert weight_of(t) == weight_of(source)


@pytest.fixture
def invert_calls(monkeypatch):
    """The list of RadicalScalar.invert calls, appended as they happen."""
    calls = []
    original = RadicalScalar.invert

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RadicalScalar, "invert", counting)
    return calls


def test_canonical_rank_equals_dimension_exhaustive(invert_calls):
    """Canonical basis matrices are lower-triangular with nonzero diagonal,
    so the column reduction keeps every column without a division."""
    partitions = [p for n, max_m1 in ((2, 4), (3, 4), (4, 3))
                  for p in all_partitions(n, max_m1)]
    for partition in partitions + [Partition([2, 1, 1, 1, 0])]:
        family = monomial_family(GTModule(partition), "canonical")
        d = len(family.patterns)
        mat = basis_matrix(family)
        for c, col in enumerate(mat.cols):
            assert min(col) == c, (partition, c)
        invert_calls.clear()
        assert rank(mat) == d, partition
        assert invert_calls == [], partition


def test_duplicates_imply_rank_deficit(invert_calls):
    """A repeated word's column equals the kept column of its first
    occurrence, so it is dropped without a division."""
    extra = [Partition(parts) for parts in ([6, 3, 0], [7, 3, 0], [8, 4, 0])]
    for partition in all_partitions(3, 4) + extra:
        family = monomial_family(GTModule(partition), "alternate")
        mat = basis_matrix(family)
        invert_calls.clear()
        r = rank(mat)
        assert r == family.distinct_count, partition
        assert invert_calls == [], partition
        if family.distinct_count < len(family.patterns):
            assert r < len(family.patterns)


def _reference_rank(mat):
    """Pivoting row elimination on sparse {col: value} rows, kept as an
    independent oracle for the column reduction in rank."""
    d = mat.dim
    rows = [{} for _ in range(d)]
    for i, c, v in mat.nonzeros():
        rows[i][c] = v
    r = 0
    for c in range(d):
        pivot_at = None
        for i in range(r, d):
            if c in rows[i]:
                if pivot_at is None or len(rows[i][c].terms) < len(
                    rows[pivot_at][c].terms
                ):
                    pivot_at = i
        if pivot_at is None:
            continue
        rows[r], rows[pivot_at] = rows[pivot_at], rows[r]
        pivot = rows[r]
        inv = pivot[c].invert()
        for i in range(r + 1, d):
            row = rows[i]
            if c not in row:
                continue
            factor = row[c] * inv
            for j, b in pivot.items():
                acc = row[j] - factor * b if j in row else -(factor * b)
                if acc.is_zero():
                    del row[j]
                else:
                    row[j] = acc
        r += 1
    return r


_ENTRIES = (
    RadicalScalar.zero(),
    RadicalScalar.one(),
    RadicalScalar({2: 1}),
    RadicalScalar({3: Fraction(-1, 2)}),
    RadicalScalar({1: 1, 6: 1}),
    RadicalScalar.from_rational(Fraction(2, 3)),
)


@st.composite
def _dependent_matrices(draw):
    """Square matrices whose columns are random, then duplicated, scaled by
    a radical, summed pairwise or zero, in shuffled order."""
    d = draw(st.integers(1, 6))
    entry = st.sampled_from(_ENTRIES)
    cols = [draw(st.lists(entry, min_size=d, max_size=d))
            for _ in range(draw(st.integers(0, d)))]
    while len(cols) < d:
        kind = draw(st.sampled_from(("duplicate", "multiple", "sum", "zero")))
        if kind == "zero" or not cols:
            cols.append([RadicalScalar.zero()] * d)
        elif kind == "duplicate":
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == "multiple":
            m = draw(st.sampled_from(_ENTRIES[1:]))
            cols.append([m * x for x in draw(st.sampled_from(cols))])
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append([x + y for x, y in zip(a, b)])
    cols = draw(st.permutations(cols))
    return OperatorMatrix(
        [{r: v for r, v in enumerate(col) if not v.is_zero()} for col in cols]
    )


def _dense_float_rank(mat):
    sv = numpy.linalg.svd(numpy.array(mat.to_float_array()), compute_uv=False)
    return int((sv > 1e-9).sum())


@settings(max_examples=300, deadline=None)
@given(_dependent_matrices())
def test_rank_matches_reference_elimination(mat):
    assert rank(mat) == _reference_rank(mat)
    assert _float_rank(mat.cols) == _dense_float_rank(mat)


def test_rank_edge_cases():
    zero = OperatorMatrix.zero(4)
    assert rank(zero) == 0
    one = RadicalScalar.one()
    ident = OperatorMatrix([{c: one} for c in range(5)])
    assert rank(ident) == 5
    # two proportional columns over the radical field: rank 1.
    s2 = RadicalScalar({2: 1})
    mat = OperatorMatrix([{0: one, 1: s2}, {0: s2, 1: RadicalScalar.from_rational(2)}])
    assert rank(mat) == 1
    mat2 = OperatorMatrix([{0: one, 1: s2}, {0: s2, 1: one}])
    assert rank(mat2) == 2
    assert rank(OperatorMatrix([{}])) == 0
    assert rank(OperatorMatrix.zero(0)) == 0
    # equal columns that are separate objects: rank 1.
    twins = OperatorMatrix(
        [{0: s2, 1: one}, {0: RadicalScalar({2: 1}), 1: RadicalScalar.one()}]
    )
    assert twins.cols[0] is not twins.cols[1]
    assert rank(twins) == 1
    # the last column equals a pivot that was reduced before it was kept.
    reduced = OperatorMatrix([{0: one}, {0: one, 1: s2}, {1: s2}])
    assert rank(reduced) == 2


_LARGE_CANONICAL = [Partition(parts)
                    for parts in ([12, 6, 0], [5, 3, 2, 0], [3, 2, 1, 0, 0])]


def test_float_rank_counts_as_the_dense_svd_on_canonical_matrices():
    for partition in _LARGE_CANONICAL:
        mat = basis_matrix(monomial_family(GTModule(partition), "canonical"))
        assert _float_rank(mat.cols) == _dense_float_rank(mat) == mat.dim, partition


def test_float_check_fires_inside_a_block():
    """A singular value below 1e-9 in a block of its own is still counted
    out, so the float rank is 2 where the exact rank is 3."""
    one = RadicalScalar.one()
    tiny = RadicalScalar.from_rational(Fraction(1, 10**12))
    mat = OperatorMatrix([{0: one}, {1: one}, {2: tiny}])
    assert _float_rank(mat.cols) == 2
    assert rank(mat) == 3


def test_float_check_never_sees_the_whole_matrix(monkeypatch):
    """Every SVD input is a stack of blocks no larger than a weight space."""
    partition = _LARGE_CANONICAL[0]
    mat = basis_matrix(monomial_family(GTModule(partition), "canonical"))
    largest = max(map(len, weight_decomposition(partition).values()))
    shapes = []
    original = numpy.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(numpy.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(numpy.linalg, "svd", recording)
    assert _float_rank(mat.cols) == mat.dim == 343
    assert shapes and largest < mat.dim
    assert all(max(shape[-2:]) <= largest for shape in shapes), (largest, shapes)


def test_family_rank_is_the_basis_matrix_rank():
    """Alternate (8,1,0), (8,2,0) and (8,7,0) fail the float cross-check:
    ``family_rank`` raises, naming the exact rank, which ``rank`` returns."""
    partitions = all_partitions(3, 8) + [Partition([3, 2, 1, 0]), Partition([2, 1, 1, 1, 0])]
    cases = [(p, s) for p in partitions for s in ("canonical", "alternate")]
    # alternate (9,4,2,0) fails the float cross-check as well, after a long rank
    cases.append((Partition([9, 4, 2, 0]), "canonical"))
    for partition, schedule in cases:
        family = monomial_family(GTModule(partition), schedule)
        exact = rank(basis_matrix(family))
        assert exact == family.distinct_count, (partition, schedule)
        try:
            assert family_rank(family) == exact, (partition, schedule)
        except InternalConsistencyError as exc:
            assert schedule == "alternate", partition
            assert str(exc).startswith("exact rank %d disagrees" % exact), exc


# alternate families whose float cross-check fails, with their exact ranks
_FLOAT_CHECK_FAILS = {(9, 3, 0): 73, (10, 5, 0): 91, (12, 6, 0): 127, (8, 1, 0, 0): 216}


def test_rank_of_alternate_families_is_exact_without_numpy():
    code = ("import sys\n"
            "from gtbasis import GTModule, Partition\n"
            "from gtbasis.monomials import basis_matrix, monomial_family, rank\n"
            "for parts in %r:\n"
            "    family = monomial_family(GTModule(Partition(parts)), 'alternate')\n"
            "    print(rank(basis_matrix(family)))\n"
            "assert 'numpy' not in sys.modules\n" % (list(_FLOAT_CHECK_FAILS),))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(r) for r in _FLOAT_CHECK_FAILS.values()]


@pytest.mark.parametrize("parts", list(_FLOAT_CHECK_FAILS))
def test_alternate_family_json_reads_back_exactly(parts):
    family = monomial_family(GTModule(Partition(parts)), "alternate")
    assert family.distinct_count == _FLOAT_CHECK_FAILS[parts]
    doc = json.loads(json.dumps(family_to_json(family, family.distinct_count)))
    restored = family_from_json(doc)
    assert restored.exponents == family.exponents
    assert restored.duplicate_of == family.duplicate_of
    with pytest.raises(ValueError):
        family_from_json(family_to_json(family, family.distinct_count + 1))


@pytest.mark.parametrize("parts", [[2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0], [9, 4, 2, 0]])
def test_float_walk_keys_are_the_reached_sets(parts):
    module = GTModule(Partition(parts))
    for schedule in ("canonical", "alternate"):
        family = monomial_family(module, schedule)
        assert [set(col) for col in float_columns(family)] == [
            set(reached) for reached in reached_sets(family)]


def test_float_walk_converts_each_root_once(monkeypatch):
    converted, original = [], RadicalScalar.to_float

    def counting(v):
        converted.append(v)
        return original(v)

    for parts in ([12, 6, 0], [3, 2, 1, 0, 0]):
        module = GTModule(Partition(parts))
        family = monomial_family(module, "canonical")
        roots = {id(v) for r in set(family.order)
                 for col in module.generator("lower", r).cols for v in col.values()}
        converted.clear()
        with monkeypatch.context() as m:
            m.setattr(RadicalScalar, "to_float", counting)
            float_columns(family)
        assert 0 < len(converted) <= len(roots), parts
        assert len({id(v) for v in converted}) == len(converted), parts


def test_float_rank_takes_each_repeated_column_once(monkeypatch):
    """A repeated word's column is its first occurrence's object: its float
    copy converts it, and each distinct entry, once, and the SVD inputs and
    rank are those of a copy in which every column and value is new."""
    mat = basis_matrix(monomial_family(GTModule(Partition([12, 6, 0])), "alternate"))
    fresh = [{r: RadicalScalar(v.coefficients()) for r, v in col.items()}
             for col in mat.cols]
    distinct = {id(col): col for col in mat.cols}
    assert len(distinct) == 127 < mat.dim == 343
    converted, stacks = [], []
    original_float, original_svd = RadicalScalar.to_float, numpy.linalg.svd

    def counting(v):
        converted.append(v)
        return original_float(v)

    def recording(a, *args, **kwargs):
        stacks[-1].append(numpy.array(a))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(RadicalScalar, "to_float", counting)
    monkeypatch.setattr(numpy.linalg, "svd", recording)
    copies = _float_copies(mat.cols)
    assert len(converted) == len({id(v) for col in distinct.values() for v in col.values()})
    assert len({id(col) for col in copies}) == 127
    ranks = []
    for cols in (copies, _float_copies(fresh)):
        stacks.append([])
        ranks.append(_float_rank(cols))
    assert ranks == [168, 168]
    assert len(stacks[0]) == len(stacks[1])
    assert all(numpy.array_equal(a, b) for a, b in zip(*stacks))


def test_float_walk_values_match_the_exact_columns():
    for partition in _LARGE_CANONICAL:
        family = monomial_family(GTModule(partition), "canonical")
        exact = basis_matrix(family)
        for col, want in zip(float_columns(family), exact.cols):
            assert col.keys() == want.keys(), partition
            for r, v in want.items():
                assert abs(col[r] - float(v)) <= 1e-12 * abs(float(v)), (partition, r)


def test_intact_canonical_family_rank_builds_no_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the exact basis matrix was built")

    products, shapes = [], []
    original_mul, original_svd = RadicalScalar.__mul__, numpy.linalg.svd

    def counting(a, b):
        products.append((a, b))
        return original_mul(a, b)

    def recording(a, *args, **kwargs):
        shapes.append(numpy.shape(a))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(monomials, "basis_matrix", forbidden)
    monkeypatch.setattr(RadicalScalar, "__mul__", counting)
    monkeypatch.setattr(numpy.linalg, "svd", recording)
    for parts in ([2, 1, 0], [12, 6, 0], [5, 3, 2, 0], [3, 2, 1, 0, 0]):
        family = monomial_family(GTModule(Partition(parts)), "canonical")
        shapes.clear()
        assert family_rank(family) == len(family.patterns), parts
        assert products == [] and shapes, parts


def test_family_rank_cross_checks_the_float_walk(monkeypatch):
    """Singular values of 0 from the float walk's blocks are an internal
    error on the fast path too, as they are for the exact rank."""
    monkeypatch.setattr(numpy.linalg, "svd",
                        lambda a, compute_uv: numpy.zeros(numpy.shape(a)[:-1]))
    family = monomial_family(GTModule(P210), "canonical")
    with pytest.raises(InternalConsistencyError,
                       match="exact rank 8 disagrees with float rank 0"):
        family_rank(family)


def _counted_basis_matrices(monkeypatch):
    built, original = [], monomials.basis_matrix

    def counting(family):
        built.append(family)
        return original(family)

    monkeypatch.setattr(monomials, "basis_matrix", counting)
    return built


def test_family_rank_falls_back_on_repeated_words(monkeypatch):
    built = _counted_basis_matrices(monkeypatch)
    monkeypatch.setattr(monomials, "float_columns", None)  # the walk is never run
    family = monomial_family(GTModule(Partition([3, 2, 1, 0])), "alternate")
    assert family_rank(family) == family.distinct_count == 42
    assert built == [family]


def test_family_rank_falls_back_on_a_negated_entry(monkeypatch):
    _corrupting(monkeypatch, "negate_both")
    built = _counted_basis_matrices(monkeypatch)
    for parts in ([2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0]):
        family = monomial_family(GTModule(Partition(parts)), "canonical")
        built.clear()
        assert not family.module.lowering_positive
        assert family_rank(family) == len(family.patterns), parts
        assert built == [family], parts


def test_family_rank_falls_back_on_columns_out_of_triangular_order(monkeypatch):
    """Reversed, the canonical words are distinct and every F_k entry is
    positive, but the supports are not lower-triangular."""
    built = _counted_basis_matrices(monkeypatch)
    module = GTModule(Partition([3, 2, 1, 0]))
    canonical = monomial_family(module, "canonical")
    family = MonomialFamily(module, "canonical", canonical.exponents[::-1],
                            canonical.duplicate_of)
    assert module.lowering_positive
    assert family_rank(family) == len(family.patterns) == 64
    assert built == [family]


def test_family_json_round_trip():
    family = monomial_family(GTModule(P210), "alternate")
    doc = family_to_json(family, rank(basis_matrix(family)))
    assert doc["partition"] == [2, 1, 0]
    assert doc["schedule"] == "alternate"
    assert doc["rank"] == 7
    assert doc["is_basis"] is False
    dups = [e for e in doc["entries"] if e["duplicate_of"] is not None]
    assert len(dups) == 1
    assert doc["entries"][dups[0]["duplicate_of"]]["word"] == dups[0]["word"]
    restored = family_from_json(json.loads(json.dumps(doc)))
    assert restored.partition == family.partition
    assert restored.exponents == family.exponents
    assert restored.word_texts() == family.word_texts()
    assert restored.duplicate_of == family.duplicate_of
    no_duplicate_of = [{k: v for k, v in e.items() if k != "duplicate_of"}
                       for e in doc["entries"]]
    text_not_str = [{**e, "pattern": 5} for e in doc["entries"]]
    entries = doc["entries"]
    assert entries[1]["duplicate_of"] is None and entries[0]["word"] != entries[1]["word"]
    canonical = monomial_family(GTModule(P210), "canonical")
    canonical_doc = family_to_json(canonical, rank(basis_matrix(canonical)))
    assert canonical_doc["rank"] == 8 and canonical_doc["is_basis"] is True
    for bad in ({}, {**doc, "entries": no_duplicate_of}, {**doc, "entries": ["E12"]},
                {**doc, "entries": text_not_str},
                # patterns other than the enumeration: a prefix, or reordered
                {**doc, "entries": entries[:3]},
                {**doc, "entries": [entries[1], entries[0], *entries[2:]]},
                {**doc, "entries": [{**entries[0], "duplicate_of": "zz"}, *entries[1:]]},
                {**doc, "entries": [{**entries[0], "word": "F12^0_0"}, *entries[1:]]},
                {**doc, "entries": [{**entries[0], "duplicate_of": 0}, *entries[1:]]},
                {**doc, "entries": [*entries[:7], {**entries[7], "duplicate_of": 7}]},
                {**doc, "schedule": 5}, {**doc, "partition": [2.0, 1, 0]},
                {**doc, "partition": "210"},
                # well-formed fields that no family has
                {**doc, "entries": [entries[0], {**entries[1], "duplicate_of": 0},
                                    *entries[2:]]},
                {**doc, "entries": [{**entries[0], "word": entries[1]["word"]},
                                    {**entries[1], "word": entries[0]["word"]}, *entries[2:]]},
                {**doc, "schedule": "canonical"}, {**doc, "schedule": "sideways"},
                {**doc, "entries": [{**e, "duplicate_of": float(e["duplicate_of"])}
                                    if e["duplicate_of"] is not None else e
                                    for e in entries]},
                # a rank that is not an int, or not the family's rank 7, and
                # an is_basis that is not the bool rank == dim
                {**doc, "rank": 8, "is_basis": True}, {**doc, "rank": 7.0},
                {**doc, "rank": -1}, {**doc, "is_basis": 0}, {**doc, "rank": True},
                {**doc, "rank": 6}, {**doc, "rank": "6"},
                {**canonical_doc, "rank": 0, "is_basis": False},
                {**doc, "is_basis": None}, {k: v for k, v in doc.items() if k != "rank"}):
        with pytest.raises(ValueError):
            family_from_json(bad)
    assert family_from_json({**doc, "rank": "7"}).exponents == family.exponents
    assert family_from_json(canonical_doc).exponents == canonical.exponents

    n_four = monomial_family(GTModule(Partition([3, 2, 1, 0])), "alternate")
    restored = family_from_json(json.loads(json.dumps(family_to_json(n_four, 42))))
    assert restored.exponents == n_four.exponents
    assert restored.duplicate_of == n_four.duplicate_of
    assert len(restored.duplicates) == 22
