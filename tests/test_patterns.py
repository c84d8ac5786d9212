"""Partitions, pattern validation, enumeration order, and the dimension rule."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis import patterns
from gtbasis.patterns import (
    GTPattern,
    Partition,
    PatternShapeError,
    compare,
    dimension,
    enumerate_patterns,
    highest_pattern,
    validate,
)

from golden_data import P110, P210, P320, PATTERNS_110, all_partitions, pat


def test_partition_basics():
    p = Partition([2, 1, 0])
    assert p.parts == (2, 1, 0)
    assert p.n == 3
    assert str(p) == "2,1,0"
    assert Partition.from_string("2, 1, 0") == p


def test_partition_normalizes_last_part_to_zero():
    assert Partition([5, 4, 3]).parts == (2, 1, 0)
    assert Partition([3, 3]).parts == (0, 0)
    assert Partition([-1, -2, -3]).parts == (2, 1, 0)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition([1, 2, 3])
    with pytest.raises(ValueError):
        Partition([1])
    with pytest.raises(ValueError):
        Partition.from_string("2,x,0")
    # every entry is read through json_int, as the JSON readers do
    for text in ("2,1,0_0", "+2,1,0", "\u0662,1,0"):
        with pytest.raises(ValueError):
            Partition.from_string(text)
    for text in ("2,1,0;1,0;0_0", "2,1,0;1,0;+0", "2,1,0;1,0;\u0660"):
        with pytest.raises(ValueError):
            GTPattern.from_string(text, P210)
    assert Partition.from_string(" 2, 1 ,\t0\n") == P210
    assert GTPattern.from_string(" 2, 1,0 ;1 ,0;\t0", P210) == pat(P210, "1,0;0")


def test_constructors_take_only_ints():
    # int() would truncate 2.7 to 2 and read "3" as 3; each is refused instead
    for parts in ([2.7, 1, 0], ["3", "1", "0"], [2.0, 1, 0], [True, False]):
        with pytest.raises(ValueError, match="not an integer"):
            Partition(parts)
    for rows in ([[1.9], [2, 0.5]], [[1], ["2", 0]], [[True], [1, 0]]):
        with pytest.raises(ValueError, match="not an integer"):
            GTPattern(rows)
        with pytest.raises(ValueError, match="not an integer"):
            validate(rows, Partition([2, 0]))
    assert GTPattern([[1], [2, 0]]).to_string() == "2,0;1"


def test_validate_examples():
    assert validate([[2], [2, 1], [2, 1, 0]], P210) == []
    violations = validate([[2], [1, 0], [1, 1, 0]], P110)
    assert violations and any("row" in v for v in violations)
    assert validate([[1], [1, 1], [1, 1, 0]], P110) == []


def test_validate_reports_shape_and_top_row_problems():
    with pytest.raises(PatternShapeError):
        validate([[2], [2, 1, 0]], P210)
    assert validate([[1], [1, 1], [2, 1, 0]], P110) != []


def test_pattern_construction_and_accessors():
    xi = pat(P210, "2,1;1")
    assert xi.n == 3
    assert xi.row(1) == (1,)
    assert xi.row(2) == (2, 1)
    assert xi.row(3) == (2, 1, 0)
    assert xi.entry(2, 1) == 2
    assert xi.content(0) == 0
    assert xi.content(2) == 3
    assert xi.key() == (1, 2, 1, 2, 1, 0)


def test_pattern_rejects_interleaving_violation():
    with pytest.raises(PatternShapeError):
        GTPattern([[2], [1, 0], [1, 1, 0]], P110)


def test_pattern_text_round_trip():
    for text in ["2,1,0;2,1;2", "2,1,0;1,0;0", "1,0;1"]:
        xi = GTPattern.from_string(text)
        assert xi.to_string() == text
    assert GTPattern.from_string(" 2,1,0 ; 2,1 ; 2 ").to_string() == "2,1,0;2,1;2"
    with pytest.raises(ValueError):
        GTPattern.from_string("2,1,0;2,1;2", P110)


def test_to_string_matches_joined_rows():
    def oracle(p):
        return ";".join(",".join(map(str, row)) for row in reversed(p.rows))

    odd = GTPattern._trusted(((-12,), (105, -3), (1000, 7, -40)))  # not a pattern
    assert odd.to_string() == oracle(odd) == "1000,7,-40;105,-3;-12"
    assert odd.compact_str() == "105,-3;-12"
    for parts in ([1, 0], [12, 6, 0], [3, 2, 1, 0, 0], [2, 1, 0, 0, 0, 0, 0]):
        for p in enumerate_patterns(Partition(parts)):
            text = p.to_string()
            assert text == oracle(p)
            assert p.compact_str() == text.partition(";")[2]
            assert GTPattern.from_string(text) == p


def test_pattern_replace():
    xi = pat(P210, "1,0;0")
    raised = xi.replace(1, 1, 1)
    assert raised == pat(P210, "1,0;1")
    assert xi.replace(1, 1, -1) is None
    assert xi.replace(2, 1, 2) == pat(P210, "2,0;0")


def _replace_reference(xi, k, i, value):
    """Set one entry, then validate the whole triangle."""
    rows = [list(row) for row in xi.rows]
    rows[k - 1][i - 1] = value
    try:
        return GTPattern(rows, xi.partition)
    except ValueError:
        return None


@st.composite
def _replacements(draw):
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
    parts = [sum(gaps[j:]) for j in range(n - 1)] + [0]
    rows = [parts]  # top-down, each row interleaving the one above it
    for size in range(n - 1, 0, -1):
        upper = rows[-1]
        rows.append([draw(st.integers(upper[j + 1], upper[j])) for j in range(size)])
    xi = GTPattern(reversed(rows))
    k = draw(st.integers(1, n))
    i = draw(st.integers(1, k))
    value = draw(st.integers(-2, parts[0] + 2))
    return xi, k, i, value


@settings(max_examples=400, deadline=None)
@given(_replacements())
def test_replace_matches_full_validation(case):
    xi, k, i, value = case
    got = xi.replace(k, i, value)
    want = _replace_reference(xi, k, i, value)
    assert got == want
    if got is not None:
        assert got.key() == want.key() and hash(got) == hash(want)


def test_replace_rejects_positions_outside_the_triangle():
    xi = highest_pattern(P210)
    for k, i in ((0, 1), (4, 1), (2, 3), (2, 0)):
        with pytest.raises(IndexError):
            xi.replace(k, i, 0)


def test_enumerate_110_exact_set():
    pats = enumerate_patterns(P110)
    assert [p.compact_str() for p in pats] == PATTERNS_110


def test_enumerate_210_count_and_order():
    pats = enumerate_patterns(P210)
    assert len(pats) == 8
    keys = [p.key() for p in pats]
    assert keys == sorted(keys)
    assert len(set(pats)) == 8
    for p in pats:
        assert validate([list(r) for r in p.rows], P210) == []


def test_enumeration_is_in_key_order_for_n_2_to_6():
    for parts in ([4, 0], [3, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0], [2, 1, 1, 0, 0, 0]):
        pats = enumerate_patterns(Partition(parts))
        keys = [p.key() for p in pats]
        assert all(a < b for a, b in zip(keys, keys[1:])), parts
        assert len(pats) == dimension(Partition(parts)), parts


def test_enumerate_trivial_module():
    pats = enumerate_patterns(Partition([0, 0, 0]))
    assert len(pats) == 1
    assert all(all(e == 0 for e in row) for row in pats[0].rows)


def test_dimension_examples():
    assert dimension(P210) == 8
    assert dimension(P110) == 3
    assert dimension(P320) == 15
    assert dimension(Partition([0, 0])) == 1
    assert dimension(Partition([1, 1, 1, 0])) == 4
    assert dimension(Partition([2, 1, 1, 0])) == 15


def test_dimension_equals_enumeration_exhaustive():
    # enumeration skips validation, so every pattern is checked here against
    # a validating construction
    extra = [Partition([2, 1, 1, 1, 0])]
    for p in [q for n in (2, 3, 4) for q in all_partitions(n, 4)] + extra:
        pats = enumerate_patterns(p)
        assert dimension(p) == len(pats), p
        assert all(GTPattern(q.rows) == q for q in pats), p
        keys = [q.key() for q in pats]
        assert all(a < b for a, b in zip(keys, keys[1:])), p


def test_enumerate_patterns_never_validates(monkeypatch):
    calls = []
    original = patterns.validate

    def counting(rows, partition):
        calls.append(rows)
        return original(rows, partition)

    monkeypatch.setattr(patterns, "validate", counting)
    for p in (P210, Partition([2, 1, 1, 0]), Partition([0, 0, 0])):
        enumerate_patterns(p)
    assert calls == []


def test_dimension_n2_closed_form():
    for m in range(10):
        assert dimension(Partition([m, 0])) == m + 1


def test_compare_examples():
    a = pat(P110, "1,0;0")
    b = pat(P110, "1,0;1")
    assert compare(a, b) == -1
    assert compare(a, a) == 0
    assert compare(pat(P210, "2,1;2"), pat(P210, "1,1;1")) == 1


def test_compare_rejects_mixed_partitions():
    with pytest.raises(ValueError):
        compare(pat(P110, "1,0;0"), pat(P210, "1,0;0"))


def test_compare_is_total_order():
    for partition in (P210, P320):
        pats = enumerate_patterns(partition)
        for a, b in itertools.combinations(pats, 2):
            assert compare(a, b) == -compare(b, a) != 0
        for a, b, c in itertools.combinations(pats, 3):
            # enumeration is ascending, so a < b < c must chain.
            assert compare(a, b) == -1 and compare(b, c) == -1
            assert compare(a, c) == -1


def test_highest_pattern_examples():
    beta = highest_pattern(P210)
    assert beta.rows == ((2,), (2, 1), (2, 1, 0))
    assert highest_pattern(P110).rows == ((1,), (1, 1), (1, 1, 0))
    zero = highest_pattern(Partition([0, 0, 0]))
    assert all(all(e == 0 for e in row) for row in zero.rows)


def test_highest_pattern_is_maximum():
    for partition in (P110, P210, P320, Partition([2, 1, 1, 0])):
        pats = enumerate_patterns(partition)
        beta = highest_pattern(partition)
        assert pats[-1] == beta
        assert all(compare(p, beta) <= 0 for p in pats)


def test_unnormalized_top_row_is_shifted():
    xi = GTPattern.from_string("3,2,1;3,2;3")
    assert xi.partition.parts == (2, 1, 0)
    assert xi.rows == ((2,), (2, 1), (2, 1, 0))


def test_text_with_an_unshifted_top_row_belongs_to_the_shifted_partition():
    partition = Partition([3, 2, 1])
    assert GTPattern.from_string("3,2,1;3,1;2", partition) == GTPattern.from_string(
        "2,1,0;2,0;1", partition
    )
    with pytest.raises(ValueError, match="does not belong to partition 2,1,0"):
        GTPattern.from_string("3,1,0;3,1;3", partition)
