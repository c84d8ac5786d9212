"""Raising words, exponent sweeps, and the simplicity certificate."""

import numpy.linalg
import pytest
from click.testing import CliRunner

import gtbasis
from gtbasis import monomials, operators, raising
from gtbasis.cli import main
from gtbasis.operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    apply_generator,
    operator_matrix,
)
from gtbasis.patterns import Partition, enumerate_patterns, highest_pattern
from gtbasis.raising import (
    CertificationError,
    GeneratorWord,
    SimplicityReport,
    UnsupportedScheduleError,
    alternate_row_order,
    apply_word,
    canonical_row_order,
    _check_ladder,
    raise_sum_to_highest,
    raising_word,
    simplicity_certificate,
    sweep_exponents,
    verify_raise,
    word_format,
)
from gtbasis.scalars import RadicalScalar, sqrt_rational

from golden_data import (
    ALTERNATE_TRIPLES_210,
    ALTERNATE_TRIPLES_320,
    CANONICAL_TRIPLES_210,
    CANONICAL_TRIPLES_320,
    FIVE_TERM_E12SQ_320,
    FIVE_TERM_E23_E12SQ_320,
    FIVE_TERM_LAMBDA_320,
    FIVE_TERM_MINIMAL_320,
    FIVE_TERM_SUPPORT_320,
    FIVE_TERM_WORD_320,
    P110,
    P210,
    P320,
    P420,
    SUM_RESULT_420,
    SUM_SUPPORT_420,
    SUM_WORD_420,
    all_partitions,
    pat,
    rad,
)
from test_cli import _count_calls
from test_operators import _corrupting as _corrupting_by_name

ONE = RadicalScalar.one()


def unit_sum(partition, compacts):
    return {pat(partition, c): ONE for c in compacts}


def written_triple(word):
    return tuple(word.exponents_written())


def test_canonical_row_order_shape():
    assert canonical_row_order(2) == [1]
    assert canonical_row_order(3) == [1, 2, 1]
    assert canonical_row_order(4) == [1, 2, 3, 1, 2, 1]
    assert alternate_row_order(2) == [1]
    assert alternate_row_order(3) == [2, 1, 2]
    assert alternate_row_order(4) == [3, 2, 1, 3, 2, 3]
    for n in range(2, 7):  # the canonical order under r -> n - r
        assert alternate_row_order(n) == [n - r for r in canonical_row_order(n)]
    assert monomials.UnsupportedScheduleError is UnsupportedScheduleError
    assert gtbasis.UnsupportedScheduleError is UnsupportedScheduleError


def test_canonical_triples_210():
    for compact, triple in CANONICAL_TRIPLES_210.items():
        word = raising_word(pat(P210, compact))
        assert written_triple(word) == triple, compact


def test_alternate_triples_210():
    for compact, triple in ALTERNATE_TRIPLES_210.items():
        word = raising_word(pat(P210, compact), "alternate")
        assert written_triple(word) == triple, compact


def test_canonical_triples_320():
    for compact, triple in CANONICAL_TRIPLES_320.items():
        word = raising_word(pat(P320, compact))
        assert written_triple(word) == triple, compact


def test_alternate_triples_320():
    for compact, triple in ALTERNATE_TRIPLES_320.items():
        word = raising_word(pat(P320, compact), "alternate")
        assert written_triple(word) == triple, compact


def test_word_text_examples():
    word = raising_word(pat(P210, "2,0;0"))
    assert word.to_text() == "E12^0 E23^1 E12^2"
    beta_word = raising_word(highest_pattern(P210))
    assert beta_word.to_text() == "E12^0 E23^0 E12^0"
    assert not any(beta_word.exponents_written())


def test_word_text_round_trip():
    assert GeneratorWord(()).to_text() == "(empty)"
    # rows 10 and up: the label names both rows of the pair, "1011"
    word = GeneratorWord([(GeneratorSpec("raise", 10), 2), (GeneratorSpec("lower", 12), 1)])
    assert word.to_text() == "E1011^2 F1213^1"
    family = monomials.monomial_family(GTModule(Partition([2, 1] + [0] * 10)))
    assert max(spec.index for w in family.words for spec, _ in w.factors) == 11
    texts = family.word_texts()
    assert any("F1011^" in t for t in texts) and any("F1112^" in t for t in texts)


def test_word_format_is_the_one_word_text():
    specs = [GeneratorSpec("raise", 1), GeneratorSpec("lower", 10)]
    assert word_format(specs) == "E12^%d F1011^%d"
    assert word_format([]) == "(empty)"
    assert GeneratorWord(zip(specs, (3, 0))).to_text() == word_format(specs) % (3, 0)


def test_raising_word_takes_a_schedule_name_only():
    p = pat(P210, "2,0;0")
    assert raising_word(p, "canonical") == raising_word(p)
    assert raising_word(p, "alternate").exponents_written() == [1, 2, 0]
    for schedule in ([1, 2, 1], "sideways", None):
        with pytest.raises(UnsupportedScheduleError):
            raising_word(p, schedule)
    assert raising.resolve_schedule(3, "alternate") == alternate_row_order(3)
    assert monomials.resolve_schedule is raising.resolve_schedule


def test_word_json_round_trip():
    word = raising_word(pat(P210, "1,0;0"))
    doc = word.to_json()
    assert doc == [
        {"gen": "E", "row": 1, "exp": 1},
        {"gen": "E", "row": 2, "exp": 2},
        {"gen": "E", "row": 1, "exp": 1},
    ]


def test_word_mirror():
    word = GeneratorWord([(GeneratorSpec("raise", 1), 0), (GeneratorSpec("raise", 2), 1),
                          (GeneratorSpec("raise", 1), 2)])
    assert word.to_text() == "E12^0 E23^1 E12^2"
    assert word.mirror().to_text() == "F12^2 F23^1 F12^0"
    assert word.mirror().mirror() == word


def test_sweep_exponent_totals_match_content_deficit():
    for n, max_m1 in ((2, 4), (3, 4), (4, 2)):
        for partition in all_partitions(n, max_m1):
            beta = highest_pattern(partition)
            deficit_total = lambda xi: sum(
                beta.content(k) - xi.content(k) for k in range(1, n)
            )
            for xi in enumerate_patterns(partition):
                exps = sweep_exponents(xi, canonical_row_order(xi.n))
                assert len(exps) == n * (n - 1) // 2
                assert sum(exps) == deficit_total(xi)


def test_exponents_zero_iff_highest():
    for partition in (P110, P210, P320, Partition([2, 1, 1, 0])):
        beta = highest_pattern(partition)
        for xi in enumerate_patterns(partition):
            exps = sweep_exponents(xi, canonical_row_order(xi.n))
            assert (sum(exps) == 0) == (xi == beta)


def test_apply_word_identity_and_single_factor():
    v = unit_sum(P210, ["1,0;0", "2,0;1"])
    assert apply_word(GeneratorWord(()), v) == v
    lowered = apply_word(
        GeneratorWord(((GeneratorSpec("lower", 1), 1),)),
        {pat(P210, "2,1;2"): ONE},
    )
    assert lowered == {pat(P210, "2,1;1"): ONE}


def test_verify_raise_examples():
    assert verify_raise(highest_pattern(P210)) == ONE
    lam = verify_raise(pat(P210, "2,0;0"))
    assert lam == RadicalScalar.from_rational(2)
    for xi in enumerate_patterns(P110):
        assert not verify_raise(xi).is_zero()


def test_verify_raise_exhaustive():
    for n, max_m1 in ((2, 4), (3, 4), (4, 2)):
        for partition in all_partitions(n, max_m1):
            beta = highest_pattern(partition)
            for xi in enumerate_patterns(partition):
                word = raising_word(xi)
                image = apply_word(word, {xi: ONE})
                assert set(image) == {beta}, (partition, xi.to_string())
                assert not image[beta].is_zero()


def test_raise_sum_to_highest_simple_cases():
    outcome = raise_sum_to_highest(unit_sum(P110, ["1,0;0", "1,0;1"]))
    assert outcome.ok
    assert outcome.lambda_beta == ONE
    assert outcome.word.to_text() == "E12^0 E23^1 E12^1"
    beta_outcome = raise_sum_to_highest({highest_pattern(P110): ONE})
    assert beta_outcome.ok and beta_outcome.lambda_beta == ONE
    with pytest.raises(ValueError):
        raise_sum_to_highest({})


def test_cancelled_entries_are_dropped():
    # E_2 sends (1,1;1) to (2,1;1) with √6/2 and (2,0;1) there with √2/2, so
    # this combination cancels: a vector holds only nonzero values.
    v = {pat(P210, "1,1;1"): rad(1, 2, 2), pat(P210, "2,0;1"): -rad(1, 2, 6)}
    e2 = GeneratorSpec("raise", 2)
    assert apply_generator(e2, v) == {}
    assert apply_word(GeneratorWord(((GeneratorSpec("raise", 1), 1), (e2, 1))), v) == {}
    with pytest.raises(ValueError):
        raise_sum_to_highest(apply_generator(e2, v))


def test_five_term_sum_intermediate_values():
    """E12^2 then E23 leaves a residual term beyond β — the full sweep of
    the minimal pattern is what certifies this vector, not that prefix."""
    v = unit_sum(P320, FIVE_TERM_SUPPORT_320)
    e12sq = apply_word(GeneratorWord(((GeneratorSpec("raise", 1), 2),)), v)
    assert e12sq == {pat(P320, c): rad(*t) for c, t in FIVE_TERM_E12SQ_320.items()}
    prefix = GeneratorWord(
        ((GeneratorSpec("raise", 2), 1), (GeneratorSpec("raise", 1), 2))
    )
    after = apply_word(prefix, v)
    assert after == {pat(P320, c): rad(*t) for c, t in FIVE_TERM_E23_E12SQ_320.items()}
    # the β coefficient is nonzero, but so is the residual:
    beta = highest_pattern(P320)
    assert not after.get(beta, RadicalScalar.zero()).is_zero()
    assert set(after) != {beta}


def test_five_term_sum_raises_via_minimal_pattern():
    v = unit_sum(P320, FIVE_TERM_SUPPORT_320)
    outcome = raise_sum_to_highest(v)
    assert outcome.ok
    assert outcome.minimal == pat(P320, FIVE_TERM_MINIMAL_320)
    assert outcome.word.to_text() == FIVE_TERM_WORD_320
    expected = {highest_pattern(P320): sum((rad(*t) for t in FIVE_TERM_LAMBDA_320),
                                           RadicalScalar.zero())}
    assert {highest_pattern(P320): outcome.lambda_beta} == expected
    assert outcome.residual == {}


def test_two_term_sum_420():
    v = unit_sum(P420, SUM_SUPPORT_420)
    word = GeneratorWord([(GeneratorSpec("raise", 2), 2), (GeneratorSpec("raise", 1), 1)])
    assert word.to_text() == SUM_WORD_420
    image = apply_word(word, v)
    assert image == {pat(P420, c): rad(*t) for c, t in SUM_RESULT_420.items()}


def test_simplicity_certificate_small():
    module = GTModule(P210)
    report = simplicity_certificate(module)
    assert report.certified
    assert "ladder_fault" in vars(module)  # the verdict read the module it was given
    assert (report.raised, report.dim, report.rank) == (8, 8, 8)
    assert report.summary() == "CERTIFIED (8/8, rank 8)"
    assert simplicity_certificate(GTModule(Partition([1, 0]))).certified
    report320 = simplicity_certificate(GTModule(P320))
    assert report320.certified
    assert (report320.raised, report320.rank) == (15, 15)


def test_raise_sum_reports_cancellation():
    # The minimal pattern's word sends the larger (3,0;1) to (4√3/3)·β, so
    # scaling it by -√2 cancels the (2,1;1) contribution 4√6/3 exactly; the
    # outcome must report failure (λ_β = 0), not certify.
    v = {
        pat(P320, "2,1;1"): ONE,
        pat(P320, "3,0;1"): -sqrt_rational(2),
    }
    outcome = raise_sum_to_highest(v)
    assert not outcome.ok
    assert not bool(outcome)
    assert outcome.lambda_beta.is_zero()
    assert issubclass(CertificationError, RuntimeError)


def test_sweep_exponents_respects_custom_order():
    xi = pat(P210, "2,0;0")
    assert sweep_exponents(xi, [1, 2, 1]) == [2, 1, 0]
    assert sweep_exponents(xi, [2, 1, 2]) == [0, 2, 1]


def test_word_validation():
    with pytest.raises(ValueError):
        GeneratorWord(((GeneratorSpec("diag", 1), 1),))
    with pytest.raises(ValueError):
        GeneratorWord(((GeneratorSpec("raise", 1), -2),))
    with pytest.raises(ValueError):
        GeneratorWord(((GeneratorSpec("lower", 0), 1),))
    # exponents follow the package's one int rule: int() would read 1.9 as 1
    for exp in (1.9, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            GeneratorWord(((GeneratorSpec("raise", 1), exp),))
    # the letters come from the same table, and mirror swaps E and F
    word = GeneratorWord([(GeneratorSpec("raise", 2), 1), (GeneratorSpec("lower", 1), 3)])
    assert word.to_text() == "E23^1 F12^3"
    assert word.mirror().to_json() == [{"gen": "E", "row": 1, "exp": 3},
                                       {"gen": "F", "row": 2, "exp": 1}]


@pytest.mark.parametrize("make, fields", [
    (lambda: Partition([2, 1, 0]), ("parts",)),
    (lambda: highest_pattern(Partition([2, 1, 0])), ("rows",)),
    (lambda: GeneratorWord([(GeneratorSpec("raise", 1), 2)]), ("factors",)),
    (lambda: operator_matrix(GeneratorSpec("raise", 1), GTModule(Partition([1, 0]))),
     ("dim", "cols", "meta")),
    (lambda: sqrt_rational(2) + RadicalScalar.from_rational(1), ("terms", "den")),
    (lambda: GeneratorSpec("lower", 2), ("kind", "index")),
], ids=["Partition", "GTPattern", "GeneratorWord", "OperatorMatrix", "RadicalScalar",
        "GeneratorSpec"])
def test_value_types_refuse_assigning_and_deleting_fields(make, fields):
    value = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()
    assert all(getattr(value, name) == getattr(make(), name) for name in fields)


LADDER = [Partition([2, 1, 0]), Partition([3, 2, 1, 0]), Partition([2, 1, 1, 1, 0]),
          Partition([3, 2, 1, 0, 0])]


def _certificate_by_raising(partition):
    """(raised, rank, certified) from one verify_raise per pattern."""
    basis = enumerate_patterns(partition)
    raised = 0
    for xi in basis:
        try:
            verify_raise(xi)
            raised += 1
        except CertificationError:
            pass
    family_rank = monomials.rank(
        monomials.basis_matrix(monomials.monomial_family(GTModule(partition), "canonical"))
    )
    return raised, family_rank, raised == len(basis) == family_rank


def test_certificate_diagonal_equals_verify_raise():
    partitions = [p for n in (2, 3, 4) for p in all_partitions(n, 3)]
    partitions += [Partition([2, 1, 1, 1, 0]), Partition([3, 2, 1, 0, 0])]
    for partition in partitions:
        mat = monomials.basis_matrix(monomials.monomial_family(GTModule(partition), "canonical"))
        for c, xi in enumerate(enumerate_patterns(partition)):
            assert mat.cols[c][c] == verify_raise(xi), (partition, xi.to_string())
        report = simplicity_certificate(GTModule(partition))
        assert (report.raised, report.rank, report.certified) == (
            _certificate_by_raising(partition)
        ), partition


def _by_basis_matrix(partition):
    """The report of the exact basis-matrix route, on the module as built."""
    module = GTModule(partition)
    family = monomials.monomial_family(module, "canonical")
    mat = monomials.basis_matrix(family)
    failures = [(xi, "raising %s annihilated it" % xi.to_string())
                for c, xi in enumerate(module.basis) if c not in mat.cols[c]]
    dim = len(module.basis)
    return SimplicityReport(partition, dim, dim - len(failures), failures,
                            monomials.rank(mat))


def _counting_basis_matrix(monkeypatch):
    """Record every call of monomials.basis_matrix; returns the list."""
    calls, original = [], monomials.basis_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(monomials, "basis_matrix", counted)
    return calls


def _dropping_pattern_2(e, f):
    """Remove every F_k entry into pattern 2 and its E_k transpose."""
    return (
        OperatorMatrix([{} if c == 2 else col for c, col in enumerate(e.cols)]),
        OperatorMatrix([{r: v for r, v in col.items() if r != 2} for col in f.cols]),
    )


def test_certificate_reports_a_zero_diagonal_entry(monkeypatch):
    # no lowering word reaches pattern 2, and the word of 2,1,0;1,0;0 passes
    # through it, so neither column has its diagonal entry and the exact
    # basis matrix decides
    _corrupting(monkeypatch, _dropping_pattern_2)
    assert GTModule(P210).lowering_positive
    expected = _by_basis_matrix(P210)
    calls = _counting_basis_matrix(monkeypatch)
    report = simplicity_certificate(GTModule(P210))
    assert len(calls) == 1
    assert report == expected
    failed = [pat(P210, "1,0;0"), pat(P210, "1,0;1")]
    assert enumerate_patterns(P210)[2] == failed[1]
    assert not report.certified
    assert (report.raised, report.rank) == (6, 6)
    assert report.raise_failures == [
        (xi, "raising %s annihilated it" % xi.to_string()) for xi in failed]


def _negating_one_entry(e, f):
    """Negate the first entry of E_k and its F_k transpose."""
    cols = [dict(col) for col in e.cols]
    c = next(c for c, col in enumerate(cols) if col)
    r = min(cols[c])
    cols[c][r] = -cols[c][r]
    e = OperatorMatrix(cols)
    return e, _transpose(e)


def test_certificate_falls_back_on_a_negated_entry(monkeypatch):
    # supports cannot see the flipped sign; the positivity gate must
    _corrupting(monkeypatch, _negating_one_entry)
    expected = [_by_basis_matrix(partition) for partition in LADDER]
    calls = _counting_basis_matrix(monkeypatch)
    for partition, want in zip(LADDER, expected):
        assert not GTModule(partition).lowering_positive
        calls.clear()
        assert simplicity_certificate(GTModule(partition)) == want
        assert len(calls) == 1


def test_intact_certificate_builds_no_basis_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the certificate built a basis matrix or ranked one")

    families, original = [], monomials.monomial_family

    def counted(*args):
        families.append(args)
        return original(*args)

    for name in ("basis_matrix", "rank"):
        monkeypatch.setattr(monomials, name, forbidden)
    monkeypatch.setattr(monomials, "monomial_family", counted)
    for partition in LADDER:
        module = GTModule(partition)
        dim = len(module.basis)
        families.clear()
        assert simplicity_certificate(module) == SimplicityReport(
            partition, dim, dim, [], dim)
        assert module.lowering_positive
        assert families == [(module,)]  # the one canonical family, for its reached sets


def test_certificate_fallback_decides_without_floats(monkeypatch):
    # negate_both sends the certificate to the exact basis matrix, whose
    # rank is decided by exact elimination alone
    _corrupting_by_name(monkeypatch, "negate_both")
    svd_calls, original = [], numpy.linalg.svd

    def recording(a, *args, **kwargs):
        svd_calls.append(numpy.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(numpy.linalg, "svd", recording)
    module = GTModule(Partition([3, 2, 1, 0]))
    assert not module.lowering_positive
    assert simplicity_certificate(module).summary() == "CERTIFIED (64/64, rank 64)"
    assert svd_calls == []


@pytest.mark.parametrize("corruption", [None, "negate_both"])
def test_certificate_sweeps_each_pattern_once(monkeypatch, corruption):
    # negate_both leaves an F_k entry negative, so the certificate falls back
    # to the exact basis matrix; that reuses the exponents of the reached sets
    _corrupting_by_name(monkeypatch, corruption)
    calls = _count_calls(monkeypatch, raising.sweep_exponents)
    for partition in LADDER:
        module = GTModule(partition)
        calls.clear()
        report = simplicity_certificate(module)
        assert module.lowering_positive == (corruption is None)
        assert report.certified
        assert [xi for xi, _ in calls] == module.basis, partition


@pytest.mark.parametrize("parts", [[2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0], [9, 4, 2, 0]])
def test_reached_sets_are_the_basis_matrix_supports(parts):
    partition = Partition(parts)
    module = GTModule(partition)
    for schedule in ("canonical", "alternate"):
        family = monomials.monomial_family(module, schedule)
        mat = monomials.basis_matrix(family)
        order = monomials.resolve_schedule(partition.n, schedule)
        assert family.exponents == [tuple(sweep_exponents(p, order)) for p in module.basis]
        assert monomials.reached_sets(family) == [frozenset(col) for col in mat.cols]


def test_lowering_positivity_refuses_a_two_term_entry():
    module = GTModule(P210)
    f = module.generator("lower", 1)
    c = next(c for c, col in enumerate(f.cols) if col)
    r = min(f.cols[c])
    f.cols[c][r] = f.cols[c][r] + sqrt_rational(2)  # now two radical terms
    assert not module.lowering_positive
    # the last entry of each F_k, whose value other entries share as one object
    partition = Partition([3, 2, 1, 0])
    for k in range(1, partition.n):
        module = GTModule(partition)
        f = module.generator("lower", k)
        c = max(c for c, col in enumerate(f.cols) if col)
        r = max(f.cols[c])
        assert any(v is f.cols[c][r] for col in f.cols[:c] for v in col.values())
        f.cols[c][r] = -f.cols[c][r]
        assert not module.lowering_positive, k


def test_verify_never_replays_raising_words(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the certificate replayed a raising word")

    for name in ("verify_raise", "apply_word", "apply_generator"):
        monkeypatch.setattr(raising, name, forbidden)
    monkeypatch.setattr(operators, "apply_generator", forbidden)
    for partition in LADDER[:3]:
        assert simplicity_certificate(GTModule(partition)).certified
        result = CliRunner().invoke(main, ["verify", str(partition)])
        assert result.exit_code == 0 and "CERTIFIED" in result.output


def _corrupting(monkeypatch, corrupt):
    """Pass every (E_k, F_k) pair of each built module through corrupt."""
    original = operators.operator_matrix

    def built(spec, module):
        mat = original(spec, module)
        if spec.kind not in ("raise", "lower"):
            return mat
        e = original(GeneratorSpec("raise", spec.index), module)
        f = original(GeneratorSpec("lower", spec.index), module)
        return corrupt(e, f)[spec.kind == "lower"]

    monkeypatch.setattr(operators, "operator_matrix", built)


def _transpose(mat):
    cols = [{} for _ in range(mat.dim)]
    for r, c, v in mat.nonzeros():
        cols[r][c] = v
    return OperatorMatrix(cols)


def test_ladder_invariants_hold_on_unmodified_modules():
    for partition in LADDER:
        module = GTModule(partition)
        _check_ladder(module)
        for k in range(1, partition.n):
            e = module.generator("raise", k)
            assert module.generator("lower", k) == _transpose(e)


def test_certificate_rejects_a_corrupted_lowering_matrix(monkeypatch):
    def changed_f(e, f):
        cols = [dict(col) for col in f.cols]
        c = next(c for c, col in enumerate(cols) if col)
        r = min(cols[c])
        cols[c][r] = -cols[c][r]
        return e, OperatorMatrix(cols)

    _corrupting(monkeypatch, changed_f)
    for partition in LADDER:
        with pytest.raises(InternalConsistencyError, match="not the transpose"):
            simplicity_certificate(GTModule(partition))


def test_certificate_rejects_a_misweighted_raising_matrix(monkeypatch):
    def misweighted(e, f):
        # move one entry of E_k onto the diagonal, F_k following as its transpose
        cols = [dict(col) for col in e.cols]
        c = next(c for c, col in enumerate(cols) if col)
        cols[c][c] = cols[c].pop(min(cols[c]))
        e = OperatorMatrix(cols)
        return e, _transpose(e)

    _corrupting(monkeypatch, misweighted)
    for partition in LADDER:
        with pytest.raises(InternalConsistencyError, match="not one up in row"):
            simplicity_certificate(GTModule(partition))


def test_certificate_rejects_a_shared_highest_weight(monkeypatch):
    beta = highest_pattern(P210)
    monkeypatch.setattr(operators, "enumerate_patterns",
                        lambda partition: enumerate_patterns(partition) + [beta])
    module = GTModule(P210)
    assert module.basis[-1] == beta == module.basis[module.beta]
    with pytest.raises(InternalConsistencyError, match="highest pattern"):
        _check_ladder(module)
