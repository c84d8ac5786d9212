"""Generator actions, matrices, commutators, and the bracket relations."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis import operators
from gtbasis.operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    _first_difference,
    act_diag,
    act_lower,
    act_raise,
    commutator,
    general_element,
    matrix_from_json,
    matrix_market,
    matrix_to_json,
    operator_matrix,
    verify_sln_relations,
)
from gtbasis.patterns import GTPattern, Partition, enumerate_patterns, highest_pattern
from gtbasis.scalars import RadicalScalar, sqrt_rational
from gtbasis.weights import weight_of

from golden_data import (
    E12_210,
    E23_210,
    F21_210,
    F32_210,
    H11_210,
    H22_210,
    H33_210,
    P110,
    P210,
    TABLE_ORDER_210,
    all_partitions,
    closed_e12,
    closed_e23,
    closed_f21,
    closed_f32,
    closed_h,
    pat,
    rad,
)

P10 = Partition([1, 0])


def expected_vector(partition, table_row):
    return {pat(partition, target): rad(*coeff) for target, coeff in table_row.items()}


def test_e12_table_full():
    for source, row in E12_210.items():
        assert act_raise(1, pat(P210, source)) == expected_vector(P210, row), source


def test_e23_table_full():
    for source, row in E23_210.items():
        assert act_raise(2, pat(P210, source)) == expected_vector(P210, row), source


def test_f21_table_full():
    for source, row in F21_210.items():
        assert act_lower(1, pat(P210, source)) == expected_vector(P210, row), source


def test_f32_table_full():
    for source, row in F32_210.items():
        assert act_lower(2, pat(P210, source)) == expected_vector(P210, row), source


def test_adjointness_forced_second_terms():
    # These two images each carry a term the single-term table rows miss;
    # adjointness with their partner entries forces it.
    zero = RadicalScalar.zero()
    image = act_raise(2, pat(P210, "1,0;1"))
    assert image.get(pat(P210, "1,1;1"), zero) == rad(1, 2, 6)
    assert image.get(pat(P210, "2,0;1"), zero) == rad(1, 2, 2)
    image = act_lower(2, pat(P210, "2,1;1"))
    assert image.get(pat(P210, "2,0;1"), zero) == rad(1, 2, 2)
    assert image.get(pat(P210, "1,1;1"), zero) == rad(1, 2, 6)


def test_h_tables_full():
    for source in TABLE_ORDER_210:
        xi = pat(P210, source)
        assert act_diag(1, xi) == (H11_210[source], xi)
        assert act_diag(2, xi) == (H22_210[source], xi)
        assert act_diag(3, xi) == (H33_210[source], xi)


def test_act_raise_annihilates_highest():
    for partition in (P10, P110, P210, Partition([2, 1, 1, 0])):
        beta = highest_pattern(partition)
        for k in range(1, partition.n):
            assert act_raise(k, beta) == {}


def test_act_lower_kills_lowest():
    assert act_lower(2, pat(P210, "1,0;0")) == {}


def test_index_range_checks():
    with pytest.raises(ValueError):
        act_raise(3, pat(P210, "1,0;0"))
    with pytest.raises(ValueError):
        act_lower(0, pat(P210, "1,0;0"))
    with pytest.raises(ValueError):
        act_diag(4, pat(P210, "1,0;0"))


def test_closed_forms_match_general_formula():
    """The n=3 closed forms agree with the general coefficient products."""
    for partition in all_partitions(3, 4):
        m = partition.parts
        for xi in enumerate_patterns(partition):
            p1, p2 = xi.row(2)
            q = xi.row(1)[0]
            cases = [
                (act_raise(1, xi), closed_e12(m, p1, p2, q), lambda t: (t[0], t[1], t[2])),
                (act_raise(2, xi), closed_e23(m, p1, p2, q), None),
                (act_lower(1, xi), closed_f21(m, p1, p2, q), None),
                (act_lower(2, xi), closed_f32(m, p1, p2, q), None),
            ]
            for image, closed, _ in cases:
                expected = {
                    pat(partition, "%d,%d;%d" % (t[0], t[1], t[2])): coeff
                    for t, coeff in closed
                }
                assert image == expected, (partition, xi.to_string())
            h = closed_h(m, p1, p2, q)
            for i in (1, 2, 3):
                assert act_diag(i, xi)[0] == h[i - 1]


def test_adjointness_exhaustive():
    """<E_k ξ, η> = <ξ, F_k η> over all n=3 modules with m_1 ≤ 4."""
    zero = RadicalScalar.zero()
    for partition in all_partitions(3, 4):
        pats = enumerate_patterns(partition)
        for k in (1, 2):
            raised = {xi: act_raise(k, xi) for xi in pats}
            lowered = {eta: act_lower(k, eta) for eta in pats}
            for xi in pats:
                for eta in pats:
                    assert raised[xi].get(eta, zero) == lowered[eta].get(xi, zero)


def test_weight_shift_of_actions():
    for partition in all_partitions(3, 4):
        for xi in enumerate_patterns(partition):
            kappa = weight_of(xi)
            for k in (1, 2):
                for target in act_raise(k, xi):
                    shifted = list(kappa)
                    shifted[k - 1] += 1
                    shifted[k] -= 1
                    assert list(weight_of(target)) == shifted


def test_coefficients_square_to_positive_rationals():
    for partition in all_partitions(3, 4):
        for xi in enumerate_patterns(partition):
            for k in (1, 2):
                for vec in (act_raise(k, xi), act_lower(k, xi)):
                    for coeff in vec.values():
                        assert not coeff.is_zero()
                        square = coeff * coeff
                        assert square.is_rational()
                        assert square.rational_part > 0


def test_operator_matrix_n2_raise():
    mat = operator_matrix(GeneratorSpec("raise", 1), GTModule(P10))
    assert mat.dim == 2
    # ascending order is (q=0, q=1); E sends the first to the second.
    assert mat.entries[1][0] == RadicalScalar.one()
    assert sum(1 for _ in mat.nonzeros()) == 1


def test_operator_matrix_n2_cartan():
    mat = operator_matrix(GeneratorSpec("cartan", 1), GTModule(P10))
    assert [str(mat.entries[i][i]) for i in range(2)] == ["-1", "1"]


def test_operator_matrix_diag3_matches_table():
    mat = operator_matrix(GeneratorSpec("diag", 3), GTModule(P210))
    pats = enumerate_patterns(P210)
    for i, xi in enumerate(pats):
        expected = H33_210[xi.compact_str()]
        assert mat.entries[i][i] == RadicalScalar.from_rational(expected)
        assert all(mat.entries[i][j].is_zero() for j in range(8) if j != i)


def test_generator_spec_ranges():
    GeneratorSpec("diag", 3).check_range(3)
    with pytest.raises(ValueError):
        GeneratorSpec("raise", 3).check_range(3)
    with pytest.raises(ValueError):
        GeneratorSpec("diag", 4).check_range(3)
    with pytest.raises(ValueError):
        GeneratorSpec("cartan", 3).check_range(3)
    with pytest.raises(ValueError):
        GeneratorSpec("twist", 1)
    # the index is read by the package's one int rule, like a pattern entry
    for index in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            GeneratorSpec("raise", index)


def test_commutator_examples():
    e = operator_matrix(GeneratorSpec("raise", 1), GTModule(P10))
    f = operator_matrix(GeneratorSpec("lower", 1), GTModule(P10))
    h = operator_matrix(GeneratorSpec("cartan", 1), GTModule(P10))
    assert commutator(e, f) == h
    assert commutator(e, e).is_zero()
    e12 = operator_matrix(GeneratorSpec("raise", 1), GTModule(P210))
    e23 = operator_matrix(GeneratorSpec("raise", 2), GTModule(P210))
    e13 = commutator(e12, e23)
    assert not e13.is_zero()
    assert general_element(1, 3, P210) == e13


def test_general_element_examples():
    f = operator_matrix(GeneratorSpec("lower", 1), GTModule(P10))
    assert general_element(2, 1, P10) == f
    f32 = operator_matrix(GeneratorSpec("lower", 2), GTModule(P210))
    f21 = operator_matrix(GeneratorSpec("lower", 1), GTModule(P210))
    assert general_element(3, 1, P210) == commutator(f32, f21)
    with pytest.raises(ValueError):
        general_element(2, 2, P210)


def test_module_element_is_built_once(monkeypatch):
    calls = []
    original = operators.commutator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(operators, "commutator", counting)
    for parts in ([2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0]):
        partition = Partition(parts)
        module = GTModule(partition)
        n = partition.n
        for k in range(1, n):
            assert module.element(k, k + 1) is module.generator("raise", k)
            assert module.element(k + 1, k) is module.generator("lower", k)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    mat = module.element(i, j)
                    calls.clear()
                    assert module.element(i, j) is mat
                    assert not calls
                    assert mat == general_element(i, j, partition)
        for i, j in ((1, 1), (0, 1), (1, n + 1), (n + 1, 1)):
            with pytest.raises(ValueError):
                module.element(i, j)


def test_matrix_algebra():
    e = operator_matrix(GeneratorSpec("raise", 1), GTModule(P210))
    assert e.meta == (P210, "E", 1)
    ident = OperatorMatrix([{c: RadicalScalar.one()} for c in range(8)])
    zero = OperatorMatrix.zero(8)
    assert e @ ident == e
    assert (e - e) == zero
    assert zero.is_zero()
    assert e.trace() == RadicalScalar.zero()


def test_verify_sln_relations_small_cases():
    for parts in ([1, 0], [2, 1, 0], [1, 1, 1, 0]):
        report = verify_sln_relations(GTModule(Partition(parts)))
        assert report.passed, report.failures[:3]
        assert len(report.checks) > 0
        assert report.failures == []


def test_traces_vanish():
    for parts in ([2, 1, 0], [1, 1, 1, 0]):
        partition = Partition(parts)
        n = partition.n
        for i in range(1, n):
            for j in range(1, n + 1):
                if i != j:
                    assert general_element(i, j, partition).trace().is_zero()
            assert operator_matrix(GeneratorSpec("cartan", i), GTModule(partition)).trace().is_zero()


def test_matrix_json_round_trip():
    for spec in (GeneratorSpec("raise", 2), GeneratorSpec("cartan", 1), GeneratorSpec("diag", 1)):
        mat = operator_matrix(spec, GTModule(P210))
        doc = matrix_to_json(mat)
        assert doc["partition"] == [2, 1, 0]
        assert doc["dim"] == 8
        restored = matrix_from_json(json.loads(json.dumps(doc)))
        assert restored == mat
    zero_den = [[[{"radicand": 1, "num": 1, "den": 0}]] * doc["dim"]] * doc["dim"]
    twice = [[[{"radicand": 2, "num": "1", "den": "1"},
               {"radicand": 2, "num": "3", "den": "1"}]] * doc["dim"]] * doc["dim"]
    # a cell other than [] is read as a scalar: one such cell spoils the grid
    bad_cells = [{**doc, "entries": [[cell, *doc["entries"][0][1:]], *doc["entries"][1:]]}
                 for cell in (0, {}, "", [{}])]
    for bad in (*bad_cells, {}, {**doc, "entries": ["E12"]}, {**doc, "dim": 7},
                {**doc, "entries": zero_den}, {**doc, "entries": twice},
                {**doc, "partition": "210"}, {**doc, "partition": [2.5, 1, 0]},
                {**doc, "partition": [True, False]}, {**doc, "generator": "Q"},
                {**doc, "index": "7"}, {**doc, "index": 9}, {**doc, "dim": "8.0"},
                {**doc, "partition": [3, 1, 0]},
                {**doc, "entries": doc["entries"][:7] + [doc["entries"][7][:7]]},
                {**doc, "entries": [row[:7] for row in doc["entries"][:7]]}):
        with pytest.raises(ValueError):
            matrix_from_json(bad)
    assert matrix_from_json({**doc, "index": "1"}).meta == (P210, "H", 1)


def test_matrix_market_format():
    mat = operator_matrix(GeneratorSpec("raise", 1), GTModule(P210))
    text = matrix_market(mat)
    lines = text.strip().split("\n")
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "% partition 2,1,0 generator E index 1"
    assert lines[2] == "8 8 4"
    assert len(lines) == 7
    coords = [line.split() for line in lines[3:]]
    assert [(c[0], c[1]) for c in coords] == sorted((c[0], c[1]) for c in coords)
    values = sorted(float(c[2]) for c in coords)
    assert values[0] == 1.0 and abs(values[-1] - 2 ** 0.5) < 1e-12


def test_matrix_market_writes_tiny_entries():
    # every stored entry is an exact nonzero, however small its float
    tiny = RadicalScalar({1: Fraction(1, 10 ** 15)})
    mat = OperatorMatrix([{0: tiny}, {1: RadicalScalar.one()}])
    lines = matrix_market(mat).strip().split("\n")
    assert lines[1:] == ["2 2 2", "1 1 1e-15", "2 2 1"]


def test_internal_consistency_error_is_runtime_error():
    assert issubclass(InternalConsistencyError, RuntimeError)


def test_impossible_coefficients_raise_internal_consistency_error():
    # row 2 does not interleave with the top row, so the formula breaks down
    p = GTPattern._trusted(((0,), (-1, -1), (2, 1, 0)))
    with pytest.raises(InternalConsistencyError) as err:
        act_lower(1, p)
    assert str(err.value) == (
        "nonpositive radicand 0 lowering row 1 of 2,1,0;-1,-1;0 at position 1")
    with pytest.raises(InternalConsistencyError) as err:
        act_raise(2, p)
    assert str(err.value) == (
        "zero denominator raising row 2 of 2,1,0;-1,-1;0 at position 2")


def _formula_column(k, xi, step):
    """{target: coefficient} of row k's raising (step 1) or lowering (-1) on ξ.

    The coefficient of the target that moves entry (k, j) by step is the
    square root of −Π_i (l_{i,k+1} − l) Π_i (l_{i,k−1} − l − 1) over
    Π_{i≠j} (l_{i,k} − l)(l_{i,k} − l − 1), with l_{i,r} = row(r)[i] − i and
    l = l_{j,k} (raising) or l_{j,k} − 1 (lowering).
    """
    def shifted(r):
        return [e - i for i, e in enumerate(xi.row(r), start=1)] if r else []

    out = {}
    for j in range(1, k + 1):
        target = xi.replace(k, j, xi.entry(k, j) + step)
        if target is None:
            continue
        l = shifted(k)[j - 1] if step > 0 else shifted(k)[j - 1] - 1
        num, den = Fraction(-1), Fraction(1)
        for li in shifted(k + 1):
            num *= li - l
        for li in shifted(k - 1):
            num *= li - l - 1
        for i, li in enumerate(shifted(k), start=1):
            if i != j:
                den *= (li - l) * (li - l - 1)
        out[target] = sqrt_rational(num / den)
    return out


def test_generator_columns_match_the_formula():
    for parts in ([3, 2, 1, 0], [2, 1, 1, 1, 0], [3, 2, 1, 0, 0]):
        partition = Partition(parts)
        basis = enumerate_patterns(partition)
        for kind, step in (("raise", 1), ("lower", -1)):
            for k in range(1, partition.n):
                mat = operator_matrix(GeneratorSpec(kind, k), GTModule(partition))
                for c, xi in enumerate(basis):
                    want = {basis.index(t): v for t, v in _formula_column(k, xi, step).items()}
                    assert mat.cols[c] == want, (parts, kind, k, xi)


@pytest.mark.parametrize("parts", [[2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0],
                                   [3, 2, 1, 0, 0], [2, 1, 0, 0, 0, 0]])
def test_generator_columns_are_the_per_pattern_action(parts):
    """Each column of E_k / F_k is act_raise / act_lower of its own pattern.

    The build evaluates the coefficients once per distinct rows k−1..k+1;
    patterns sharing those rows but differing elsewhere must still reach
    their own targets, so the test counts how many such columns it met.
    """
    partition = Partition(parts)
    module = GTModule(partition)
    shared = 0
    for kind, act in (("raise", act_raise), ("lower", act_lower)):
        for k in range(1, partition.n):
            mat = module.generator(kind, k)
            first = {}  # rows k−1..k+1 -> first column with them
            for c, xi in enumerate(module.basis):
                want = {module.index[t.rows]: v for t, v in act(k, xi).items()}
                assert mat.cols[c] == want, (parts, kind, k, xi)
                other = first.setdefault(xi.rows[max(k - 2, 0):k + 1], c)
                if other != c and want:
                    shared += 1
                    assert not set(mat.cols[c]) & set(mat.cols[other])
    assert (shared > 0) == (partition.n > 3)


CASIMIR_SCALARS = {
    (1, 0): 2,
    (2, 1, 0): 9,
    (2, 1, 1, 0): 12,
    (3, 1, 0, 0): 20,
    (3, 2, 1, 0): 24,
}


def test_casimir_acts_as_scalar():
    """Σ_{i≠j} E(i,j)E(j,i) + Σ_i H_i H_i = Σ_i m_i(m_i + n + 1 - 2i) · 1."""
    for parts, expected in CASIMIR_SCALARS.items():
        partition = Partition(list(parts))
        n = partition.n
        assert sum(m * (m + n + 1 - 2 * i) for i, m in enumerate(parts, start=1)) == expected
        d = len(enumerate_patterns(partition))
        zero = OperatorMatrix.zero(d)
        total = zero
        for i in range(1, n + 1):
            h = operator_matrix(GeneratorSpec("diag", i), GTModule(partition))
            total = total - (zero - h @ h)
            for j in range(1, n + 1):
                if i != j:
                    e_ij = general_element(i, j, partition)
                    e_ji = general_element(j, i, partition)
                    total = total - (zero - e_ij @ e_ji)
        c = RadicalScalar.from_rational(expected)
        assert total == OperatorMatrix([{k: c} for k in range(d)]), parts


def test_cancellation_stores_no_zeros():
    e = operator_matrix(GeneratorSpec("raise", 1), GTModule(P210))
    for mat in (e - e, commutator(e, e)):
        assert list(mat.nonzeros()) == []
        assert mat == OperatorMatrix.zero(8)
    f = operator_matrix(GeneratorSpec("lower", 1), GTModule(P210))
    h = commutator(e, f)
    assert all(not v.is_zero() for _, _, v in h.nonzeros())


def test_dense_and_column_constructors_agree():
    # the dense view and the columns it is read from describe one matrix
    for spec in (GeneratorSpec("raise", 2), GeneratorSpec("cartan", 1)):
        mat = operator_matrix(spec, GTModule(P210))
        grid = mat.entries
        cols = [{r: row[c] for r, row in enumerate(grid) if not row[c].is_zero()}
                for c in range(mat.dim)]
        assert OperatorMatrix(cols) == mat
        assert OperatorMatrix(mat.cols) == mat
    one, z = RadicalScalar.one(), RadicalScalar.zero()
    assert OperatorMatrix([{}, {0: one}]).entries == ((z, one), (z, z))


SPARSE_VALUES = [
    RadicalScalar.one(),
    RadicalScalar({2: 1}),
    RadicalScalar({3: Fraction(-1, 2)}),
]


@st.composite
def matrix_pair(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    col = st.dictionaries(st.integers(0, d - 1), st.sampled_from(SPARSE_VALUES))
    return tuple(OperatorMatrix(draw(st.lists(col, min_size=d, max_size=d))) for _ in range(2))


@settings(max_examples=100, deadline=None)
@given(matrix_pair())
def test_sparse_arithmetic_matches_dense_reference(pair):
    ma, mb = pair
    a, b = ma.entries, mb.entries
    d = len(a)
    z = RadicalScalar.zero()

    def product(x, y):
        out = []
        for r in range(d):
            row = []
            for c in range(d):
                acc = z
                for k in range(d):
                    acc = acc + x[r][k] * y[k][c]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def difference(x, y):
        return tuple(tuple(p - q for p, q in zip(rx, ry)) for rx, ry in zip(x, y))

    assert (ma @ mb).entries == product(a, b)
    assert (ma - mb).entries == difference(a, b)
    assert all(not v.is_zero() for _, _, v in (ma @ mb).nonzeros())
    got = commutator(ma, mb)
    assert got.entries == difference(product(a, b), product(b, a))
    assert all(not v.is_zero() for _, _, v in got.nonzeros())


def test_apply_combines_columns_and_drops_zeros():
    one, two = RadicalScalar.one(), RadicalScalar.from_rational(2)
    mat = OperatorMatrix([{0: one, 1: one}, {0: one, 1: -one}])
    assert mat.apply({0: one, 1: one}) == {0: two}
    assert mat.apply({1: two}) == {0: two, 1: -two}
    assert mat.apply({}) == {}


def test_relations_build_each_generator_once(monkeypatch):
    calls = []
    original = operators.operator_matrix

    def counting(spec, module):
        calls.append(spec)
        return original(spec, module)

    monkeypatch.setattr(operators, "operator_matrix", counting)
    for parts in ([1, 0], [2, 1, 0], [2, 1, 1, 0]):
        calls.clear()
        n = len(parts)
        assert verify_sln_relations(GTModule(Partition(parts))).passed
        assert len(calls) == 3 * n - 2
        kinds = [spec.kind for spec in calls]
        assert kinds.count("raise") == kinds.count("lower") == n - 1
        assert kinds.count("diag") == n


def test_first_difference_is_row_major():
    one, two = RadicalScalar.one(), RadicalScalar.from_rational(2)
    a = OperatorMatrix([{0: one, 1: one}, {}])
    b = OperatorMatrix([{0: one}, {0: two}])
    assert _first_difference(a, b) == "first difference at (0,1): 0 vs 2"
    assert _first_difference(a, a) == ""


def _oracle_relation_checks(partition):
    """The exhaustive relation loop with one commutator per ordered pair."""
    n, module = partition.n, GTModule(partition)
    build = operators.operator_matrix
    mats = {}
    for k in range(1, n):
        mats[(k, k + 1)] = build(GeneratorSpec("raise", k), module)
        mats[(k + 1, k)] = build(GeneratorSpec("lower", k), module)
    for gap in range(2, n):
        for i in range(1, n - gap + 1):
            j = i + gap
            mats[(i, j)] = commutator(mats[(i, i + 1)], mats[(i + 1, j)])
            mats[(j, i)] = commutator(mats[(j, j - 1)], mats[(j - 1, i)])
    diags = {i: build(GeneratorSpec("diag", i), module) for i in range(1, n + 1)}
    checks = []

    def record(name, got, want):
        ok = got == want
        checks.append((name, ok, "" if ok else _first_difference(got, want)))

    idx = range(1, n + 1)
    for i in idx:
        for j in idx:
            for l in idx:
                if len({i, j, l}) == 3:
                    record("[E(%d,%d),E(%d,%d)] = E(%d,%d)" % (i, j, j, l, i, l),
                           commutator(mats[(i, j)], mats[(j, l)]), mats[(i, l)])
    for i in idx:
        for j in idx:
            if i != j:
                record("[E(%d,%d),E(%d,%d)] = H(%d)-H(%d)" % (i, j, j, i, i, j),
                       commutator(mats[(i, j)], mats[(j, i)]), diags[i] - diags[j])
    pairs = [(i, j) for i in idx for j in idx if i != j]
    for p in pairs:
        for q in pairs:
            if p[1] != q[0] and p[0] != q[1]:
                got = commutator(mats[p], mats[q])
                record("[E(%d,%d),E(%d,%d)] = 0" % (*p, *q), got,
                       OperatorMatrix.zero(got.dim))
    for (i, j), mat in sorted(mats.items()):
        tr = mat.trace()
        checks.append(("trace E(%d,%d) = 0" % (i, j), tr.is_zero(),
                       "" if tr.is_zero() else str(tr)))
    for i in range(1, n):
        tr = (diags[i] - diags[i + 1]).trace()
        checks.append(("trace cartan(%d) = 0" % i, tr.is_zero(),
                       "" if tr.is_zero() else str(tr)))
    return checks


def _first_entry_of_e(module, k=2):
    """(row, column) of the first nonzero entry of E_k, column-major."""
    e = operator_matrix(GeneratorSpec("raise", k), module)
    c = next(c for c, col in enumerate(e.cols) if col)
    return min(e.cols[c]), c


def _negated(mat, r, c):
    cols = [dict(col) for col in mat.cols]
    cols[c][r] = -cols[c][r]
    return OperatorMatrix(cols, meta=mat.meta)


def _scaled(mat, r, c):
    cols = [dict(col) for col in mat.cols]
    cols[c][r] = cols[c][r] * RadicalScalar.from_rational(2)
    return OperatorMatrix(cols, meta=mat.meta)


def _dropped(mat, r, c):
    cols = [dict(col) for col in mat.cols]
    del cols[c][r]
    return OperatorMatrix(cols, meta=mat.meta)


def _plus(mat, extra):
    """mat + the matrix with the nonzero entries {(row, column): value}."""
    cols = [{} for _ in mat.cols]
    for (r, c), v in extra.items():
        cols[c][r] = -(v if isinstance(v, RadicalScalar) else RadicalScalar.from_rational(v))
    return mat - OperatorMatrix(cols)


def _swapped_in_weight_space(mat, module):
    """P·mat·P for the transposition P of the first two patterns of one weight."""
    first = {}
    for i, pat in enumerate(module.basis):
        j = first.setdefault(weight_of(pat), i)
        if j != i:
            break
    else:
        return mat
    swap = {i: j, j: i}
    cols = [{} for _ in mat.cols]
    for r, c, v in mat.nonzeros():
        cols[swap.get(c, c)][swap.get(r, r)] = v
    return OperatorMatrix(cols, meta=mat.meta)


# Added to every H_i: none changes any H_i − H_j or trace, so every named
# check still holds.  Each makes some H_i differ from diag(κ_i), the weights
# of GTModule.weights, so the relation gate fails: shift_h and root_shift_h
# move every weight by a constant (rational or irrational), tilt_h changes
# the weight steps, and skew_h makes every H_i non-diagonal.
ADDED_TO_H = {
    "shift_h": lambda d: {(c, c): 7 for c in range(d)},
    "tilt_h": lambda d: {(c, c): c + 1 for c in range(d)},
    "skew_h": lambda d: {(1, 0): 1},
    "root_shift_h": lambda d: {(c, c): sqrt_rational(2) for c in range(d)},
}


def _corrupting(monkeypatch, corruption):
    """Build generators through operators.operator_matrix, corrupted.

    scale: one entry of E_2 doubled; swap: E_1 and E_2 swapped.  swap_both
    also swaps F_1 and F_2, and scale_both also doubles the transposed entry
    of F_2, so E_k and F_k stay transposes.  scale_e doubles all of E_1,
    which keeps every relation among the E_k and breaks [E_1,F_1] = H_1 − H_2.
    scale_pair doubles all of E_1 and of F_1: every H_i, the weight ladder
    and F_1 = E_1ᵀ still hold, and only [e_1, f_1] = 4h_1 ≠ h_1 fails the gate.
    conjugate_d conjugates every E_k and F_k by D = diag(1, ..., d): every
    relation holds, but F_k is no longer E_kᵀ.  permute_2 conjugates E_2 and
    F_2 by the transposition of two patterns of one weight: every H_i, the
    weight ladder, F_k = E_kᵀ and [e_k, f_k] = h_k still hold, but
    [e_1, f_2] = 0 fails on (2,1,0) and (3,2,1,0).  negate_both negates the
    first entry of every E_k and the transposed entry of F_k.  drop_e
    removes the first entry of E_2 and keeps F_2, so F_2 holds one entry
    more than E_2ᵀ and every entry of E_2 is still in F_2.  sign_row3
    negates the columns of E_1 and F_1 whose pattern has β's row 3: both
    change row 1 only, so F_1 stays E_1ᵀ, and every H_i, the weight ladder
    and every [e_k, f_l] with |k − l| ≤ 1 still hold; but E_1 now reads row
    3, which f_3 changes, so at n ≥ 4 it is not local and [E(1,2),E(4,3)] = 0
    fails.  The others add a matrix to every H_i (ADDED_TO_H).
    """
    original = operators.operator_matrix
    swapped = {"swap": ("raise",), "swap_both": ("raise", "lower")}.get(corruption, ())
    scaled = {"scale": ("raise",), "scale_both": ("raise", "lower")}.get(corruption, ())
    doubled = {"scale_e": ("raise",), "scale_pair": ("raise", "lower")}.get(corruption, ())
    two = RadicalScalar.from_rational(2)

    def corrupted(spec, module):
        if spec.kind in swapped and spec.index in (1, 2):
            spec = GeneratorSpec(spec.kind, 3 - spec.index)
        mat = original(spec, module)
        if spec.kind in scaled and spec.index == 2:
            r, c = _first_entry_of_e(module)
            mat = _scaled(mat, *((r, c) if spec.kind == "raise" else (c, r)))
        if spec.kind in doubled and spec.index == 1:
            mat = OperatorMatrix(
                [{r: v * two for r, v in col.items()} for col in mat.cols])
        if corruption == "conjugate_d" and spec.kind in ("raise", "lower"):
            mat = OperatorMatrix(
                [{r: v * RadicalScalar.from_rational(Fraction(r + 1, c + 1))
                  for r, v in col.items()}
                 for c, col in enumerate(mat.cols)])
        if corruption == "drop_e" and spec.kind == "raise" and spec.index == 2:
            mat = _dropped(mat, *_first_entry_of_e(module))
        if corruption == "negate_both" and spec.kind in ("raise", "lower"):
            r, c = _first_entry_of_e(module, spec.index)
            mat = _negated(mat, *((r, c) if spec.kind == "raise" else (c, r)))
        if corruption == "permute_2" and spec.kind in ("raise", "lower") and spec.index == 2:
            mat = _swapped_in_weight_space(mat, module)
        if corruption == "sign_row3" and spec.kind in ("raise", "lower") and spec.index == 1:
            row3 = module.basis[module.beta].rows[2]
            mat = OperatorMatrix(
                [{r: -v for r, v in col.items()} if module.basis[c].rows[2] == row3 else col
                 for c, col in enumerate(mat.cols)], meta=mat.meta)
        if spec.kind == "diag" and corruption in ADDED_TO_H:
            mat = _plus(mat, ADDED_TO_H[corruption](mat.dim))
        return mat

    monkeypatch.setattr(operators, "operator_matrix", corrupted)


PASSING = (None, "conjugate_d", *ADDED_TO_H)
# sign_row3 fails only where it makes E_1 read row 3: at n = 3 it negates all
# of E_1 and F_1 (e_1 → −e_1, f_1 → −f_1 is an automorphism of sl_n), and on
# (1,1,1,0,0,0) and (1,0,0,0,0,0,0) E_1 stays local and every relation holds
SIGN_ROW3_FAILS = ([3, 2, 1, 0], [2, 1, 1, 1, 0])


@pytest.mark.parametrize(
    "corruption",
    [None, "scale", "swap", "swap_both", "scale_both", "scale_e", "scale_pair", "conjugate_d",
     "drop_e", "sign_row3", *ADDED_TO_H],
)
def test_relation_report_matches_exhaustive_oracle(monkeypatch, corruption):
    _corrupting(monkeypatch, corruption)
    for parts in ([2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0], [1, 1, 1, 0, 0, 0],
                  [1, 0, 0, 0, 0, 0, 0]):
        partition = Partition(parts)
        report = verify_sln_relations(GTModule(partition))
        assert report.checks == _oracle_relation_checks(partition), (parts, corruption)
        assert report.passed == (corruption in PASSING or corruption == "sign_row3"
                                 and parts not in SIGN_ROW3_FAILS)
        n = partition.n
        assert len(report.checks) == {3: 38, 4: 135, 5: 364, 6: 815, 7: 1602}[n]


ENTRY_CHANGES = [
    ("scale", RadicalScalar.from_rational(2)),
    ("scale", RadicalScalar.from_rational(-1)),
    ("add", RadicalScalar.from_rational(1)),
    ("add", RadicalScalar.from_rational(Fraction(-1, 2))),
    ("add", sqrt_rational(2)),
]


@settings(max_examples=30, deadline=None)
@given(
    parts=st.sampled_from([(2, 1, 0), (3, 2, 1, 0), (2, 1, 1, 0)]),
    kind=st.sampled_from(["raise", "lower", "diag"]),
    index=st.integers(min_value=0, max_value=3),
    position=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    change=st.sampled_from(ENTRY_CHANGES),
)
def test_relation_report_matches_oracle_with_one_entry_changed(
    parts, kind, index, position, change
):
    partition = Partition(parts)
    n = partition.n
    index = index % (n if kind == "diag" else n - 1) + 1
    original = operators.operator_matrix

    def changed(spec, module):
        mat = original(spec, module)
        if (spec.kind, spec.index) != (kind, index):
            return mat
        cols = [dict(col) for col in mat.cols]
        op, x = change
        if op == "scale":  # one nonzero entry, scaled
            entries = sorted((c, r) for r, c, _ in mat.nonzeros())
            c, r = entries[position[0] % len(entries)]
            cols[c][r] = cols[c][r] * x
        else:  # x added at any position, zero or not
            r, c = (i % mat.dim for i in position)
            value = cols[c].get(r, RadicalScalar.zero()) + x
            cols[c].pop(r, None)
            if not value.is_zero():
                cols[c][r] = value
        return OperatorMatrix(cols, meta=mat.meta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "operator_matrix", changed)
        report = verify_sln_relations(GTModule(partition))
        assert report.checks == _oracle_relation_checks(partition)


@pytest.mark.parametrize("parts", [[2, 1, 0], [3, 2, 1, 0]])
def test_relation_gate_checks_brackets_of_distinct_rows(monkeypatch, parts):
    # permute_2 keeps every other condition of the gate, so only its check
    # [e_1, f_2] = 0 can send the verdict to the per-check fallback
    _corrupting(monkeypatch, "permute_2")
    partition = Partition(parts)
    module = GTModule(partition)
    report = verify_sln_relations(module)
    assert module.ladder_fault is None
    for k in range(1, partition.n):
        h = module.generator("diag", k) - module.generator("diag", k + 1)
        assert commutator(module.element(k, k + 1), module.element(k + 1, k)) == h
    assert not commutator(module.element(1, 2), module.element(3, 2)).is_zero()
    assert not report.passed
    assert report.checks == _oracle_relation_checks(partition)


@pytest.mark.parametrize("corruption, fault", [
    (None, None),
    ("permute_2", "E_2 moves 3,2,1,0;3,1,0;1,0;0 to 3,2,1,0;2,2,0;2,0;0, which changes "
                  "a row other than 2"),
    ("sign_row3", "E_1 differs on 3,2,1,0;2,1,0;2,1;1 and 3,2,1,0;3,2,1;2,1;1, which share "
                  "rows 1 to 2"),
])
def test_locality_fault_names_the_first_nonlocal_entry(monkeypatch, corruption, fault):
    _corrupting(monkeypatch, corruption)
    module = GTModule(Partition([3, 2, 1, 0]))
    assert module.ladder_fault is None
    assert module.locality_fault == fault


CORRUPTIONS = [None, "scale", "swap", "swap_both", "scale_both", "scale_e", "scale_pair",
               "conjugate_d", "drop_e", "negate_both", "permute_2", "sign_row3", *ADDED_TO_H]
FAULT_MODULES = ["2,1,0", "3,2,1,0", "2,1,1,1,0"]
SWAP_FAULT = ("E_1 moves {0};1,0;0 to {0};2,0;0, not one up in row 1 only",
              "E_1 moves {0};1,0;0 to {0};2,0;0, which changes a row other than 1")
# (corruption, module) -> (ladder_fault, locality_fault) where either is not None
FAULTS = {
    **{(c, p): ("F_%d is not the transpose of E_%d" % (k, k), None)
       for c, k in (("scale", 2), ("scale_e", 1), ("drop_e", 2)) for p in FAULT_MODULES},
    **{(c, p): tuple(text.format(top) for text in SWAP_FAULT)
       for c in ("swap", "swap_both")
       for p, top in zip(FAULT_MODULES, ["2,1,0", "3,2,1,0;2,1,0", "2,1,1,1,0;2,1,1,0;2,1,0"])},
    ("conjugate_d", "2,1,0"): ("F_1 is not the transpose of E_1", None),
    ("conjugate_d", "3,2,1,0"): (
        "F_1 is not the transpose of E_1",
        "E_1 differs on 3,2,1,0;2,1,0;1,0;0 and 3,2,1,0;3,1,0;1,0;0, which share rows 1 to 2"),
    ("conjugate_d", "2,1,1,1,0"): (
        "F_1 is not the transpose of E_1",
        "E_1 differs on 2,1,1,1,0;1,1,1,0;1,1,0;1,0;0 and 2,1,1,1,0;2,1,1,0;1,1,0;1,0;0, "
        "which share rows 1 to 2"),
    ("negate_both", "3,2,1,0"): (
        None,
        "E_1 differs on 3,2,1,0;2,1,0;1,0;0 and 3,2,1,0;3,1,0;1,0;0, which share rows 1 to 2"),
    ("negate_both", "2,1,1,1,0"): (
        None,
        "E_1 differs on 2,1,1,1,0;1,1,1,0;1,1,0;1,0;0 and 2,1,1,1,0;2,1,1,0;1,1,0;1,0;0, "
        "which share rows 1 to 2"),
    ("permute_2", "3,2,1,0"): (
        None,
        "E_2 moves 3,2,1,0;3,1,0;1,0;0 to 3,2,1,0;2,2,0;2,0;0, which changes a row other than 2"),
    ("sign_row3", "3,2,1,0"): (
        None,
        "E_1 differs on 3,2,1,0;2,1,0;2,1;1 and 3,2,1,0;3,2,1;2,1;1, which share rows 1 to 2"),
    ("sign_row3", "2,1,1,1,0"): (
        None,
        "E_1 differs on 2,1,1,1,0;2,1,1,0;2,1,0;2,1;1 and 2,1,1,1,0;2,1,1,0;2,1,1;2,1;1, "
        "which share rows 1 to 2"),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_structure_pass_keeps_fault_precedence(monkeypatch, corruption):
    # one pass over each E_k decides both faults; each is still the first
    # one met in the order of its own check, with the same text
    _corrupting(monkeypatch, corruption)
    for parts in FAULT_MODULES:
        module = GTModule(Partition.from_string(parts))
        assert (module.ladder_fault, module.locality_fault) == FAULTS.get(
            (corruption, parts), (None, None)), parts


def test_relations_bracket_only_serre_relations_when_they_hold(monkeypatch):
    calls, traces, subs = [], [], []
    original, original_trace = operators.commutator, OperatorMatrix.trace
    original_sub = OperatorMatrix.__sub__

    def counting(*args):
        calls.append(args)
        return original(*args)

    def counting_trace(mat):
        traces.append(mat)
        return original_trace(mat)

    def counting_sub(a, b):
        subs.append((a, b))
        return original_sub(a, b)

    monkeypatch.setattr(operators, "commutator", counting)
    monkeypatch.setattr(OperatorMatrix, "trace", counting_trace)
    monkeypatch.setattr(OperatorMatrix, "__sub__", counting_sub)
    for corruption in (None, "shift_h", "tilt_h", "skew_h", "conjugate_d", "root_shift_h"):
        with monkeypatch.context() as patch:
            _corrupting(patch, corruption)
            for parts in ([1, 0], [2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0],
                          [1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]):
                calls.clear()
                traces.clear()
                subs.clear()
                n = len(parts)
                report = verify_sln_relations(GTModule(Partition(parts)))
                assert report.passed
                if corruption is None:
                    # only the brackets [e_k, f_k] and [e_k, f_{k+1}], each at
                    # one column per row window; no non-adjacent E(i,j), and no
                    # trace: every trace check follows from them; each bracket
                    # is compared with ints, so no matrix is subtracted
                    assert len(calls) == 2 * n - 3, parts
                    assert not traces, parts
                    assert not subs, parts
                else:
                    # the gate fails (some H_i is not diag(κ_i), F_k ≠ E_kᵀ
                    # or Serre's relations): all n(n-1) - 2(n-1) non-adjacent
                    # E(i,j) are built, and every bracket and trace check is
                    # decided on its own
                    table = (n - 1) * (n - 2)
                    brackets = len(report.checks) - n * (n - 1) - (n - 1)
                    assert len(calls) == table + brackets, parts
                    assert len(traces) == n * (n - 1) + (n - 1), parts


def _dense_commutator(a, b):
    """A@B − B@A through ``apply`` and ``__sub__``: no code of ``commutator``."""
    return a @ b - b @ a


KERNEL_MODULES = [[2, 1, 0], [3, 2, 1, 0], [2, 1, 1, 1, 0]]
KERNEL_CORRUPTIONS = [None, "negate_both", "conjugate_d", "tilt_h", "skew_h"]


def _kernel_mats(module):
    """Every generator, cartan difference and non-adjacent E(i,j) of the module."""
    n = module.partition.n
    mats = [module.generator(kind, k) for kind in ("raise", "lower", "cartan")
            for k in range(1, n)]
    mats += [module.generator("diag", i) for i in range(1, n + 1)]
    mats += [module.element(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if abs(i - j) > 1]
    return mats


@pytest.mark.parametrize("corruption", KERNEL_CORRUPTIONS)
def test_commutator_matches_products_on_every_pair(monkeypatch, corruption):
    _corrupting(monkeypatch, corruption)
    for parts in KERNEL_MODULES:
        mats = _kernel_mats(GTModule(Partition(parts)))
        for a in mats:
            for b in mats:
                got = commutator(a, b)
                assert got == _dense_commutator(a, b), (parts, corruption, a, b)
                assert all(v.terms for _, _, v in got.nonzeros())


@pytest.mark.parametrize("corruption", KERNEL_CORRUPTIONS)
def test_commutator_computes_only_the_listed_columns(monkeypatch, corruption):
    _corrupting(monkeypatch, corruption)
    for parts in KERNEL_MODULES:
        mats = _kernel_mats(GTModule(Partition(parts)))
        dim = mats[0].dim
        for columns in ([], [dim - 1], range(dim - 1, -1, -3)):
            for a in mats:
                for b in mats:
                    full, got = commutator(a, b), commutator(a, b, columns)
                    assert got.dim == dim
                    assert all(got.cols[c] == (full.cols[c] if c in columns else {})
                               for c in range(dim)), (parts, corruption, a, b, columns)


def test_commutator_hand_built_cases():
    s, t = sqrt_rational(2), RadicalScalar({3: Fraction(-1, 2)})
    multi = RadicalScalar({1: 1, 2: Fraction(1, 3)})
    twin = RadicalScalar({2: 1})  # equal to s, another object
    assert twin == s and twin is not s
    cases = [  # column dicts
        # one scalar object in both operands
        ([{1: s}, {0: s}], [{0: s}, {1: s}]),
        ([{0: s}, {0: s, 1: s}], [{1: s}, {0: s}]),
        # distinct objects with equal values
        ([{0: s, 1: twin}, {0: twin}], [{0: twin, 1: s}, {1: s}]),
        # multi-term entries
        ([{0: multi, 1: t}, {0: s}], [{1: multi}, {0: multi, 1: t}]),
        ([{0: multi, 2: s}, {0: multi, 1: t}, {1: multi, 2: multi}],
         [{0: t, 1: multi}, {1: s, 2: multi}, {0: multi, 2: twin}]),
    ]
    for a, b in cases:
        ma, mb = OperatorMatrix(a), OperatorMatrix(b)
        got = commutator(ma, mb)
        assert got == _dense_commutator(ma, mb)
        assert all(v.terms for _, _, v in got.nonzeros())
    # column 1 cancels (B's diagonal entries 0 and 1 are one object, or equal
    # values), while column 2 keeps x·w − y·x ≠ 0
    x, w = multi, t
    for y, y2 in ((s, s), (s, twin)):
        a = OperatorMatrix([{}, {0: x}, {0: x}])
        b = OperatorMatrix([{0: y}, {1: y2}, {2: w}])
        got = commutator(a, b)
        assert got == _dense_commutator(a, b)
        assert got.cols[1] == {} and got.cols[0] == {}
        assert got.cols[2] == {0: x * w - y * x}


def test_intact_relations_multiply_each_distinct_pair_once(monkeypatch):
    calls = []
    original = RadicalScalar.__mul__

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting)
    partition = Partition([3, 2, 1, 0])
    module = GTModule(partition)
    assert verify_sln_relations(module).passed
    # each distinct (entry of A, entry of B) pair once per commutator, and
    # one root object per coefficient value
    assert len(calls) < 150
    assert len(module.roots) == len(set(module.roots.values()))
    assert all(shifted == [e - i for i, e in enumerate(row, start=1)]
               for row, shifted in module.shifts.items())
