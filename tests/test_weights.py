"""Weights: kappa eigenvalues, ε-strings, fundamental coordinates, blocks."""

import json

import pytest

from gtbasis.monomials import basis_matrix, monomial_family
from gtbasis.operators import GTModule, act_diag
from gtbasis.patterns import Partition, enumerate_patterns, highest_pattern
from gtbasis.scalars import RadicalScalar
from gtbasis.weights import (
    WeightVector,
    fundamental_coords,
    fundamental_string,
    highest_weight,
    weight_decomposition,
    weight_of,
)

from golden_data import P110, P210, WEIGHTS_210, all_partitions, pat

P10 = Partition([1, 0])


def test_weight_table_full():
    for compact, (kappa, rendering) in WEIGHTS_210.items():
        w = weight_of(pat(P210, compact))
        assert w.kappa == kappa, compact
        assert w.epsilon_string() == rendering, compact


def test_weight_of_trivial_module():
    xi = highest_pattern(Partition([0, 0, 0]))
    w = weight_of(xi)
    assert w.kappa == (0, 0, 0)
    assert w.epsilon_string() == "0"


def test_epsilon_string_negative_coefficients():
    assert WeightVector([-1, 2, -3]).epsilon_string() == "-ε_1 + 2ε_2 - 3ε_3"


def test_fundamental_coords_examples():
    assert fundamental_coords(WeightVector([0, 1, 2])) == [-1, -1]
    assert fundamental_coords(WeightVector([2, 1, 0])) == [1, 1]
    assert fundamental_coords(weight_of(pat(P210, "1,0;0"))) == [-1, -1]
    assert fundamental_coords(highest_weight(P210)) == [1, 1]


def test_fundamental_string():
    assert fundamental_string(WeightVector([0, 1, 2])) == "-ω_1 - ω_2"
    assert fundamental_string(WeightVector([2, 1, 0])) == "ω_1 + ω_2"
    assert fundamental_string(WeightVector([1, 1, 1])) == "0"


def test_highest_weight_examples():
    assert highest_weight(P210).kappa == (2, 1, 0)
    assert highest_weight(P110).kappa == (1, 1, 0)
    assert highest_weight(Partition([0, 0, 0])).kappa == (0, 0, 0)


def test_kappa_sums_to_total_content():
    for partition in all_partitions(3, 4):
        total = sum(partition.parts)
        for xi in enumerate_patterns(partition):
            assert sum(weight_of(xi).kappa) == total


def test_weight_decomposition_210():
    blocks = weight_decomposition(P210)
    assert len(blocks) == 7
    double = blocks[WeightVector([1, 1, 1])]
    assert [p.compact_str() for p in double] == ["1,1;1", "2,0;1"]
    assert sum(len(b) for b in blocks.values()) == 8
    for w, pats in blocks.items():
        for xi in pats:
            assert weight_of(xi) == w


def test_weight_decomposition_singletons():
    assert all(len(b) == 1 for b in weight_decomposition(P10).values())
    blocks = weight_decomposition(P110)
    assert len(blocks) == 3
    assert all(len(b) == 1 for b in blocks.values())


def test_highest_weight_is_dominant_and_unique():
    for partition in (P110, P210, Partition([2, 1, 1, 0])):
        top = highest_weight(partition)
        assert all(d >= 0 for d in fundamental_coords(top))
        blocks = weight_decomposition(partition)
        assert blocks[top] == [highest_pattern(partition)]
        # no other weight dominates every coordinate of the highest one.
        for w in blocks:
            if w != top:
                assert any(
                    a < b
                    for a, b in zip(w.kappa, top.kappa)
                )


def test_cartan_trace_zero_via_weights():
    for partition in (P110, P210, Partition([2, 1, 1, 0])):
        pats = enumerate_patterns(partition)
        n = partition.n
        for i in range(n - 1):
            assert sum(
                weight_of(x).kappa[i] - weight_of(x).kappa[i + 1] for x in pats
            ) == 0


def test_weight_json_round_trip():
    w = weight_of(pat(P210, "1,0;0"))
    doc = w.to_json()
    assert doc == {
        "kappa": [0, 1, 2],
        "fundamental": [-1, -1],
        "epsilon_string": "ε_2 + 2ε_3",
    }
    assert WeightVector.from_json(json.loads(json.dumps(doc))) == w
    with pytest.raises(ValueError):
        WeightVector.from_json({"kappa": [0, 1, 2], "fundamental": [9, 9]})


def test_weight_vector_equality_and_hash():
    assert WeightVector([1, 1, 1]) == WeightVector((1, 1, 1))
    assert len({WeightVector([1, 1, 1]), WeightVector((1, 1, 1))}) == 1
    assert WeightVector([1, 1, 1]) != WeightVector([1, 1])


@pytest.mark.parametrize("parts", [(2, 1, 0), (3, 2, 1, 0), (2, 1, 1, 1, 0)])
def test_module_weights_drive_every_diagonal_generator(parts):
    partition = Partition(list(parts))
    module = GTModule(partition)
    n = partition.n
    h = [module.generator("diag", i) for i in range(1, n + 1)]
    cartan = [module.generator("cartan", i) for i in range(1, n)]
    zero = RadicalScalar.zero()
    for c, xi in enumerate(module.basis):
        kappa = module.weights[c]
        assert kappa == weight_of(xi).kappa
        # κ_i = content(i) − content(i−1), from the rows themselves
        sums = [0] + [sum(row) for row in xi.rows]
        assert kappa == tuple(sums[i] - sums[i - 1] for i in range(1, n + 1))
        for i in range(1, n + 1):
            assert act_diag(i, xi) == (kappa[i - 1], xi)
            assert h[i - 1].cols[c].keys() <= {c}
            assert h[i - 1].cols[c].get(c, zero) == RadicalScalar.from_rational(kappa[i - 1])
        for i in range(1, n):
            want = RadicalScalar.from_rational(kappa[i - 1] - kappa[i])
            assert cartan[i - 1].cols[c].keys() <= {c}
            assert cartan[i - 1].cols[c].get(c, zero) == want


def test_module_weights_are_read_only_when_asked_for():
    partition = Partition([3, 2, 1, 0])
    module = GTModule(partition)
    basis_matrix(monomial_family(partition, "canonical", module.basis), module)
    assert "weights" not in vars(module)
    assert module.weights is module.weights
