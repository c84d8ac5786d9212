"""Weights of patterns: eigenvalue vectors, epsilon strings, decomposition.

The diagonal generator H_i acts on a pattern by the integer
kappa_i = sum(row(i)) - sum(row(i-1)), so each pattern is a weight vector
with weight sum(kappa_i * eps_i) subject to eps_1 + ... + eps_n = 0.  The
shift-invariant form pairs the weight with the cartan differences:
d_i = kappa_i - kappa_{i+1}.
"""

from __future__ import annotations

from .patterns import GTPattern, Partition, enumerate_patterns, highest_pattern
from .scalars import join_terms, json_int, multiple_text


class WeightVector:
    """The vector of H-eigenvalues (kappa_1, ..., kappa_n)."""

    __slots__ = ("kappa",)

    def __init__(self, kappa):
        object.__setattr__(self, "kappa", tuple(int(k) for k in kappa))

    def __setattr__(self, name, value):
        raise AttributeError("WeightVector is immutable")

    @property
    def n(self) -> int:
        return len(self.kappa)

    def __eq__(self, other):
        return isinstance(other, WeightVector) and self.kappa == other.kappa

    def __hash__(self):
        return hash(self.kappa)

    def __repr__(self):
        return "WeightVector(%r)" % (list(self.kappa),)

    def epsilon_string(self) -> str:
        """Render as a combination of eps_i, e.g. "ε_2 + 2ε_3"."""
        return _combination(self.kappa, "ε")

    def to_json(self) -> dict:
        return {
            "kappa": list(self.kappa),
            "fundamental": fundamental_coords(self),
            "epsilon_string": self.epsilon_string(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeightVector":
        try:
            kappa = data["kappa"]
            if not isinstance(kappa, list):  # a string would read digit by digit
                raise ValueError("kappa is not a list in %r" % (data,))
            w = cls(json_int(k) for k in kappa)
            fundamental = list(data.get("fundamental", fundamental_coords(w)))
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed weight document: %r" % (exc,)) from None
        if fundamental != fundamental_coords(w):
            raise ValueError("inconsistent fundamental coordinates in %r" % (data,))
        return w


def kappa_of(xi: GTPattern) -> tuple[int, ...]:
    """(kappa_1, ..., kappa_n) as ints, each row summed once."""
    sums = [sum(row) for row in xi.rows]
    return tuple(b - a for a, b in zip([0, *sums], sums))


def weight_of(xi: GTPattern) -> WeightVector:
    """kappa_i = sum(row(i)) - sum(row(i-1)) for i = 1..n."""
    return WeightVector(kappa_of(xi))


def fundamental_coords(w: WeightVector) -> list[int]:
    """Pairings with the cartan differences: d_i = kappa_i - kappa_{i+1}."""
    return [w.kappa[i] - w.kappa[i + 1] for i in range(w.n - 1)]


def fundamental_string(w: WeightVector) -> str:
    """Render the fundamental coordinates as a combination of ω_i."""
    return _combination(fundamental_coords(w), "ω")


def _combination(coeffs, symbol: str) -> str:
    """Σ coeffs[i-1] symbol_i as text, skipping zero coefficients."""
    return join_terms(
        [
            multiple_text(k, "%s_%d" % (symbol, i))
            for i, k in enumerate(coeffs, start=1)
            if k
        ]
    )


def highest_weight(partition: Partition) -> WeightVector:
    """The weight of the highest pattern; its kappa equals the partition."""
    return weight_of(highest_pattern(partition))


def weight_decomposition(partition: Partition) -> dict[WeightVector, list[GTPattern]]:
    """Group the canonical enumeration by weight, preserving order."""
    blocks: dict[WeightVector, list[GTPattern]] = {}
    for pat in enumerate_patterns(partition):
        blocks.setdefault(weight_of(pat), []).append(pat)
    return blocks
