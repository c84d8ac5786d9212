"""Weights of patterns: eigenvalue vectors, epsilon strings, decomposition.

The diagonal generator H_i acts on a pattern by the integer
kappa_i = sum(row(i)) - sum(row(i-1)), so a weight is the int tuple
(kappa_1, ..., kappa_n), read as sum(kappa_i * eps_i) subject to
eps_1 + ... + eps_n = 0.  The shift-invariant form pairs the weight with the
cartan differences: d_i = kappa_i - kappa_{i+1}.
"""

from __future__ import annotations

from .patterns import GTPattern, Partition, enumerate_patterns
from .scalars import join_terms, json_int, multiple_text


def weight_of(xi: GTPattern) -> tuple[int, ...]:
    """(kappa_1, ..., kappa_n) as ints, each row summed once."""
    sums = [sum(row) for row in xi.rows]
    return tuple(b - a for a, b in zip([0, *sums], sums))


def epsilon_string(w: tuple[int, ...]) -> str:
    """Render as a combination of eps_i, e.g. "ε_2 + 2ε_3"."""
    return _combination(w, "ε")


def fundamental_coords(w: tuple[int, ...]) -> list[int]:
    """Pairings with the cartan differences: d_i = kappa_i - kappa_{i+1}."""
    return [a - b for a, b in zip(w, w[1:])]


def fundamental_string(w: tuple[int, ...]) -> str:
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


def weight_to_json(w: tuple[int, ...]) -> dict:
    return {
        "kappa": list(w),
        "fundamental": fundamental_coords(w),
        "epsilon_string": epsilon_string(w),
    }


def _int_list(data: dict, name: str) -> list[int]:
    """The field ``name``, a JSON list, each entry read through ``json_int``."""
    value = data[name]
    if not isinstance(value, list):  # a string would read digit by digit
        raise ValueError("%s is not a list in %r" % (name, data))
    return [json_int(x) for x in value]


def weight_from_json(data: dict) -> tuple[int, ...]:
    try:
        w = tuple(_int_list(data, "kappa"))
        fundamental = (_int_list(data, "fundamental") if "fundamental" in data
                       else fundamental_coords(w))
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed weight document: %r" % (exc,)) from None
    if fundamental != fundamental_coords(w):
        raise ValueError("inconsistent fundamental coordinates in %r" % (data,))
    return w


def highest_weight(partition: Partition) -> tuple[int, ...]:
    """The weight of the highest pattern: its kappa equals the partition."""
    return partition.parts


def weight_decomposition(partition: Partition) -> dict[tuple[int, ...], list[GTPattern]]:
    """Group the canonical enumeration by weight, preserving order."""
    blocks: dict[tuple[int, ...], list[GTPattern]] = {}
    for pat in enumerate_patterns(partition):
        blocks.setdefault(weight_of(pat), []).append(pat)
    return blocks
