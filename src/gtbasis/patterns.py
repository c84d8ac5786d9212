"""Partitions, Gelfand-Tsetlin patterns, enumeration and the dimension formula.

A pattern for a length-n partition is a triangle of integers with rows of
sizes 1..n.  We index rows bottom-up: row(k) has k entries and row(n) is the
partition itself.  Adjacent rows interleave,

    row(k+1)[i] >= row(k)[i] >= row(k+1)[i+1]    (1-based positions),

and that is the only constraint.  Patterns of a fixed partition are totally
ordered by the lexicographic order on the flattened sequence
row(1), row(2), ..., row(n), each row read left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .scalars import json_int


def _int_entries(values) -> tuple[int, ...]:
    """The values as a tuple; like ``json_int``, a float, str or bool is a ValueError."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError("not an integer: %r" % (x,))
    return values


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Partition:
    """A weakly decreasing integer vector, normalized so the last part is 0.

    Inputs with a nonzero last part are shifted down uniformly; for sl_n the
    module structure only depends on the differences of the parts.
    """

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = _int_entries(parts)
        if len(parts) < 2:
            raise ValueError("need at least two parts, got %r" % (parts,))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        shift = parts[-1]
        if shift:
            parts = tuple(m - shift for m in parts)
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse "2,1,0", ignoring whitespace; each part is read by ``json_int``."""
        try:
            parts = [json_int(tok) for tok in "".join(text.split()).split(",")]
        except ValueError:
            raise ValueError("malformed partition %r" % (text,)) from None
        return cls(parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        """Read a JSON list of parts, each through ``json_int``."""
        if not isinstance(data, list):  # a string would read digit by digit
            raise ValueError("partition is not a list: %r" % (data,))
        return cls(json_int(m) for m in data)

    def __str__(self):
        return ",".join(str(m) for m in self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)


class PatternShapeError(ValueError):
    """Candidate rows do not even have the right shape."""


def validate(rows, partition: Partition) -> list[str]:
    """Check interleaving for candidate rows (bottom-up); return violations.

    An empty list means the candidate is a valid pattern.  Each violation is
    a human-readable string naming the offending row/position.
    """
    n = partition.n
    rows = [_int_entries(row) for row in rows]
    if len(rows) != n or any(len(row) != k for k, row in enumerate(rows, start=1)):
        raise PatternShapeError(
            "expected rows of sizes 1..%d, got sizes %r" % (n, [len(r) for r in rows])
        )
    problems = []
    if rows[-1] != partition.parts:
        problems.append(
            "top row %s != partition %s" % (list(rows[-1]), list(partition.parts))
        )
    for k in range(1, n):  # row(k) vs row(k+1)
        lower, upper = rows[k - 1], rows[k]
        for i in range(k):
            if not (upper[i] >= lower[i] >= upper[i + 1]):
                problems.append(
                    "row %d position %d: need %d >= %d >= %d"
                    % (k, i + 1, upper[i], lower[i], upper[i + 1])
                )
    return problems


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GTPattern:
    """An immutable Gelfand-Tsetlin pattern.

    ``rows`` is stored bottom-up: rows[0] is the single-entry bottom row and
    rows[-1] is the partition.  Constructing a GTPattern validates it.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows, partition: Partition | None = None):
        rows = tuple(_int_entries(row) for row in rows)
        if not rows:
            raise PatternShapeError("a pattern needs at least one row")
        if partition is None:
            partition = Partition(rows[-1])
            if rows[-1] != partition.parts:
                # the top row was not normalized; renormalize the whole triangle
                shift = rows[-1][-1]
                rows = tuple(tuple(e - shift for e in row) for row in rows)
                partition = Partition(rows[-1])
        problems = validate(rows, partition)
        if problems:
            raise PatternShapeError("invalid pattern: " + "; ".join(problems))
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def partition(self) -> Partition:
        return Partition(self.rows[-1])

    def row(self, k: int) -> tuple[int, ...]:
        """Row with k entries (1-based, bottom-up)."""
        return self.rows[k - 1]

    def entry(self, k: int, i: int) -> int:
        """Entry i of row k, both 1-based."""
        return self.rows[k - 1][i - 1]

    def key(self) -> tuple[int, ...]:
        """Flattened entries row(1)..row(n), the total-order sort key."""
        return tuple(e for row in self.rows for e in row)

    def replace(self, k: int, i: int, value: int) -> "GTPattern | None":
        """Copy with entry (k, i) set to value, or None if that is invalid.

        ``validate``, the one statement of the interleaving rule, checks the
        new rows.  A value that is not an int is a ValueError.
        """
        rows = self.rows
        if not (1 <= k <= len(rows) and 1 <= i <= k):
            raise IndexError("no entry (%d, %d) in a pattern with %d rows"
                             % (k, i, len(rows)))
        (value,) = _int_entries((value,))
        row = rows[k - 1]
        rows = rows[:k - 1] + (row[:i - 1] + (value,) + row[i:],) + rows[k:]
        return None if validate(rows, self.partition) else GTPattern._trusted(rows)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "GTPattern":
        """Wrap int-tuple rows known to be a valid, normalized pattern, unchecked."""
        out = cls.__new__(cls)
        object.__setattr__(out, "rows", rows)
        return out

    def content(self, k: int) -> int:
        """Sum of row(k); content(0) is the empty sum."""
        return sum(self.rows[k - 1]) if k else 0

    # -- text format -------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form: rows top-to-bottom, ";"-separated."""
        rows = self.rows
        return _text_format(len(rows)) % sum(reversed(rows), ())

    @classmethod
    def from_string(cls, text: str, partition: Partition | None = None) -> "GTPattern":
        """Parse the canonical text form, e.g. "2,1,0;2,1;2".

        Whitespace is ignored, and each entry is read through ``json_int``.
        If a partition is supplied the top row, shifted like the whole
        triangle so that its last entry is 0, must match it.
        """
        text = "".join(text.split())
        try:
            top_down = [
                [json_int(tok) for tok in chunk.split(",")] for chunk in text.split(";")
            ]
        except ValueError:
            raise ValueError("malformed pattern text %r" % (text,)) from None
        rows = list(reversed(top_down))
        if partition is not None:
            shift = rows[-1][-1]
            rows = [[e - shift for e in row] for row in rows]
            if len(rows) != partition.n or tuple(rows[-1]) != partition.parts:
                raise ValueError(
                    "pattern %r does not belong to partition %s" % (text, partition)
                )
        return cls(rows, partition)

    def compact_str(self) -> str:
        """Rows below the top, top-down — e.g. "2,0;1" for n=3 tables."""
        return _text_format(self.n - 1) % sum(reversed(self.rows[:-1]), ())

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "GTPattern(%r)" % (self.to_string(),)

    def __lt__(self, other):
        if not isinstance(other, GTPattern):
            return NotImplemented
        if self.rows[-1] != other.rows[-1]:
            raise ValueError("cannot order patterns of different partitions")
        return self.key() < other.key()


@cache
def _text_format(n: int) -> str:
    """The ``to_string`` format of an n-row pattern: "%d,%d;%d" at n = 2."""
    return ";".join([",".join(["%d"] * k) for k in range(n, 0, -1)])


def enumerate_patterns(partition: Partition) -> list[GTPattern]:
    """All patterns of the partition, ascending in the canonical order."""
    n = partition.n
    triangles: list[tuple[tuple[int, ...], ...]] = [(partition.parts,)]
    # fill rows n-1 down to 1; entry i of the new row ranges between its
    # interleaving bounds from the row above, so every triangle built here
    # is valid by construction
    for k in range(n - 1, 0, -1):
        grown = []
        for rows in triangles:
            upper = rows[0]
            choices: list[list[int]] = [[]]
            for i in range(k):
                lo, hi = upper[i + 1], upper[i]
                choices = [c + [v] for c in choices for v in range(lo, hi + 1)]
            for c in choices:
                grown.append((tuple(c),) + rows)
        triangles = grown
    # row i has i entries in every triangle, so comparing the row tuples in
    # order is comparing the flattened keys
    triangles.sort()
    return [GTPattern._trusted(rows) for rows in triangles]


def dimension(partition: Partition) -> int:
    """Module dimension by the Weyl product formula.

    prod over 1 <= i <= j <= n-1 of (m_i - m_{j+1} + j - i + 1) / (j - i + 1);
    equals the number of patterns.
    """
    m = partition.parts
    n = partition.n
    value = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            value *= Fraction(m[i - 1] - m[j] + j - i + 1, j - i + 1)
    assert value.denominator == 1
    return int(value)


def highest_pattern(partition: Partition) -> GTPattern:
    """The pattern whose every row is the partition truncated to its length.

    This is the maximum of the canonical order and the highest weight vector
    of the module.
    """
    rows = [partition.parts[:k] for k in range(1, partition.n + 1)]
    return GTPattern(rows, partition)
