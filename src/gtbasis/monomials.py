"""Monomial families: mirrored lowering words applied to the highest pattern.

Each pattern's raising word, read backwards with raises turned into lowers,
is a lowering monomial; applying all of them to β and measuring the exact
rank of the resulting columns decides whether the family is a basis.
Duplicate words are kept, not deduplicated — the family is whatever the
schedule produces, and the rank check measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    _subtract_into,
)
from .patterns import GTPattern, Partition, dimension, enumerate_patterns
from .raising import SCHEDULES, GeneratorWord, UnsupportedScheduleError, sweep_exponents
from .scalars import RadicalScalar, json_int


def resolve_schedule(n: int, schedule) -> tuple[str, list[int]]:
    """Normalize a schedule descriptor to (name, application row order)."""
    if isinstance(schedule, str) and schedule in SCHEDULES:
        return schedule, SCHEDULES[schedule](n)
    if isinstance(schedule, (list, tuple)):
        order = [int(r) for r in schedule]
        if not all(1 <= r <= n - 1 for r in order):
            raise UnsupportedScheduleError(
                "custom schedule rows must lie in 1..%d: %r" % (n - 1, order)
            )
        return "custom", order
    raise UnsupportedScheduleError("unknown schedule %r" % (schedule,))


def monomial_word(xi: GTPattern, schedule="canonical") -> GeneratorWord:
    """The lowering monomial for ξ: its raising word mirrored.

    F_r^a per row r of the order, a = ξ's sweep exponent, in application order.
    """
    _, order = resolve_schedule(xi.n, schedule)
    specs = [GeneratorSpec("lower", r) for r in order]
    return GeneratorWord(zip(specs, sweep_exponents(xi, order)))


@dataclass
class MonomialFamily:
    """One lowering word per pattern, in canonical enumeration order."""

    partition: Partition
    schedule: str
    patterns: list[GTPattern]
    words: list[GeneratorWord]
    duplicate_of: list[int | None]

    @property
    def distinct_count(self) -> int:
        return sum(1 for d in self.duplicate_of if d is None)

    @property
    def duplicates(self) -> list[tuple[int, int]]:
        """(index, first-occurrence index) pairs for repeated words."""
        return [(i, d) for i, d in enumerate(self.duplicate_of) if d is not None]


def monomial_family(
    partition: Partition, schedule="canonical", basis: list[GTPattern] | None = None
) -> MonomialFamily:
    """Build the family for a schedule, flagging duplicated words.

    ``basis`` is the already enumerated pattern basis, if the caller has it.
    """
    name, order = resolve_schedule(partition.n, schedule)
    if basis is None:
        basis = enumerate_patterns(partition)
    specs = [GeneratorSpec("lower", r) for r in order]  # rows in range: resolve_schedule
    exps = [tuple(sweep_exponents(pat, order)) for pat in basis]  # gains: never negative
    words = [GeneratorWord._trusted(tuple(zip(specs, e))) for e in exps]
    first: dict[tuple[int, ...], int] = {}  # one row order: exponents name the word
    duplicate_of = [None if first.setdefault(e, i) == i else first[e]
                    for i, e in enumerate(exps)]
    return MonomialFamily(partition, name, basis, words, duplicate_of)


Steps = tuple[tuple[str, int], ...]  # unit steps (kind, row), application order


def word_steps(word: GeneratorWord) -> Steps:
    """A word's unit steps in application order, so F^a extends F^(a-1)."""
    units: list[tuple[str, int]] = []
    for spec, exp in reversed(word.factors):
        units += [(spec.kind, spec.index)] * exp
    return tuple(units)


def sweep_steps(patterns: list[GTPattern], order: list[int]) -> list[Steps]:
    """Per pattern, the unit steps of its lowering monomial along ``order``.

    Read straight from ``sweep_exponents``, with no word built: the monomial
    applies F_r^a for the rows of ``order`` in reverse, so this equals
    ``word_steps(monomial_word(pat, order))``.
    """
    units = [("lower", r) for r in reversed(order)]
    return [
        tuple(chain.from_iterable(map(repeat, units, reversed(sweep_exponents(pat, order)))))
        for pat in patterns
    ]


def walk(steps: list[Steps], start, step) -> list:
    """Fold every step tuple over ``start``, sharing prefixes.

    Visiting the tuples in sorted order, each starts from the longest prefix
    it shares with the previous one; the stack holds the value after each
    step of the current tuple, and ``step(unit, value)`` gives the next one.
    Returns one value per tuple, in the given order.
    """
    out: list = [None] * len(steps)
    path: Steps = ()
    stack = [start]
    for i in sorted(range(len(steps)), key=steps.__getitem__):
        word = steps[i]
        shared = 0
        for a, b in zip(path, word):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        for unit in word[shared:]:
            stack.append(step(unit, stack[-1]))
        path = word
        out[i] = stack[-1]
    return out


def basis_matrix(
    family: MonomialFamily, module: GTModule | None = None
) -> OperatorMatrix:
    """Column i = word_i applied to β, over the family's pattern basis.

    The words' steps are applied by ``walk``.  The generator matrices come
    from ``module`` (one over ``family.patterns`` when none is given), so
    each is built once.
    """
    module = GTModule.of(family.partition, module, family.patterns)
    return OperatorMatrix.from_columns(walk(
        [word_steps(word) for word in family.words], {module.beta: RadicalScalar.one()},
        lambda unit, v: module.generator(*unit).apply(v)))


def reached_sets(steps: list[Steps], module: GTModule) -> list[frozenset[int]]:
    """Per step tuple, the basis indices that some path of it reaches from β.

    A step sends a set to the union of the row supports of those columns
    of the step's generator matrix; no scalar is computed.  When
    ``module.lowering_positive`` holds, each set is exactly the support of
    the ``basis_matrix`` column of a word with those steps.
    """
    def reach(unit, reached):
        cols = module.generator(*unit).cols
        return frozenset().union(*[cols[c] for c in reached])

    return walk(steps, frozenset([module.beta]), reach)


def _float_rank(mat: OperatorMatrix) -> int:
    """Singular values above 1e-9, counted one connected block at a time.

    Rows that share a nonzero column are joined (union-find, O(nnz)); each
    class with its columns is a block, and permuting rows and columns makes
    the matrix block diagonal, so its singular values are those of the
    blocks (Golub & Van Loan, §2.4).  A basis matrix's columns are weight
    vectors, so no block is larger than a weight space.  Blocks of one
    shape are stacked into a single SVD call.
    """
    import numpy as np

    parent = list(range(mat.dim))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for col in mat.cols:
        rows = iter(col)
        first = next(rows, None)
        for r in rows:
            parent[find(r)] = find(first)
    blocks: dict[int, tuple[list[int], list[int]]] = {}  # root -> (rows, cols)
    for r in sorted(set().union(*mat.cols)):
        blocks.setdefault(find(r), ([], []))[0].append(r)
    for c, col in enumerate(mat.cols):
        if col:
            blocks[find(next(iter(col)))][1].append(c)
    pos = [0] * mat.dim  # row -> its index within its block
    by_shape: dict[tuple[int, int], list[list[int]]] = {}
    for rows, cols in blocks.values():
        for i, r in enumerate(rows):
            pos[r] = i
        by_shape.setdefault((len(rows), len(cols)), []).append(cols)
    approx = 0
    for (nr, nc), group in by_shape.items():
        at, vals = [], []  # flat index into the stack, and value, per nonzero
        for b, cols in enumerate(group):
            for j, c in enumerate(cols, b * nr * nc):
                for r, v in mat.cols[c].items():
                    at.append(j + pos[r] * nc)
                    vals.append(v.to_float())
        stack = np.zeros(len(group) * nr * nc)
        stack[at] = vals
        sv = np.linalg.svd(stack.reshape(-1, nr, nc), compute_uv=False)
        approx += int((sv > 1e-9).sum())
    return approx


def rank(mat: OperatorMatrix) -> int:
    """Exact rank by column reduction, cross-checked in floating point.

    Columns are reduced in order: while a column's leading (smallest) row
    index is the leading row of a kept column, that column's multiple is
    subtracted; what remains, if anything, is kept under its new leading
    row.  A column equal to the kept column with its leading row is dropped
    after that one comparison, with no division: in an alternate family
    every repeated word's column is such a copy (810 of 1430 columns of the
    alternate benchmark pass), while a canonical family has none.  The
    rank is the number of kept columns.  A lower-triangular
    matrix with nonzero diagonal, such as every canonical family, keeps
    each column as it is, with no division.  The float check
    (``_float_rank``) counts singular values above 1e-9 block by block, and
    any disagreement is an internal error — the two computations share no
    code.  It takes one SVD per connected block of the matrix, each at most
    a weight space in size, never one of the whole d×d matrix.
    """
    kept: dict[int, dict[int, RadicalScalar]] = {}  # leading row -> column
    for col in mat.cols:
        v = dict(col)
        lead = min(v, default=None)
        while lead in kept:
            piv = kept[lead]
            if v == piv:
                v = {}
                break
            factor = v[lead] * piv[lead].invert()
            _subtract_into(v, {r: factor * b for r, b in piv.items()})
            lead = min(v, default=None)
        if v:
            kept[lead] = v
    exact = len(kept)

    approx = _float_rank(mat)
    if approx != exact:
        raise InternalConsistencyError(
            "exact rank %d disagrees with float rank %d" % (exact, approx)
        )
    return exact


def family_to_json(family: MonomialFamily, family_rank: int | None = None) -> dict:
    """Documented schema with words, duplicate flags, rank, basis verdict."""
    if family_rank is None:
        family_rank = rank(basis_matrix(family))
    return {
        "partition": list(family.partition.parts),
        "schedule": family.schedule,
        "entries": [
            {
                "pattern": pat.to_string(),
                "word": word.to_text(),
                "duplicate_of": dup,
            }
            for pat, word, dup in zip(
                family.patterns, family.words, family.duplicate_of
            )
        ],
        "rank": family_rank,
        "is_basis": family_rank == len(family.patterns),
    }


def family_from_json(data: dict) -> MonomialFamily:
    """Rebuild a family from its JSON document (structure only).

    The patterns must be the partition's canonical enumeration, and each
    ``duplicate_of`` is None or the index of an earlier entry.
    """
    try:
        partition, entries = Partition.from_json(data["partition"]), data["entries"]
        schedule = data["schedule"]
        if not isinstance(schedule, str):
            raise ValueError("schedule is not a string: %r" % (schedule,))
        patterns = [GTPattern.from_string(item["pattern"], partition) for item in entries]
        # the length test first: a short document never enumerates a large module
        if len(patterns) != dimension(partition) or patterns != enumerate_patterns(partition):
            raise ValueError("patterns are not the enumeration of %s" % (partition,))
        words = [GeneratorWord.from_text(item["word"]) for item in entries]
        dups = [item["duplicate_of"] for item in entries]
        duplicate_of = [None if d is None else json_int(d) for d in dups]
        if any(d is not None and not 0 <= d < i for i, d in enumerate(duplicate_of)):
            raise ValueError("duplicate_of must name an earlier entry")
        return MonomialFamily(partition, schedule, patterns, words, duplicate_of)
    except (KeyError, TypeError, AttributeError) as exc:  # AttributeError: text not a str
        raise ValueError("malformed family document: %r" % (exc,)) from None
