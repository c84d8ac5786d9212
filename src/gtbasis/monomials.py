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
from json import dumps

from .operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    _subtract_into,
)
from .patterns import GTPattern, Partition, dimension, enumerate_patterns
from .raising import SCHEDULES, GeneratorWord, UnsupportedScheduleError, sweep_exponents
from .scalars import RadicalScalar


def resolve_schedule(n: int, name: str) -> list[int]:
    """The application row order of the named schedule at this n."""
    if isinstance(name, str) and name in SCHEDULES:
        return SCHEDULES[name](n)
    raise UnsupportedScheduleError("unknown schedule %r" % (name,))


@dataclass
class MonomialFamily:
    """One lowering word per pattern, in canonical enumeration order.

    It is a function of the partition and the schedule name:
    ``monomial_family`` builds it, and ``family_from_json`` rebuilds it.
    """

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
    order = resolve_schedule(partition.n, schedule)
    if basis is None:
        basis = enumerate_patterns(partition)
    specs = [GeneratorSpec("lower", r) for r in order]  # rows in range: resolve_schedule
    exps = [tuple(sweep_exponents(pat, order)) for pat in basis]  # gains: never negative
    words = [GeneratorWord._trusted(tuple(zip(specs, e))) for e in exps]
    first: dict[tuple[int, ...], int] = {}  # one row order: exponents name the word
    duplicate_of = [None if first.setdefault(e, i) == i else first[e]
                    for i, e in enumerate(exps)]
    return MonomialFamily(partition, schedule, basis, words, duplicate_of)


Steps = tuple[tuple[str, int], ...]  # unit steps (kind, row), application order


def sweep_steps(order: list[int], exponents: list[list[int]]) -> list[Steps]:
    """Per exponent vector, the unit steps of its lowering monomial along ``order``.

    The monomial applies F_r^a for the rows of ``order`` in reverse, so each
    step tuple lists those powers in that order and F^a extends F^(a-1).
    """
    units = [("lower", r) for r in reversed(order)]
    return [tuple(chain.from_iterable(map(repeat, units, reversed(exps))))
            for exps in exponents]


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

    The words' steps, ``sweep_steps`` of their exponents, are applied by
    ``walk``.  The generator matrices come from ``module`` (one over
    ``family.patterns`` when none is given), so each is built once.
    """
    module = GTModule.of(family.partition, module, family.patterns)
    order = resolve_schedule(family.partition.n, family.schedule)
    steps = sweep_steps(order, [word.exponents_written() for word in family.words])
    return OperatorMatrix.from_columns(walk(
        steps, {module.beta: RadicalScalar.one()},
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


def _entries(family: MonomialFamily) -> list[dict]:
    """The ``entries`` list of the family's JSON document."""
    return [
        {"pattern": pat.to_string(), "word": word.to_text(), "duplicate_of": dup}
        for pat, word, dup in zip(family.patterns, family.words, family.duplicate_of)
    ]


def family_to_json(family: MonomialFamily, family_rank: int | None = None) -> dict:
    """Documented schema with words, duplicate flags, rank, basis verdict."""
    if family_rank is None:
        family_rank = rank(basis_matrix(family))
    return {
        "partition": list(family.partition.parts),
        "schedule": family.schedule,
        "entries": _entries(family),
        "rank": family_rank,
        "is_basis": family_rank == len(family.patterns),
    }


def family_from_json(data: dict) -> MonomialFamily:
    """Read a family's JSON document back by rebuilding the family.

    The family is ``monomial_family(partition, schedule)``, and the entries
    must be exactly the ones ``family_to_json`` writes for it.  Their count
    is tested first, so a short document never enumerates a large module.
    """
    try:
        partition, entries = Partition.from_json(data["partition"]), data["entries"]
        if len(entries) != dimension(partition):
            raise ValueError("%d entries for a module of dimension %d"
                             % (len(entries), dimension(partition)))
        family = monomial_family(partition, data["schedule"])
        # compared as text, so 1.0 or true is not read as the index 1
        same = dumps(entries, sort_keys=True) == dumps(_entries(family), sort_keys=True)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed family document: %r" % (exc,)) from None
    if not same:
        raise ValueError("entries are not the %s family of %s"
                         % (family.schedule, partition))
    return family
