"""Monomial families: mirrored lowering words applied to the highest pattern.

Each pattern's raising word, read backwards with raises turned into lowers,
is a lowering monomial; the rank of their images of β decides whether the
family is a basis.  ``family_rank`` reads that rank from the patterns each
word reaches when the family has no repeated word and every F_k entry is
positive, and otherwise ranks the exact basis matrix.  Duplicate words are
kept, not deduplicated — the family is whatever the schedule produces, and
the rank check measures exactly that.
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
from .patterns import GTPattern, Partition, dimension
from .raising import (GeneratorWord, UnsupportedScheduleError, resolve_schedule,
                      sweep_exponents, word_format)
from .scalars import RadicalScalar, json_int


@dataclass
class MonomialFamily:
    """One lowering monomial per pattern of a module, in its basis order.

    ``exponents[i]``, the written exponents of pattern i's monomial, is
    ``sweep_exponents(patterns[i], order)`` along the schedule's row order.
    ``monomial_family`` builds the family, and ``family_from_json`` rebuilds it.
    """

    module: GTModule
    schedule: str
    exponents: list[tuple[int, ...]]
    duplicate_of: list[int | None]

    @property
    def partition(self) -> Partition:
        return self.module.partition

    @property
    def patterns(self) -> list[GTPattern]:
        return self.module.basis

    @property
    def distinct_count(self) -> int:
        return sum(1 for d in self.duplicate_of if d is None)

    @property
    def duplicates(self) -> list[tuple[int, int]]:
        """(index, first-occurrence index) pairs for repeated words."""
        return [(i, d) for i, d in enumerate(self.duplicate_of) if d is not None]

    @property
    def order(self) -> list[int]:
        """The schedule's application row order, along which ``exponents`` run."""
        return resolve_schedule(self.partition.n, self.schedule)

    def _specs(self) -> list[GeneratorSpec]:
        return [GeneratorSpec("lower", r) for r in self.order]

    @property
    def words(self) -> list[GeneratorWord]:
        """The lowering words, built from the exponents on each call."""
        specs = self._specs()
        return [GeneratorWord(zip(specs, e)) for e in self.exponents]

    def word_texts(self) -> list[str]:
        """Each word's ``GeneratorWord.to_text``, one ``word_format`` filled per word."""
        fmt = word_format(self._specs())
        return [fmt % e for e in self.exponents]


def monomial_family(module: GTModule, schedule="canonical") -> MonomialFamily:
    """Build the module's family for a schedule, flagging duplicated words."""
    order = resolve_schedule(module.partition.n, schedule)
    exps = [tuple(sweep_exponents(pat, order)) for pat in module.basis]
    first: dict[tuple[int, ...], int] = {}  # one row order: exponents name the word
    duplicate_of = [None if first.setdefault(e, i) == i else first[e]
                    for i, e in enumerate(exps)]
    return MonomialFamily(module, schedule, exps, duplicate_of)


def walk(order: list[int], exponents: list, start, step) -> list:
    """Fold the lowering monomial of each exponent vector over ``start``.

    The exponents are written along ``order``, so the monomial applies F_r^a
    for the rows of ``order`` in reverse: its steps are those rows, each
    repeated a times.  Visiting the step tuples in sorted order, each starts
    from the longest prefix it shares with the previous one; the stack holds
    the value after each step of the current tuple, and ``step(r, value)``
    applies F_r.  Returns one value per exponent vector, in the given order.
    """
    rows = order[::-1]
    steps = [tuple(chain.from_iterable(map(repeat, rows, reversed(e)))) for e in exponents]
    out: list = [None] * len(steps)
    path: tuple[int, ...] = ()
    stack = [start]
    for i in sorted(range(len(steps)), key=steps.__getitem__):
        word = steps[i]
        shared = 0
        for a, b in zip(path, word):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        for r in word[shared:]:
            stack.append(step(r, stack[-1]))
        path = word
        out[i] = stack[-1]
    return out


def basis_matrix(family: MonomialFamily) -> OperatorMatrix:
    """Column i = word_i applied to β, over the family's pattern basis.

    ``walk`` applies the exponents along the schedule; no word is built.
    The generator matrices come from the family's module, so each is built
    once.
    """
    module = family.module
    return OperatorMatrix(walk(
        family.order, family.exponents, {module.beta: RadicalScalar.one()},
        lambda r, v: module.generator("lower", r).apply(v)))


def reached_sets(family: MonomialFamily) -> list[frozenset]:
    """Per word of the family, the basis indices it reaches from β on some path.

    A step F_r sends a set to the union of the row supports of those
    columns of F_r's matrix; no scalar is computed.  When
    ``family.module.lowering_positive`` holds, each set is exactly the
    support of the word's ``basis_matrix`` column.
    """
    module = family.module

    def reach(r, reached):
        cols = module.generator("lower", r).cols
        return frozenset().union(*[cols[c] for c in reached])

    return walk(family.order, family.exponents, frozenset([module.beta]), reach)


def lower_triangular(supports) -> bool:
    """Whether support c holds index c and none below it, for every c.

    Read from the keys alone: columns so supported form a lower-triangular
    matrix with a nonzero diagonal, whose rank is its number of columns.
    """
    return all(min(s, default=None) == c for c, s in enumerate(supports))


def float_columns(family: MonomialFamily) -> list[dict[int, float]]:
    """The family's basis-matrix columns in floating point, by one ``walk``.

    Each F_k's entries are converted once per shared root object (keyed by
    ``id`` while the matrices hold them).  A step adds every product into
    its row and drops no row, whatever its value, so the keys of each
    column are exactly that word's ``reached_sets`` entry.
    """
    module, floats = family.module, {}

    def to_float(v):
        f = floats.get(id(v))
        if f is None:
            f = floats[id(v)] = v.to_float()
        return f

    mats = {r: [{i: to_float(v) for i, v in col.items()}
                for col in module.generator("lower", r).cols]
            for r in set(family.order)}

    def step(r, vec):
        cols, out = mats[r], {}
        for c, x in vec.items():
            for i, f in cols[c].items():
                out[i] = out.get(i, 0.0) + f * x
        return out

    return walk(family.order, family.exponents, {module.beta: 1.0}, step)


def _float_rank(cols, to_float=RadicalScalar.to_float) -> int:
    """Singular values above 1e-9 of the square matrix with these sparse
    columns ``{row: value}``, each value read through ``to_float``, counted
    one connected block at a time.

    Rows that share a nonzero column are joined (union-find, O(nnz)); each
    class with its columns is a block, and permuting rows and columns makes
    the matrix block diagonal, so its singular values are those of the
    blocks (Golub & Van Loan, §2.4).  A basis matrix's columns are weight
    vectors, so no block is larger than a weight space.  Blocks of one
    shape are stacked into a single SVD call.
    """
    import numpy as np

    parent = list(range(len(cols)))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for col in cols:
        rows = iter(col)
        first = next(rows, None)
        for r in rows:
            parent[find(r)] = find(first)
    blocks: dict[int, tuple[list[int], list[int]]] = {}  # root -> (rows, cols)
    for r in sorted(set().union(*cols)):
        blocks.setdefault(find(r), ([], []))[0].append(r)
    for c, col in enumerate(cols):
        if col:
            blocks[find(next(iter(col)))][1].append(c)
    pos = [0] * len(cols)  # row -> its index within its block
    by_shape: dict[tuple[int, int], list[list[int]]] = {}
    for rows, members in blocks.values():
        for i, r in enumerate(rows):
            pos[r] = i
        by_shape.setdefault((len(rows), len(members)), []).append(members)
    approx = 0
    for (nr, nc), group in by_shape.items():
        at, vals = [], []  # flat index into the stack, and value, per nonzero
        for b, block in enumerate(group):
            for j, c in enumerate(block, b * nr * nc):
                for r, v in cols[c].items():
                    at.append(j + pos[r] * nc)
                    vals.append(to_float(v))
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
    each column as it is, with no division; ``family_rank`` decides an
    intact canonical family without building its matrix at all.  The float
    check (``_float_rank``) counts singular values above 1e-9 block by
    block, and any disagreement is an internal error — the two computations
    share no code.  It takes one SVD per connected block of the matrix, each
    at most a weight space in size, never one of the whole d×d matrix.
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
    return _cross_checked(len(kept), _float_rank(mat.cols))


def _cross_checked(exact: int, approx: int) -> int:
    if approx != exact:
        raise InternalConsistencyError(
            "exact rank %d disagrees with float rank %d" % (exact, approx)
        )
    return exact


def family_rank(family: MonomialFamily) -> int:
    """The rank of ``basis_matrix(family)``, from supports where that is sound.

    When no word repeats and ``module.lowering_positive`` holds, every entry
    of a column is a sum of positive path products, which cannot vanish, so
    a column's support is the set of patterns its word reaches: the keys of
    its ``float_columns`` entry, where no key is dropped.  If those supports
    are ``lower_triangular``, the rank is the dimension, read from the keys
    alone.  The float values are an independent computation of the same
    sums, and ``_float_rank`` of them must be the dimension as well.  Any
    other family (a repeated word, a non-positive entry, another shape) is
    ranked by ``rank(basis_matrix(family))``.
    """
    dim = len(family.patterns)
    if all(d is None for d in family.duplicate_of) and family.module.lowering_positive:
        cols = float_columns(family)
        if lower_triangular(cols):
            return _cross_checked(dim, _float_rank(cols, float))
    return rank(basis_matrix(family))


def _entries(family: MonomialFamily) -> list[dict]:
    """The ``entries`` list of the family's JSON document."""
    return [
        {"pattern": pat.to_string(), "word": word, "duplicate_of": dup}
        for pat, word, dup in zip(family.patterns, family.word_texts(), family.duplicate_of)
    ]


def family_to_json(family: MonomialFamily, family_rank: int) -> dict:
    """Documented schema with words, duplicate flags, the given rank, basis verdict."""
    return {
        "partition": list(family.partition.parts),
        "schedule": family.schedule,
        "entries": _entries(family),
        "rank": family_rank,
        "is_basis": family_rank == len(family.patterns),
    }


def family_from_json(data: dict) -> MonomialFamily:
    """Read a family's JSON document back by rebuilding the family.

    The family is ``monomial_family(GTModule(partition), schedule)``, and the
    entries must be exactly the ones ``family_to_json`` writes for it.
    Their count is tested first, so a short document never enumerates a
    large module.  ``is_basis`` must be the bool rank == dim, and the rank a
    ``json_int`` equal to ``family_rank(family)``, recomputed: from the
    reached patterns for an intact canonical family, from the exact basis
    matrix otherwise.
    """
    try:
        partition, entries = Partition.from_json(data["partition"]), data["entries"]
        dim, claimed = dimension(partition), json_int(data["rank"])
        if len(entries) != dim:
            raise ValueError("%d entries for a module of dimension %d" % (len(entries), dim))
        family = monomial_family(GTModule(partition), data["schedule"])
        # compared as text, so 1.0 or true is not read as the index 1
        same = dumps(entries, sort_keys=True) == dumps(_entries(family), sort_keys=True)
        is_basis = data["is_basis"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed family document: %r" % (exc,)) from None
    if not same:
        raise ValueError("entries are not the %s family of %s"
                         % (family.schedule, partition))
    if is_basis is not (claimed == dim) or claimed != family_rank(family):
        raise ValueError("rank %d and is_basis %r do not fit the %s family of %s"
                         % (claimed, is_basis, family.schedule, partition))
    return family
