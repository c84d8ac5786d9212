"""Monomial families: transposed raising words applied to the highest pattern.

Each pattern's raising word, read backwards with raises turned into lowers,
is a lowering monomial; the rank of their images of β decides whether the
family is a basis.  ``exact_support`` reads that rank from the patterns
each word reaches when the family has no repeated word and every F_k entry
is positive; otherwise ``rank`` eliminates the exact basis matrix.  Only
``family_rank``, the ``monomials`` command's verdict, also ranks the
columns in floating point, as a cross-check.  Duplicate words are
kept, not deduplicated — the family is whatever the schedule produces, and
the rank check measures exactly that.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import accumulate, compress
from json import dumps
from operator import add, itemgetter

from .operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    _subtract_into,
)
from .patterns import GTPattern, Partition, dimension
from .raising import (UnsupportedScheduleError, resolve_schedule, sweep_exponents,
                      word_format)
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

    def word_texts(self) -> list[str]:
        """Each word's text, one ``word_format`` filled per word."""
        fmt = word_format([GeneratorSpec("lower", r) for r in self.order])
        return [fmt % e for e in self.exponents]


def monomial_family(module: GTModule, schedule="canonical") -> MonomialFamily:
    """Build the module's family for a schedule, flagging duplicated words."""
    order = resolve_schedule(module.partition.n, schedule)
    exps = [tuple(sweep_exponents(pat, order)) for pat in module.basis]
    first: dict[tuple[int, ...], int] = {}  # one row order: exponents name the word
    duplicate_of = [None if first.setdefault(e, i) == i else first[e]
                    for i, e in enumerate(exps)]
    return MonomialFamily(module, schedule, exps, duplicate_of)


_backwards = itemgetter(slice(None, None, -1))


def walk(order: list[int], exponents: list, start, step) -> list:
    """Fold the lowering monomial of each exponent vector over ``start``.

    The exponents are written along ``order``, so the monomial applies F_r^a
    for the rows of ``order`` in reverse: its steps are those rows, each
    repeated a times, and ``step(r, value)`` applies F_r.  A word's key has
    one entry ``r << shift | s`` per nonzero block, in step order: its row
    r and the word's step count s at the block's end.  itertools builds
    each key with no Python loop over blocks, and comparing two keys costs
    O(runs), not O(len(order)).  The distinct keys are walked in sorted
    order, which visits each shared step prefix in one stretch: a word
    starts from its longest common prefix with the previous one, which ends
    at the first entry where they differ, or at the end of the previous
    word's entry there when both entries are of one row.  ``runs[k]`` holds
    the value after the previous word's first k runs.  A block that follows
    one of its own row, with only zero blocks between, continues that run:
    such a key is met before any step past the join, is left there, and its
    joined form, which sorts later, is walked in its place.  So each
    distinct nonempty step prefix is one ``step`` call.  Returns one value
    per exponent vector, in the given order; equal words share theirs.
    """
    shift = max(map(sum, exponents), default=0).bit_length()
    low = (1 << shift) - 1
    tags = [r << shift for r in reversed(order)]
    keys = [tuple(compress(map(add, tags, accumulate(e)), e))
            for e in map(_backwards, exponents)]
    values, joined = {}, {}
    prev, runs = (), [start]
    todo = sorted(set(keys))
    for key in todo:
        j = 0
        for a, b in zip(prev, key):
            if a != b:
                break
            j += 1
        if j < len(prev) and (prev[j] ^ key[j]) <= low:  # one row: extend its run
            value, done = runs[j + 1], prev[j] & low
        else:
            value, done = runs[j], prev[j - 1] & low if j else 0
        del runs[j + 1:]
        last = key[j - 1] >> shift if j else 0
        for x in key[j:]:
            r = x >> shift
            if r == last:  # this block joins the run before it
                break
            last, end = r, x & low
            for _ in range(end - done):
                value = step(r, value)
            done = end
            runs.append(value)
        else:
            values[key] = value
            prev = key
            continue
        prev = key[:len(runs) - 1]
        joined[key] = tuple(x for x, y in zip(key, key[1:] + (0,)) if (x ^ y) > low)
        insort(todo, joined[key])
    for key, form in joined.items():
        values[key] = values[form]
    return list(map(values.__getitem__, keys))


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

    A step reads the exact F_k columns and converts each entry through a
    memo keyed by ``id`` (valid while the matrices hold the entries), so
    each shared root object is converted once and no float copy of a
    matrix is built.  A step adds every product into its row and drops no
    row, whatever its value, so the keys of each column are exactly that
    word's ``reached_sets`` entry.
    """
    module, floats = family.module, {}
    mats = {r: module.generator("lower", r).cols for r in set(family.order)}

    def step(r, vec):
        cols, out = mats[r], {}
        for c, x in vec.items():
            for i, v in cols[c].items():
                f = floats.get(id(v))
                if f is None:
                    f = floats[id(v)] = v.to_float()
                out[i] = out.get(i, 0.0) + f * x
        return out

    return walk(family.order, family.exponents, {module.beta: 1.0}, step)


def _float_copies(cols) -> list[dict[int, float]]:
    """The columns with their values as floats, for ``_float_rank``.

    Each distinct column object is copied once, so a repeated column stays
    one object, and each distinct entry object is converted once (keyed by
    ``id`` while ``cols`` holds them).
    """
    floats: dict[int, float] = {}
    copies: dict[int, dict[int, float]] = {}
    out = []
    for col in cols:
        copy = copies.get(id(col))
        if copy is None:
            copy = copies[id(col)] = {}
            for r, v in col.items():
                f = floats.get(id(v))
                if f is None:
                    f = floats[id(v)] = v.to_float()
                copy[r] = f
        out.append(copy)
    return out


def _float_rank(cols) -> int:
    """Singular values above 1e-9 of the square matrix with these sparse
    columns ``{row: value}``, counted one connected block at a time.

    The values are floats (numpy reads any other value as ``float(v)``).
    Rows that share a nonzero column are joined (union-find, O(nnz)), once
    per distinct column object; each class with its columns is a block,
    and permuting rows and columns makes the matrix block diagonal, so its
    singular values are those of the blocks (Golub & Van Loan, §2.4).  A
    basis matrix's columns are weight vectors, so no block is larger than
    a weight space.  Blocks of one shape are stacked into a single SVD
    call, repeated columns included.
    """
    import numpy as np

    parent = list(range(len(cols)))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for col in dict(zip(map(id, cols), cols)).values():  # distinct objects
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
                    vals.append(v)
        stack = np.zeros(len(group) * nr * nc)
        stack[at] = vals
        sv = np.linalg.svd(stack.reshape(-1, nr, nc), compute_uv=False)
        approx += int((sv > 1e-9).sum())
    return approx


def rank(mat: OperatorMatrix) -> int:
    """Exact rank by column reduction; no floating point.

    Each distinct column object is reduced once, in order: a repeated
    word's column is its first occurrence's object (810 of the 1430 columns
    of the alternate benchmark pass), and adds nothing to the rank.  While
    a column's leading (smallest) row is the leading row of a kept column,
    that column's multiple is subtracted; what remains, if anything, is
    kept under its new leading row.  The rank is the number of kept
    columns.  A lower-triangular matrix with nonzero diagonal, such as every
    canonical family, keeps each column as it is, with no division; and
    ``exact_support`` decides an intact one without building its matrix.
    """
    kept: dict[int, dict[int, RadicalScalar]] = {}  # leading row -> column
    for col in dict(zip(map(id, mat.cols), mat.cols)).values():
        v = dict(col)
        lead = min(v, default=None)
        while lead in kept:
            piv = kept[lead]
            factor = v[lead] * piv[lead].invert()
            _subtract_into(v, {r: factor * b for r, b in piv.items()})
            lead = min(v, default=None)
        if v:
            kept[lead] = v
    return len(kept)


def _intact(family: MonomialFamily) -> bool:
    """No word repeats, and ``module.lowering_positive`` holds."""
    return all(d is None for d in family.duplicate_of) and family.module.lowering_positive


def exact_support(family: MonomialFamily) -> bool:
    """Whether the family's rank is its dimension, read from supports alone.

    In an ``_intact`` family every entry of a column is a sum of positive
    path products, which cannot vanish, so a column's support is the set of
    patterns its word reaches (``reached_sets``).  If those supports are
    ``lower_triangular``, so is the basis matrix, with a nonzero diagonal.
    A support cannot see a flipped sign, which can make two paths cancel,
    so the positivity condition is required, not an optimization.
    """
    return _intact(family) and lower_triangular(reached_sets(family))


def family_rank(family: MonomialFamily) -> int:
    """The rank of ``basis_matrix(family)``, cross-checked in floating point.

    In an ``_intact`` family, ``float_columns`` walks the words in floats;
    its keys are the ``reached_sets``, and if they are ``lower_triangular``
    the rank is the dimension, as in ``exact_support``, with no matrix
    built.  Any other family is ranked by ``rank(basis_matrix(family))``,
    against ``_float_copies`` of its columns.  Either way ``_float_rank``
    counts the float columns' singular values above 1e-9 block by block,
    and any disagreement with the exact rank is an internal error; the two
    computations share no code.
    """
    exact = None
    if _intact(family):
        cols = float_columns(family)
        if lower_triangular(cols):
            exact = len(family.patterns)
    if exact is None:
        mat = basis_matrix(family)
        exact, cols = rank(mat), _float_copies(mat.cols)
    approx = _float_rank(cols)
    if approx != exact:
        raise InternalConsistencyError(
            "exact rank %d disagrees with float rank %d" % (exact, approx))
    return exact


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
    ``json_int`` equal to the family's rank, recomputed exactly: the
    dimension when ``exact_support`` holds, ``rank(basis_matrix(family))``
    otherwise.
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
    exact = dim if exact_support(family) else rank(basis_matrix(family))
    if is_basis is not (claimed == dim) or claimed != exact:
        raise ValueError("rank %d and is_basis %r do not fit the %s family of %s"
                         % (claimed, is_basis, family.schedule, partition))
    return family
