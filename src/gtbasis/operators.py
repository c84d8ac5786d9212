"""Generator actions on patterns, matrix realizations, bracket verification.

The raising generator for row k bumps one entry of row(k) by 1; the
coefficient attached to bumping position j is a square root of a rational
built from the shifted entries l[i][r] = row(r)[i] - i.  Lowering uses the
same formula with l[j][k] replaced by l[j][k] - 1, and diagonal generators
act by the pattern's weight (``weights.weight_of``).  Invalid targets are
skipped before any formula is evaluated; for a valid target the denominator
is provably nonzero (shifted entries within a row are strictly decreasing)
and the radicand is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd

from .patterns import (GTPattern, Partition, _int_entries, dimension, enumerate_patterns,
                       highest_pattern)
from .scalars import RadicalScalar, _make, _sqrt_ratio, json_int
from .weights import weight_of


class InternalConsistencyError(RuntimeError):
    """A formula produced something impossible (zero denominator, bad sign)."""


Pair = tuple[int, int]


def _act(rows, k: int, step: int, roots: dict, shifts: dict) -> list:
    """(new row k, coefficient) pairs of raising (step=1) or lowering (step=-1) row k.

    ``rows`` are a pattern's row tuples, of which only rows k−1, k and k+1
    (``rows[k-2:k+1]``; no row k−1 when k = 1) are read, so every pattern
    with those three rows gets the same pairs; the caller puts each new row
    k in place of the pattern's own.  A target is skipped unless it passes
    the tests of ``patterns.validate`` that involve entry (k, j).  The
    lowering coefficient is the raising one with l_jk replaced by l_jk - 1,
    so one formula serves both; its radicand num/den is kept as plain ints
    in lowest terms, and ``roots`` memoizes each square root by that
    (num, den), so equal coefficients share one object.  ``shifts``
    memoizes each row's shifted entries by the row tuple.
    """
    name, verb = ("raise", "raising") if step > 0 else ("lower", "lowering")
    if not 1 <= k < len(rows):
        raise ValueError("%s row index %d out of range for n=%d" % (name, k, len(rows)))
    row, upper = rows[k - 1], rows[k]
    lower = rows[k - 2] if k > 1 else ()
    lk, lku, lkd = shifts.get(row), shifts.get(upper), shifts.get(lower)
    if lk is None or lku is None or lkd is None:
        for r in (row, upper, lower):
            shifts[r] = [e - i for i, e in enumerate(r, start=1)]
        lk, lku, lkd = shifts[row], shifts[upper], shifts[lower]
    out = []
    for j in range(1, k + 1):
        value = row[j - 1] + step
        if (not upper[j - 1] >= value >= upper[j]
                or (j < k and value < lower[j - 1]) or (j > 1 and value > lower[j - 2])):
            continue
        ljk = lk[j - 1] if step > 0 else lk[j - 1] - 1
        num = -1
        for li in lku:
            num *= li - ljk
        for li in lkd:
            num *= li - ljk - 1
        den = 1
        for i, li in enumerate(lk, start=1):
            if i != j:
                den *= (li - ljk) * (li - ljk - 1)
        if den == 0:
            raise InternalConsistencyError(
                "zero denominator %s row %d of %s at position %d"
                % (verb, k, GTPattern._trusted(rows).to_string(), j)
            )
        if den < 0:
            num, den = -num, -den
        if num <= 0:
            raise InternalConsistencyError(
                "nonpositive radicand %s %s row %d of %s at position %d"
                % (Fraction(num, den), verb, k, GTPattern._trusted(rows).to_string(), j)
            )
        g = gcd(num, den)
        key = (num // g, den // g)
        root = roots.get(key)
        if root is None:
            root = roots[key] = _sqrt_ratio(*key)
        out.append((row[:j - 1] + (value,) + row[j:], root))
    return out


def apply_generator(
    spec: GeneratorSpec, v: dict[GTPattern, RadicalScalar]
) -> dict[GTPattern, RadicalScalar]:
    """One raise/lower step on a vector {pattern: nonzero value}.

    Each pattern's new rows k from ``_act`` go in place of its own, the
    products are summed per target, and entries that cancel are dropped, so
    the result also holds only nonzero values, like an ``OperatorMatrix``
    column.
    """
    if spec.kind not in ("raise", "lower"):
        raise ValueError("only raise/lower generators act in words")
    k, step, roots, shifts = spec.index, (1 if spec.kind == "raise" else -1), {}, {}
    out: dict[GTPattern, RadicalScalar] = {}
    for pat, coeff in v.items():
        rows = pat.rows
        for row, c in _act(rows, k, step, roots, shifts):
            target = GTPattern._trusted(rows[:k - 1] + (row,) + rows[k:])
            prod = c * coeff
            out[target] = out[target] + prod if target in out else prod
    return {p: c for p, c in out.items() if not c.is_zero()}


def act_raise(k: int, xi: GTPattern) -> dict[GTPattern, RadicalScalar]:
    """Action of the raising generator on row k: sum over bumpable entries."""
    return apply_generator(GeneratorSpec("raise", k), {xi: RadicalScalar.one()})


def act_lower(k: int, xi: GTPattern) -> dict[GTPattern, RadicalScalar]:
    """Action of the lowering generator on row k (adjoint of act_raise)."""
    return apply_generator(GeneratorSpec("lower", k), {xi: RadicalScalar.one()})


def act_diag(i: int, xi: GTPattern) -> tuple[int, GTPattern]:
    """Diagonal generator: eigenvalue κ_i of ξ's weight."""
    if not 1 <= i <= xi.n:
        raise ValueError("diag index %d out of range for n=%d" % (i, xi.n))
    return weight_of(xi)[i - 1], xi


@dataclass(frozen=True)
class GeneratorSpec:
    """One of the distinguished generators: raise/lower row k, diag i, cartan i."""

    kind: str  # a key of LETTERS
    index: int

    # kind -> the letter that names it in text, JSON and matrix metadata
    LETTERS = {"raise": "E", "lower": "F", "diag": "H", "cartan": "cartan"}

    def __post_init__(self):
        if self.kind not in self.LETTERS:
            raise ValueError("unknown generator kind %r" % (self.kind,))
        _int_entries((self.index,))

    @classmethod
    def from_letter(cls, letter: str, index: int) -> "GeneratorSpec":
        for kind, known in cls.LETTERS.items():
            if known == letter:
                return cls(kind, index)
        raise ValueError("unknown generator letter %r" % (letter,))

    @cached_property
    def label(self) -> str:
        """A raise/lower generator's name in word text: E12, F23, ..."""
        return "%s%d%d" % (self.LETTERS[self.kind], self.index, self.index + 1)

    def check_range(self, n: int):
        hi = n if self.kind == "diag" else n - 1
        if not 1 <= self.index <= hi:
            raise ValueError("%s index %d out of range 1..%d"
                             % (self.LETTERS[self.kind], self.index, hi))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class OperatorMatrix:
    """Square matrix of RadicalScalars over the canonical pattern basis.

    The one constructor takes the columns: ``cols[c]`` maps row index to
    value for the nonzero entries of column c, the image of the c-th pattern
    in ascending enumeration order.  ``meta`` optionally remembers
    (partition, generator label, index) for serialization.  Only tests and
    the benchmark's tracer read the dense views ``entries`` and
    ``to_float_array``.
    """

    dim: int = field(compare=False)
    cols: tuple[dict[int, RadicalScalar], ...]
    meta: tuple | None = field(compare=False)

    def __init__(self, cols, meta=None):
        object.__setattr__(self, "dim", len(cols))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "meta", meta)

    @classmethod
    def zero(cls, dim: int) -> "OperatorMatrix":
        return cls([{} for _ in range(dim)])

    @property
    def entries(self) -> tuple[tuple[RadicalScalar, ...], ...]:
        """Dense rows, zeros included; read only by tests and the tracer."""
        z = RadicalScalar.zero()
        rows = [[z] * self.dim for _ in range(self.dim)]
        for r, c, v in self.nonzeros():
            rows[r][c] = v
        return tuple(tuple(row) for row in rows)

    def nonzeros(self):
        """Yield (row, col, value) for every nonzero entry, column by column."""
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def is_zero(self) -> bool:
        return not any(self.cols)

    def trace(self) -> RadicalScalar:
        acc = RadicalScalar.zero()
        for c, col in enumerate(self.cols):
            if c in col:
                acc = acc + col[c]
        return acc

    def transpose(self) -> "OperatorMatrix":
        cols: list[dict[int, RadicalScalar]] = [{} for _ in self.cols]
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                cols[r][c] = v
        return OperatorMatrix(cols)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_dims(self, other)
        return OperatorMatrix(
            [_subtract_into(dict(a), b) for a, b in zip(self.cols, other.cols)]
        )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_dims(self, other)
        return OperatorMatrix([self.apply(b) for b in other.cols])

    def apply(self, vec: dict[int, RadicalScalar]) -> dict[int, RadicalScalar]:
        """Image of the sparse vector {index: value}: a combination of columns.

        Only nonzero values are kept in the result.
        """
        out: dict[int, RadicalScalar] = {}
        for k, bv in vec.items():
            for r, av in self.cols[k].items():
                prod = av * bv
                acc = out.get(r)
                out[r] = prod if acc is None else acc + prod
        return {r: v for r, v in out.items() if not v.is_zero()}

    def to_float_array(self):
        """Entries as a nested list of floats; read only by tests and the tracer."""
        rows = [[0.0] * self.dim for _ in range(self.dim)]
        for r, c, v in self.nonzeros():
            rows[r][c] = v.to_float()
        return rows

    def __repr__(self):
        label = ""
        if self.meta:
            label = " %s" % (self.meta,)
        return "OperatorMatrix(dim=%d%s)" % (self.dim, label)


def _check_dims(a: OperatorMatrix, b: OperatorMatrix):
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))


def _subtract_into(
    out: dict[int, RadicalScalar], col: dict[int, RadicalScalar]
) -> dict[int, RadicalScalar]:
    """Subtract the sparse column col from out in place, dropping zeros."""
    for r, v in col.items():
        acc = out.get(r)
        if acc is None:
            out[r] = -v
        else:
            acc = acc - v
            if acc.is_zero():
                del out[r]
            else:
                out[r] = acc
    return out


class GTModule:
    """One module's pattern basis and its matrices E(i,j), shared by one verdict.

    Holds the basis (enumerated once, in ascending order), the
    ``{rows: index}`` map, β's index, the square roots of the generator
    coefficients met so far, each basis pattern's weight (κ_1, ..., κ_n),
    read on first use, each row k's lowering columns ``_lowering[k]``, the
    columns of F_k, which ``operator_matrix`` computes once and reads for
    both E_k and F_k, and each generator matrix and E(i,j), built on first
    use.  Every verdict takes its module, not the partition.  Nothing is
    kept between verdicts.
    """

    def __init__(self, partition: Partition):
        self.partition = partition
        self.basis = enumerate_patterns(partition)
        self.index = {pat.rows: i for i, pat in enumerate(self.basis)}
        self.beta = self.index[highest_pattern(partition).rows]
        self.roots: dict[tuple[int, int], RadicalScalar] = {}  # reduced (num, den)
        self.shifts: dict[tuple[int, ...], list[int]] = {}  # row -> shifted entries
        self._lowering: dict[int, tuple[dict[int, RadicalScalar], ...]] = {}  # k -> F_k's cols
        self._mats: dict[tuple, OperatorMatrix] = {}  # (kind, index) or (i, j)

    @cached_property
    def weights(self) -> list[tuple[int, ...]]:
        return [weight_of(pat) for pat in self.basis]

    @cached_property
    def _structure(self) -> tuple[str | None, str | None, dict[Pair, list[int]]]:
        """``_raising_structure(self)``: the one pass over every E_k."""
        return _raising_structure(self)

    @cached_property
    def ladder_fault(self) -> str | None:
        """The first break in the weight ladder of the E_k and F_k, or None.

        Checked in order, in O(nnz): β's weight is unique to it; then for
        k = 1, ..., n−1, every entry of E_k moves ``weights`` by
        +α_k = ε_k − ε_{k+1}, and F_k = E_kᵀ, in the one pass over the E_k
        (``_raising_structure``).  The relation gate and the simplicity
        certificate both read this.
        """
        weights = self.weights
        if weights.count(weights[self.beta]) != 1:
            return "the weight of the highest pattern is not unique to it"
        return self._structure[0]

    @cached_property
    def locality_fault(self) -> str | None:
        """The first E_k that is not local, or None.

        E_k is local when every entry changes only row k of its source
        pattern, and any two columns whose patterns share rows k−1, k and
        k+1 (``rows[k-2:k+1]``) hold the same (new row k, value) pairs.
        Checked in O(nnz) for k = 1, ..., n−1, in the one pass over the E_k
        (``_raising_structure``).  The relation gate reads this.
        """
        return self._structure[1]

    @cached_property
    def lowering_positive(self) -> bool:
        """Whether every entry of every F_k is one term c·√d with c > 0.

        Each distinct entry object is checked once, keyed by ``id`` while
        the matrices hold them: on an intact module the entries are the few
        shared objects of ``roots``.  Such an entry is a positive real, so a
        sum of products of them never vanishes.  The simplicity certificate
        reads this before it decides a column's support by reachability
        alone, and ``monomials.family_rank`` before it decides a rank so.
        """
        entries = {id(v): v for k in range(1, self.partition.n)
                   for col in self.generator("lower", k).cols for v in col.values()}
        return all(len(v.terms) == 1 and next(iter(v.terms.values())) > 0
                   for v in entries.values())

    def generator(self, kind: str, index: int) -> OperatorMatrix:
        """E_k ("raise"), F_k ("lower"), H_i ("diag") or a cartan difference."""
        mat = self._mats.get((kind, index))
        if mat is None:
            spec = GeneratorSpec(kind, index)
            mat = self._mats[(kind, index)] = operator_matrix(spec, self)
        return mat

    def element(self, i: int, j: int) -> OperatorMatrix:
        """E(i,j) (i != j): E_i or F_j if adjacent, else [E(i,k), E(k,j)], k = i ± 1."""
        n = self.partition.n
        if i == j:
            raise ValueError("diagonal element requested; use diag/cartan")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("indices (%d,%d) out of range for n=%d" % (i, j, n))
        if abs(i - j) == 1:
            return self.generator("raise" if i < j else "lower", min(i, j))
        if (i, j) not in self._mats:
            k = i + 1 if i < j else i - 1
            self._mats[(i, j)] = commutator(self.element(i, k), self.element(k, j))
        return self._mats[(i, j)]


def operator_matrix(spec: GeneratorSpec, module: GTModule) -> OperatorMatrix:
    """Matrix of a generator over the ascending pattern basis of the module.

    E_k and F_k both read ``module._lowering[k]``, row k's lowering columns,
    computed on first use with ``_act`` (step −1) once per distinct
    ``rows[k-2:k+1]``.  F_k holds those columns, and E_k is their
    transpose: in the orthonormal Gelfand–Tsetlin basis F_k = E_kᵀ (which
    ``GTModule.ladder_fault`` checks), so both hold the same root objects,
    each keeps its own ``meta``, and no raising coefficient is evaluated.
    """
    spec.check_range(module.partition.n)
    k = spec.index
    if spec.kind in ("raise", "lower"):
        cols = module._lowering.get(k)
        if cols is None:
            index, roots, shifts = module.index, module.roots, module.shifts
            acts: dict[tuple, list] = {}  # rows k−1..k+1 -> _act's pairs
            cols = []
            lo = max(k - 2, 0)
            for pat in module.basis:
                rows = pat.rows
                hood = rows[lo:k + 1]
                pairs = acts.get(hood)
                if pairs is None:
                    pairs = acts[hood] = _act(rows, k, -1, roots, shifts)
                col = {}
                for row, v in pairs:
                    target = list(rows)
                    target[k - 1] = row
                    col[index[tuple(target)]] = v
                cols.append(col)
            cols = module._lowering[k] = tuple(cols)
        if spec.kind == "raise":
            cols = OperatorMatrix(cols).transpose().cols
    else:  # H_k: κ_k; cartan k: κ_k − κ_{k+1}
        cartan = spec.kind == "cartan"
        evs = [w[k - 1] - (w[k] if cartan else 0) for w in module.weights]
        scalars = {ev: _make({1: ev}, 1) for ev in set(evs) if ev}
        cols = [{c: scalars[ev]} if ev else {} for c, ev in enumerate(evs)]
    meta = (module.partition, spec.LETTERS[spec.kind], spec.index)
    return OperatorMatrix(cols, meta=meta)


def _raising_structure(module: GTModule) -> tuple[str | None, str | None, dict[Pair, list[int]]]:
    """(ladder fault, locality fault, window columns) from one pass over the E_k.

    For k = 1, ..., n−1, each entry of E_k is checked to move
    ``module.weights`` by +α_k and to change only row k of its source, and
    is looked up in F_k, by identity first and then by value; after the
    walk, F_k = E_kᵀ when every entry was found and F_k holds as many
    entries as E_k.  Each column's (new row k, value) pairs are compared
    with those of the first column of its window ``rows[k-2:k+1]``, by
    identity first and then by value.  Each fault is the first one met in
    that order, so the ladder fault of E_k comes before that of F_k = E_kᵀ.
    The first column of each ``rows[k-2:k+1]`` and ``rows[k-2:k+2]`` window
    is recorded under (k, k) and (k, k + 1), the columns at which the gate
    computes [e_k, f_k] and [e_k, f_{k+1}].  The walk stops after the first
    E_k at which both faults are known, so the windows are complete only
    when neither is.
    """
    basis, weights, n = module.basis, module.weights, module.partition.n
    rows_of = [pat.rows for pat in basis]
    ladder = locality = None
    windows: dict[Pair, list[int]] = {}
    for k in range(1, n):
        lo, first, wide, nnz, transposed = max(k - 2, 0), {}, {}, 0, True
        f = module.generator("lower", k).cols
        for c, col in enumerate(module.generator("raise", k).cols):
            rows, pairs, w = rows_of[c], {}, weights[c]
            below, above = rows[:k - 1], rows[k:]
            up = (*w[: k - 1], w[k - 1] + 1, w[k] - 1, *w[k + 1 :])
            for r, v in col.items():
                target = rows_of[r]
                if ladder is None:
                    if weights[r] != up:
                        ladder = "E_%d moves %s to %s, not one up in row %d only" % (
                            k, basis[c].to_string(), basis[r].to_string(), k)
                    elif transposed:
                        x = f[r].get(c)
                        transposed = x is v or x is not None and x == v
                if locality is None and (target[:k - 1] != below or target[k:] != above):
                    locality = "E_%d moves %s to %s, which changes a row other than %d" % (
                        k, basis[c].to_string(), basis[r].to_string(), k)
                pairs[target[k - 1]] = v
            nnz += len(col)
            seen, known = first.setdefault(rows[lo:k + 1], (c, pairs))
            if locality is None and known is not pairs and known != pairs:
                locality = "E_%d differs on %s and %s, which share rows %d to %d" % (
                    k, basis[seen].to_string(), basis[c].to_string(), lo + 1, k + 1)
            if k + 1 < n:
                wide.setdefault(rows[lo:k + 2], c)
        if ladder is None and (not transposed or nnz != sum(map(len, f))):
            ladder = "F_%d is not the transpose of E_%d" % (k, k)
        if ladder is not None and locality is not None:
            break
        windows[k, k] = [c for c, _ in first.values()]
        windows[k, k + 1] = list(wide.values())
    return ladder, locality, windows


def commutator(a: OperatorMatrix, b: OperatorMatrix, columns=None) -> OperatorMatrix:
    """A@B - B@A, exact, each column A(B e_c) - B(A e_c) summed in one dict.

    Only the columns listed in ``columns`` (all when None) are computed;
    the others are left empty, and the result keeps the full ``dim``.
    Every product is of an entry of A and an entry of B.  A memo keyed by
    the two entries' ids, A's first in both halves since the product
    commutes, computes each distinct pair once; the ids stay valid because
    both matrices hold their entries for the whole call.  A subtracted
    product that is the accumulated value itself, or equal to it,
    removes the entry without a subtraction; zeros are dropped.
    """
    _check_dims(a, b)
    acols, bcols = a.cols, b.cols
    memo: dict[tuple[int, int], RadicalScalar] = {}
    cols: list[dict[int, RadicalScalar]] = [{} for _ in acols]
    for c in range(len(acols)) if columns is None else columns:
        ac, bc = acols[c], bcols[c]
        out: dict[int, RadicalScalar] = {}
        for k, bv in bc.items():
            ib = id(bv)
            for r, av in acols[k].items():
                key = (id(av), ib)
                prod = memo.get(key)
                if prod is None:
                    prod = memo[key] = av * bv
                acc = out.get(r)
                out[r] = prod if acc is None else acc + prod
        for k, av in ac.items():
            ia = id(av)
            for r, bv in bcols[k].items():
                key = (ia, id(bv))
                prod = memo.get(key)
                if prod is None:
                    prod = memo[key] = av * bv
                acc = out.get(r)
                if acc is None:
                    out[r] = -prod
                elif acc is prod or acc == prod:
                    del out[r]
                else:
                    out[r] = acc - prod
        cols[c] = {r: v for r, v in out.items() if v.terms}
    return OperatorMatrix(cols)


def general_element(i: int, j: int, partition: Partition) -> OperatorMatrix:
    """Matrix of E_{i,j} (i != j); non-adjacent indices via nested brackets."""
    return GTModule(partition).element(i, j)


class RelationReport:
    """Outcome of verify_sln_relations: named checks with pass/fail detail."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.checks: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def __repr__(self):
        return "RelationReport(%s: %d checks, %s)" % (
            self.partition,
            len(self.checks),
            "PASS" if self.passed else "FAIL",
        )


def _first_difference(a: OperatorMatrix, b: OperatorMatrix) -> str:
    """Describe the first differing entry in row-major order, or ""."""
    positions = sorted((r, c) for r, c, _ in (a - b).nonzeros())
    if not positions:
        return ""
    r, c = positions[0]
    z = RadicalScalar.zero()
    return "first difference at (%d,%d): %s vs %s" % (
        r, c, a.cols[c].get(r, z), b.cols[c].get(r, z))


def _is_diagonal(mat: OperatorMatrix, values) -> bool:
    """Whether, for each (c, v) in values, column c of mat is v at (c, c) only.

    v is an int, and an entry equals it when its ``den`` is 1 and its
    ``terms`` are {1: v}; v = 0 asks for an empty column.
    """
    cols = mat.cols
    for c, v in values:
        col = cols[c]
        if v:
            x = col.get(c)
            if len(col) != 1 or x is None or x.den != 1 or x.terms != {1: v}:
                return False
        elif col:
            return False
    return True


@cache
def _relation_checks(n: int) -> tuple[tuple[str, Pair, Pair | None], ...]:
    """Every named check of n, in report order, as (name, p, q).

    The check is the bracket [E(p), E(q)] or, when q is None, the trace of
    E(p), or of the cartan difference H_i − H_{i+1} when p = (i, i).  Both
    paths of ``verify_sln_relations`` read it.
    """
    idx = range(1, n + 1)
    pairs = [(i, j) for i in idx for j in idx if i != j]
    brackets = [(p, (p[1], l)) for p in pairs for l in idx if l not in p]
    brackets += [(p, p[::-1]) for p in pairs]
    brackets += [(p, q) for p in pairs for q in pairs if p[1] != q[0] and p[0] != q[1]]
    checks = []
    for p, q in brackets:
        label = ("0" if p[1] != q[0] else "H(%d)-H(%d)" % p if p[0] == q[1]
                 else "E(%d,%d)" % (p[0], q[1]))
        checks.append(("[E(%d,%d),E(%d,%d)] = %s" % (*p, *q, label), p, q))
    checks += [("trace E(%d,%d) = 0" % p, p, None) for p in pairs]
    checks += [("trace cartan(%d) = 0" % i, (i, i), None) for i in range(1, n)]
    return tuple(checks)


def verify_sln_relations(module: GTModule) -> RelationReport:
    """Check the defining bracket relations on this module.

    Covers [E_{i,j}, E_{j,l}] = E_{i,l}, [E_{i,j}, E_{j,i}] = H_i - H_j,
    vanishing brackets for disjoint index pairs, zero traces of all E_{i,j},
    and zero traces of the cartan differences; every named check of
    ``_relation_checks`` is reported.  Let e_k = E(k,k+1), f_k = E(k+1,k),
    h_k = H_k − H_{k+1}.  The gate checks that every H_i is exactly
    diag(κ_i), with the weights κ of ``module.weights`` compared as ints;
    that ``module.ladder_fault`` is None, so f_k = e_kᵀ and every entry of
    e_k moves the weight by +α_k; that ``module.locality_fault`` is None;
    and that [e_k, f_l] = δ_kl h_k for l = k and l = k + 1.

    With no locality fault every e_k is local: each entry changes only row k
    of its source, and a column's (new row k, value) pairs depend only on
    rows k−1, k and k+1 of its pattern.  Then f_k = e_kᵀ is local too: the
    column of f_k at η holds the entries of e_k in row η, in the columns of
    the patterns η' that differ from η in row k alone; which rows k make
    such an η' a pattern depends only on rows k−1 and k+1 of η, and the
    column of e_k at η' only on rows k−1 and k+1 of η and the row k of η'.
    So for |k − l| ≥ 2, e_k and f_l change disjoint rows and neither reads
    the row the other changes: e_k f_l and f_l e_k take each column to the
    same patterns with the same products, and [e_k, f_l] = 0 with no
    arithmetic.  The column of [e_k, f_k] at ξ, as (new row k, value)
    pairs, and κ_k − κ_{k+1} depend only on rows k−1..k+1 of ξ, and the
    column of [e_k, f_{k+1}] only on rows k−1..k+2.  So each of the 2n − 3
    brackets is computed at one column per distinct window,
    ``rows[k-2:k+1]`` or ``rows[k-2:k+2]``, as recorded by the same pass
    over the e_k that decides both faults, by
    ``commutator(e_k, f_l, columns)``: [e_k, f_k] is compared with
    κ_k − κ_{k+1} as ints, which is h_k since every H_i was just checked
    exactly, and [e_k, f_{k+1}] with zero, so the gate subtracts no
    matrices.  Then every entry of f_k = e_kᵀ moves the weight by −α_k,
    and [e_l, f_k] = e_l e_kᵀ − e_kᵀ e_l = (e_k f_l − f_l e_k)ᵀ = [e_k, f_l]ᵀ
    = δ_kl h_k, since h_k is diagonal: so [e_k, f_l] = δ_kl h_k for all k, l.

    If every H_i is diagonal, e_k (f_k) moves the weight by +α_k (−α_k) and
    [e_k, f_l] = δ_kl h_k, then ad makes each (e_i, f_i, h_i) an sl_2-triple
    on this finite-dimensional module.  For u = [e_i, e_j] (|i−j| > 1) or
    [e_i, [e_i, e_j]] (|i−j| = 1), [f_i, u] = 0 and u has ad h_i-weight 2 or
    3, so u = 0 (Humphreys, Introduction to Lie Algebras and Representation
    Theory, §7.2, §18.1); likewise for the f's (Kac, Infinite-Dimensional
    Lie Algebras, ch. 3).  So Serre's relations hold and the matrices define
    an sl_n module (Humphreys §18.3), in which each E_{i,j} of the element
    table is the image of a matrix unit: every bracket check holds.  Every
    trace check holds too: each entry of e_k and f_k moves the weight by
    ±α_k ≠ 0, so neither has a diagonal entry; h_k = [e_k, f_k] was just
    checked exactly; every other E(i,j) is a commutator; and a commutator's
    trace is 0.  So when those checks hold, every named check is recorded
    as holding and nothing more is computed.  Otherwise each check is
    decided on its own, reading ``module.element``.
    """
    n = module.partition.n
    report = RelationReport(module.partition)
    checks = _relation_checks(n)
    element, basis, weights = module.element, module.basis, module.weights
    idx = range(1, n + 1)
    diags = {i: module.generator("diag", i) for i in idx}

    def bracket_holds(k: int, l: int) -> bool:  # [e_k, f_l] = δ_kl diag(κ_k − κ_{k+1})
        columns = module._structure[2][k, l]
        got = commutator(element(k, k + 1), element(l + 1, l), columns)
        if k == l:
            return _is_diagonal(got, [(c, weights[c][k - 1] - weights[c][k]) for c in columns])
        return got.is_zero()

    if (all(_is_diagonal(diags[i], enumerate(w[i - 1] for w in weights)) for i in idx)
            and module.ladder_fault is None and module.locality_fault is None
            and all(bracket_holds(k, l) for k in range(1, n) for l in (k, k + 1) if l < n)):
        report.checks = [(name, True, "") for name, _, _ in checks]
        return report
    zero = OperatorMatrix.zero(len(basis))

    def want(p: Pair, q: Pair) -> OperatorMatrix:
        if p[1] != q[0]:
            return zero
        if p[0] != q[1]:
            return element(p[0], q[1])
        return diags[p[0]] - diags[p[1]]

    for name, p, q in checks:
        if q is None:
            mat = element(*p) if p[0] != p[1] else diags[p[0]] - diags[p[0] + 1]
            tr = mat.trace()
            report.record(name, tr.is_zero(), "" if tr.is_zero() else str(tr))
        else:
            got, rhs = commutator(element(*p), element(*q)), want(p, q)
            ok = got == rhs
            report.record(name, ok, "" if ok else _first_difference(got, rhs))
    return report


# -- serialization -------------------------------------------------------------


def matrix_to_json(mat: OperatorMatrix) -> dict:
    """Documented schema: partition, generator, index, dim, entries."""
    if mat.meta is None:
        raise ValueError("matrix has no generator metadata to serialize")
    partition, generator, index = mat.meta
    zeros = [RadicalScalar.zero().to_json()] * mat.dim  # one [] for every zero cell
    rows = [zeros.copy() for _ in range(mat.dim)]
    for r, c, v in mat.nonzeros():
        rows[r][c] = v.to_json()
    return {
        "partition": list(partition.parts),
        "generator": generator,
        "index": index,
        "dim": mat.dim,
        "entries": rows,
    }


def matrix_from_json(data: dict) -> OperatorMatrix:
    try:
        rows, dim = data["entries"], json_int(data["dim"])
        partition = Partition.from_json(data["partition"])
        spec = GeneratorSpec.from_letter(data["generator"], json_int(data["index"]))
        spec.check_range(partition.n)
        if dim != dimension(partition):
            raise ValueError("dim %d is not the dimension of %s" % (dim, partition))
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError("entries are not a %d x %d grid" % (dim, dim))
        cols: list[dict[int, RadicalScalar]] = [{} for _ in range(dim)]
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                if cell != []:  # [] is zero; from_json reads any other cell as nonzero
                    cols[c][r] = RadicalScalar.from_json(cell)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed matrix document: %r" % (exc,)) from None
    return OperatorMatrix(cols, (partition, data["generator"], spec.index))


def matrix_market(mat: OperatorMatrix) -> str:
    """Coordinate-format text of the floating-point image.

    Every stored entry, an exact nonzero, is written; the header comment
    records the partition and generator when available.
    """
    lines = ["%%MatrixMarket matrix coordinate real general"]
    if mat.meta is not None:
        partition, generator, index = mat.meta
        lines.append("%% partition %s generator %s index %d" % (partition, generator, index))
    coords = sorted((r + 1, c + 1, v.to_float()) for r, c, v in mat.nonzeros())
    lines.append("%d %d %d" % (mat.dim, mat.dim, len(coords)))
    for r, c, x in coords:
        lines.append("%d %d %.16g" % (r, c, x))
    return "\n".join(lines) + "\n"
